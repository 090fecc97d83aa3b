"""The package's indent-2 JSON writer."""

from json.encoder import encode_basestring_ascii


class Written(tuple):
    """Text pieces already written for their place; ``dumps`` puts them as they are."""
    __slots__ = ()


def dumps(value, indent: int = 0) -> str:
    """The standard library's indent-2 JSON text of ``value``, byte for
    byte, with ``indent`` more spaces after every newline, for dicts with str
    keys, lists, tuples, strs, ints, bools, None and ``Written`` pieces; any
    other type raises TypeError.  The standard library runs its pure-Python
    encoder whenever ``indent`` is set, so this writes the text directly."""
    chunks = []
    _write_json(value, "\n" + " " * indent, chunks.append)
    return "".join(chunks)


def _write_json(value, newline: str, put) -> None:
    # a module-level function, not a closure: a closure that calls itself is
    # a reference cycle, and would keep every chunk alive until the cyclic
    # garbage collector runs
    kind = type(value)
    if kind is str:
        put(encode_basestring_ascii(value))
    elif kind is int:
        put(int.__repr__(value))
    elif value is None:
        put("null")
    elif kind is bool:
        put("true" if value else "false")
    elif kind is list or kind is tuple:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif kind is dict:
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, put)
            sep = "," + inner
        put(newline + "}")
    elif kind is Written:
        for piece in value:
            put(piece)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
