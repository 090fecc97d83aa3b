"""The package's indent-2 JSON writer."""

from json.encoder import encode_basestring_ascii


def dumps(value, indent: int = 0) -> str:
    """The text that ``write`` puts for ``value``, joined, with ``indent``
    more spaces after every newline; ``dumps(x.to_json)`` is the text that a
    streaming writer puts."""
    chunks = []
    write(value, chunks.append, "\n" + " " * indent)
    return "".join(chunks)


def write(value, put, newline: str = "\n") -> None:
    """Put the standard library's indent-2 JSON text of ``value``, byte for
    byte, piece by piece through ``put``, with ``newline`` ending every line,
    for dicts with str keys, lists, tuples, strs, ints, bools, None and
    callables, which are called as ``value(put, newline)`` to write their own
    text where they land; any other type raises TypeError.  The standard
    library runs its pure-Python encoder whenever ``indent`` is set, so this
    writes the text directly."""
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
            write(item, put, inner)
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
            write(item, put, inner)
            sep = "," + inner
        put(newline + "}")
    elif callable(value):
        value(put, newline)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
