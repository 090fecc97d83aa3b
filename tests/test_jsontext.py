"""The package's indent-2 JSON writer against ``json.dumps``."""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchpolar.jsontext import dumps, write

# quotes, backslashes, control characters, non-ASCII and astral characters
JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aZ09:,{}[]é€\u2028😀'))
JSON_SCALARS = (st.none() | st.booleans() | JSON_TEXT
                | st.integers() | st.integers(-(2 ** 200), 2 ** 200))


def json_values(leaves):
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(JSON_TEXT, inner, max_size=4)),
        max_leaves=30,
    )


JSON_VALUES = json_values(JSON_SCALARS)
INDENTS = st.integers(0, 12)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_dump_is_json_dumps_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2)
    pieces = []
    write(value, pieces.append)
    assert "".join(pieces) == json.dumps(value, indent=2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(JSON_VALUES, INDENTS)
def test_dumps_writes_for_the_depth_where_the_value_lands(value, indent):
    assert dumps(value, indent) == json.dumps(value, indent=2).replace("\n", "\n" + " " * indent)


# a leaf that stands for a callable's pieces; JSON_TEXT never draws its character
MARK = "§"


def _substitute(value, new):
    if value == MARK:
        return new
    if type(value) in (list, tuple):
        return type(value)(_substitute(item, new) for item in value)
    if type(value) is dict:
        return {key: _substitute(item, new) for key, item in value.items()}
    return value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(json_values(JSON_SCALARS | st.just(MARK)), max_size=3),
       st.lists(st.text(), max_size=4), INDENTS)
def test_a_callable_puts_its_pieces_byte_for_byte_at_any_depth(items, pieces, indent):
    value = [*items, MARK]  # one mark at depth 1 at least, the others anywhere
    expected = dumps(value, indent).replace(json.dumps(MARK), "".join(pieces))

    def put_pieces(put, newline):
        for piece in pieces:
            put(piece)

    assert dumps(_substitute(value, put_pieces), indent) == expected


def test_a_callable_writes_in_place_once_with_the_newline_of_its_depth():
    # a callable is called where it lands, after what comes before it is put
    # and before what comes after, and writes itself at its depth
    pieces, drawn = [], []

    def rows(put, newline):
        drawn.append(("".join(pieces), newline))
        for row in ("[1]", "[2]"):
            put(row)

    def nested(put, newline):
        write({"b": [True]}, put, newline)

    write({"a": 0, "rows": rows, "c": [nested]}, pieces.append)
    assert drawn == [('{\n  "a": 0,\n  "rows": ', "\n  ")]
    assert "".join(pieces) == json.dumps(
        {"a": 0, "rows": MARK, "c": [{"b": [True]}]}, indent=2).replace(json.dumps(MARK), "[1][2]")
    assert dumps(rows) == "[1][2]"


@pytest.mark.parametrize("value", [
    1.5, [1, 2.0], {"a": {"b": [float("nan")]}}, object(), {"a": {1, 2}}, b"bytes",
    {1: "int key"}, [(), {}, [1, True, None, "x", 0.0]],
])
def test_dump_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_dump_leaves_no_reference_cycle():
    # a cycle would keep the chunks of each document alive until the cyclic
    # collector runs, and raise the peak memory of a long run of queries
    gc.collect()
    gc.disable()
    try:
        dumps({"a": [1, {"b": ["c", None, True]}], "d": [], "e": lambda put, newline: put("xy")})
        assert gc.collect() == 0
    finally:
        gc.enable()
