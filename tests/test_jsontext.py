"""The report writer gives the text of json.dumps(value, indent=2) on every
value the reports hold, and refuses every other value."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmclass.jsontext import dumps
from hmclass.milnor import _HOLE

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)

# characters json escapes, or escapes by code point under ensure_ascii:
# quotes, backslashes, control characters, NUL, DEL, non-ASCII, the line
# separators and a lone surrogate
AWKWARD = ['"', "\\", "\0", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
           "/", "é", "π", " ", " ", "\ud800", "\U0001f600"]
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(AWKWARD)),
               max_size=12) | st.just(_HOLE)
INTS = st.integers() | st.integers(-(10 ** 300), 10 ** 300)
LEAVES = st.none() | st.booleans() | INTS | TEXT
VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=40)


@SETTINGS
@given(VALUES)
def test_matches_indented_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{}, [], [[]], {"": {}}, [{}, []],
                                   {"a": [{"b": []}]}, "", 0, -1, True,
                                   None, 10 ** 400])
def test_edge_values(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, float("nan"), [0.0], {"a": [1, {"b": 2.5}]}, Fraction(1, 2),
    (1, 2), {1, 2}, b"x", {1: "a"}, {None: 0}, {True: 0}, {"a": {2.5: 1}},
    {(1,): 0}])
def test_other_values_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps(value)
