"""The report writer gives the text of json.dumps(value, indent=2) on every
value the reports hold, and refuses every other value; a skeleton at any
depth, cut at its holes, whose pieces are interleaved with the texts of
values at the holes' depths gives the text of the filled value, and a
skeleton whose holes and fills differ in number is refused."""

import json
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmclass.jsontext import HOLE, dumps, parts, splice

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)

# characters json escapes, or escapes by code point under ensure_ascii:
# quotes, backslashes, control characters, NUL, DEL, non-ASCII, the line
# separators and a lone surrogate; and "%", which a %-template would read
AWKWARD = ['"', "\\", "\0", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
           "/", "é", "π", " ", " ", "\ud800", "\U0001f600", "%"]
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(AWKWARD)),
               max_size=12) | st.just(HOLE)
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


def _fill(value, depth: int, holes: list, draw):
    """value with each HOLE replaced, in the order dumps writes them, by a
    drawn value; holes gets each drawn value with its depth."""
    if isinstance(value, dict):
        return {k: _fill(v, depth + 1, holes, draw) for k, v in value.items()}
    if isinstance(value, list):
        return [_fill(v, depth + 1, holes, draw) for v in value]
    if value == HOLE:
        sub = draw()
        holes.append((sub, depth))
        return sub
    return value


# skeletons whose holes are values only: a key that is a hole would need
# a key's text as its fill
SKELETONS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(TEXT.filter(lambda k: k != HOLE), inner,
                                     max_size=5)),
    max_leaves=40)


@settings(SETTINGS, max_examples=150)
@given(SKELETONS, st.integers(0, 3), st.data())
def test_filled_skeleton_matches_json_dumps(skeleton, depth, data):
    # each fill is the text of a value at its hole's depth; a string that
    # renders like a hole, such as '"' followed by NUL, makes the counts
    # differ, and splice refuses before any text.  The pieces of the
    # skeleton at a depth, interleaved with the fills, are the text of the
    # filled value at that depth, each line after the first indented by
    # two spaces per level
    def indented(value):
        return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)

    holes = []
    filled = _fill(skeleton, depth, holes, lambda: data.draw(VALUES))
    texts = [dumps(sub, at) for sub, at in holes]
    pieces = parts(skeleton, depth)
    assert dumps(HOLE).join(pieces) == indented(skeleton)
    if len(pieces) != len(holes) + 1:
        with pytest.raises(ValueError):
            splice(skeleton, texts)
    else:
        assert "".join(chain.from_iterable(zip(pieces, texts))
                       ) + pieces[-1] == indented(filled)
        top = [dumps(sub, at - depth) for sub, at in holes]
        assert "".join(splice(skeleton, top)) == json.dumps(filled,
                                                            indent=2)


@pytest.mark.parametrize("skeleton, fills", [
    ([HOLE, HOLE], ["1"]),
    ({"a": HOLE}, ["1", "2"]),
    ([], ["1"]),
    ({"a": '"\0', "b": HOLE}, ["1"]),
])
def test_splice_refuses_unequal_counts_before_any_text(skeleton, fills):
    rendered = []

    def render(fill):
        rendered.append(fill)
        return fill

    with pytest.raises(ValueError):
        splice(skeleton, fills)
    with pytest.raises(ValueError):
        splice(skeleton, map(render, fills), len(fills))
    assert rendered == []


@pytest.mark.parametrize("fills", [["2"], ["2", "3", "4"]])
def test_splice_refuses_an_iterator_of_another_length(fills):
    with pytest.raises(ValueError):
        "".join(splice([HOLE, HOLE], iter(fills), 2))


def test_splice_renders_each_fill_as_its_chunk_is_read():
    rendered = []

    def render(fill):
        rendered.append(fill)
        return str(fill)

    chunks = splice({"a": [HOLE, 1], "b": HOLE}, map(render, [2, 3]), 2)
    assert rendered == []
    assert "".join(chunks) == json.dumps({"a": [2, 1], "b": 3}, indent=2)
    assert rendered == [2, 3]
