"""Indented JSON text for the reports.

dumps(value) is the text of json.dumps(value, indent=2) for the values the
reports hold: dicts with str keys, lists, str, int, bool and None.  Any
other value, a float or a non-str key among them, raises TypeError.
json.dumps writes indented text with its pure-Python encoder, which walks
every value through a chain of generators; this writer appends the pieces
to one list and renders each string with the C routine that encoder
calls, encode_basestring_ascii.

A report whose parts repeat is written as a skeleton with holes:
parts(value, depth) is the text of dumps(value, depth) cut at each HOLE,
and splice(value, fills) fills each hole with a text rendered elsewhere,
such as dumps of a repeated part at its depth, rendered once however
often it occurs.  No other module writes JSON punctuation or indents,
but MilnorReport.json_chunks re-indents depth-1 pieces for depth 2.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii

__all__ = ["HOLE", "dumps", "parts", "splice"]

HOLE = "\0"  # a value whose text is rendered elsewhere
_HOLE_TEXT = encode_basestring_ascii(HOLE)


def dumps(value, depth: int = 0) -> str:
    """The text of json.dumps(value, indent=2), as it stands where value
    sits depth levels deep in an enclosing value: every line after the
    first is indented by 2 * depth more spaces."""
    out = []
    _write(value, "\n" + "  " * depth, out.append)
    return "".join(out)


def parts(value, depth: int = 0) -> list:
    """The text of dumps(value, depth) cut at each HOLE: one more piece
    than value holds holes, unless a string that renders like a hole, such
    as '"' followed by NUL, cuts the text too."""
    return dumps(value, depth).split(_HOLE_TEXT)


def splice(value, fills, count: int = None):
    """The text of dumps(value) as an iterator of chunks, with the i-th
    HOLE in the text's order replaced by the i-th text of fills.  fills is
    a sequence of texts, or an iterator of count texts, such as a map that
    renders each text as its chunk is read, so that a long report streams.
    A fill must be the text of a value at the hole's depth for the result
    to be that of the filled value.  Unless the text holds exactly that
    many holes, raises ValueError, so a string that renders like a hole
    can never shift the text; an iterator that ends early or runs on
    raises ValueError when it is read."""
    if count is None:
        count = len(fills)
    pieces = parts(value)
    if len(pieces) != count + 1:
        raise ValueError(f"a skeleton with {len(pieces) - 1} holes "
                         f"for {count} fills")
    return chain.from_iterable(zip(pieces, chain(fills, ("",)), strict=True))


def _leaf(value) -> str:
    """The text of a str, int, bool or None."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


def _write(value, newline: str, put):
    """Append the text of value, whose closing bracket goes after newline
    (a newline and the indent of the line holding value's opening)."""
    if isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{type(key).__name__}")
            put(sep)
            put(encode_basestring_ascii(key))
            put(": ")
            kind = type(item)
            if kind is str:
                put(encode_basestring_ascii(item))
            elif kind is int:
                put(int.__repr__(item))
            elif kind is bool:
                put("true" if item else "false")
            else:
                _write(item, inner, put)
            sep = comma
        put(newline + "}")
    elif isinstance(value, list):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            put(sep)
            kind = type(item)
            if kind is str:
                put(encode_basestring_ascii(item))
            elif kind is int:
                put(int.__repr__(item))
            else:
                _write(item, inner, put)
            sep = comma
        put(newline + "]")
    else:
        put(_leaf(value))
