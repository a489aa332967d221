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

reader(parse_int) gives the input loaders a function that reads JSON text
as json.loads does, with the C scanner json.loads itself runs, so that no
well-formed input loads the json package.  Its one second path is for
text the scanner does not accept: that text is read again by json.loads,
whose error, or value, is the result, so that every malformed-JSON text
is json's own.  Both the writer and the reader take CPython's _json
accelerator, or json's own routines on an interpreter without it.
"""

from __future__ import annotations

from itertools import chain
from types import SimpleNamespace

try:
    from _json import encode_basestring_ascii, make_scanner
except ImportError:  # an interpreter without CPython's accelerator
    from json.encoder import encode_basestring_ascii
    from json.scanner import make_scanner

__all__ = ["HOLE", "dumps", "parts", "reader", "splice"]

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


# JSON's whitespace, which json.loads skips before and after a value
_SPACE = " \t\n\r"
# the constants json.loads reads, as its decoder gives them
_CONSTANTS = {"-Infinity": float("-inf"), "Infinity": float("inf"),
              "NaN": float("nan")}


def reader(parse_int):
    """A function that reads a JSON text as json.loads(text,
    parse_int=parse_int) does: its value, or json's own error.

    The text goes to the C scanner of json's decoder, with the context
    that decoder gives it (strict strings, no hooks, floats for fractions
    and exponents, NaN and the infinities for their constants) and
    parse_int for the text of each integer.  The value is accepted when
    nothing but JSON whitespace surrounds it.  Any other outcome, such as
    trailing data, a byte order mark, an empty text or a RecursionError,
    is the one second path: the text is read again by json.loads, which
    raises its own error.  An exception parse_int raises, other than a
    JSON error, is not one: it propagates as it is, since json would read
    the text no further either."""
    scan = make_scanner(SimpleNamespace(
        strict=True, object_hook=None, object_pairs_hook=None,
        parse_float=float, parse_int=parse_int,
        parse_constant=_CONSTANTS.__getitem__, memo={}))

    def loads(text: str):
        # the scanner reads a value at the index it is given, and refuses
        # whitespace there
        start = len(text) - len(text.lstrip(_SPACE))
        try:
            value, end = scan(text, start)
            if not text[end:].lstrip(_SPACE):
                return value
        except (StopIteration, RecursionError, SystemError, ValueError) as exc:
            # a JSONDecodeError is a ValueError; before Python 3.12 the
            # scanner raises SystemError in its place unless json.decoder
            # is loaded
            from json import JSONDecodeError
            if (isinstance(exc, ValueError)
                    and not isinstance(exc, JSONDecodeError)):
                raise  # parse_int's own refusal
        import json  # only text the scanner does not accept reaches json
        return json.loads(text, parse_int=parse_int)

    return loads


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
