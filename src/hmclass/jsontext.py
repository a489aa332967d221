"""Indented JSON text for the reports.

dumps(value) is the text of json.dumps(value, indent=2) for the values the
reports hold: dicts with str keys, lists, str, int, bool and None.  Any
other value, a float or a non-str key among them, raises TypeError.
json.dumps writes indented text with its pure-Python encoder, which walks
every value through a chain of generators; this writer appends the pieces
to one list and renders each string with the C routine that encoder
calls, encode_basestring_ascii.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

__all__ = ["dumps"]


def dumps(value) -> str:
    """The text of json.dumps(value, indent=2)."""
    out = []
    _write(value, "\n", out.append)
    return "".join(out)


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
        sep = "{" + inner
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
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, list):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            kind = type(item)
            if kind is str:
                put(encode_basestring_ascii(item))
            elif kind is int:
                put(int.__repr__(item))
            else:
                _write(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    else:
        put(_leaf(value))
