"""The input loaders' JSON reader against json.loads, on seeded texts.

``hmclass.jsontext.reader`` reads JSON text with the C scanner json.loads
runs, and reads again with json.loads only text the scanner does not
accept.  For each text this module draws (valid JSON in several layouts,
whitespace around it, trailing data, byte order marks, NaN and the
infinities, deep nesting, integers past Python's digit limit and junk),
``main`` asserts that

- whenever json.loads reads a value, the reader gives an equal value,
  without calling json.loads;
- whenever json.loads raises, the reader raises the same type with the
  same message;

once with int for the integers and once with the loaders' own reader,
which refuses integer text past the digit limit.  The C scanner's errors
differ between Python versions, so this runs on each of them, with the
standard library alone:

    python -I tests/json_parity.py
"""

import json
import random
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hmclass import arrangement  # noqa: E402
from hmclass.jsontext import reader  # noqa: E402

SEED = 20131201
SPACE = " \t\n\r"
# characters JSON does not count as whitespace, though str.isspace does
NOT_SPACE = ["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
JUNK = ['"', "'", "{", "}", "[", "]", ":", ",", "-", "+", ".", "e", "E",
        "0", "1", "9", "a", "x", "\\", "\\u12", "\\ud800", "tru", "nul",
        "NaN", "Infinity", "-Infinity", "nan", "inf", "\x00", "\x1f", "\xe9",
        "\U0001f600", "\ufeff", "/", "#", " "]


def value(rng: random.Random, depth: int = 0):
    """A JSON-able value: nested up to four levels, with strings that need
    escapes, ints of both signs and up to 60 digits, and floats."""
    kinds = ["int", "float", "str", "const"]
    if depth < 4:
        kinds += ["list", "dict"] * 2
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.choice((-1, 1)) * rng.randrange(10 ** rng.randrange(1, 60))
    if kind == "float":
        return rng.choice((0.0, -0.0, 1.5, -2.25e-7, 1e300, 3.141592653589793,
                           rng.uniform(-1e6, 1e6)))
    if kind == "str":
        return "".join(rng.choice('ab"\\/\n\t\x01\xe9\u2028\U0001f600 ')
                       for _ in range(rng.randrange(8)))
    if kind == "const":
        return rng.choice((True, False, None))
    if kind == "list":
        return [value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {rng.choice(("n", "hyperplanes", "coeffs", "mult", "", "k\xe9")):
            value(rng, depth + 1) for _ in range(rng.randrange(4))}


def layout(rng: random.Random, data) -> str:
    """json.dumps of data in a drawn layout: compact, spaced or indented,
    ASCII or not."""
    separators = rng.choice((None, (",", ":"), (" , ", " : ")))
    return json.dumps(data, ensure_ascii=rng.random() < 0.5,
                      indent=rng.choice((None, None, 0, 1, 2, "\t")),
                      separators=separators)


def spaces(rng: random.Random) -> str:
    return "".join(rng.choice(SPACE) for _ in range(rng.randrange(4)))


def mutate(rng: random.Random, text: str) -> str:
    """text with one character dropped, replaced or inserted, or cut."""
    i = rng.randrange(len(text) + 1)
    how = rng.randrange(4)
    if how == 0:
        return text[:i] + text[i + 1:]
    if how == 1:
        return text[:i] + rng.choice(JUNK) + text[i + 1:]
    if how == 2:
        return text[:i] + rng.choice(JUNK) + text[i:]
    return text[:i]


def texts(rng: random.Random) -> list:
    out = ["", " ", "\n", "{}", "[]", '""', "0", "-0", "1.0", "NaN",
           "-Infinity", "[NaN, Infinity, -Infinity]", '{"a": NaN}',
           "\ufeff{}", "\ufeff", "{} {}", "[1] x", "1 2", "01", "-", "1e",
           "[1,]", '{"a":1,}', '{"a" 1}', '"\\ud800"', '"\x01"', "[" * 30,
           "[" * 100_000, "[" * 40 + "]" * 40, '{"a":' * 40 + "1" + "}" * 40,
           "1" * 5000, "-" + "9" * 5000, "[" + "1" * 4301 + ", x", "1" * 4300,
           '{"n": 2, "hyperplanes": [{"coeffs": [%s], "mult": 1}]}'
           % ("7" * 5000), "1" * 4300 + ".5", "1e" + "9" * 5000]
    for _ in range(400):
        text = layout(rng, value(rng))
        out.append(text)
        out.append(spaces(rng) + text + spaces(rng))
        out.append(rng.choice(NOT_SPACE) + text)
        out.append(text + rng.choice(NOT_SPACE))
        out.append(text + spaces(rng) + rng.choice(JUNK + ["{}", "1", "[]"]))
        out.append(rng.choice(("\ufeff", "\ufeff ", " \ufeff")) + text)
        out.append(mutate(rng, text))
        out.append("".join(rng.choice(JUNK)
                           for _ in range(rng.randrange(1, 8))))
    return out


def canonical(data):
    """data with each value tagged by its type, so that 1, 1.0 and True
    differ, NaN equals NaN and -0.0 differs from 0.0."""
    if isinstance(data, dict):
        return ("dict", [(k, canonical(v)) for k, v in data.items()])
    if isinstance(data, list):
        return ("list", [canonical(v) for v in data])
    if isinstance(data, float):
        return ("float", repr(data))
    return (type(data).__name__, data)


def outcome(read, text: str):
    """("value", canonical value) or ("error", type, message)."""
    try:
        return ("value", canonical(read(text)))
    except (ValueError, RecursionError) as exc:
        return ("error", type(exc), str(exc))


def main() -> int:
    drawn = texts(random.Random(SEED))
    plain_loads = json.loads
    fallbacks = []

    def counted_loads(*args, **kwargs):
        fallbacks.append(args[0])
        return plain_loads(*args, **kwargs)

    read = {"int": reader(int), "_json_int": arrangement._read}
    parse = {"int": int, "_json_int": arrangement._json_int}
    accepted = refused = 0
    json.loads = counted_loads
    try:
        for text in drawn:
            for name in read:
                expected = outcome(
                    lambda t: plain_loads(t, parse_int=parse[name]), text)
                fallbacks.clear()
                got = outcome(read[name], text)
                assert got == expected, (name, text[:80], got, expected)
                if expected[0] == "value":
                    accepted += 1
                    assert not fallbacks, ("read by json.loads", text[:80])
                else:
                    refused += 1
    finally:
        json.loads = plain_loads
    assert accepted and refused
    print(f"{len(drawn)} texts on Python {sys.version.split()[0]}, each read "
          f"with two integer readers: {accepted} values equal json.loads's, "
          f"none read by it; {refused} errors of json.loads's type and text")
    return 0


if __name__ == "__main__":
    sys.exit(main())
