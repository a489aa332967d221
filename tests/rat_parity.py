"""The rational parser rat against Fraction, on seeded texts.

``hmclass.coeffs.rat`` reads the input's ASCII integers, p/q and plain
decimals to an integer pair itself, and hands any other text to
Fraction.  It refuses an exponent, an underscore and a run of digits past
Python's limit before it reads, and words a zero denominator its own way.
For each text this module draws (signs, p/q and decimals, surrounding
whitespace, non-ASCII digits, underscores and exponents, zero
denominators, runs past the digit limit, and junk), ``main`` asserts that

- rat and the reference, Fraction(text.strip()) after rat's own
  refusals, give the same pair (numerator, denominator) in lowest terms,
  or raise the same type with the same message;
- rat reads each text of the forms it parses itself without calling
  Fraction.

Fraction's grammar and errors differ between Python versions, so this runs
on each of them, with the standard library alone:

    python -I tests/rat_parity.py
"""

import fractions
import random
import re
import sys
import types
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hmclass.coeffs import MIN_DIGIT_LIMIT, check_digits, rat  # noqa: E402

SEED = 20131202
Fraction = fractions.Fraction
# the forms rat reads without Fraction, around whitespace it strips
OWN_FORM = re.compile(r"\s*[+-]?([0-9]+/[0-9]+|[0-9]+\.?[0-9]*|\.[0-9]+)\s*")
WHITESPACE = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
              "\u2003", "\u2009", "\u3000"]
# ARABIC-INDIC, DEVANAGARI and FULLWIDTH digits, which Fraction reads, and
# SUPERSCRIPT TWO and VULGAR FRACTION ONE HALF, which it does not
DIGITS = ["\u0660", "\u0663", "\u0969", "\uff10", "\uff17", "\u00b2",
          "\u00bd"]
JUNK = ["", "-", "+", ".", "/", "--7", "+-1", "1/2/3", "1..2", "1.2.3",
        "1/-2", "1/+2", "1 /2", "1/ 2", "1 2", "0x10", "nan", "inf", "x",
        "1/2.5", ".", "-.", "./2", "1/.5", "\x00", "1\x00", "one"]


def number(rng: random.Random) -> str:
    """ASCII digits: a small or a large integer, with leading zeros at
    times."""
    text = str(rng.choice((rng.randrange(10), rng.randrange(10 ** 6),
                           rng.randrange(10 ** rng.randrange(1, 80)))))
    return "0" * rng.choice((0, 0, 0, 1, 3)) + text


def own_form(rng: random.Random) -> str:
    """A text rat reads itself: an integer, p/q or a plain decimal, each
    with an optional sign."""
    sign = rng.choice(("", "", "-", "+"))
    kind = rng.randrange(5)
    if kind == 0:
        return sign + number(rng)
    if kind == 1:
        return f"{sign}{number(rng)}/{number(rng)}"
    if kind == 2:
        return f"{sign}{number(rng)}.{number(rng)}"
    if kind == 3:
        return f"{sign}.{number(rng)}"
    return f"{sign}{number(rng)}."


def spaced(rng: random.Random, text: str) -> str:
    def pad():
        return "".join(rng.choice(WHITESPACE) for _ in range(rng.randrange(3)))

    return pad() + text + pad()


def mutate(rng: random.Random, text: str) -> str:
    """text with one character dropped, replaced or inserted."""
    i = rng.randrange(len(text) + 1)
    char = rng.choice(JUNK[:6] + DIGITS + WHITESPACE[:3] + ["e", "E", "_",
                                                            "/", ".", "9"])
    how = rng.randrange(3)
    if how == 0:
        return text[:i] + text[i + 1:]
    if how == 1:
        return text[:i] + char + text[i + 1:]
    return text[:i] + char + text[i:]


def texts(rng: random.Random) -> list:
    long = "7" * 4300
    out = ["1e5", "1E5", "2.5e-3", "1_000", "1_0/3", "0.2_5", "_1",
           "1/0", "0/0", "-5/000", " 3/0 ", "1/\u0660", "\u0663/0",
           "7" * 4301, "-" + "7" * 4301, "1/" + "7" * 4301, "0." + "7" * 4301,
           "\u0663" * 4302, long, f"{long}/{long}", f"{long}.{long}",
           "1" * 4000 + "." + "1" * 4000, " " * 700 + "1/2",
           "1/2" + "\xa0" * 700, "12" * 400 + "x", "\u0663" * 300 + "1" * 400,
           "1" * 700 + "/" + "\u0663" * 700]
    out += JUNK + DIGITS + [d + "/" + d for d in DIGITS]
    for _ in range(600):
        text = own_form(rng)
        out.append(text)
        out.append(spaced(rng, text))
        out.append(mutate(rng, text))
        out.append("".join(rng.choice(DIGITS + ["1", "/", ".", "-"])
                           for _ in range(rng.randrange(1, 6))))
        out.append("".join(rng.choice(JUNK) for _ in range(rng.randrange(1, 4))))
    return out


def reference(value):
    """What rat gives, by Fraction: its refusals of an exponent, an
    underscore and a run past the digit limit, then Fraction of the
    stripped text, with a zero denominator in rat's words."""
    if not isinstance(value, str):
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot interpret {value!r} as a rational")
        return Fraction(value).as_integer_ratio()
    if "e" in value or "E" in value:
        raise ValueError(f"exponent notation in {value!r}")
    if "_" in value:
        raise ValueError(f"underscore in {value!r}")
    if len(value) > MIN_DIGIT_LIMIT:
        check_digits(max(map(len, re.findall(r"\d+", value)), default=0))
    try:
        return Fraction(value.strip()).as_integer_ratio()
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def outcome(parse, value):
    """("value", type, pair) or ("error", type, message)."""
    try:
        pair = parse(value)
        return ("value", type(pair), tuple(map(type, pair)), pair)
    except (TypeError, ValueError) as exc:
        return ("error", type(exc), str(exc))


def main() -> int:
    drawn = texts(random.Random(SEED))
    values = [0, -7, 10 ** 50, True, False, Fraction(-3, 4), Fraction(5),
              0.5, None, b"1", [1]]
    # rat imports Fraction when it calls it; this stand-in for the
    # fractions module counts the calls, and leaves the module itself,
    # whose methods read its own Fraction, as it is
    calls = []
    counting = types.ModuleType("fractions")
    counting.Fraction = lambda *args: calls.append(args) or Fraction(*args)

    read = own = refused = 0
    for value in drawn + values:
        expected = outcome(reference, value)
        calls.clear()
        sys.modules["fractions"] = counting
        try:
            got = outcome(rat, value)
        finally:
            sys.modules["fractions"] = fractions
        assert got == expected, (repr(value)[:80], repr(got)[:200],
                                 repr(expected)[:200])
        if isinstance(value, str) and OWN_FORM.fullmatch(value) is not None:
            own += 1
            assert not calls, ("read by Fraction", value[:80])
        if expected[0] == "value":
            read += 1
        else:
            refused += 1
    assert read and refused and own
    print(f"{len(drawn) + len(values)} values on Python "
          f"{sys.version.split()[0]}: {read} pairs equal Fraction's, {own} "
          f"texts read without it; {refused} errors of the reference's type "
          f"and text")
    return 0


if __name__ == "__main__":
    sys.exit(main())
