"""Exact coefficient arithmetic.

Everything downstream is exact: every rational is a pair of integers,
and no floating point occurs anywhere.  rat parses the input's rational
texts to such a pair, a numerator over a positive denominator in lowest
terms.  The one coefficient type, RatFuncY, is the ring Q[y, 1/(1+y)]: a
dense polynomial numerator in the parameter y with integer coefficients,
over one positive integer denominator and a power (1+y)^k, in the manner
of an integer-numerator rational polynomial.  The Hirzebruch series, the
Todd transformation and the (1+y)^{-k} degree scaling only ever divide
by 1 + y, so no other denominator occurs; a value is a polynomial exactly
when k == 0.  Every text of a rational, a coefficient's or a value's, is
written from its integers as str of a Fraction would write it, so no
report loads fractions; only the check harness, the tests and a few
error texts build Fractions.
"""

from __future__ import annotations

import sys
from math import gcd, lcm

__all__ = [
    "rat",
    "RatFuncY",
]

# int() and Fraction() refuse integer text of more digits than Python's
# limit with a message that differs between versions, so rat and the
# covector parser refuse it first, in one text.  The limit is read when
# the text is: 4300 by default, set per run by PYTHONINTMAXSTRDIGITS or
# -X int_max_str_digits, 0 for none, never between 1 and MIN_DIGIT_LIMIT,
# and absent before Python 3.10.7.
MIN_DIGIT_LIMIT = 640


def check_digits(count: int) -> None:
    """Raise ValueError when integer text of count digits is past Python's
    limit on integer text."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and count > limit:
        raise ValueError(f"integer text of {count} digits exceeds the limit "
                         f"of {limit} digits")


def _ascii_rational(text: str):
    """(p, q), not yet in lowest terms, of text that is an ASCII integer,
    p/q or plain decimal, each with an optional sign: the forms the input
    writes, which Fraction reads with this value.  None for any other
    text."""
    body = text[1:] if text[:1] in ("-", "+") else text
    if not body.isascii():
        return None
    num, slash, den = body.partition("/")
    if slash:
        if not (num.isdigit() and den.isdigit()):
            return None
        p, q = int(num), int(den)
    else:
        whole, _, frac = num.partition(".")
        # either part may be empty, not both
        if not (whole + frac).isdigit():
            return None
        q = 10 ** len(frac)
        p = (int(whole) * q if whole else 0) + (int(frac) if frac else 0)
    return (-p if text[:1] == "-" else p), q


def rat(value) -> tuple:
    """A rational as the pair (p, q) of integers in lowest terms, q > 0,
    from an int (not a bool), a Fraction or anything else with a numerator
    and a denominator, or a text: an integer, 'p/q' or a plain decimal,
    with an optional sign and surrounding whitespace.  Any other text is
    read by Fraction, whose error is the result.  Bad syntax, a zero
    denominator, an exponent, an underscore or a run of digits past
    Python's limit is a ValueError: Fraction reads underscores from Python
    3.11 on only, so they are refused on every version, and the digit
    limit is worded one way on all."""
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation in {value!r}")
        if "_" in value:
            raise ValueError(f"underscore in {value!r}")
        if len(value) > MIN_DIGIT_LIMIT:
            # each run of decimal digits, ASCII or not, is one integer
            runs = "".join(ch if ch.isdecimal() else " " for ch in value)
            check_digits(max(map(len, runs.split()), default=0))
        text = value.strip()
        pair = _ascii_rational(text)
        if pair is None:
            # non-ASCII digits, or no rational at all: Fraction's value,
            # or its error text
            from fractions import Fraction
            try:
                pair = Fraction(text).as_integer_ratio()
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {value!r}") from None
        p, q = pair
        if not q:
            raise ValueError(f"zero denominator in {value!r}")
        g = gcd(p, q)
        return (p // g, q // g) if g != 1 else pair
    if not isinstance(value, bool):
        try:
            return value.numerator, value.denominator
        except AttributeError:
            pass
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _div_one_plus_y(cs):
    """Quotient and remainder of an integer coefficient list by 1 + y
    (synthetic division at y = -1; exact, as 1 + y is monic)."""
    quot = [0] * (len(cs) - 1)
    acc = 0
    for i in range(len(cs) - 1, 0, -1):
        acc = cs[i] - acc
        quot[i - 1] = acc
    return quot, cs[0] - acc


def _times_one_plus_y(cs, d: int) -> list:
    """A coefficient list multiplied by (1 + y)^d."""
    cs = list(cs)
    for _ in range(d):
        cs = [a + b for a, b in zip(cs + [0], [0] + cs)]
    return cs


def _value(num: tuple, den: int, k: int) -> "RatFuncY":
    """A RatFuncY from parts already in normal form (no checks)."""
    out = object.__new__(RatFuncY)
    out.num = num
    out.den = den
    out.k = k
    return out


def ratio_text(c: int, den: int) -> str:
    """c/den as str(Fraction(c, den)) writes it, for den > 0."""
    g = gcd(c, den)
    if g == den:
        return str(c // den)
    return f"{c // g}/{den // g}"


def _scalar_hash(c: int, den: int) -> int:
    """hash(Fraction(c, den)) for c / den in lowest terms, den > 0, by the
    rule Python hashes every rational number with."""
    if den == 1:
        return hash(c)
    modulus = sys.hash_info.modulus
    if den % modulus == 0:
        h = sys.hash_info.inf
    else:
        h = hash(hash(abs(c)) * pow(den, -1, modulus))
    h = h if c >= 0 else -h
    return -2 if h == -1 else h


def _normal(num: list, den: int, k: int) -> "RatFuncY":
    """The value num / (den (1+y)^k) of an integer coefficient list, brought
    to normal form."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return RatFuncY.ZERO
    # 1 + y divides the numerator exactly when it vanishes at y = -1
    while k and len(num) > 1 and sum(num[::2]) == sum(num[1::2]):
        num = _div_one_plus_y(num)[0]
        k -= 1
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _value(tuple(num), den, k)


class RatFuncY:
    """Element of Q[y, 1/(1+y)]: an integer numerator c_0 + c_1 y + ...
    over den (1+y)^k, with den > 0.

    Normal form: trailing zeros are stripped, 1 + y is divided out of the
    numerator while k > 0 and the numerator vanishes at y = -1, and den is
    prime to the content of the numerator.  So the value is a polynomial
    exactly when k == 0, and equal values have equal (num, den, k).  The
    zero element is ((), 1, 0).  The constructor takes rational
    coefficients, ints or anything with a numerator and a denominator;
    as_strings() and coeff_text() write them back as str of a Fraction
    would, from the integers alone."""

    __slots__ = ("num", "den", "k")

    def __init__(self, coeffs=(), k: int = 0):
        if k < 0:
            raise ValueError("negative power of the denominator 1 + y")
        cs = list(coeffs)
        den = lcm(*[c.denominator for c in cs])
        value = _normal([c.numerator * (den // c.denominator) for c in cs],
                        den, k)
        self.num, self.den, self.k = value.num, value.den, value.k

    @staticmethod
    def from_ints(num, den: int = 1, k: int = 0) -> "RatFuncY":
        """num / (den (1+y)^k) for integers num[i] of y^i and den > 0."""
        return _normal(list(num), den, k)

    # -- queries ------------------------------------------------------------

    def coeff_text(self, i: int) -> str:
        """The text of the numerator coefficient of y^i, as str of a
        Fraction writes it."""
        if 0 <= i < len(self.num):
            return ratio_text(self.num[i], self.den)
        return "0"

    def is_zero(self) -> bool:
        return not self.num

    def is_polynomial(self) -> bool:
        return self.k == 0

    def as_poly(self) -> "RatFuncY":
        """Self, after checking that it is a polynomial."""
        if self.k:
            raise ValueError(f"not a polynomial: {self}")
        return self

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if other.__class__ is not RatFuncY:
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        return (self.num == other.num and self.den == other.den
                and self.k == other.k)

    def __hash__(self):
        if self.k == 0 and len(self.num) <= 1:
            # equal to that scalar, so hash alike
            return _scalar_hash(self.num[0], self.den) if self.num else 0
        return hash((self.num, self.den, self.k))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "RatFuncY":
        """A scalar (RatFuncY, int, or anything else with a numerator and a
        denominator in lowest terms, such as a Fraction) as a RatFuncY."""
        if isinstance(value, RatFuncY):
            return value
        if isinstance(value, int):
            return _value((int(value),), 1, 0) if value else RatFuncY.ZERO
        try:
            num, den = value.numerator, value.denominator
        except AttributeError:
            raise TypeError(f"cannot coerce {value!r} to RatFuncY") from None
        return _value((num,), den, 0) if num else RatFuncY.ZERO

    def __add__(self, other):
        if other.__class__ is not RatFuncY:
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        a, b, k = self.num, other.num, self.k
        if k < other.k:
            a, k = _times_one_plus_y(a, other.k - k), other.k
        elif other.k < k:
            b = _times_one_plus_y(b, k - other.k)
        den = self.den
        if den != other.den:
            den = lcm(den, other.den)
            a = [c * (den // self.den) for c in a]
            b = [c * (den // other.den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _normal(out, den, k)

    __radd__ = __add__

    def __neg__(self):
        return _value(tuple([-c for c in self.num]), self.den, self.k)

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not RatFuncY:
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        a, b = self.num, other.num
        # a zero operand makes out empty, which _normal reads as zero
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, z in enumerate(b):
                    out[i + j] += x * z
        return _normal(out, self.den * other.den, self.k + other.k)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = RatFuncY.ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "RatFuncY":
        """Inverse of a unit c (1+y)^j of the ring; anything else raises."""
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        cs, j = self.num, 0
        while len(cs) > 1:
            cs, rem = _div_one_plus_y(cs)
            if rem:
                raise ZeroDivisionError(f"{self} is not a unit c (1+y)^j")
            j += 1
        # self = (c / den) (1+y)^(j - k), so its inverse is
        # (den / c) (1+y)^(k - j)
        c, den = cs[0], self.den
        if c < 0:
            c, den = -c, -den
        return _normal(_times_one_plus_y([den], self.k), c, j)

    # -- evaluation and display ----------------------------------------------

    def value_at(self, y0) -> tuple:
        """The value at the rational y0, which rat reads, as a pair
        (numerator, denominator) of integers with a positive denominator,
        not necessarily in lowest terms."""
        p, q = rat(y0)
        if self.k and p == -q:
            raise ZeroDivisionError(f"pole at y = -1: non-polynomial value {self}")
        # Horner's rule on the integer numerator, homogenized in y0 = p/q:
        # acc = sum c_i p^i q^(d-i) for a numerator of degree d
        acc, q_pow = 0, 1
        for c in reversed(self.num):
            acc = acc * p + c * q_pow
            q_pow *= q
        # value = acc / q^d / (den ((q + p) / q)^k), where q_pow = q^(d+1)
        num = acc * q ** (self.k + 1)
        den = q_pow * self.den * (q + p) ** self.k
        return (-num, -den) if den < 0 else (num, den)

    def text_at(self, y0) -> str:
        """The text of the value at y0, as str of a Fraction writes it."""
        return ratio_text(*self.value_at(y0))

    def __call__(self, y0):
        """The value at y0 as a Fraction, for the check harness and the
        tests; the reports write text_at."""
        from fractions import Fraction
        return Fraction(*self.value_at(y0))

    def as_strings(self) -> list:
        """Coefficients of a polynomial as rational strings, each the text
        str(Fraction(c, den)) writes: the integer c / den when den divides
        c, else c/den in lowest terms."""
        den = self.as_poly().den
        if den == 1:
            return [str(c) for c in self.num]
        return [ratio_text(c, den) for c in self.num]

    def __str__(self):
        if not self.k:
            return poly_str(self)
        den = RatFuncY(_times_one_plus_y([1], self.k))
        return f"({poly_str(_value(self.num, self.den, 0))})/({poly_str(den)})"

    def __repr__(self):
        from fractions import Fraction
        coeffs = [Fraction(c, self.den) for c in self.num]
        return f"RatFuncY({coeffs!r}, {self.k})"


RatFuncY.ZERO = _value((), 1, 0)
RatFuncY.ONE = _value((1,), 1, 0)
RatFuncY.Y = _value((0, 1), 1, 0)
RatFuncY.ONE_PLUS_Y = _value((1, 1), 1, 0)


def poly_str(p: RatFuncY) -> str:
    """Human-readable form of a polynomial, like '2 - 20y + 2y^2' or
    '-1/2 + (7/2)y'."""
    if p.is_zero():
        return "0"
    pieces = []
    den = p.as_poly().den
    for k, c in enumerate(p.num):
        if c == 0:
            continue
        mag = ratio_text(abs(c), den)
        if k == 0:
            body = mag
        else:
            suffix = "y" if k == 1 else f"y^{k}"
            if abs(c) == den:
                body = suffix
            elif "/" not in mag:
                body = f"{mag}{suffix}"
            else:
                body = f"({mag}){suffix}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
