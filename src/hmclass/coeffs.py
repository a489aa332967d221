"""Exact coefficient arithmetic.

Everything downstream is built on arbitrary-precision rationals.  The one
coefficient type, RatFuncY, is the ring Q[y, 1/(1+y)]: a dense polynomial
numerator in the parameter y over a power (1+y)^k.  The Hirzebruch series,
the Todd transformation and the (1+y)^{-k} degree scaling only ever divide
by 1 + y, so no other denominator occurs; a value is a polynomial exactly
when k == 0.  Truncated power series in a formal nilpotent variable (used
for Chern-root expansions) carry RatFuncY coefficients.  No floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "rat",
    "RatFuncY",
    "SeriesA",
]


def rat(value) -> Fraction:
    """Parse a rational from an int (not a bool), Fraction, or 'p/q'
    string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _div_one_plus_y(cs: list):
    """Quotient and remainder of a coefficient list by 1 + y (synthetic
    division at y = -1)."""
    quot = [Fraction(0)] * (len(cs) - 1)
    acc = Fraction(0)
    for i in range(len(cs) - 1, 0, -1):
        acc = cs[i] - acc
        quot[i - 1] = acc
    return quot, cs[0] - acc


def _times_one_plus_y(cs: list, d: int) -> list:
    """A coefficient list multiplied by (1 + y)^d."""
    for _ in range(d):
        cs = [a + b for a, b in zip(cs + [Fraction(0)], [Fraction(0)] + cs)]
    return cs


class RatFuncY:
    """Element of Q[y, 1/(1+y)]: a polynomial numerator c_0 + c_1 y + ...
    over (1+y)^k.

    Normal form: trailing zeros are stripped, and 1 + y is divided out of
    the numerator while k > 0 and the numerator vanishes at y = -1.  So the
    value is a polynomial exactly when k == 0, and equal values have equal
    (coeffs, k).  The zero element has an empty coefficient tuple."""

    __slots__ = ("coeffs", "k")

    def __init__(self, coeffs=(), k: int = 0):
        if k < 0:
            raise ValueError("negative power of the denominator 1 + y")
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        while k and cs:
            quot, rem = _div_one_plus_y(cs)
            if rem:
                break
            cs, k = quot, k - 1
        self.coeffs = tuple(cs)
        self.k = k if cs else 0

    # -- queries ------------------------------------------------------------

    def coeff(self, i: int) -> Fraction:
        """Numerator coefficient of y^i."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_polynomial(self) -> bool:
        return self.k == 0

    def as_poly(self) -> "RatFuncY":
        """Self, after checking that it is a polynomial."""
        if self.k:
            raise ValueError(f"not a polynomial: {self}")
        return self

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs and self.k == other.k

    def __hash__(self):
        if self.k == 0 and len(self.coeffs) <= 1:
            return hash(self.coeff(0))  # equal to that scalar, so hash alike
        return hash((self.coeffs, self.k))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "RatFuncY":
        """A scalar (RatFuncY, int or Fraction) as a RatFuncY."""
        if isinstance(value, RatFuncY):
            return value
        if isinstance(value, (int, Fraction)):
            return RatFuncY((value,))
        raise TypeError(f"cannot coerce {value!r} to RatFuncY")

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = list(self.coeffs), list(other.coeffs)
        if self.k < other.k:
            a = _times_one_plus_y(a, other.k - self.k)
        elif other.k < self.k:
            b = _times_one_plus_y(b, self.k - other.k)
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return RatFuncY(a, max(self.k, other.k))

    __radd__ = __add__

    def __neg__(self):
        return RatFuncY([-c for c in self.coeffs], self.k)

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return RatFuncY.ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatFuncY(out, self.k + other.k)

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
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero")
        cs, j = list(self.coeffs), 0
        while len(cs) > 1:
            cs, rem = _div_one_plus_y(cs)
            if rem:
                raise ZeroDivisionError(f"{self} is not a unit c (1+y)^j")
            j += 1
        return RatFuncY(_times_one_plus_y([1 / cs[0]], self.k), j)

    # -- evaluation and display ----------------------------------------------

    def __call__(self, y0) -> Fraction:
        y0 = rat(y0)
        if self.k and y0 == -1:
            raise ZeroDivisionError(f"pole at y = {y0}: non-polynomial value {self}")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * y0 + c
        return acc / (1 + y0) ** self.k

    def as_strings(self) -> list:
        """Coefficients of a polynomial as rational strings."""
        return [str(c) for c in self.as_poly().coeffs]

    def __str__(self):
        if not self.k:
            return poly_str(self)
        den = RatFuncY(_times_one_plus_y([Fraction(1)], self.k))
        return f"({poly_str(RatFuncY(self.coeffs))})/({poly_str(den)})"

    def __repr__(self):
        return f"RatFuncY({list(self.coeffs)!r}, {self.k})"


RatFuncY.ZERO = RatFuncY()
RatFuncY.ONE = RatFuncY([1])
RatFuncY.Y = RatFuncY([0, 1])
RatFuncY.ONE_PLUS_Y = RatFuncY([1, 1])


def poly_str(p: RatFuncY, var: str = "y") -> str:
    """Human-readable form of a polynomial, like '2 - 20y + 2y^2' or
    '-1/2 + (7/2)y'."""
    if p.is_zero():
        return "0"
    pieces = []
    for k, c in enumerate(p.as_poly().coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            suffix = var if k == 1 else f"{var}^{k}"
            if mag == 1:
                body = suffix
            elif mag.denominator == 1:
                body = f"{mag}{suffix}"
            else:
                body = f"({mag}){suffix}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


class SeriesA:
    """Truncated power series in a formal nilpotent variable with RatFuncY
    coefficients.  The coefficient list always has length order + 1."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        cs = [RatFuncY._coerce(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(cs) < order + 1:
            cs.extend([RatFuncY.ZERO] * (order + 1 - len(cs)))
        elif len(cs) > order + 1:
            cs = cs[: order + 1]
        self.coeffs = tuple(cs)
        self.order = order

    def coeff(self, k: int) -> RatFuncY:
        if 0 <= k <= self.order:
            return self.coeffs[k]
        return RatFuncY.ZERO

    def __eq__(self, other):
        if not isinstance(other, SeriesA):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def _check_order(self, other: "SeriesA"):
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other: "SeriesA"):
        self._check_order(other)
        return SeriesA([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __neg__(self):
        return SeriesA([-a for a in self.coeffs], self.order)

    def __sub__(self, other: "SeriesA"):
        self._check_order(other)
        return SeriesA([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __mul__(self, other):
        if not isinstance(other, SeriesA):
            w = RatFuncY._coerce(other)
            return SeriesA([a * w for a in self.coeffs], self.order)
        self._check_order(other)
        out = [RatFuncY.ZERO] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return SeriesA(out, self.order)

    __rmul__ = __mul__

    def invert(self) -> "SeriesA":
        """Multiplicative inverse; requires an invertible constant term."""
        a0 = self.coeffs[0]
        if a0.is_zero():
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv0 = a0.inverse()
        out = [inv0] + [RatFuncY.ZERO] * self.order
        for k in range(1, self.order + 1):
            acc = RatFuncY.ZERO
            for i in range(1, k + 1):
                if not self.coeffs[i].is_zero():
                    acc = acc + self.coeffs[i] * out[k - i]
            out[k] = -inv0 * acc
        return SeriesA(out, self.order)

    def compose_scale(self, factor) -> "SeriesA":
        """Substitute alpha -> factor * alpha: coefficient k picks up factor^k."""
        factor = RatFuncY._coerce(factor)
        out, f = [], RatFuncY.ONE
        for c in self.coeffs:
            out.append(c * f)
            f = f * factor
        return SeriesA(out, self.order)

    def eval_y(self, y0) -> list:
        """Coefficient-wise evaluation at a rational y0."""
        return [c(y0) for c in self.coeffs]

    def __repr__(self):
        return f"SeriesA({[str(c) for c in self.coeffs]}, order={self.order})"
