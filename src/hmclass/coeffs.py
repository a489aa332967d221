"""Exact coefficient arithmetic.

Everything downstream is built on arbitrary-precision rationals: dense
univariate polynomials in the parameter y, normalized rational functions
in y, and truncated power series in a formal nilpotent variable (used
for Chern-root expansions).  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

__all__ = [
    "Rational",
    "rat",
    "rat_str",
    "PolyY",
    "RatFuncY",
    "SeriesA",
]


def rat(value) -> Fraction:
    """Parse a rational from an int, Fraction, or 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(value: Fraction) -> str:
    """Serialize a rational as 'p/q', or 'p' when the denominator is 1."""
    return str(value)


class PolyY:
    """Dense polynomial in y over Q.  Trailing zeros are stripped; the zero
    polynomial has an empty coefficient tuple and degree -1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyY([other])
        if not isinstance(other, PolyY):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "PolyY":
        if isinstance(value, PolyY):
            return value
        if isinstance(value, (int, Fraction)):
            return PolyY([value])
        raise TypeError(f"cannot coerce {value!r} to PolyY")

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyY([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return PolyY([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return PolyY()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyY(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = PolyY([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        quot = [Fraction(0)] * max(len(rem) - len(den) + 1, 0)
        lead = den[-1]
        for k in range(len(rem) - len(den), -1, -1):
            c = rem[k + len(den) - 1] / lead
            quot[k] = c
            if c:
                for i, d in enumerate(den):
                    rem[k + i] -= c * d
        return PolyY(quot), PolyY(rem)

    def exact_div(self, other) -> "PolyY":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "PolyY":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return PolyY([c / lead for c in self.coeffs])

    @staticmethod
    def gcd(a: "PolyY", b: "PolyY") -> "PolyY":
        """Monic gcd by the Euclidean algorithm over Q[y]."""
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        return a.monic()

    # -- evaluation and display --------------------------------------------

    def __call__(self, y0) -> Fraction:
        y0 = rat(y0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * y0 + c
        return acc

    def as_strings(self) -> list:
        return [rat_str(c) for c in self.coeffs]

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"PolyY({list(self.coeffs)!r})"


PolyY.ZERO = PolyY()
PolyY.ONE = PolyY([1])
PolyY.Y = PolyY([0, 1])
PolyY.ONE_PLUS_Y = PolyY([1, 1])


def poly_str(p: PolyY, var: str = "y") -> str:
    """Human-readable form like '2 - 20y + 2y^2' or '-1/2 + (7/2)y'."""
    if p.is_zero():
        return "0"
    pieces = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = rat_str(mag)
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


class RatFuncY:
    """Rational function in y, stored as num/den with den monic and
    gcd(num, den) = 1.  The zero element is 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=PolyY.ONE):
        num = PolyY._coerce(num)
        den = PolyY._coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = PolyY.ZERO, PolyY.ONE
        else:
            g = PolyY.gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.coeffs[-1]
            if lead != 1:
                num = num * (1 / lead)
                den = den.monic()
        self.num = num
        self.den = den

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == PolyY.ONE

    def as_poly(self) -> PolyY:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, RatFuncY):
            return value
        if isinstance(value, (int, Fraction, PolyY)):
            return RatFuncY(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFuncY(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFuncY(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFuncY(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFuncY(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFuncY(self.den, self.num) ** (-n)
        return RatFuncY(self.num ** n, self.den ** n)

    def inverse(self) -> "RatFuncY":
        return RatFuncY(1) / self

    # -- evaluation and display ----------------------------------------------

    def __call__(self, y0) -> Fraction:
        y0 = rat(y0)
        d = self.den(y0)
        if d == 0:
            raise ZeroDivisionError(f"pole at y = {y0}: non-polynomial value {self}")
        return self.num(y0) / d

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFuncY({self.num!r}, {self.den!r})"


RatFuncY.ZERO = RatFuncY(0)
RatFuncY.ONE = RatFuncY(1)
RatFuncY.Y = RatFuncY(PolyY.Y)
RatFuncY.ONE_PLUS_Y = RatFuncY(PolyY.ONE_PLUS_Y)


class SeriesA:
    """Truncated power series in a formal nilpotent variable with RatFuncY
    coefficients.  The coefficient list always has length order + 1."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        cs = [c if isinstance(c, RatFuncY) else RatFuncY(c) for c in coeffs]
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
        if isinstance(other, (int, Fraction, PolyY, RatFuncY)):
            w = other if isinstance(other, RatFuncY) else RatFuncY(other)
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
        factor = factor if isinstance(factor, RatFuncY) else RatFuncY(factor)
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
