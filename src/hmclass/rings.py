"""The truncated graded ring of projective space, with exact
rational-function coefficients.

ProjRing(n), Q[y, 1/(1+y)][h] / (h^{n+1}), is the one truncated
power-series algebra: a Hirzebruch series truncated at a given order is
a RingElement of it, with the series variable as h, and so is a virtual
class.  The classes of a stratum model are plain integer vectors in the
model basis, never RingElements; combine sums them, and a surface pairs
its degree-1 classes by their signed dot product (milnor).
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import RatFuncY

__all__ = ["RingElement", "ProjRing", "combine", "exp_nilpotent"]


_ZERO = RatFuncY.ZERO


def combine(size: int, const: int, terms) -> tuple:
    """const + sum of c v over (c, v) pairs of integer vectors of one size."""
    out = [0] * size
    out[0] = const
    for c, v in terms:
        if c:
            for i, x in enumerate(v):
                out[i] += c * x
    return tuple(out)


def _element(ring, coeffs: list) -> "RingElement":
    """A RingElement from a full list of RatFuncY coefficients (no checks)."""
    out = object.__new__(RingElement)
    out.ring = ring
    out.coeffs = tuple(coeffs)
    return out


class RingElement:
    """Element of a graded basis ring; coefficients are RatFuncY."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        cs = tuple(RatFuncY._coerce(c) for c in coeffs)
        if len(cs) != len(ring.names):
            raise ValueError("coefficient vector does not match ring basis")
        self.ring = ring
        self.coeffs = cs

    def _check(self, other: "RingElement"):
        if self.ring is not other.ring:
            raise ValueError("elements live in different rings")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def coeff(self, index: int) -> RatFuncY:
        return self.coeffs[index]

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, RingElement):
            other = self.ring.scalar(other)
        self._check(other)
        return _element(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return _element(self.ring, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            w = RatFuncY._coerce(other)
            return _element(self.ring, [a * w for a in self.coeffs])
        self._check(other)
        return _element(self.ring, self.ring.mul_vectors(self.coeffs,
                                                         other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a ring element")
        result = self.ring.one()
        base = self
        for _ in range(n):
            result = result * base
        return result

    def inverse(self) -> "RingElement":
        """Inverse of an element with invertible degree-0 part (geometric series
        in the nilpotent remainder)."""
        a0 = self.coeffs[0]
        if a0.is_zero():
            raise ZeroDivisionError("ring element with zero constant term")
        lead = self.ring.scalar(a0)
        nil = lead - self  # zero constant term
        inv0 = a0.inverse()
        acc = self.ring.one()
        term = self.ring.one()
        for _ in range(self.ring.dim):
            term = term * nil * inv0
            acc = acc + term
        return acc * inv0

    def __repr__(self):
        parts = [f"{c}*{n}" for c, n in zip(self.coeffs, self.ring.names) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


class ProjRing:
    """Q[y, 1/(1+y)][h] / (h^{n+1}): the cohomology ring of projective n-space.
    Instances are interned per dimension, each validated and built once,
    so elements from independent call sites compare equal."""

    _cache = {}

    def __new__(cls, n: int):
        ring = cls._cache.get(n)
        if ring is None:
            if n < 0:
                raise ValueError("dimension must be >= 0")
            ring = cls._cache[n] = super().__new__(cls)
            ring.dim = n
            ring.names = tuple("1" if k == 0 else ("h" if k == 1 else f"h^{k}")
                               for k in range(n + 1))
        return ring

    def zero(self) -> RingElement:
        return _element(self, [_ZERO] * len(self.names))

    def one(self) -> RingElement:
        return self.scalar(1)

    def scalar(self, value) -> RingElement:
        coeffs = [_ZERO] * len(self.names)
        coeffs[0] = RatFuncY._coerce(value)
        return _element(self, coeffs)

    def basis_element(self, index: int) -> RingElement:
        coeffs = [_ZERO] * len(self.names)
        coeffs[index] = RatFuncY.ONE
        return _element(self, coeffs)

    def mul_vectors(self, a, b) -> list:
        """The truncated convolution of two vectors in the basis h^k."""
        n = self.dim
        out = [a[0] * x for x in b]
        for i in range(1, n + 1):
            if a[i]:
                for j in range(n + 1 - i):
                    out[i + j] = out[i + j] + a[i] * b[j]
        return out

    @property
    def h(self) -> RingElement:
        if self.dim < 1:
            raise ValueError("no degree-1 class on a point")
        return self.basis_element(1)


def exp_nilpotent(x: RingElement) -> RingElement:
    """exp of a ring element with zero degree-0 part, truncated by nilpotency."""
    if not x.coeffs[0].is_zero():
        raise ValueError("exp_nilpotent requires zero constant term")
    ring = x.ring
    acc = ring.one()
    term = ring.one()
    fact = 1
    for k in range(1, ring.dim + 1):
        term = term * x
        fact *= k
        if term.is_zero():
            break
        acc = acc + term * Fraction(1, fact)
    return acc
