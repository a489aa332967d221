"""Small graded intersection rings with exact rational-function coefficients.

Two concrete rings cover every space this package touches: the truncated
polynomial ring of projective space, and the ring of a plane blown up at
finitely many points (basis 1; e, exceptional classes; point class).
ProjRing(order) is also the one truncated power-series algebra: a
Hirzebruch series truncated at a given order is an element of it, with
the series variable as h.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import RatFuncY

__all__ = ["Ring", "RingElement", "ProjRing", "BlownPlaneRing", "exp_nilpotent"]


_ZERO = RatFuncY.ZERO


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

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __add__(self, other):
        if not isinstance(other, RingElement):
            other = self.ring.scalar(other)
        self._check(other)
        return _element(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return _element(self.ring, [-a for a in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            other = self.ring.scalar(other)
        self._check(other)
        return _element(self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            w = RatFuncY._coerce(other)
            if not w.num:
                return self.ring.zero()
            return _element(self.ring, [a * w if a.num else a
                                        for a in self.coeffs])
        self._check(other)
        out = [_ZERO] * len(self.coeffs)
        mul_basis = self.ring.mul_basis
        for i, a in enumerate(self.coeffs):
            if not a.num:
                continue
            for j, b in enumerate(other.coeffs):
                if not b.num:
                    continue
                terms = mul_basis(i, j)
                if not terms:
                    continue
                ab = a * b
                for k, m in terms:
                    out[k] = out[k] + (ab if m == 1 else ab * m)
        return _element(self.ring, out)

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


class Ring:
    """Base for graded basis rings; subclasses fill names/degrees and the
    basis multiplication table."""

    names: tuple
    degrees: tuple
    dim: int

    def mul_basis(self, i: int, j: int):
        raise NotImplementedError

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


class ProjRing(Ring):
    """Q[y, 1/(1+y)][h] / (h^{n+1}): the cohomology ring of projective n-space.
    Instances are interned per dimension so elements from independent
    call sites compare equal."""

    _cache = {}

    def __new__(cls, n: int):
        if n not in cls._cache:
            cls._cache[n] = super().__new__(cls)
        return cls._cache[n]

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("dimension must be >= 0")
        self.dim = n
        self.names = tuple("1" if k == 0 else ("h" if k == 1 else f"h^{k}")
                           for k in range(n + 1))
        self.degrees = tuple(range(n + 1))

    def mul_basis(self, i, j):
        if i + j <= self.dim:
            return ((i + j, 1),)
        return ()

    @property
    def h(self) -> RingElement:
        if self.dim < 1:
            raise ValueError("no degree-1 class on a point")
        return self.basis_element(1)


class BlownPlaneRing(Ring):
    """Intersection ring of a projective plane blown up at named points.

    Basis: 1; e (pullback of a line), one class per exceptional curve;
    pt.  Relations: e^2 = pt, eps_p * eps_q = -delta_{pq} pt, e * eps_p = 0.
    Every instance is its own ring: the classes of one surface model live
    on that model's ring, and elements of two instances do not mix.
    """

    def __init__(self, point_ids=()):
        self.point_ids = tuple(point_ids)
        self.dim = 2
        names = ["1", "e"]
        names += [f"eps_{p}" for p in self.point_ids]
        names.append("pt")
        self.names = tuple(names)
        self.degrees = tuple([0, 1] + [1] * len(self.point_ids) + [2])
        self._pt_index = len(self.names) - 1

    def mul_basis(self, i, j):
        if i > j:
            i, j = j, i
        if i == 0:
            return ((j, 1),)
        di, dj = self.degrees[i], self.degrees[j]
        if di + dj > 2:
            return ()
        # both of degree 1
        if i == 1 and j == 1:
            return ((self._pt_index, 1),)
        if i == 1:
            return ()  # e * eps = 0
        if i == j:
            return ((self._pt_index, -1),)  # eps^2 = -pt
        return ()  # distinct exceptional classes

    @property
    def e(self) -> RingElement:
        return self.basis_element(1)

    def eps(self, point_id) -> RingElement:
        return self.basis_element(2 + self.point_ids.index(point_id))

    @property
    def pt(self) -> RingElement:
        return self.basis_element(self._pt_index)


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
