"""Cohomology calculus on projective space and virtual hypersurface classes.

Classes live in the truncated ring of projective n-space and are read
homologically through the duality relabeling h^k <-> degree n-k.  The
pushed virtual class of a degree-d hypersurface is the residue-series
product capped on the ambient fundamental class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffs import RatFuncY, rat
from .genera import class_from_roots
from .rings import ProjRing, Ring, RingElement

__all__ = [
    "GradedClass",
    "virtual_pushed",
    "virtual_pushed_ci",
    "virtual_genus",
    "specialize",
]


@dataclass(frozen=True)
class GradedClass:
    """Homology-graded class: a ring element read through duality, so the
    cohomological degree-j part sits in homology degree dim - j."""

    ring: Ring
    elem: RingElement

    @property
    def dim(self) -> int:
        return self.ring.dim

    def part(self, k: int) -> RingElement:
        """Homology degree-k part, as a ring element."""
        return self.elem.graded_part(self.dim - k)

    def trace(self) -> RatFuncY:
        """Degree-zero coefficient (the point coefficient)."""
        for i, d in enumerate(self.ring.degrees):
            if d == self.dim:
                return self.elem.coeff(i)
        raise ValueError("ring has no top-degree basis class")

    def __add__(self, other: "GradedClass"):
        if self.ring is not other.ring:
            raise ValueError("graded classes on different rings")
        return GradedClass(self.ring, self.elem + other.elem)

    def __mul__(self, scalar):
        return GradedClass(self.ring, self.elem * scalar)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.ring is other.ring and self.elem == other.elem

    def is_zero(self) -> bool:
        return self.elem.is_zero()

    def to_json(self) -> dict:
        out = {}
        for k in range(self.dim + 1):
            part = self.part(k)
            if isinstance(self.ring, ProjRing):
                c = part.coeff(self.dim - k)
                if not c.is_zero():
                    out[str(k)] = c.as_poly().as_strings()
            else:
                named = {self.ring.names[i]: c.as_poly().as_strings()
                         for i, c in enumerate(part.coeffs) if not c.is_zero()}
                if named:
                    out[str(k)] = named
        return out


def virtual_pushed_ci(degrees, n: int) -> GradedClass:
    """Pushed virtual class of a complete intersection of the given degrees
    in projective n-space: product of residue series times the ambient class
    series, capped on the fundamental class.  Entries are asserted to be
    polynomial in y."""
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    ring = ProjRing(n)
    acc = (class_from_roots(ring, [ring.h] * (n + 1), "Q")
           * class_from_roots(ring, [ring.h * d for d in degrees], "R"))
    for c in acc.coeffs:
        if not c.is_polynomial():
            raise AssertionError(f"virtual class coefficient {c} is not polynomial")
    return GradedClass(ring, acc)


def virtual_pushed(d: int, n: int) -> GradedClass:
    """Pushed virtual class of a degree-d hypersurface in projective n-space."""
    return virtual_pushed_ci([d], n)


def virtual_genus(d: int, n: int) -> RatFuncY:
    """chi_y genus a smooth degree-d hypersurface in projective n-space
    would have: the degree-zero coefficient of the pushed virtual class."""
    return virtual_pushed(d, n).trace().as_poly()


def specialize(gc: GradedClass, y0) -> GradedClass:
    """Entrywise evaluation at a rational y0.  Raises on a pole (the class
    would not be polynomial there)."""
    y0 = rat(y0)

    def ev(c: RatFuncY) -> RatFuncY:
        try:
            return RatFuncY._coerce(c(y0))
        except ZeroDivisionError:
            raise ZeroDivisionError(f"non-polynomial class: pole at y = {y0}")

    return GradedClass(gc.ring, gc.elem.map_coeffs(ev))
