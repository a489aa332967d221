"""Cohomology calculus on projective space and virtual hypersurface classes.

Classes are elements of the truncated ring of projective n-space and are
read homologically through the duality relabeling h^k <-> degree n-k.
The pushed virtual class of a complete intersection of degrees d_i is
Q(h)^{n+1} * prod_i R(d_i h), the truncated series read in the ring
itself with h scaled to d_i h by substitution, capped on the ambient
fundamental class.
"""

from __future__ import annotations

import functools

from .coeffs import RatFuncY
from .genera import compose_scale, hirzebruch_series
from .rings import RingElement

__all__ = [
    "MAX_AMBIENT",
    "virtual_pushed",
    "virtual_pushed_ci",
    "virtual_genus",
]

# The largest ambient dimension n whose virtual class is built.  The series
# have order n, and the cost grows about like n^5: 0.6 s at n = 32.
MAX_AMBIENT = 32


def virtual_pushed_ci(degrees, n: int) -> RingElement:
    """Pushed virtual class of a complete intersection of the given degrees
    in projective n-space: product of residue series times the ambient class
    series, capped on the fundamental class.  The coefficient of h^k sits in
    homology degree n - k.  Entries are asserted to be polynomial in y."""
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if n > MAX_AMBIENT:
        raise ValueError(
            f"ambient dimension {n} exceeds the limit {MAX_AMBIENT}")
    if any(d < 1 for d in degrees):
        raise ValueError("degrees must be positive")
    acc = hirzebruch_series("Q", n) ** (n + 1)
    r = hirzebruch_series("R", n)
    for d in degrees:
        acc = acc * compose_scale(r, d)
    for c in acc.coeffs:
        if not c.is_polynomial():
            raise AssertionError(f"virtual class coefficient {c} is not polynomial")
    return acc


@functools.lru_cache(maxsize=32)
def virtual_pushed(d: int, n: int) -> RingElement:
    """Pushed virtual class of a degree-d hypersurface in projective n-space.
    Kept per process, as the Hirzebruch series are: the degree-0 check of
    every report at one (m, n) reads the same class, and a RingElement is
    never changed in place."""
    return virtual_pushed_ci([d], n)


def virtual_genus(d: int, n: int) -> RatFuncY:
    """chi_y genus a smooth degree-d hypersurface in projective n-space
    would have: the degree-zero coefficient of the pushed virtual class."""
    return virtual_pushed(d, n).coeff(n)
