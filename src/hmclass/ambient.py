"""Virtual hypersurface classes on projective space.

Classes are truncated series in the hyperplane class h, the tuple of
their coefficients of h^0, ..., h^n, and are read homologically through
the duality relabeling h^k <-> degree n-k.  The pushed virtual class of
a hypersurface of degree d is Q(h)^{n+1} * R(d h), with h scaled to d h
in the residue series by substitution, capped on the ambient fundamental
class.
"""

from __future__ import annotations

from .coeffs import RatFuncY
from .genera import compose_scale, hirzebruch_series, mul, recall

__all__ = [
    "MAX_AMBIENT",
    "virtual_pushed",
    "virtual_genus",
]

# The largest ambient dimension n whose virtual class is built.  The series
# have order n, and the cost grows about like n^5: 0.5 s at n = 32 with
# Python 3.11 on a shared 2-vCPU Intel Xeon host.
MAX_AMBIENT = 32


_PUSHED = {}


def virtual_pushed(d: int, n: int) -> tuple:
    """Pushed virtual class of a degree-d hypersurface in projective
    n-space: the ambient class series to the power n + 1 times the residue
    series at d h, capped on the fundamental class.  The coefficient of h^k
    sits in homology degree n - k.  Entries are asserted to be polynomial
    in y.  Kept per process, as the Hirzebruch series are: the degree-0
    check of every report at one (m, n) reads the same class, and a tuple
    is never changed in place."""
    return recall(_PUSHED, (d, n), _pushed)


def _pushed(d: int, n: int) -> tuple:
    """virtual_pushed, computed."""
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    if n > MAX_AMBIENT:
        raise ValueError(
            f"ambient dimension {n} exceeds the limit {MAX_AMBIENT}")
    if d < 1:
        raise ValueError("degrees must be positive")
    q = hirzebruch_series("Q", n)
    acc = compose_scale(hirzebruch_series("R", n), d)
    for _ in range(n + 1):
        acc = mul(acc, q)
    for c in acc:
        if not c.is_polynomial():
            raise AssertionError(f"virtual class coefficient {c} is not polynomial")
    return acc


def virtual_genus(d: int, n: int) -> RatFuncY:
    """chi_y genus a smooth degree-d hypersurface in projective n-space
    would have: the degree-zero coefficient of the pushed virtual class."""
    return virtual_pushed(d, n)[n]
