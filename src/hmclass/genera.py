"""Hirzebruch power series and characteristic-class calculus from Chern data.

The three generating series (the class series Q, its rescaled variant,
and the residue series R) and the Todd specialization are elements of
ProjRing(order), the series variable read as h; Chern characters and
Todd classes are built from Chern data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import RatFuncY
from .rings import ProjRing, Ring, RingElement, exp_nilpotent

__all__ = [
    "ChernData",
    "hirzebruch_series",
    "compose_scale",
    "verify_identity_qr",
    "chern_to_ch",
    "todd_from_chern",
]

_ONE_PLUS_Y = RatFuncY.ONE_PLUS_Y
_Y = RatFuncY.Y


def compose_scale(s: RingElement, factor) -> RingElement:
    """Substitute alpha -> factor * alpha: coefficient k picks up factor^k."""
    out, f = [], RatFuncY.ONE
    for c in s.coeffs:
        out.append(c * f)
        f = f * factor
    return RingElement(s.ring, out)


def _todd_series(order: int) -> RingElement:
    # x / (1 - e^{-x}) = 1 / sum_k (-x)^k / (k+1)!
    fact = 1
    g = []
    for k in range(order + 1):
        fact *= k + 1
        g.append(Fraction((-1) ** k, fact))
    return RingElement(ProjRing(order), g).inverse()


@functools.lru_cache(maxsize=32)
def hirzebruch_series(kind: str, order: int) -> RingElement:
    """Exact truncated expansion of the requested generating series, as an
    element of ProjRing(order).

    Q and Qtilde have constant term 1; R vanishes at 0 with linear
    coefficient 1; Todd is Q specialized at y = 0.  Kept per process: the
    inverse costs O(order^3), and a RingElement is never changed in place.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    ring = ProjRing(order)
    h = ring.h if order else ring.zero()
    if kind == "Todd":
        return _todd_series(order)
    if kind == "Q":
        return compose_scale(_todd_series(order), _ONE_PLUS_Y) - h * _Y
    if kind == "Qtilde":
        return (exp_nilpotent(-h) * _Y + 1) * _todd_series(order)
    if kind == "R":
        exp_u = exp_nilpotent(h * _ONE_PLUS_Y)
        return (exp_u - 1) * (exp_u + _Y).inverse()
    raise ValueError(f"unknown series kind {kind!r}")


def verify_identity_qr(order: int) -> dict:
    """Check the two defining relations among the series to a given order:
    Q(a) = (1+y)^{-1} Qtilde(a(1+y)) and Q(a) * R(a) = a."""
    q = hirzebruch_series("Q", order)
    qt = hirzebruch_series("Qtilde", order)
    r = hirzebruch_series("R", order)
    rescale_ok = (q * _ONE_PLUS_Y == compose_scale(qt, _ONE_PLUS_Y))
    alpha = q.ring.h if order >= 1 else q.ring.zero()
    product_ok = (q * r == alpha)
    return {"ok": rescale_ok and product_ok,
            "rescale_ok": rescale_ok,
            "product_ok": product_ok,
            "order": order}


@dataclass(frozen=True)
class ChernData:
    """A K-theory class presented by rank and Chern classes c_1..c_dim
    (ring elements of pure degree)."""

    rank: int
    chern: tuple

    def __post_init__(self):
        object.__setattr__(self, "chern", tuple(self.chern))
        for i, c in enumerate(self.chern, start=1):
            if isinstance(c, RingElement) and c.graded_part(i) != c:
                raise ValueError(f"Chern entry {i} is not of pure degree {i}")

    def c(self, i: int) -> RingElement:
        return self.chern[i - 1]


def _power_sums(cd: ChernData, ring: Ring) -> list:
    """Newton's identities: power sums of the Chern roots up to ring.dim."""
    d = ring.dim
    e = [ring.one()] + [cd.chern[i] if i < len(cd.chern) else ring.zero()
                        for i in range(d)]
    p = [ring.scalar(cd.rank)]
    for k in range(1, d + 1):
        acc = ring.zero()
        for i in range(1, k):
            acc = acc + e[i] * p[k - i] * ((-1) ** (i - 1))
        acc = acc + e[k] * (((-1) ** (k - 1)) * k)
        p.append(acc)
    return p


def chern_to_ch(cd: ChernData, ring: Ring) -> RingElement:
    """Chern character from Chern data: rank + sum of power sums / k!."""
    p = _power_sums(cd, ring)
    acc = ring.scalar(cd.rank)
    fact = 1
    for k in range(1, ring.dim + 1):
        fact *= k
        acc = acc + p[k] * Fraction(1, fact)
    return acc


def todd_from_chern(cd: ChernData, ring: Ring) -> RingElement:
    """Todd class from Chern data, valid through degree 2."""
    if ring.dim > 2:
        raise ValueError("todd_from_chern implemented through degree 2 only")
    acc = ring.one()
    if ring.dim >= 1:
        c1 = cd.c(1)
        acc = acc + c1 * Fraction(1, 2)
    if ring.dim == 2:
        acc = acc + (c1 * c1 + cd.c(2)) * Fraction(1, 12)
    return acc
