"""Hirzebruch power series.

The three generating series (the class series Q, its rescaled variant,
and the residue series R) and the Todd specialization are elements of
ProjRing(order), the series variable read as h.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .coeffs import RatFuncY
from .rings import ProjRing, RingElement, exp_nilpotent

__all__ = [
    "hirzebruch_series",
    "compose_scale",
    "verify_identity_qr",
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
    coefficient 1.  Kept per process: the inverse costs O(order^3), and a
    RingElement is never changed in place.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    ring = ProjRing(order)
    h = ring.h if order else ring.zero()
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
