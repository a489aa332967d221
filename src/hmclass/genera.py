"""Hirzebruch power series.

The three generating series (the class series Q, its rescaled variant,
and the residue series R) and the Todd specialization are truncated
power series in h: the tuple of their order + 1 RatFuncY coefficients
of h^0, ..., h^order.
"""

from __future__ import annotations

from math import factorial

from .coeffs import RatFuncY

__all__ = [
    "hirzebruch_series",
    "mul",
    "compose_scale",
    "verify_identity_qr",
]

_ONE_PLUS_Y = RatFuncY.ONE_PLUS_Y
_Y = RatFuncY.Y


def mul(a: tuple, b: tuple) -> tuple:
    """The product of two series of one order, truncated at that order."""
    out = [a[0] * x for x in b]
    for i in range(1, len(a)):
        if a[i]:
            for j in range(len(a) - i):
                out[i + j] = out[i + j] + a[i] * b[j]
    return tuple(out)


def compose_scale(s: tuple, factor) -> tuple:
    """Substitute h -> factor * h: coefficient k picks up factor^k."""
    out, f = [], RatFuncY.ONE
    for c in s:
        out.append(c * f)
        f = f * factor
    return tuple(out)


def _inverse(s: tuple) -> tuple:
    """Inverse of a series whose constant term is a unit c (1+y)^j, by the
    coefficient recursion b_0 = 1/a_0, b_k = -b_0 sum_{i=1..k} a_i b_{k-i}."""
    inv0 = s[0].inverse()
    out = [inv0]
    for k in range(1, len(s)):
        acc = RatFuncY.ZERO
        for i in range(1, k + 1):
            acc = acc + s[i] * out[k - i]
        out.append(-acc * inv0)
    return tuple(out)


def _todd_series(order: int) -> tuple:
    # h / (1 - e^{-h}) = 1 / sum_k (-h)^k / (k+1)!
    return _inverse(tuple(RatFuncY.from_ints([(-1) ** k], factorial(k + 1))
                          for k in range(order + 1)))


# how many values a per-process store keeps
KEPT = 32


def recall(kept: dict, args: tuple, make):
    """make(*args), kept in the dict kept by args for the KEPT most lately
    read args: a dict keeps its order of insertion, so a value read is
    moved to the end, and the first one is the one to drop."""
    value = kept.pop(args, None)
    if value is None:
        value = make(*args)
        if len(kept) >= KEPT:
            del kept[next(iter(kept))]
    kept[args] = value
    return value


_SERIES = {}


def hirzebruch_series(kind: str, order: int) -> tuple:
    """Exact truncated expansion of the requested generating series, as the
    tuple of its coefficients of h^0, ..., h^order.

    Q and Qtilde have constant term 1; R vanishes at 0 with linear
    coefficient 1.  Kept per process, for the KEPT most lately read
    arguments: the inverse and each product cost O(order^2) coefficient
    products, and a tuple is never changed in place.
    """
    return recall(_SERIES, (kind, order), _series)


def _series(kind: str, order: int) -> tuple:
    """hirzebruch_series, computed."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if kind == "Q":
        q = list(compose_scale(_todd_series(order), _ONE_PLUS_Y))
        if order:
            q[1] = q[1] - _Y
        return tuple(q)
    exp = tuple(RatFuncY.from_ints([1], factorial(k))  # e^h
                for k in range(order + 1))
    if kind == "Qtilde":
        factor = [c * _Y for c in compose_scale(exp, -1)]
        factor[0] = factor[0] + 1
        return mul(tuple(factor), _todd_series(order))
    if kind == "R":
        exp_u = compose_scale(exp, _ONE_PLUS_Y)
        rest = exp_u[1:]
        return mul((RatFuncY.ZERO, *rest), _inverse((exp_u[0] + _Y, *rest)))
    raise ValueError(f"unknown series kind {kind!r}")


def verify_identity_qr(order: int) -> dict:
    """Check the two defining relations among the series to a given order:
    Q(a) = (1+y)^{-1} Qtilde(a(1+y)) and Q(a) * R(a) = a."""
    q = hirzebruch_series("Q", order)
    qt = hirzebruch_series("Qtilde", order)
    r = hirzebruch_series("R", order)
    rescale_ok = (tuple(c * _ONE_PLUS_Y for c in q)
                  == compose_scale(qt, _ONE_PLUS_Y))
    alpha = [RatFuncY.ZERO] * (order + 1)
    if order:
        alpha[1] = RatFuncY.ONE
    product_ok = (mul(q, r) == tuple(alpha))
    return {"ok": rescale_ok and product_ok,
            "rescale_ok": rescale_ok,
            "product_ok": product_ok,
            "order": order}
