"""Hirzebruch power series and characteristic-class calculus from Chern roots.

The three generating series (the class series Q, its rescaled variant,
and the residue series R), the Todd specialization, classes built as
products over Chern roots, and the K-theoretic lambda_y operation
represented through Chern-character data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffs import PolyY, RatFuncY, SeriesA
from .rings import Ring, RingElement, exp_nilpotent

__all__ = [
    "HIRZEBRUCH_KINDS",
    "ChernData",
    "hirzebruch_series",
    "verify_identity_qr",
    "class_from_roots",
    "chern_to_ch",
    "todd_from_chern",
    "lambda_y",
    "lambda_y_virtual",
]

HIRZEBRUCH_KINDS = ("Q", "Qtilde", "R", "Todd")

_ONE_PLUS_Y = RatFuncY.ONE_PLUS_Y
_Y = RatFuncY.Y


def _todd_series(order: int) -> SeriesA:
    # x / (1 - e^{-x}) = 1 / sum_k (-x)^k / (k+1)!
    fact = 1
    g = []
    for k in range(order + 1):
        fact *= k + 1
        g.append(Fraction((-1) ** k, fact))
    return SeriesA(g, order).invert()


def _exp_series(order: int, sign: int = 1) -> SeriesA:
    fact = 1
    cs = [Fraction(1)]
    for k in range(1, order + 1):
        fact *= k
        cs.append(Fraction(sign ** k, fact))
    return SeriesA(cs, order)


def hirzebruch_series(kind: str, order: int) -> SeriesA:
    """Exact truncated expansion of the requested generating series.

    Q and Qtilde have constant term 1; R vanishes at 0 with linear
    coefficient 1; Todd is Q specialized at y = 0.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if kind == "Todd":
        return _todd_series(order)
    if kind == "Q":
        scaled = _todd_series(order).compose_scale(_ONE_PLUS_Y)
        coeffs = list(scaled.coeffs)
        if order >= 1:
            coeffs[1] = coeffs[1] - _Y
        return SeriesA(coeffs, order)
    if kind == "Qtilde":
        one = SeriesA([1], order)
        factor = one + _exp_series(order, sign=-1) * _Y
        return factor * _todd_series(order)
    if kind == "R":
        exp_u = _exp_series(order).compose_scale(_ONE_PLUS_Y)
        one = SeriesA([1], order)
        num = exp_u - one
        den = exp_u + one * _Y
        return num * den.invert()
    raise ValueError(f"unknown series kind {kind!r}")


def verify_identity_qr(order: int) -> dict:
    """Check the two defining relations among the series to a given order:
    Q(a) = (1+y)^{-1} Qtilde(a(1+y)) and Q(a) * R(a) = a."""
    q = hirzebruch_series("Q", order)
    qt = hirzebruch_series("Qtilde", order)
    r = hirzebruch_series("R", order)
    rescale_ok = (q * _ONE_PLUS_Y == qt.compose_scale(_ONE_PLUS_Y))
    alpha = SeriesA([0, 1] if order >= 1 else [0], order)
    product_ok = (q * r == alpha)
    return {"ok": rescale_ok and product_ok,
            "rescale_ok": rescale_ok,
            "product_ok": product_ok,
            "order": order}


def class_from_roots(ring: Ring, roots, kind: str) -> RingElement:
    """Product over Chern roots of the chosen series, truncated by the ring.

    Roots must be degree-1 ring elements; an empty root list gives 1.
    """
    series = hirzebruch_series(kind, ring.dim)
    result = ring.one()
    for root in roots:
        value = ring.zero()
        power = ring.one()
        for k in range(ring.dim + 1):
            c = series.coeff(k)
            if not c.is_zero():
                value = value + power * c
            power = power * root
            if power.is_zero():
                break
        result = result * value
    return result


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

    @property
    def ring(self):
        if not self.chern:
            raise ValueError("point-ring Chern data has no ring reference")
        return self.chern[0].ring


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


def chern_to_ch(cd: ChernData, ring: Ring = None) -> RingElement:
    """Chern character from Chern data: rank + sum of power sums / k!."""
    if ring is None:
        ring = cd.ring
    p = _power_sums(cd, ring)
    acc = ring.scalar(cd.rank)
    fact = 1
    for k in range(1, ring.dim + 1):
        fact *= k
        acc = acc + p[k] * Fraction(1, fact)
    return acc


def todd_from_chern(cd: ChernData, ring: Ring = None) -> RingElement:
    """Todd class from Chern data, valid through degree 3."""
    if ring is None:
        ring = cd.ring
    if ring.dim > 3:
        raise ValueError("todd_from_chern implemented through degree 3 only")
    d = ring.dim
    c1 = cd.chern[0] if d >= 1 else ring.zero()
    acc = ring.one()
    if d >= 1:
        acc = acc + c1 * Fraction(1, 2)
    if d >= 2:
        c2 = cd.chern[1]
        acc = acc + (c1 * c1 + c2) * Fraction(1, 12)
    if d >= 3:
        c2 = cd.chern[1]
        acc = acc + c1 * c2 * Fraction(1, 24)
    return acc


def _exp_minus_one_powers(dim: int) -> list:
    """Coefficient tables of (e^x - 1)^j for j = 0..dim, truncated at x^dim."""
    base = [Fraction(0)] + [Fraction(1, _factorial(k)) for k in range(1, dim + 1)]
    powers = [[Fraction(1)] + [Fraction(0)] * dim]
    current = list(powers[0])
    for _ in range(dim):
        nxt = [Fraction(0)] * (dim + 1)
        for i, a in enumerate(current):
            if a == 0:
                continue
            for j in range(dim + 1 - i):
                if base[j]:
                    nxt[i + j] += a * base[j]
        powers.append(nxt)
        current = nxt
    return powers


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def lambda_y(cd: ChernData, ring: Ring = None) -> RingElement:
    """Chern character of the lambda_y class of a bundle.

    For Chern roots x_i this is prod_i (1 + y e^{x_i}), evaluated exactly
    as (1+y)^rank * exp(sum_j (-1)^{j+1} u^j s_j / j) with u = y/(1+y) and
    s_j the symmetric functions sum_i (e^{x_i} - 1)^j.  Coefficients are
    rational functions in y; for honest bundles they are polynomials.
    """
    if ring is None:
        ring = cd.ring
    d = ring.dim
    p = _power_sums(cd, ring)
    tables = _exp_minus_one_powers(d)
    u = RatFuncY(PolyY.Y, PolyY.ONE_PLUS_Y)
    log_term = ring.zero()
    u_pow = RatFuncY.ONE
    for j in range(1, d + 1):
        u_pow = u_pow * u
        s_j = ring.zero()
        for k in range(j, d + 1):
            if tables[j][k]:
                s_j = s_j + p[k] * tables[j][k]
        if not s_j.is_zero():
            log_term = log_term + s_j * (u_pow * Fraction((-1) ** (j + 1), j))
    scale = RatFuncY(PolyY.ONE_PLUS_Y) ** cd.rank
    return exp_nilpotent(log_term) * scale


def lambda_y_virtual(numerator: ChernData, denominator: ChernData,
                     ring: Ring = None) -> RingElement:
    """lambda_y of a virtual difference of bundles: the exact quotient
    lambda_y(numerator) / lambda_y(denominator), truncated by nilpotency."""
    if ring is None:
        ring = numerator.ring
    num = lambda_y(numerator, ring)
    den = lambda_y(denominator, ring)
    if den.coeffs[0].is_zero():
        raise ZeroDivisionError("lambda_y denominator has no invertible rank part")
    return num * den.inverse()
