"""Independent oracles used by the tests.

Everything here must stay independent of the code paths it checks:
sympy closed-form expansions for series coefficients, brute-force subset
enumeration for intersection lattices, the primitive form of an integer
vector by its content and first nonzero entry, inclusion-exclusion
counts, the K-theoretic lambda_y route to Hirzebruch classes, the
Chern-integral route to the Euler number of a smooth hypersurface, the
inverse of the spectrum frame shift, the coefficient recursion for the
inverse of a truncated power series, the product over Chern roots of a
Hirzebruch series evaluated root by root, the dense dict of a Milnor
report for json.dumps, the Euler-number defect of a divisor against
a smooth hypersurface of its degree, the Hirzebruch class of the reduced
divisor by additivity over the lattice, and the Whitney-polynomial route to
each edge's Euler number and chi_y, with a Mobius function from a
pairwise inclusion test over edges found by filtering, and the product
of ring classes by the basis multiplication table.  The rings live here,
for the package keeps none: ProjRing(n), the truncated graded ring of
projective n-space, and its RingElements, with exp_nilpotent, since a
Hirzebruch series of the package is the plain tuple of its coefficients
and RingElement(ProjRing(order), series) reads one as a class.  The ring
of each stratum model, model_ring, is built here too: ProjRing on a point
or a line, and on a surface BlownPlaneRing, the intersection ring of a
blown-up plane, since a surface pairs its degree-1 classes by a signed
dot product.  The Newton-identity
route from Chern data to Chern characters and Todd classes, and the
scaled Todd transformation of RingElements, check the integer forms of
12 td and 2 ch(Omega^q(log D)) on each stratum model; the Chern path
built from those RingElements checks the lattice's closed form.  The
ring path multiplies those integer forms with the summed Deligne classes
in each model's ring, exceptional curves included, and pushes the result
basis class by basis class: it checks the closed forms in y that
assembly reads.  The per-exponent route to a stratum's contribution,
with one Deligne-extension class per exponent summed over the boundary
one component at a time and the power of each exponent picked in the
window's own range, checks them too.  The sparse-vector sums, scalings
and polynomiality test that the package itself never needs live here
too, and so do user tables that put a stratum's whole signed mass at
exponent 1 or spread it over random exponents, the rows of a spectra
report built one stratum at a time, and the input JSON of an
arrangement.
"""

import math
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import sympy

from hmclass.ambient import virtual_genus
from hmclass.arrangement import (Edge, chi_y_pn,
                                 euler_by_inclusion_exclusion, localize,
                                 milnor_fiber_chi, sigma_strata)
from hmclass.coeffs import RatFuncY, ratio_text
from hmclass.genera import _todd_series, hirzebruch_series
from hmclass.milnor import _segments, _twist_slopes
from hmclass.spectra import (Spectrum, SpectrumError, classify_germ, sp_shift,
                             sp_user_load, sp_validate, stratum_germ,
                             stratum_spectrum)
from hmclass.strata import (EXT_HALF_OPEN_UP, StrataError, build_labels,
                            combine, compactify)


def series_coeffs(expr, var, order):
    """Exact Taylor coefficients of a sympy expression around 0."""
    poly = sympy.series(expr, var, 0, order + 1).removeO()
    out = []
    for k in range(order + 1):
        c = poly.coeff(var, k)
        out.append(Fraction(str(sympy.nsimplify(c))) if c != 0 else Fraction(0))
    return out


def todd_series_oracle(order):
    """Coefficients of x / (1 - exp(-x))."""
    x = sympy.symbols("x")
    return series_coeffs(x / (1 - sympy.exp(-x)), x, order)


def tanh_quotient_oracle(order):
    """Coefficients of x / tanh(x)."""
    x = sympy.symbols("x")
    return series_coeffs(x / sympy.tanh(x), x, order)


def q_series_oracle(order):
    """Coefficients of the two-variable class series as coefficient lists
    of polynomials in y, expanded symbolically: a(1+y)/(1 - exp(-a(1+y))) - a*y."""
    a, y = sympy.symbols("a y")
    expr = a * (1 + y) / (1 - sympy.exp(-a * (1 + y))) - a * y
    poly = sympy.series(expr, a, 0, order + 1).removeO()
    out = []
    for k in range(order + 1):
        c = sympy.expand(sympy.cancel(poly.coeff(a, k)))
        pc = sympy.Poly(c, y) if c != 0 else None
        if pc is None:
            out.append([])
        else:
            coeffs = [Fraction(str(v)) for v in reversed(pc.all_coeffs())]
            out.append(coeffs)
    return out


def poly_division_oracle(num_coeffs, den_coeffs):
    """Exact univariate polynomial quotient via sympy."""
    y = sympy.symbols("y")
    num = sum(sympy.Rational(str(c)) * y ** k for k, c in enumerate(num_coeffs))
    den = sum(sympy.Rational(str(c)) * y ** k for k, c in enumerate(den_coeffs))
    q, r = sympy.div(num, den, y)
    assert r == 0
    pq = sympy.Poly(q, y)
    return [Fraction(str(v)) for v in reversed(pq.all_coeffs())]


def brute_force_edges(covectors, n):
    """All intersections of subfamilies via direct subset enumeration.
    Returns the set of saturated index tuples."""
    mats = [sympy.Matrix([list(c) for c in covectors])]

    def rank_of(idx):
        if not idx:
            return 0
        return sympy.Matrix([list(covectors[i]) for i in idx]).rank()

    out = set()
    r = len(covectors)
    for size in range(1, r + 1):
        for subset in combinations(range(r), size):
            rank = rank_of(subset)
            if rank > n:
                continue
            base = sympy.Matrix([list(covectors[i]) for i in subset])
            saturated = tuple(
                j for j in range(r)
                if base.col_join(sympy.Matrix([list(covectors[j])])).rank() == rank
            )
            out.add((saturated, rank))
    return out


def primitive_reference(vec) -> tuple:
    """The coprime integer multiple of a nonzero integer vector whose first
    nonzero entry is positive: the content, signed by that entry, divided
    out of every entry."""
    g = math.gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def inclusion_exclusion_euler(covectors, n):
    """Euler characteristic of the union of projective hyperplanes."""
    r = len(covectors)
    total = 0
    for size in range(1, r + 1):
        for subset in combinations(range(r), size):
            rank = sympy.Matrix([list(covectors[i]) for i in subset]).rank()
            if rank <= n:
                total += (-1) ** (size + 1) * (n - rank + 1)
    return total


def dense_by_bipartition(covectors):
    """Indecomposability of a central arrangement: no proper bipartition of
    its hyperplanes has ranks adding up to the total rank.  Exponential in
    the number of hyperplanes."""
    def rank_of(rows):
        return sympy.Matrix([list(c) for c in rows]).rank()

    k = len(covectors)
    total = rank_of(covectors)
    for mask in range(1, 1 << (k - 1)):
        part_a = [covectors[i] for i in range(k) if mask >> i & 1]
        part_b = [covectors[i] for i in range(k) if not mask >> i & 1]
        if rank_of(part_a) + rank_of(part_b) == total:
            return False
    return True


def _element(ring, coeffs: list) -> "RingElement":
    """A RingElement from a full list of RatFuncY coefficients (no checks)."""
    out = object.__new__(RingElement)
    out.ring = ring
    out.coeffs = tuple(coeffs)
    return out


class RingElement:
    """Element of a graded basis ring; coefficients are RatFuncY.  A series
    of hmclass, the tuple of its coefficients of h^0..h^order, reads as
    RingElement(ProjRing(order), series)."""

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
        return _element(self, [RatFuncY.ZERO] * len(self.names))

    def one(self) -> RingElement:
        return self.scalar(1)

    def scalar(self, value) -> RingElement:
        coeffs = [RatFuncY.ZERO] * len(self.names)
        coeffs[0] = RatFuncY._coerce(value)
        return _element(self, coeffs)

    def basis_element(self, index: int) -> RingElement:
        coeffs = [RatFuncY.ZERO] * len(self.names)
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


class BlownPlaneRing:
    """Intersection ring of a projective plane blown up at named points.

    Basis: 1; e (pullback of a line), one class per exceptional curve;
    pt.  Relations: e^2 = pt, eps_p * eps_q = -delta_{pq} pt, e * eps_p = 0.
    Elements of two instances do not mix; model_ring keeps one instance
    per surface model.
    """

    def __init__(self, point_ids=()):
        self.point_ids = tuple(point_ids)
        self.dim = 2
        self.names = ("1", "e", *(f"eps_{p}" for p in self.point_ids), "pt")

    def zero(self) -> RingElement:
        return RingElement(self, [0] * len(self.names))

    def one(self) -> RingElement:
        return self.scalar(1)

    def scalar(self, value) -> RingElement:
        return RingElement(self, [value] + [0] * (len(self.names) - 1))

    def basis_element(self, index: int) -> RingElement:
        return RingElement(self, [int(i == index)
                                  for i in range(len(self.names))])

    def mul_vectors(self, a, b) -> list:
        """Product of two vectors (1; e, eps_p...; pt): e^2 = pt,
        eps_p^2 = -pt, and every other product of degree-1 classes is 0."""
        a0, b0 = a[0], b[0]
        top = a0 * b[-1] + a[-1] * b0 + a[1] * b[1]
        for x, z in zip(a[2:-1], b[2:-1]):
            top -= x * z
        return ([a0 * b0] + [a0 * z + x * b0 for x, z in zip(a[1:-1], b[1:-1])]
                + [top])


_BLOWN_RINGS = weakref.WeakKeyDictionary()  # surface model -> its ring


def model_ring(model):
    """The ring of a stratum model: ProjRing(dim) on a point or a line, and
    on a surface a BlownPlaneRing of its blown points, one instance per
    model, so classes of one model read twice still mix and classes of
    two surface models do not."""
    if model.dim < 2:
        return ProjRing(model.dim)
    ring = _BLOWN_RINGS.get(model)
    if ring is None:
        ring = _BLOWN_RINGS[model] = BlownPlaneRing(model.blown_points)
    return ring


def basis_degrees(ring) -> tuple:
    """The cohomological degree of each basis class of a ProjRing or a
    BlownPlaneRing: h^k has degree k; on a blown-up plane 1 has degree 0,
    e and every eps_p degree 1, and pt degree 2."""
    if isinstance(ring, ProjRing):
        return tuple(range(ring.dim + 1))
    return (0,) + (1,) * (len(ring.names) - 2) + (2,)


def _basis_product(ring, i: int, j: int):
    """(index, sign) of the product of basis classes i and j of a ProjRing
    or a BlownPlaneRing, or None when it vanishes."""
    if isinstance(ring, ProjRing):
        return (i + j, 1) if i + j <= ring.dim else None
    i, j = min(i, j), max(i, j)
    if i == 0:
        return (j, 1)
    if i != j or basis_degrees(ring)[i] != 1:
        return None  # degree above 2, e eps_p = 0, eps_p eps_q = 0
    return (len(ring.names) - 1, 1 if i == 1 else -1)  # e^2, eps_p^2


def product_by_basis(ring, a, b) -> list:
    """Product of two integer vectors one pair of basis classes at a time,
    from the relations h^i h^j = h^(i+j) up to h^dim, and e^2 = pt,
    eps_p^2 = -pt on a blown-up plane."""
    out = [0] * len(ring.names)
    for i, x in enumerate(a):
        for j, z in enumerate(b):
            product = _basis_product(ring, i, j)
            if product:
                out[product[0]] += product[1] * x * z
    return out


def graded_part(elem: RingElement, degree: int) -> RingElement:
    """The part of a class of one cohomological degree."""
    return RingElement(elem.ring, [c if d == degree else RatFuncY.ZERO
                                   for c, d in zip(elem.coeffs,
                                                   basis_degrees(elem.ring))])


@dataclass(frozen=True)
class ChernData:
    """A K-theory class presented by rank and Chern classes c_1..c_dim
    (ring elements of pure degree)."""

    rank: int
    chern: tuple

    def __post_init__(self):
        object.__setattr__(self, "chern", tuple(self.chern))
        for i, c in enumerate(self.chern, start=1):
            if isinstance(c, RingElement) and graded_part(c, i) != c:
                raise ValueError(f"Chern entry {i} is not of pure degree {i}")

    def c(self, i: int) -> RingElement:
        return self.chern[i - 1]


def _power_sums(cd: ChernData, ring) -> list:
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


def chern_to_ch(cd: ChernData, ring) -> RingElement:
    """Chern character from Chern data: rank + sum of power sums / k!."""
    p = _power_sums(cd, ring)
    acc = ring.scalar(cd.rank)
    fact = 1
    for k in range(1, ring.dim + 1):
        fact *= k
        acc = acc + p[k] * Fraction(1, fact)
    return acc


def todd_from_chern(cd: ChernData, ring) -> RingElement:
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


def basis_class(ring, name: str) -> RingElement:
    """The basis class of a ring with the given name, such as "e", "pt" or
    "eps_<point>" on a blown-up plane."""
    return ring.basis_element(ring.names.index(name))


def model_class(model, vec, den: int = 1) -> RingElement:
    """An integer vector of a stratum model, divided by den, as a class in
    the model ring."""
    return RingElement(model_ring(model), [Fraction(x, den) for x in vec])


def tangent_c2(model) -> tuple:
    """c2 of the tangent bundle of a stratum model, as an integer vector:
    the Euler number of the model times the point class, so 0 below
    dimension 2 and 3 + (blown points) on a surface."""
    size = len(model.c1)
    if model.dim < 2:
        return (0,) * size
    return (0,) * (size - 1) + (3 + len(model.blown_points),)


def tangent_chern(model) -> ChernData:
    """Chern data of the tangent bundle of a stratum model."""
    return ChernData(model.dim, (model_class(model, model.c1),
                                 model_class(model, tangent_c2(model)))
                     [:model.dim])


def log_chern(model, q: int) -> ChernData:
    """Chern data of the q-th logarithmic cotangent power along the full
    boundary divisor of the model."""
    if q < 0 or q > model.dim:
        raise StrataError(f"q = {q} outside [0, {model.dim}]")
    ring, dim = model_ring(model), model.dim
    if q == 0:
        return ChernData(1, (ring.zero(),) * dim)
    k_cls = -model_class(model, model.c1)
    boundary = [model_class(model, comp.cls) for comp in model.boundary]
    if q == dim:
        c1 = k_cls
        for cls in boundary:
            c1 = c1 + cls
        return ChernData(1, (c1,) + (ring.zero(),) * (dim - 1))
    # q == 1 on a surface: c(log cotangent) = c(cotangent) * prod over
    # boundary of (1 - D)^{-1}, truncated in degree 2
    total = ring.one() + k_cls + model_class(model, tangent_c2(model))
    for cls in boundary:
        total = total * (ring.one() + cls + cls * cls)
    return ChernData(2, (graded_part(total, 1), graded_part(total, 2)))


def log_tangent_by_chern(model) -> RingElement:
    """c(T(-log D)) = 1 - c_1 + c_2 of the logarithmic cotangent bundle,
    from its Chern data."""
    total = model_ring(model).one()
    for i, c in enumerate(log_chern(model, min(model.dim, 1)).chern):
        total = total + c * (-1) ** (i + 1)
    return total


def push_by_basis(schema, model, coeffs) -> dict:
    """A model class, given per basis class, pushed basis class by basis
    class to its label, exceptional curves contracting: label ->
    coefficient, zeros dropped.  The placement is the oracle's own: the
    degree-0 class on the label of the stratum's closure, every other on
    the shared label of its homology degree."""
    ring = model_ring(model)
    out = {}
    for c, name, deg in zip(coeffs, ring.names, basis_degrees(ring)):
        if c and not name.startswith("eps"):
            label = (schema.shared[ring.dim - deg] if deg
                     else schema.fundamental[model.stratum.key])
            out[label] = out.get(label, 0) + c
    return out


def by_codegree(model, coeffs) -> list:
    """A model class, given per basis class, as its coefficients by
    codegree on the closure P^dim: the exceptional curves of a blown-up
    plane, which contract to zero there, are dropped."""
    return [c for c, name in zip(coeffs, model_ring(model).names)
            if not name.startswith("eps")]


def chern_milnor_by_classes(arr) -> dict:
    """The Euler-weighted Chern path with RatFuncY classes: per stratum,
    chi~ of its Milnor fiber times log_tangent_by_chern, pushed by
    push_by_basis."""
    schema = build_labels(arr)
    out = {}
    for s in sigma_strata(arr):
        model = compactify(arr, s)
        chi_tilde = milnor_fiber_chi(localize(arr, s)) - 1
        cls = log_tangent_by_chern(model) * chi_tilde
        for label, c in push_by_basis(schema, model, cls.coeffs).items():
            out[label] = out.get(label, RatFuncY.ZERO) + c
    return nonzero_vector(out)


def _exp_minus_one_powers(dim: int) -> list:
    """Coefficient tables of (e^x - 1)^j for j = 0..dim, truncated at x^dim."""
    base = [Fraction(0)] + [Fraction(1, math.factorial(k)) for k in range(1, dim + 1)]
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


def lambda_y(cd: ChernData, ring) -> RingElement:
    """Chern character of the lambda_y class of a bundle.

    For Chern roots x_i this is prod_i (1 + y e^{x_i}), evaluated exactly
    as (1+y)^rank * exp(sum_j (-1)^{j+1} u^j s_j / j) with u = y/(1+y) and
    s_j the symmetric functions sum_i (e^{x_i} - 1)^j.  Coefficients are
    rational functions in y; for honest bundles they are polynomials.
    """
    d = ring.dim
    p = _power_sums(cd, ring)
    tables = _exp_minus_one_powers(d)
    u = RatFuncY([0, 1], 1)
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
    scale = RatFuncY.ONE_PLUS_Y ** cd.rank
    return exp_nilpotent(log_term) * scale


def lambda_y_virtual(numerator: ChernData, denominator: ChernData,
                     ring) -> RingElement:
    """lambda_y of a virtual difference of bundles: the exact quotient
    lambda_y(numerator) / lambda_y(denominator), truncated by nilpotency."""
    num = lambda_y(numerator, ring)
    den = lambda_y(denominator, ring)
    if den.coeffs[0].is_zero():
        raise ZeroDivisionError("lambda_y denominator has no invertible rank part")
    return num * den.inverse()


def class_from_roots(ring, roots, kind: str) -> RingElement:
    """Product over Chern roots of the chosen series, truncated by the ring.

    Roots must be degree-1 ring elements; an empty root list gives 1.
    kind is a hirzebruch_series kind, or "Todd" for the Todd series.
    """
    series = (_todd_series(ring.dim) if kind == "Todd"
              else hirzebruch_series(kind, ring.dim))
    result = ring.one()
    for root in roots:
        value = ring.zero()
        power = ring.one()
        for k in range(ring.dim + 1):
            c = series[k]
            if not c.is_zero():
                value = value + power * c
            power = power * root
            if power.is_zero():
                break
        result = result * value
    return result


def euler_via_chern(d: int, n: int) -> Fraction:
    """Independent Euler-characteristic route for a smooth degree-d
    hypersurface: integrate the total Chern class of the virtual tangent
    bundle, c(TP^n)/(1 + dh) capped with d*h, over projective space."""
    ring = ProjRing(n)
    h = ring.h
    c_ambient = (ring.one() + h) ** (n + 1)
    denom = (ring.one() + h * d).inverse()
    total = c_ambient * denom * (h * d)
    return total.coeff(n).as_poly()(0)


def ty_class_pn(n: int) -> RingElement:
    """Hirzebruch class of projective n-space: the class series evaluated on
    n+1 copies of the hyperplane root, capped on the fundamental class."""
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    ring = ProjRing(n)
    return class_from_roots(ring, [ring.h] * (n + 1), "Q")


def coeff_list(elem: RingElement) -> list:
    """Coefficients of a class on projective space by homology degree
    0..dim (one basis class per degree)."""
    if not isinstance(elem.ring, ProjRing):
        raise ValueError("coeff_list needs a single basis class per degree")
    return [elem.coeff(elem.ring.dim - k) for k in range(elem.ring.dim + 1)]


def series_inverse_by_recursion(a: tuple) -> tuple:
    """Inverse of a truncated power series, the tuple of its coefficients,
    with invertible constant term, solved coefficient by coefficient:
    b_0 = 1/a_0 and b_k = -(1/a_0) sum_{i=1..k} a_i b_{k-i}."""
    if a[0].is_zero():
        raise ZeroDivisionError("series with zero constant term has no inverse")
    inv0 = a[0].inverse()
    out = [inv0]
    for k in range(1, len(a)):
        acc = RatFuncY.ZERO
        for i in range(1, k + 1):
            acc = acc + a[i] * out[k - i]
        out.append(-inv0 * acc)
    return tuple(out)


def coeffs(value: RatFuncY) -> tuple:
    """The numerator coefficients of value over (1+y)^k, as Fractions."""
    return tuple(Fraction(c, value.den) for c in value.num)


def coeff(value: RatFuncY, i: int) -> Fraction:
    """The numerator coefficient of y^i of value, as a Fraction."""
    if 0 <= i < len(value.num):
        return Fraction(value.num[i], value.den)
    return Fraction(0)


def entries(sp: Spectrum) -> tuple:
    """Sorted ((Fraction, int), ...): each exponent of a spectrum with its
    nonzero multiplicity."""
    return tuple((Fraction(c, sp.e), n) for c, n in sp.pairs)


def make_table(mapping, frame) -> Spectrum:
    """Spectrum.make of a mapping from rationals, such as Fractions, to
    multiplicities."""
    return Spectrum.make({Fraction(a).as_integer_ratio(): n
                          for a, n in mapping.items()}, frame)


def support(sp: Spectrum) -> tuple:
    """The exponents of a spectrum, in increasing order."""
    return tuple(a for a, _ in entries(sp))


def sp_unshift(stratum_sp: Spectrum,
               stratum: Edge) -> Spectrum:
    """Inverse of sp_shift."""
    kind, _ = stratum_sp.frame
    if kind != "stratum":
        raise SpectrumError(f"expected a stratum frame, got {stratum_sp.frame}")
    sign = (-1) ** stratum.dim
    out = {a - stratum.dim: sign * m for a, m in entries(stratum_sp)}
    return make_table(out, ("germ", stratum.codim))


def td_transform(ch_elem: RingElement, todd_elem: RingElement) -> RingElement:
    """Todd-transform a Chern character and rescale the homology degree-k
    part by (1+y)^{-k}."""
    total = ch_elem * todd_elem
    ring = total.ring
    return RingElement(ring, [c * RatFuncY([1], ring.dim - j)
                              for c, j in zip(total.coeffs,
                                              basis_degrees(ring))])


def td_1py(cd: ChernData, model) -> RingElement:
    """Scaled Todd transformation of a K-class given by Chern data on a
    stratum model."""
    todd = todd_from_chern(tangent_chern(model), model_ring(model))
    return td_transform(chern_to_ch(cd, model_ring(model)), todd)


def deligne_vector(model, k: int, mode: str = EXT_HALF_OPEN_UP) -> list:
    """First Chern class of the k-th Deligne-extension power, as an integer
    vector: k times the base class plus each boundary component's twist
    fixed by the residue rounding, one component at a time."""
    lo = 1 if mode == EXT_HALF_OPEN_UP else 0
    if not lo <= k <= model.m_s - 1 + lo:
        raise StrataError(f"k = {k} outside [{lo}, {model.m_s - 1 + lo}]")
    acc = [k * x for x in model.deligne_base_vector]
    for comp in model.boundary:
        # the integer t that leaves k m_res / m_s - t in the window
        x = Fraction(k * comp.m_res, model.m_s)
        t = math.ceil(x) - 1 if lo else math.floor(x)
        if t:
            for i, x in enumerate(comp.cls):
                acc[i] += t * x
    return acc


def k_representative(alpha: Fraction, m_s: int, mode: str) -> int:
    """Integer k with e(k/m_s) = e(-alpha), normalized per extension mode:
    k in {1..m_s} for residues in (0,1], k in {0..m_s-1} for [0,1)."""
    scaled = alpha * m_s
    if scaled.denominator != 1:
        raise StrataError(f"exponent {alpha} has denominator not dividing {m_s}")
    k = (-scaled.numerator) % m_s
    if mode == EXT_HALF_OPEN_UP and k == 0:
        k = m_s
    return k


def stratum_contribution_by_terms(arr, stratum, germ_sp, model, conv) -> RingElement:
    """The per-stratum Milnor sum taken term by term: one Todd
    transformation per (exponent, cotangent power) pair, no regrouping."""
    n = arr.n
    ring = model_ring(model)
    strat_sp = sp_shift(germ_sp, stratum, n)
    acc = ring.zero()
    minus_y = RatFuncY([0, -1])
    log_data = [log_chern(model, q) for q in range(model.dim + 1)]
    ch_log = [chern_to_ch(cd, ring) for cd in log_data]
    todd = todd_from_chern(tangent_chern(model), ring)
    for alpha, n_alpha in entries(strat_sp):
        k = k_representative(alpha, model.m_s, conv.extension_mode)
        ch_line = exp_nilpotent(model_class(
            model, deligne_vector(model, k, conv.extension_mode)))
        p = math.floor(n - alpha)
        for q in range(model.dim + 1):
            sign = 1 if (q + n - 1) % 2 == 0 else -1
            weight = minus_y ** (p + q) * (sign * n_alpha)
            cls = td_transform(ch_line * ch_log[q], todd)
            acc = acc + cls * weight
    return acc


def todd12(model) -> tuple:
    """12 td(T) = 12 + 6 c1 + c1^2 + c2 of a stratum model, as an integer
    vector."""
    c1, mul = model.c1, model_ring(model).mul_vectors
    return combine(len(c1), 12, [(6, c1), (1, mul(c1, c1)),
                                 (1, tangent_c2(model))])


def log_ch2(model) -> tuple:
    """2 ch(Omega^q(log D)) for q = 0..dim, as integer vectors.  The top
    power is the line bundle K + D: 2 + 2x + x^2 for x = D - c1.  On a
    surface the residue sequence gives the middle one,
    4 - 2 c1 + 2 D + c1^2 - 2 c2 - sum D_i^2."""
    c1, mul = model.c1, model_ring(model).mul_vectors
    size = len(c1)
    d = combine(size, 0, [(1, c.cls) for c in model.boundary])
    squares = combine(size, 0, [(1, mul(c.cls, c.cls))
                                for c in model.boundary])
    two = combine(size, 2, ())
    x = combine(size, 0, [(1, d), (-1, c1)])
    top = combine(size, 2, [(2, x), (1, mul(x, x))])
    middle = combine(size, 4, [(-2, c1), (2, d), (1, mul(c1, c1)),
                               (-2, tangent_c2(model)), (-1, squares)])
    return ((two,), (two, top), (two, middle, top))[model.dim]


def line_sums(germ, model, mode: str) -> dict:
    """The germ spectrum read in its own frame, by p = floor(codim - alpha),
    and summed over its Deligne powers: p -> the sum of N_k 2 ch(L_k) =
    N_k (2 + 2 D_k + D_k^2) over the exponents at p, as an integer vector
    in the model basis, with D_k = k base + the sum of t_r(k) D_r over the
    residues r, for the twist t_r(k) = floor((k r + b0) / m_s) + c0.
    Between the breaks of the twists D_k = U + V c."""
    q, m_s = model.m_s // germ.e, model.m_s
    ring = model_ring(model)
    size, mul = len(ring.names), ring.mul_vectors
    groups = model.twist_classes
    twists = _twist_slopes(q, m_s, [r for r, _ in groups])
    v = combine(size, 0, [(q, model.deligne_base_vector)]
                + [(s, cls) for (s, _), (_, cls) in zip(twists, groups)])
    vv = mul(v, v)
    sums = {}  # p -> the constant and the (coefficient, class) terms
    for p, t, n0, n1, n2 in _segments(germ.runs, twists, m_s, mode):
        u = combine(size, 0, zip(t, (cls for _, cls in groups)))
        const, terms = sums.get(p, (0, []))
        terms += [(2 * n0, u), (2 * n1, v), (n0, mul(u, u)),
                  (2 * n1, mul(u, v)), (n2, vv)]
        sums[p] = const + 2 * n0, terms
    return {p: combine(size, const, terms)
            for p, (const, terms) in sums.items()}


def ring_contribution(germ, model, conv) -> list:
    """A stratum's contribution through its model's ring, one RatFuncY per
    basis class, exceptional curves included: the line sums of each p
    times 2 ch(Omega^q(log D)) in y^(p + q), with the sign
    (-1)^(p + codim - 1), times 12 td, over 48 = 2 * 2 * 12 and scaled by
    (1+y)^-(homology degree)."""
    codim, ring = model.stratum.codim, model_ring(model)
    size, mul = len(ring.names), ring.mul_vectors
    buckets = {}  # j -> the (sign, class) terms of y^j, before the Todd class
    for p, line in line_sums(germ, model, conv.extension_mode).items():
        sign = -1 if (p + codim - 1) % 2 else 1
        for q, ch_q in enumerate(log_ch2(model)):
            buckets.setdefault(p + q, []).append((sign, mul(line, ch_q)))
    twelve_td = todd12(model)
    by_power = [mul(combine(size, 0, buckets.get(j, ())), twelve_td)
                for j in range(max(buckets) + 1)]
    return [RatFuncY.from_ints([v[i] for v in by_power], 48, ring.dim - deg)
            for i, deg in enumerate(basis_degrees(ring))]


def table_entries(arr):
    """User table entries for the strata the catalogue cannot serve: the
    whole signed mass at exponent 1, which passes the validators."""
    raw = {}
    for s in sigma_strata(arr):
        if stratum_germ(s) is None:
            loc = localize(arr, s)
            mass = (-1) ** (loc.rank - 1) * (milnor_fiber_chi(loc) - 1)
            raw[s.key] = [{"alpha": "1", "mult": mass}]
    return raw


def generated_tables(arr):
    """Validated user tables for the strata the catalogue cannot serve."""
    return sp_user_load(table_entries(arr), arr)


def spread_table_entries(arr, rng: random.Random):
    """User table entries that spread a stratum's whole signed mass over
    random exponents in (0, rank) with denominators dividing m_s, for the
    strata the catalogue cannot serve and for about half of the others.
    Where sp_validate asks for symmetry under alpha -> rank - alpha (one
    hyperplane, or a reduced plane germ) the mass goes on symmetric pairs,
    and an odd remainder on the centre rank/2, which then has a
    denominator dividing m_s."""
    raw = {}
    for s in sigma_strata(arr):
        if stratum_germ(s) is not None and rng.random() < 0.5:
            continue
        loc = localize(arr, s)
        rank, m_s = loc.rank, loc.m_s
        left = (-1) ** (rank - 1) * (milnor_fiber_chi(loc) - 1)
        exponents = [Fraction(j, m_s) for j in range(1, rank * m_s)]
        table = dict.fromkeys(exponents, 0)
        if rank == 1 or (rank == 2 and loc.reduced):
            centre = Fraction(rank, 2)
            pairs = [a for a in exponents if a < centre]
            chosen = rng.sample(pairs, min(len(pairs), 3))
            for a in chosen:
                v = rng.randint(-3, 3)
                table[a] += v
                table[rank - a] += v
                left -= 2 * v
            if chosen:
                table[chosen[0]] += left // 2
                table[rank - chosen[0]] += left // 2
                left %= 2
            if left:
                table[centre] += left
        else:
            chosen = rng.sample(exponents, min(len(exponents), 4))
            for a in chosen[1:]:
                v = rng.randint(-3, 3)
                table[a] += v
                left -= v
            table[chosen[0]] += left
        raw[s.key] = [{"alpha": str(a), "mult": v}
                      for a, v in table.items() if v]
    return raw


def spectra_rows_by_stratum(arr, tables) -> list:
    """The rows of a spectra report built stratum by stratum: each
    stratum's spectrum is looked up, expanded, shifted entry by entry and
    validated on its own, with no sharing between strata of one germ
    type."""
    rows = []
    for s in sigma_strata(arr):
        loc = localize(arr, s)
        sp = stratum_spectrum(arr, s, tables)
        row = {
            "edge": s.key,
            "codim": s.codim,
            "dim": s.dim,
            "m_s": s.m_s,
        }
        if sp is None:
            row["source"] = "user_table_required"
        else:
            if s.key in tables:
                row["source"] = "user_table"
            else:
                row["source"] = classify_germ(loc).describe()
            row["germ"] = [{"alpha": str(a), "mult": m}
                           for a, m in entries(sp)]
            sign = (-1) ** s.dim
            row["stratum_frame"] = [
                {"alpha": str(a + s.dim), "mult": sign * m}
                for a, m in entries(sp)]
            row["validation"] = sp_validate(sp, loc)
        rows.append(row)
    return rows


def arrangement_to_json(arr) -> dict:
    """The input JSON of an arrangement, which Arrangement.load reads
    back."""
    return {
        "n": arr.n,
        "hyperplanes": [
            {"coeffs": [str(c) for c in cov], "mult": m}
            for cov, m in zip(arr.covectors, arr.mults)
        ],
    }


def vector_sum(vecs) -> dict:
    """Sum of sparse Chow vectors (label -> coefficient dicts)."""
    out = {}
    for vec in vecs:
        for name, v in vec.items():
            out[name] = out.get(name, RatFuncY.ZERO) + v
    return nonzero_vector(out)


def vector_scale(vec: dict, scalar) -> dict:
    return nonzero_vector({k: v * scalar for k, v in vec.items()})


def nonzero_vector(values: dict) -> dict:
    """The vector of values with its zero coefficients dropped: a Chow
    vector holds no zero."""
    return {k: v for k, v in values.items() if v}


def vector_is_polynomial(vec: dict) -> bool:
    return all(v.is_polynomial() for v in vec.values())


def vector_to_json(schema, vec: dict) -> dict:
    """Coefficient strings for every label of the schema, in order, each
    written by str of its Fraction, not by the writer's text path."""
    out = {}
    for name in schema.names():
        value = vec.get(name, RatFuncY.ZERO).as_poly()
        out[name] = [str(Fraction(c, value.den)) for c in value.num]
    return out


def vector_constants(schema, vec: dict) -> dict:
    """The value on every schema label, in order, of a constant vector,
    whose values are integer pairs (p, q), each written by ratio_text."""
    return {name: ratio_text(*vec.get(name, (0, 1)))
            for name in schema.names()}


def constant_pairs(vec: dict) -> dict:
    """A vector of constant RatFuncY values as the integer pairs (p, q) in
    lowest terms that a constant vector holds; a value that is not a
    constant fails."""
    out = {}
    for name, v in vec.items():
        assert v.is_polynomial() and len(v.num) <= 1, (name, v)
        out[name] = (v.num[0] if v.num else 0, v.den)
    return out


def report_to_json(report, dump_strata: bool = False) -> dict:
    """A Milnor report as one dense dict, every schema label listed for
    every vector: json.dumps(..., indent=2) + "\\n" of it is the report
    text."""
    schema = report.schema
    out = {
        "n": report.arrangement.n,
        "m": report.arrangement.m,
        "conventions": {
            "sign_mode": report.conventions.sign_mode,
            "extension_mode": report.conventions.extension_mode,
        },
        "M_y": vector_to_json(schema, report.m_y),
        "per_stratum": {k: vector_to_json(schema, v)
                        for k, v in report.per_stratum.items()},
        "specializations": {str(y0): vector_constants(schema, vec)
                            for y0, vec in report.specializations.items()},
        "degree0": report.degree0,
        "cross_path_ok": report.cross_path_ok,
        "cross_path": {
            "ok": report.cross_path_ok,
            "chern_milnor": vector_constants(schema, report.chern_path),
        },
    }
    if dump_strata:
        out["strata"] = [m.to_json() for m in report.models]
    return out


def euler_defect(arr) -> int:
    """chi(smooth degree-m hypersurface in P^n) - chi(X), the value the
    degree-zero part of the Milnor class takes at y = -1."""
    return virtual_genus(arr.m, arr.n)(-1) - euler_by_inclusion_exclusion(arr)


def hirzebruch_class_by_additivity(arr) -> list:
    """T_y of the reduced divisor pushed to P^n, by homology degree 0..n-1,
    from the lattice alone.  Hirzebruch classes are additive over the open
    edge strata, and the closed stratum of an edge of dimension d is a
    linear P^d, so top down T(S_e) = T(P^d) minus T(S_f) for every edge f
    strictly above e.  T(P^d) is Q(h)^(d+1), whose h^j coefficient sits in
    homology degree d - j, which a linear subspace keeps in P^n."""
    lattice = arr.lattice
    opened = [None] * len(lattice.edges)  # per position, T(S_e) by degree
    total = [RatFuncY.ZERO] * arr.n
    for i in reversed(range(len(lattice.edges))):
        d = arr.n - lattice.edges[i].codim
        q = RingElement(ProjRing(d), hirzebruch_series("Q", d))
        closed = q ** (d + 1)
        cls = [closed.coeff(d - k) for k in range(d + 1)]
        for f in lattice.strictly_above[i]:
            for k, c in enumerate(opened[f]):
                cls[k] = cls[k] - c
        opened[i] = cls
        for k, c in enumerate(cls):
            total[k] = total[k] + c
    return total


def _mobius(isets) -> dict:
    """Mobius function from the minimum of a finite family of index sets
    ordered by inclusion.  The unique minimum must be present."""
    order = sorted(isets, key=len)
    mu = {}
    for iset in order:
        if not mu:
            mu[iset] = 1
        else:
            mu[iset] = -sum(v for other, v in mu.items() if other < iset)
    return mu


def _whitney(flats) -> list:
    """Coefficients of the Whitney polynomial sum_F mu(F) (-t)^{rank F} of
    a ranked family of flats given as (index_set, rank) pairs including the
    rank-0 bottom."""
    ranks = dict(flats)
    mu = _mobius(set(ranks))
    coeffs = [Fraction(0)] * (max(ranks.values()) + 1)
    for iset, rank in ranks.items():
        coeffs[rank] += mu[iset] * (-1) ** rank
    return coeffs


def euler_by_whitney(arr, edge) -> int:
    """The Euler number of the projectivized complement of the localization
    at an edge: the Whitney polynomial of the edges below it (index sets
    inside its own), divided by 1 + y, at y = -1."""
    flats = [(frozenset(), 0)]
    flats += [(frozenset(e.index_set), e.codim) for e in arr.lattice.edges
              if set(e.index_set) <= set(edge.index_set)]
    projective = RatFuncY(_whitney(flats), 1).as_poly()
    return int(projective(-1))


def chi_y_stratum_by_whitney(arr, edge) -> RatFuncY:
    """chi_y of the open stratum of an edge, from the Betti numbers of the
    induced projective arrangement complement (all of Tate type): the
    Whitney polynomial of the edges above it (index sets strictly
    containing its own), with a synthetic top flat when the covectors span
    everything, divided by 1 + y."""
    d = arr.n - edge.codim
    if d == 0:
        return RatFuncY.ONE
    flats = [(frozenset(edge.index_set), 0)]
    flats += [(frozenset(e.index_set), e.codim - edge.codim)
              for e in arr.lattice.edges
              if set(e.index_set) > set(edge.index_set)]
    if sympy.Matrix([list(c) for c in arr.covectors]).rank() == arr.n + 1:
        flats.append((frozenset(range(arr.r)) | {-1}, arr.n + 1 - edge.codim))
    if len(flats) == 1:
        return chi_y_pn(d)
    betti = RatFuncY(_whitney(flats), 1).as_poly()
    acc = RatFuncY.ZERO
    minus_y = RatFuncY([0, -1])
    for j, b in enumerate(coeffs(betti)):
        if b:
            acc = acc + minus_y ** (d - j) * (b * (-1) ** j)
    return acc
