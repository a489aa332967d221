"""Independent oracles used by the tests.

Everything here must stay independent of the code paths it checks:
sympy closed-form expansions for series coefficients, brute-force subset
enumeration for intersection lattices, and inclusion-exclusion counts.
"""

from fractions import Fraction
from itertools import combinations

import sympy

from hmclass.coeffs import PolyY


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
    """Coefficients of the two-variable class series as polynomials in y,
    expanded symbolically: a(1+y)/(1 - exp(-a(1+y))) - a*y."""
    a, y = sympy.symbols("a y")
    expr = a * (1 + y) / (1 - sympy.exp(-a * (1 + y))) - a * y
    poly = sympy.series(expr, a, 0, order + 1).removeO()
    out = []
    for k in range(order + 1):
        c = sympy.expand(sympy.cancel(poly.coeff(a, k)))
        pc = sympy.Poly(c, y) if c != 0 else None
        if pc is None:
            out.append(PolyY())
        else:
            coeffs = [Fraction(str(v)) for v in reversed(pc.all_coeffs())]
            out.append(PolyY(coeffs))
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
