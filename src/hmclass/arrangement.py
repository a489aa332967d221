"""Projective hyperplane arrangements with multiplicities.

Input model and validation, the intersection lattice (edges) with its
per-edge tables computed once per lattice from its "above" relation, among
them the localized central arrangement at every edge, which every
consumer shares, dense-edge detection, the strata of the singular locus,
each the localization at its edge, and chi_y genera.

The tables: the Mobius function mu(0, x) is computed bottom up, and gives
the Euler number of each edge's localization and, in the same pass, chi_y
of the divisor, whose value at y = -1 is the divisor's Euler number.
chi_y of each open stratum is computed top down by additivity, since the
closed stratum of an edge of dimension d is a P^d and the disjoint union
of the open strata of the edges on it; only the chi-y report's rows and
the Chern terms of curves and surfaces read that table.
"""

from __future__ import annotations

import json
from functools import cached_property
from math import gcd, lcm

from .coeffs import RatFuncY, rat

__all__ = [
    "ArrangementError",
    "MAX_MULTIPLICITY",
    "Arrangement",
    "Edge",
    "LocalizedArrangement",
    "build",
    "edges",
    "localize",
    "milnor_fiber_chi",
    "is_dense",
    "in_sigma",
    "sigma_strata",
    "chi_y",
    "chi_y_pn",
    "euler_by_inclusion_exclusion",
]


class ArrangementError(ValueError):
    """Invalid arrangement input."""


# The largest hyperplane multiplicity build accepts.  "milnor" reads each
# catalogue germ by its class, so one line of this multiplicity plus 3
# generic lines takes about 2 ms in process; "spectra" lists every
# exponent, in time linear in the multiplicity.
MAX_MULTIPLICITY = 100_000


# ---------------------------------------------------------------------------
# fraction-free linear algebra over Z
#
# A span is held as an integer echelon basis: (pivot, row) pairs sorted by
# pivot, each row primitive with a positive pivot entry and zero at every
# other pivot.  Each row is an integer multiple of the matching row of the
# rational reduced row echelon form, so the two have the same zero pattern.


def _primitive(vec) -> tuple:
    """The coprime integer multiple of a nonzero integer vector whose first
    nonzero entry is positive, as a tuple; a tuple that is already that
    multiple comes back unchanged."""
    for lead in vec:
        if lead:
            break
    g = gcd(*vec)
    if lead < 0:
        g = -g
    return tuple(vec) if g == 1 else tuple([x // g for x in vec])


def _reduce(basis, vec):
    """vec reduced against an integer echelon basis: a primitive vector that
    is zero at every pivot, or None when vec lies in the span.  Each step
    scales vec by a pivot entry, and the primitive vector at the end takes
    out the common factor and the sign, so no step divides by a gcd."""
    for p, row in basis:
        b = vec[p]
        if b:
            a = row[p]
            vec = [a * x - b * y for x, y in zip(vec, row)]
    return _primitive(vec) if any(vec) else None


def _extend(basis, residual) -> list:
    """The echelon basis of span(basis) + residual, for a residual that
    _reduce returned against that basis."""
    p = next(i for i, x in enumerate(residual) if x)
    out = [(q, _reduce([(p, residual)], row)) for q, row in basis]
    out.append((p, residual))
    out.sort()
    return out


def _echelon(rows) -> list:
    """The integer echelon basis of the span of integer rows."""
    basis = []
    for row in rows:
        residual = _reduce(basis, row)
        if residual is not None:
            basis = _extend(basis, residual)
    return basis


# ---------------------------------------------------------------------------
# arrangement and edges


class Arrangement:
    """Hyperplanes in P^n, each given by its covector, a primitive integer
    vector whose first nonzero entry is positive, so proportional
    covectors are equal, and by its multiplicity."""

    def __init__(self, n: int, covectors: tuple, mults: tuple):
        self.n, self.covectors, self.mults = n, covectors, mults

    @property
    def m(self) -> int:
        return sum(self.mults)

    @property
    def r(self) -> int:
        return len(self.covectors)

    @cached_property
    def lattice(self) -> "Lattice":
        """The intersection lattice, searched once and shared by every
        consumer of this arrangement."""
        return _search_edges(self)

    @staticmethod
    def from_json(data: dict) -> "Arrangement":
        try:
            n = data["n"]
            raw = data["hyperplanes"]
        except (KeyError, TypeError) as exc:
            raise ArrangementError(f"missing field in arrangement input: {exc}")
        if not isinstance(raw, list):
            raise ArrangementError(f"hyperplanes must be a list, got {raw!r}")
        hyps = []
        for item in raw:
            try:
                coeffs = item["coeffs"]
                if not isinstance(coeffs, list):
                    raise TypeError(f"coeffs must be a list, got {coeffs!r}")
                coeffs = [_entry(c) for c in coeffs]
                mult = item["mult"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ArrangementError(f"bad hyperplane entry {item!r}: {exc}")
            hyps.append((coeffs, mult))
        return build(n, hyps)

    @staticmethod
    def load(path) -> "Arrangement":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ArrangementError(f"malformed JSON: {exc}")
        return Arrangement.from_json(data)


def _entry(value):
    """A covector entry: an int for an int or for a plain ASCII integer
    string, with or without a leading "-"; anything else as rat parses
    it, to a Fraction or to rat's error."""
    if type(value) is str:
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            return int(value)
    elif type(value) is int:
        return value
    return rat(value)


def build(n: int, hyperplanes) -> Arrangement:
    """Validate and construct an arrangement.

    Rejects zero covectors, proportional covector pairs (duplicates are an
    input error, never merged) and multiplicities outside
    1..MAX_MULTIPLICITY.  Each covector is scaled to its primitive integer
    form once it has passed these checks.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ArrangementError(f"ambient dimension must be a positive integer, got {n!r}")
    covs, mults = [], []
    for covector, mult in hyperplanes:
        cov = tuple(map(_entry, covector))
        if len(cov) != n + 1:
            raise ArrangementError(f"covector {tuple(map(rat, cov))} has "
                                   f"length {len(cov)}, expected {n + 1}")
        if not any(cov):
            raise ArrangementError("zero covector")
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise ArrangementError(f"multiplicity must be a positive integer, got {mult!r}")
        if mult > MAX_MULTIPLICITY:
            raise ArrangementError(
                f"multiplicity {mult} exceeds the limit {MAX_MULTIPLICITY}")
        if any(type(c) is not int for c in cov):
            scale = lcm(*(c.denominator for c in cov))
            cov = tuple(c.numerator * (scale // c.denominator) for c in cov)
        covs.append(_primitive(cov))
        mults.append(mult)
    if not covs:
        raise ArrangementError("arrangement needs at least one hyperplane")
    first = {}
    pairs = [(first.setdefault(c, j), j) for j, c in enumerate(covs)]
    clashes = [(i, j) for i, j in pairs if i != j]
    if clashes:
        # name the clash with the lowest first position, then the lowest second
        i, j = min(clashes)
        raise ArrangementError(
            f"proportional covectors at positions {i + 1} and {j + 1}")
    return Arrangement(n, tuple(covs), tuple(mults))


class Edge:
    """An intersection of hyperplanes, with saturated index set.

    index_set holds 0-based hyperplane indices; it identifies the edge.
    key is the 1-based index set as text, which the lattice search passes
    in from the hyperplanes' key texts.  Reports, labels and user tables
    name an edge by it; the lattice finds an edge by its index set, and
    each edge is built once per lattice, so an edge compares by identity.
    Nothing keys by the edge itself: the Chern path reads the lattice
    alone, by position.
    """

    def __init__(self, index_set: tuple, codim: int, m_s: int, key: str):
        self.index_set, self.codim, self.m_s = index_set, codim, m_s
        self.key = key


class Lattice:
    """The edges of an arrangement in P^n with the hyperplanes'
    multiplicities, the index and the "above" relation its consumers look
    up, and the per-edge tables, each built once on first request: the
    Euler numbers, the chi_y of open strata and the localizations, and the
    per-dimension Mobius tally that gives chi_y and the Euler number of
    the divisor."""

    def __init__(self, n: int, mults: tuple, edges: tuple, position: dict,
                 strictly_above: tuple):
        self.n, self.mults = n, mults
        self.edges = edges  # sorted by (codimension, index set)
        self.position = position  # index set -> position in edges
        # per position, the positions of the edges strictly above it (index
        # sets strictly containing its own), in lattice order
        self.strictly_above = strictly_above

    def above(self, edge: Edge) -> list:
        """The edges strictly above edge in the lattice, in lattice order."""
        return [self.edges[i] for i in
                self.strictly_above[self.position[edge.index_set]]]

    @cached_property
    def euler(self) -> tuple:
        """Per position, the Euler number of the projectivized complement
        of the localization at the edge."""
        return self._mobius[0]

    @cached_property
    def localizations(self) -> tuple:
        """Per position, the localized central arrangement at the edge, all
        built in one pass.  Its lattice is the interval of this lattice
        below the edge, so its Euler number is read by position."""
        n, mults = self.n, self.mults
        return tuple([
            LocalizedArrangement(e, tuple(map(mults.__getitem__, e.index_set)),
                                 euler, n - e.codim)
            for e, euler in zip(self.edges, self.euler)])

    @cached_property
    def divisor_euler(self) -> int:
        """The Euler number of the divisor, the union of the hyperplanes:
        its chi_y at y = -1, where chi_y(P^d) is d + 1."""
        return sum((d + 1) * t for d, t in enumerate(self._mobius[1]))

    @cached_property
    def _mobius(self) -> tuple:
        """(euler, tally) from one bottom-up pass over mu(e) = mu(0, e) =
        -1 - sum over x < e of mu(x).  The localization at e has Euler
        number -codim e mu(e) - sum over x < e of mu(x) codim x, so the
        pass pushes each mu(x) into the two sums of every edge above x.
        tally[d] is -sum of mu(e) over the edges e of dimension d, which
        is all that chi_y of the divisor needs: by Mobius inversion over
        the lattice (Orlik-Terao, ch. 2), the complement of the divisor in
        P^n is the sum over all X of mu(X) P(X), the whole space included,
        in any additive invariant, and P(X) is a P^(n - codim X); so
        chi_y(D) = the sum over d of tally[d] chi_y(P^d)."""
        mu_below = [0] * len(self.edges)
        codim_below = [0] * len(self.edges)
        out = []
        tally = [0] * self.n
        for i, e in enumerate(self.edges):
            mu = -1 - mu_below[i]
            out.append(-e.codim * mu - codim_below[i])
            tally[self.n - e.codim] -= mu
            for j in self.strictly_above[i]:
                mu_below[j] += mu
                codim_below[j] += mu * e.codim
        return tuple(out), tuple(tally)

    @cached_property
    def chi_y_open(self) -> tuple:
        """Per position, the integer coefficients of chi_y of the edge's
        open stratum as a tuple, top down by additivity: chi_y(P^d) minus
        chi_y of every open stratum strictly above the edge.  Built only
        for the chi-y report's rows and the Chern terms of curves and
        surfaces; chi_y of the divisor comes from the Mobius pass."""
        out = [None] * len(self.edges)
        for i in reversed(range(len(self.edges))):
            cs = [(-1) ** p for p in range(self.n - self.edges[i].codim + 1)]
            for f in self.strictly_above[i]:
                for p, c in enumerate(out[f]):
                    cs[p] -= c
            out[i] = tuple(cs)
        return tuple(out)


def _search_edges(arr: Arrangement) -> Lattice:
    """The intersection lattice: all intersections of subfamilies,
    deduplicated by subspace, with saturated index sets, sorted by
    (codimension, index set), with the edges above each one.

    The search goes up one codimension at a time from the hyperplanes, the
    edges of codimension 1: build made the covectors distinct and
    primitive, so each one is its own echelon basis and needs no
    reduction.  The join of an edge Y with a hyperplane off it is fixed by
    the residual of the covector against Y's echelon basis: two
    hyperplanes give the same join exactly when their primitive residuals
    are equal.  So the joins of Y split the hyperplanes off Y into
    disjoint blocks (Orlik-Terao, Arrangements of Hyperplanes, 2.1): if
    H_j lies on two joins of Y, each of them is the join of Y and H_j.
    Each level keeps, per hyperplane, the index-set bitmasks of the joins
    found so far that contain it.  Before Y is scanned, each of those
    under Y's lowest hyperplane that contains Y's mask is a join of Y found
    from an earlier edge, and its hyperplanes are skipped.  The
    hyperplanes left form Y's other joins, each one whole, so every
    residual group is a new edge with a saturated index set, and each edge
    is found from exactly one edge below it.  Edges of codimension n are
    not extended: a join of one has rank n + 1 and is no edge.  A join
    lists the hyperplanes it adds, which from a hyperplane all come after
    it, each earlier one having joined it from its own row.  Each edge is
    built from the hyperplanes' key texts, made once per search.

    An edge is above another exactly when its index set contains the
    other's.  Hyperplane j sits at position j, and the edges above it are
    the edges through it, listed per hyperplane from their index sets.
    Any other edge takes the list of its first hyperplane, kept where the
    index-set mask contains its own; no edge is above one of
    codimension n."""
    n, covs, mults = arr.n, arr.covectors, arr.mults
    texts = [str(j + 1) for j in range(len(covs))]  # per hyperplane
    containing = [[j] for j in range(len(covs))]  # its edges' positions
    edges, masks, frontier = [], [], []
    for j, c in enumerate(covs):
        edges.append(Edge((j,), 1, mults[j], texts[j]))
        masks.append(1 << j)
        lead = next(p for p, x in enumerate(c) if x)
        # (index set, its bitmask, echelon basis of its covectors)
        frontier.append(((j,), 1 << j, [(lead, c)]))
    for codim in range(2, n + 1):
        level, nxt = [], []
        through = [[] for _ in covs]  # per hyperplane, the masks found
        for iset, mask, basis in frontier:
            skip = mask
            for found in through[iset[0]]:
                if found & mask == mask:
                    skip |= found
            joins = {}  # residual -> the hyperplanes joined along it
            for j, c in enumerate(covs):
                if not skip >> j & 1:
                    res = _reduce(basis, c)
                    group = joins.get(res)
                    if group is None:
                        joins[res] = [j]
                    else:
                        group.append(j)
            for res, group in joins.items():
                key = mask
                for j in group:
                    key |= 1 << j
                joined = (iset + tuple(group) if codim == 2
                          else tuple(sorted(iset + tuple(group))))
                level.append((joined, key))
                for j in joined:
                    through[j].append(key)
                if codim < n:
                    nxt.append((joined, key, _extend(basis, res)))
        level.sort()
        for joined, key in level:
            for j in joined:
                containing[j].append(len(edges))
            edges.append(Edge(joined, codim,
                              sum(map(mults.__getitem__, joined)),
                              ",".join(map(texts.__getitem__, joined))))
            masks.append(key)
        frontier = nxt
    above = []
    for i, e in enumerate(edges):
        if e.codim == n:
            above.append(())
        elif e.codim == 1:  # its own position heads its list
            above.append(tuple(containing[i][1:]))
        else:
            mask = masks[i]
            above.append(tuple([k for k in containing[e.index_set[0]]
                                if k > i and masks[k] & mask == mask]))
    position = {e.index_set: i for i, e in enumerate(edges)}
    return Lattice(n, mults, tuple(edges), position, tuple(above))


def edges(arr: Arrangement) -> tuple:
    """All edges of the arrangement, sorted by (codimension, index set)."""
    return arr.lattice.edges


# ---------------------------------------------------------------------------
# localization


class LocalizedArrangement:
    """The quotient central arrangement at an edge: the multiplicities of
    its hyperplanes, the Euler number of its projectivized complement and
    the edge's dimension; its rank and degree are the edge's codimension
    and m_s.  At an edge of the singular locus it is the stratum itself."""

    def __init__(self, edge: Edge, mults: tuple, euler: int, dim: int):
        self.edge, self.mults, self.euler, self.dim = edge, mults, euler, dim

    @property
    def key(self) -> str:
        return self.edge.key

    @property
    def rank(self) -> int:
        return self.edge.codim

    @property
    def m_s(self) -> int:
        return self.edge.m_s

    @property
    def reduced(self) -> bool:
        return all(m == 1 for m in self.mults)


def localize(arr: Arrangement, edge: Edge) -> LocalizedArrangement:
    """The localized central arrangement at an edge: the lattice's record
    at the edge's position, which every caller shares."""
    lattice = arr.lattice
    return lattice.localizations[lattice.position[edge.index_set]]


def milnor_fiber_chi(loc: LocalizedArrangement) -> int:
    """Euler characteristic of the local Milnor fiber: the projectivized
    complement count scaled by the local degree."""
    return loc.euler * loc.m_s


def is_dense(edge: Edge, arr: Arrangement) -> bool:
    """True when the localized central arrangement is indecomposable, that
    is when its matroid is connected.

    Put the covectors through the edge as the columns of a matrix.  In its
    reduced row echelon form (the integer one has the same zero pattern)
    the pivot columns are a greedy basis, and each other column holds the
    coordinates of its covector in that basis.  Joining every covector to
    the basis covectors its coordinates use gives the fundamental-circuit
    graph, which is connected exactly when the matroid is (Oxley, Matroid
    Theory)."""
    k = len(edge.index_set)
    comp = list(range(k))  # union-find parent per covector

    def root(i):
        while comp[i] != i:
            i = comp[i]
        return i

    covs = arr.covectors
    for lead, row in _echelon(zip(*(covs[j] for j in edge.index_set))):
        lead = root(lead)
        for j, x in enumerate(row):
            if x != 0:
                comp[root(j)] = lead
    return len({root(i) for i in range(k)}) == 1


# ---------------------------------------------------------------------------
# strata of the singular locus


def in_sigma(edge: Edge) -> bool:
    """True for the edges of the singular locus: every edge of codimension
    >= 2, and the multiple hyperplanes."""
    return edge.codim > 1 or edge.m_s > 1


def sigma_strata(arr: Arrangement) -> list:
    """Strata of the singular locus away from the generic section, in
    lattice order: the lattice's localization at each edge in_sigma
    admits, shared with every other caller.  The generic section is
    handled symbolically downstream and never appears as an edge."""
    return [loc for loc in arr.lattice.localizations if in_sigma(loc.edge)]


# ---------------------------------------------------------------------------
# chi_y genera


def chi_y_pn(n: int) -> RatFuncY:
    """chi_y of projective n-space: alternating powers of y."""
    return RatFuncY([(-1) ** p for p in range(n + 1)])


def chi_y(arr: Arrangement) -> RatFuncY:
    """chi_y genus of the divisor from the Mobius pass: the sum over edge
    dimensions d of tally[d] chi_y(P^d), so the coefficient of y^p is
    (-1)^p times the sum of tally[d] over d >= p."""
    tally = arr.lattice._mobius[1]
    total, acc = [0] * arr.n, 0
    for p in reversed(range(arr.n)):
        acc += tally[p]
        total[p] = -acc if p % 2 else acc
    return RatFuncY.from_ints(total)


def euler_by_inclusion_exclusion(arr: Arrangement) -> int:
    """Independent Euler-characteristic oracle for the divisor: alternating
    sum over all subfamilies of hyperplanes.  Exponential in the number of
    hyperplanes, so only the check harness and the tests call it."""
    covs = arr.covectors
    r = len(covs)
    total = 0
    for mask in range(1, 1 << r):
        subset = [covs[i] for i in range(r) if mask >> i & 1]
        rank = len(_echelon(subset))
        if rank <= arr.n:
            dim = arr.n - rank
            total += (-1) ** (bin(mask).count("1") + 1) * (dim + 1)
    return total
