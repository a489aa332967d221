"""Projective hyperplane arrangements with multiplicities.

Input model and validation, the intersection lattice, dense-edge
detection, the strata of the singular locus and chi_y genera.  The
lattice holds one record per edge, which is also the localized central
arrangement at the edge: its multiplicities, Euler number and dimension
are set when the edge is built, and a stratum of the singular locus is
its edge.

The search runs the Mobius function mu(0, x) bottom up before it builds
the edges; the pass gives the Euler number of each edge's localization
and, in the same pass, chi_y of the divisor, whose value at y = -1 is the
divisor's Euler number.  chi_y of each open stratum is computed top down
by additivity, since the closed stratum of an edge of dimension d is a
P^d and the disjoint union of the open strata of the edges on it; only
the chi-y report's rows and the Chern terms of curves and surfaces read
that table.
"""

from __future__ import annotations

from math import gcd, lcm

from .coeffs import MIN_DIGIT_LIMIT, RatFuncY, check_digits, rat
from .jsontext import reader

__all__ = [
    "ArrangementError",
    "MAX_MULTIPLICITY",
    "Arrangement",
    "Edge",
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
# A span is held as a basis of (pivot, row) pairs, each row primitive, its
# pivot its first nonzero entry, which is positive, and zero at the pivot
# of every row before it.  The search appends each residual as it comes.
# An echelon basis also has its rows sorted by pivot and each zero at
# every other pivot: each row is an integer multiple of the matching row
# of the rational reduced row echelon form, so the two have the same zero
# pattern.


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
    """vec reduced against an integer basis: a primitive vector that is zero
    at every pivot, or None when vec lies in the span.  Each row is zero at
    the pivots of the rows before it, so one pass in order zeroes every
    pivot.  Each step scales vec by a pivot entry, and the primitive vector
    at the end, as _primitive makes it, takes out the common factor and
    the sign, so no step divides by a gcd; its one gcd pass is also the
    zero test."""
    for p, row in basis:
        b = vec[p]
        if b:
            a = row[p]
            vec = [a * x - b * y for x, y in zip(vec, row)]
    g = gcd(*vec)
    if not g:  # vec is zero
        return None
    for lead in vec:
        if lead:
            break
    if lead < 0:
        g = -g
    return tuple(vec) if g == 1 else tuple([x // g for x in vec])


def _pivot(row) -> int:
    """The position of the first nonzero entry of a nonzero integer row."""
    return row.index(next(filter(None, row)))


def _extend(basis, residual) -> list:
    """The echelon basis of span(basis) + residual, for a residual that
    _reduce returned against that basis."""
    p = _pivot(residual)
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


class lazy_attribute:
    """An attribute that the method it decorates builds on first read.  The
    value then sits in the instance's __dict__: this descriptor has no
    __set__, so every later read finds it there, as a plain attribute.
    A class with a __getattr__ would do the same, but every read of any
    of its attributes would then miss the interpreter's fast paths (a
    third slower per read on CPython 3.11)."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


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

    @lazy_attribute
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
                coeffs = tuple(map(_entry, coeffs))
                mult = item["mult"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ArrangementError(
                    f"bad hyperplane entry {echo(item)}: {exc}")
            hyps.append((coeffs, mult))
        return _build(n, hyps)

    @staticmethod
    def load(path) -> "Arrangement":
        return Arrangement.from_json(read_json(path, ArrangementError))


def _json_int(text: str) -> int:
    """The int of a JSON integer's text, refused past Python's limit on
    integer text as _entry refuses a quoted integer, in one text."""
    if len(text) > MIN_DIGIT_LIMIT:
        check_digits(len(text) - (text[0] == "-"))
    return int(text)


_read = reader(_json_int)


def read_json(path, error):
    """The value of the JSON file at path, read by jsontext's reader with
    each integer checked by _json_int.  Malformed JSON, which only the
    reader's second path, json.loads, sees, raises error("malformed JSON:
    ...") with json's own text; an integer past the digit limit raises
    error with check_digits' text."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _read(text)
    except (RecursionError, ValueError) as exc:
        from json import JSONDecodeError  # loaded by the failed read
        if isinstance(exc, ValueError) and not isinstance(exc,
                                                          JSONDecodeError):
            raise error(str(exc))  # _json_int's refusal
        raise error(f"malformed JSON: {exc}")


# the length past which echo cuts a refused entry's repr
ECHO_CHARS = 100


def echo(value) -> str:
    """repr(value), cut after ECHO_CHARS characters with the marker "...",
    so that an error that names a refused entry stays one short line."""
    text = repr(value)
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."


def _entry(value):
    """A covector entry: an int for an int or for a plain ASCII integer
    string, with or without a leading "-", refused past Python's limit on
    integer text as rat refuses it; anything else as rat parses it, to an
    int for an integer value, a pair (p, q) in lowest terms with q > 1 for
    any other, or rat's error."""
    if type(value) is str:
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            if len(digits) > MIN_DIGIT_LIMIT:
                check_digits(len(digits))
            return int(value)
    elif type(value) is int:
        return value
    p, q = rat(value)
    return p if q == 1 else (p, q)


def build(n: int, hyperplanes) -> Arrangement:
    """Validate and construct an arrangement from (covector, multiplicity)
    pairs whose entries _entry reads: ints, Fractions or their texts.

    Rejects zero covectors, proportional covector pairs (duplicates are an
    input error, never merged) and multiplicities outside
    1..MAX_MULTIPLICITY.  Each covector is scaled to its primitive integer
    form once it has passed these checks.
    """
    return _build(n, [(tuple(map(_entry, covector)), mult)
                      for covector, mult in hyperplanes])


def _build(n: int, hyperplanes) -> Arrangement:
    """build, from covectors whose entries _entry parsed already: tuples of
    ints and (p, q) pairs, each pair nonzero."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ArrangementError(f"ambient dimension must be a positive integer, got {n!r}")
    covs, mults = [], []
    for cov, mult in hyperplanes:
        if len(cov) != n + 1:
            from fractions import Fraction  # only this text names them
            shown = tuple(Fraction(*c) if type(c) is tuple else Fraction(c)
                          for c in cov)
            raise ArrangementError(f"covector {shown} has "
                                   f"length {len(cov)}, expected {n + 1}")
        if not any(cov):
            raise ArrangementError("zero covector")
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise ArrangementError(f"multiplicity must be a positive integer, got {mult!r}")
        if mult > MAX_MULTIPLICITY:
            raise ArrangementError(
                f"multiplicity {mult} exceeds the limit {MAX_MULTIPLICITY}")
        if any(type(c) is not int for c in cov):
            pairs = [(c, 1) if type(c) is int else c for c in cov]
            scale = lcm(*(q for _, q in pairs))
            cov = tuple(p * (scale // q) for p, q in pairs)
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
    """An edge of the intersection lattice, with saturated index set, and
    the localized central arrangement at it, in one record: the lattice
    search builds each edge once, so an edge compares by identity.

    index_set holds 0-based hyperplane indices; it identifies the edge.
    key is the 1-based index set as text, by which reports, labels and
    user tables name the edge, and position is its place in the lattice's
    edges.  The localization's hyperplanes are the ones through the edge:
    mults are their multiplicities, m_s is their sum, the localization's
    degree, and euler is the Euler number of its projectivized complement,
    which the lattice's Mobius pass sets once the search has built every
    edge.  Its rank is the edge's codimension, and dim the edge's
    dimension.  At
    an edge of the singular locus the record is the stratum itself.
    """

    def __init__(self, index_set: tuple, codim: int, key: str,
                 position: int, mults: tuple, euler: int, dim: int):
        self.index_set, self.codim, self.key = index_set, codim, key
        self.position, self.mults = position, mults
        self.euler, self.dim = euler, dim
        self.m_s = sum(mults)

    @property
    def rank(self) -> int:
        return self.codim

    @property
    def reduced(self) -> bool:
        return all(m == 1 for m in self.mults)

    @property
    def edge(self) -> "Edge":
        # read only by perfbench/make_pool.py's describe (s.edge.codim)
        return self


class Lattice:
    """The edges of an arrangement in P^n, the "above" relation its
    consumers look up by position, chi_y of the divisor as integer
    coefficients and its Euler number, both from the Mobius pass, and the
    chi_y of the open strata, built on first request."""

    def __init__(self, edges: tuple, strictly_above: tuple,
                 divisor_chi_y: tuple):
        self.edges = edges  # sorted by (codimension, index set)
        # per position, the positions of the edges strictly above it (index
        # sets strictly containing its own), in lattice order
        self.strictly_above = strictly_above
        self.divisor_chi_y = divisor_chi_y
        # the divisor's Euler number: its chi_y at y = -1
        self.divisor_euler = sum(divisor_chi_y[::2]) - sum(divisor_chi_y[1::2])

    def above(self, edge: Edge) -> list:
        """The edges strictly above edge in the lattice, in lattice order."""
        return [self.edges[i] for i in self.strictly_above[edge.position]]

    @lazy_attribute
    def chi_y_open(self) -> tuple:
        """Per position, the integer coefficients of chi_y of the edge's
        open stratum as a tuple, top down by additivity: chi_y(P^d) minus
        chi_y of every open stratum strictly above the edge.  The
        coefficients of each chi_y(P^d) are made once per call, and an edge
        with nothing above it, a point among them, takes them as they are.
        Built only for the chi-y report's rows and the Chern terms of curves
        and surfaces; chi_y of the divisor comes from the Mobius pass."""
        edges, above = self.edges, self.strictly_above
        pn = [(1,)]  # per dimension d, the coefficients of chi_y(P^d)
        for _ in range(edges[0].dim):
            pn.append((*pn[-1], -pn[-1][-1]))
        out = [None] * len(edges)
        for i in reversed(range(len(edges))):
            cs = pn[edges[i].dim]
            if above[i]:
                cs = list(cs)
                for f in above[i]:
                    p = 0  # a plain counter runs faster than enumerate here
                    for c in out[f]:
                        cs[p] -= c
                        p += 1
                cs = tuple(cs)
            out[i] = cs
        return tuple(out)


def _mu_pass(n: int, edges: list, above: list) -> tuple:
    """chi_y from one bottom-up pass over mu(e) = mu(0, e) =
    -1 - sum over x < e of mu(x), for the edges in lattice order, above[i]
    the positions strictly above position i.

    The localization at e has Euler number -codim e mu(e) - sum over x < e
    of mu(x) codim x, so the pass pushes each mu(x) into the two sums of
    every edge above x, and sets each edge's euler to that number.  By
    Mobius inversion over the lattice (Orlik-Terao, ch. 2), the complement
    of the divisor in P^n is the sum over all X of mu(X) P(X), the whole
    space included, in any additive invariant, and P(X) is a
    P^(n - codim X).
    So with tally[d] = -sum of mu(e) over the edges e of dimension d,
    chi_y(D) = the sum over d of tally[d] chi_y(P^d), and the coefficient
    of y^p in chi_y, returned as integers, is (-1)^p times the sum of
    tally[d] over d >= p."""
    mu_below = [0] * len(edges)
    codim_below = [0] * len(edges)
    tally = [0] * n
    for i, e in enumerate(edges):
        codim = e.codim
        mu = -1 - mu_below[i]
        e.euler = -codim * mu - codim_below[i]
        tally[n - codim] -= mu
        for j in above[i]:
            mu_below[j] += mu
            codim_below[j] += mu * codim
    chi_y, acc = [0] * n, 0
    for p in reversed(range(n)):
        acc += tally[p]
        chi_y[p] = -acc if p % 2 else acc
    return tuple(chi_y)


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
    A join's basis is Y's basis with the residual appended, pivoted at its
    first nonzero entry.  The residual is zero at every pivot of Y's basis
    and each row is zero at the pivots of the rows before it, so one pass
    of _reduce over the rows in order still zeroes every pivot; the span
    and the pivots are those of the reduced echelon basis, and so is every
    primitive residual.

    Each level keeps, per hyperplane, the index-set bitmasks of the joins
    found so far that contain it; a join's bitmask grows with its group,
    one bit per hyperplane joined.  Before Y is scanned, each of those
    under Y's lowest hyperplane that contains Y's mask is a join of Y found
    from an earlier edge, and its hyperplanes are skipped.  The
    hyperplanes left form Y's other joins, each one whole, so every
    residual group is a new edge with a saturated index set, and each edge
    is found from exactly one edge below it.  The scan starts after Y's
    lowest hyperplane a, because the frontier goes by lowest hyperplane:
    for H_k off Y with k < a, the join of Y and H_k holds an edge of Y's
    codimension through H_k, whose lowest hyperplane is at most k, so it
    came before Y and found that join, and its hyperplanes are skipped.
    So every new join of Y has lowest hyperplane a, and the next frontier
    goes by lowest hyperplane too.  At codimension 2 the rows go in index
    order and each row's joins in the order of their first added
    hyperplane, so that level comes out in lattice order and is not
    sorted; every higher level is sorted once.  Edges of codimension n are
    not extended: a join of one has rank n + 1 and is no edge.  Once a
    level's order is fixed, each of its edges is built, once, at its
    position, with its key built from the hyperplanes' key texts, made
    once per search.

    An edge is above another exactly when its index set contains the
    other's.  Hyperplane j sits at position j, and the edges above it are
    the edges through it, listed per hyperplane, each with its bitmask, as
    the edges are built.  Any other edge takes the later entries of its
    first hyperplane's list, kept where the mask contains its own, which
    it rebuilds from its index set; no edge is above one of codimension
    n.  The Mobius pass runs over that
    relation and fills in each edge's Euler number, which the edge is
    built without."""
    n, covs, mults = arr.n, arr.covectors, arr.mults
    r = len(covs)
    texts = [str(j + 1) for j in range(r)]  # per hyperplane
    edges = [Edge((j,), 1, texts[j], j, (mults[j],), None, n - 1)
             for j in range(r)]
    # per hyperplane, (position, index-set bitmask) of each edge through
    # it, in lattice order
    containing = [[(j, 1 << j)] for j in range(r)]
    # (index set, its bitmask, basis of its covectors)
    frontier = [((j,), 1 << j, ((_pivot(c), c),)) for j, c in enumerate(covs)]
    for codim in range(2, n + 1):
        level, nxt = [], []  # (index set, bitmask) per join found
        through = [[] for _ in covs]  # per hyperplane, the masks found
        for iset, mask, basis in frontier:
            skip = mask
            for found in through[iset[0]]:
                if found & mask == mask:
                    skip |= found
            joins = {}  # residual -> [its bitmask, the hyperplanes joined]
            for j in range(iset[0] + 1, r):
                if not skip >> j & 1:
                    res = _reduce(basis, covs[j])
                    join = joins.get(res)
                    if join is None:
                        joins[res] = [mask | 1 << j, [j]]
                    else:
                        join[0] |= 1 << j
                        join[1].append(j)
            for res, (key, group) in joins.items():
                joined = (iset + tuple(group) if codim == 2
                          else tuple(sorted(iset + tuple(group))))
                level.append((joined, key))
                for j in joined:
                    through[j].append(key)
                if codim < n:
                    nxt.append((joined, key, basis + ((_pivot(res), res),)))
        if codim > 2:
            level.sort()
        dim = n - codim
        for joined, key in level:
            entry = (len(edges), key)
            for j in joined:
                containing[j].append(entry)
            edges.append(Edge(joined, codim,
                              ",".join(map(texts.__getitem__, joined)),
                              entry[0], tuple(map(mults.__getitem__, joined)),
                              None, dim))
        frontier = nxt
    above = []
    for e in edges:
        if e.codim == n:
            above.append(())
        elif e.codim == 1:  # its own position heads its list
            above.append(tuple([k for k, _ in containing[e.position][1:]]))
        else:
            i, mask = e.position, 0
            for j in e.index_set:
                mask |= 1 << j
            above.append(tuple([k for k, found in containing[e.index_set[0]]
                                if k > i and found & mask == mask]))
    chi_y = _mu_pass(n, edges, above)
    return Lattice(tuple(edges), tuple(above), chi_y)


def edges(arr: Arrangement) -> tuple:
    """All edges of the arrangement, sorted by (codimension, index set)."""
    return arr.lattice.edges


def localize(arr: Arrangement, edge: Edge) -> Edge:
    """The localized central arrangement at an edge: the lattice's record
    at the edge's position, which is the edge itself."""
    return arr.lattice.edges[edge.position]


def milnor_fiber_chi(loc: Edge) -> int:
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
    lattice order: the lattice's edges that in_sigma admits, each the
    stratum itself, shared with every other caller.  The generic section
    is handled symbolically downstream and never appears as an edge."""
    return [e for e in arr.lattice.edges if in_sigma(e)]


# ---------------------------------------------------------------------------
# chi_y genera


def chi_y_pn(n: int) -> RatFuncY:
    """chi_y of projective n-space: alternating powers of y."""
    return RatFuncY([(-1) ** p for p in range(n + 1)])


def chi_y(arr: Arrangement) -> RatFuncY:
    """chi_y genus of the divisor, from the lattice's Mobius pass."""
    return RatFuncY.from_ints(arr.lattice.divisor_chi_y)


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
