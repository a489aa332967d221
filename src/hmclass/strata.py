"""Good compactifications of strata and the Chow model of the singular locus.

Strata of dimension <= 2 are compactified explicitly: a point, a line, or
the stratum closure blown up at the points where the induced arrangement
fails to be normal crossing.  compactify reads a stratum's closure from
its edge's lattice row in one walk, as lattice positions: its boundary
lines and its blown points.  Every reader of a closure reads that walk:
a stratum's type key, which reduces it to the integers of its closed
form, the strata dump, which writes each boundary class as an integer
vector in the basis of the blown-up closure, and the invariant checks.
The model classes that build those vectors as objects live in the tests,
as their oracle.  A contribution is a few integers per power of y, one
coefficient per codegree on the closure P^d, which the pushforward takes
to a Chow vector of the singular locus, a dict from label to nonzero
coefficient.  The Chern path reads the lattice alone and builds no
compactification: c(T(-log D)), pushed to a stratum's closure P^d, is the
CSM class of the open stratum minus the generic section (Aluffi 1999),
so with chi the open stratum's Euler number and L its boundary lines it
is 1 on a point, 1 + (chi - 1) pt on a curve, and 1 + (2 - L) line
+ (chi - 2 + L) pt on a surface (milnor.chern_milnor).
"""

from __future__ import annotations

from math import gcd

from .arrangement import Arrangement, Edge, in_sigma
from .coeffs import RatFuncY

__all__ = [
    "StrataError",
    "StratumDimensionError",
    "check_envelope",
    "compactify",
    "twist_offsets",
    "LabelSchema",
    "build_labels",
    "trace",
    "specializations",
    "push_to_sigma",
    "chow_dims",
    "homology_weight_dims",
]


class StrataError(ValueError):
    """Stratum compactification or query error."""


class StratumDimensionError(StrataError):
    """A stratum of dimension > 2, outside the envelope."""


# ---------------------------------------------------------------------------
# compactifications


def check_envelope(stratum: Edge):
    """Refuse a stratum of dimension > 2, which no compactification serves."""
    if stratum.dim > 2:
        raise StratumDimensionError(
            f"unsupported stratum dimension {stratum.dim} (cap is 2)")


def compactify(arr: Arrangement, stratum: Edge) -> tuple:
    """Good compactification of a stratum of dimension <= 2, read from its
    lattice row (strictly_above) in one walk, as lattice positions:
    (lines, blown).  lines are its boundary lines, the row's edges one
    codimension above it: a curve's whole row, its points, and none on a
    point.  blown maps each blown point, a point of the closure through
    which t_k >= 3 of those lines pass, to t_k, in lattice order.

    Curves need no blow-ups; surfaces are blown up exactly at the blown
    points.  The generic auxiliary section contributes one extra boundary
    component, infinity (a generic point on curves, a generic line on
    surfaces), which never passes through an edge.
    """
    check_envelope(stratum)
    lattice = arr.lattice
    above = lattice.strictly_above
    row = above[stratum.position]
    if stratum.dim < 2:
        return row, {}
    edges, codim = lattice.edges, stratum.codim + 1
    # the row lists its lines before its points, and the edges above a
    # line are exactly the points on it, so each point is reached with the
    # lines through it counted
    lines, through, blown = [], {}, {}
    for j in row:
        if edges[j].codim == codim:
            lines.append(j)
            for i in above[j]:
                through[i] = through.get(i, 0) + 1
        else:
            t = through.get(j, 0)
            if t >= 3:
                blown[j] = t
    return lines, blown


# ---------------------------------------------------------------------------
# Deligne-extension line bundles

EXT_HALF_OPEN_UP = "res_(0,1]"
EXT_HALF_OPEN_DOWN = "res_[0,1)"


def twist_offsets(m_s: int, mode: str) -> tuple:
    """(b, c) such that the boundary twist of the Deligne power k on a
    component of residue m_res is floor((k m_res + b) / m_s) + c: that is
    ceil(k m_res / m_s) - 1 for residues in (0,1], floor(k m_res / m_s)
    for [0,1)."""
    if mode == EXT_HALF_OPEN_UP:
        return m_s - 1, -1
    if mode == EXT_HALF_OPEN_DOWN:
        return 0, 0
    raise StrataError(f"unknown extension mode {mode!r}")


# ---------------------------------------------------------------------------
# Chow labels of the singular locus


class Label:
    __slots__ = ("name", "degree", "edge_key")

    def __init__(self, name: str, degree: int, edge_key: str = ""):
        self.name, self.degree = name, degree
        self.edge_key = edge_key  # the edge owning the label; "" if shared


_DIM_LETTER = {0: "P", 1: "L", 2: "F"}


class LabelSchema:
    """Ordered Chow basis of the singular locus: one label per multiple
    hyperplane in top degree, one per codimension-2 edge away from the
    multiple hyperplanes, and one shared label per remaining degree.

    fundamental maps the edge key of every stratum of the singular locus
    to the label of its closure's fundamental class; shared maps a degree
    to its shared label."""

    def __init__(self, labels: tuple, fundamental: dict, shared: dict):
        self.labels = labels
        self.fundamental, self.shared = fundamental, shared

    def names(self) -> list:
        return [l.name for l in self.labels]


def _label_owners(arr: Arrangement) -> tuple:
    """The rule for which strata own a label: the edges in_sigma admits, in
    lattice order, each with whether it owns a label (the multiple
    hyperplanes and the codimension-2 edges on none of them), and the
    degrees, descending, that get one shared label (every degree below
    n - 2, and n - 2 itself when some hyperplane is multiple)."""
    n = arr.n
    multiple = {j for j, m in enumerate(arr.mults) if m > 1}
    strata = [(e, e.codim == 1 or (e.codim == 2
                                   and multiple.isdisjoint(e.index_set)))
              for e in arr.lattice.edges if in_sigma(e)]
    top = n - 2 if multiple else n - 3
    return strata, range(top, -1, -1) if strata else ()


def build_labels(arr: Arrangement) -> LabelSchema:
    """The label schema of the singular locus, from the edges in_sigma
    admits, each read once.  A codimension-2 edge that owns a label is
    named by its dimension, so one outside the envelope is refused."""
    n = arr.n
    strata, degrees = _label_owners(arr)
    shared = {k: f"Q_{{{k}}}" for k in degrees}
    # an own label is H, or P, L or F by the edge's dimension, which the
    # envelope caps at 2, then the edge key: its commas dropped while every
    # index is one digit, else turned into dots
    fundamental = {}
    own = []
    for e, owns in strata:
        key = e.key
        if owns:
            if e.codim == 1:
                letter = "H"
            else:
                check_envelope(e)
                letter = _DIM_LETTER[e.dim]
            body = key.replace(",", "" if e.index_set[-1] < 9 else ".")
            name = fundamental[key] = f"{letter}_{{{body}}}"
            own.append(Label(name, n - e.codim, key))
        else:
            fundamental[key] = shared[n - e.codim]
    # canonical order: degree descending, own labels before the shared one
    labels = own + [Label(name, k) for k, name in shared.items()]
    return LabelSchema(tuple(labels), fundamental, shared)


def trace(schema: LabelSchema, vec: dict) -> RatFuncY:
    """Sum of a vector's degree-zero coefficients (each basis point has
    degree one).  Strata of one local type carry equal coefficients, so
    each distinct normal form is added once, times the number of labels
    that hold it."""
    counts = {}  # (num, den, k) -> labels holding it
    for l in schema.labels:
        if l.degree == 0:
            v = vec.get(l.name)
            if v is not None:
                form = (v.num, v.den, v.k)
                counts[form] = counts.get(form, 0) + 1
    acc = RatFuncY.ZERO
    for (num, den, k), count in counts.items():
        acc = acc + RatFuncY.from_ints([count * c for c in num], den, k)
    return acc


def specializations(vec: dict) -> dict:
    """y0 -> the vector at y = y0, for y0 = -1, 0 and 1, in one pass: a
    constant vector, whose values are integer pairs (p, q) in lowest
    terms, q > 0, as rat gives them.  Strata of one local type carry equal
    coefficients, so each distinct normal form is evaluated once, and its
    zero values are dropped there.  A value must be a polynomial num / den
    (any other has a pole at -1) and nonzero (no builder stores a zero):
    at -1, 0 and 1 it is the alternating sum of num, num[0] and the sum
    of num, over den."""
    at = {}  # (num, den, k) -> its nonzero values, each with its out
    outs = {-1: {}, 0: {}, 1: {}}
    for name, v in vec.items():
        form = (v.num, v.den, v.k)
        cs = at.get(form)
        if cs is None:
            if v.k:
                raise ZeroDivisionError(
                    f"pole at y = -1: non-polynomial value {v}")
            if not v.num:
                raise ValueError(f"zero value stored at label {name}")
            num, den = v.num, v.den
            values = (sum(num[::2]) - sum(num[1::2]), num[0], sum(num))
            cs = at[form] = []
            for out, c in zip(outs.values(), values):
                if c:
                    g = gcd(c, den)
                    cs.append((out, (c // g, den // g)))
        for out, c in cs:
            out[name] = c
    return outs


def push_to_sigma(schema: LabelSchema, stratum: Edge, coeffs) -> dict:
    """Push a stratum's class, given by its coefficients (ints or RatFuncY)
    by codegree j = 0..dim on the closure P^dim, to the labeled Chow basis:
    label -> coefficient.  Codegree 0, the fundamental class, lands on the
    label of the stratum's closure, and codegree j > 0 on the shared label
    of homology degree dim - j, so no two land on one label.  Such a
    dict is a Chow vector: it holds the nonzero coefficients only, as each
    builder drops its zeros where it makes them (here, specializations,
    milnor's sums and Chern path).  A vector of values in y holds
    RatFuncY; a constant one, a specialization or the Chern path, holds
    integer pairs (p, q) in lowest terms."""
    out = {}
    for j, c in enumerate(coeffs):
        if c:
            out[schema.shared[stratum.dim - j] if j
                else schema.fundamental[stratum.key]] = c
    return out


def relabel_vector(vec: dict, perm: dict, source: LabelSchema,
                   target: LabelSchema) -> dict:
    """Transport a vector on source along a hyperplane relabeling (1-based
    index map) to target, for comparing lattice-isomorphic arrangements."""
    values = {}
    for l in source.labels:
        if l.name not in vec:
            continue
        if l.edge_key:
            moved = sorted(perm[int(j)] for j in l.edge_key.split(","))
            name = target.fundamental[",".join(map(str, moved))]
        else:
            name = target.shared[l.degree]
        values[name] = vec[l.name]
    return values


# ---------------------------------------------------------------------------
# dimension tables


def chow_dims(arr: Arrangement) -> dict:
    """Ranks of the rational Chow groups of the divisor and of its singular
    locus, by homology degree."""
    n, r = arr.n, arr.r
    ch_x = {n - 1: r}
    for k in range(n - 1):
        ch_x[k] = 1
    ch_sigma = dict.fromkeys(range(n - 1, -1, -1), 0)
    strata, degrees = _label_owners(arr)
    for e, owns in strata:
        if owns:
            ch_sigma[n - e.codim] += 1
    for k in degrees:
        ch_sigma[k] += 1
    return {"CH_X": ch_x, "CH_Sigma": ch_sigma}


def homology_weight_dims(arr: Arrangement) -> dict:
    """Ranks of the lowest-weight graded pieces of the divisor homology:
    the component count on top, one in every other even degree, zero in
    odd degrees."""
    n, r = arr.n, arr.r
    out = {}
    for k in range(2 * n - 1):
        if k == 2 * n - 2:
            out[k] = r
        elif k % 2 == 0:
            out[k] = 1
        else:
            out[k] = 0
    return out
