"""Good compactifications of strata and the Chow model of the singular locus.

Strata of dimension <= 2 are compactified explicitly: a point, a line, or
the stratum closure blown up at the points where the induced arrangement
fails to be normal crossing.  Each model carries its blown points, the
tangent Chern class c1 and its boundary divisors with integer residues.
Every class of a model is a coefficient vector of integers in the model
basis: the boundary components, the base Deligne-extension class and
the boundary summed by residue (the classes a Deligne power twists).
Only a surface's contribution pairs such classes; a curve's type key
reads its edge's lattice row (boundary_edges, from which compactify
builds a curve's boundary too).  A contribution is a few integers per
power of y, one coefficient per codegree on the closure P^d, which the
pushforward takes to a Chow vector of the singular locus, a dict from
label to nonzero coefficient.  The Chern path reads the lattice alone and
builds no model: c(T(-log D)), pushed to a stratum's closure P^d, is the
CSM class of the open stratum minus the generic section (Aluffi 1999),
so with chi the open stratum's Euler number and L its boundary lines it
is 1 on a point, 1 + (chi - 1) pt on a curve, and 1 + (2 - L) line
+ (chi - 2 + L) pt on a surface (milnor.chern_milnor).
"""

from __future__ import annotations

from operator import add

from .arrangement import Arrangement, Edge, in_sigma, lazy_attribute
from .coeffs import RatFuncY

__all__ = [
    "StrataError",
    "StratumDimensionError",
    "BoundaryComponent",
    "StratumModel",
    "combine",
    "check_envelope",
    "boundary_edges",
    "compactify",
    "residues",
    "twist_offsets",
    "deligne_residues",
    "power_identity_holds",
    "LabelSchema",
    "build_labels",
    "trace",
    "specializations",
    "push_to_sigma",
    "chow_dims",
    "homology_weight_dims",
]


class StrataError(ValueError):
    """Stratum-model construction or query error."""


class StratumDimensionError(StrataError):
    """A stratum of dimension > 2, outside the models' envelope."""


# ---------------------------------------------------------------------------
# compactified models


class BoundaryComponent:
    def __init__(self, name: str, source: str, m_sub: int, m_res: int,
                 cls: tuple):
        self.name = name      # sub-edge key or "infinity"
        self.source = source  # "edge" | "exceptional" | "infinity"
        self.m_sub = m_sub    # induced multiplicity (0 for infinity)
        self.m_res = m_res    # residue integer in [0, m_s)
        self.cls = cls  # divisor class, an integer vector in the model basis


_KIND = ("point", "curve", "surface")


def combine(size: int, const: int, terms) -> tuple:
    """const + sum of c v over (c, v) pairs of integer vectors of one size."""
    out = [0] * size
    out[0] = const
    for c, v in terms:
        if c:
            for i, x in enumerate(v):
                out[i] += c * x
    return tuple(out)


def _unit(size: int, index: int) -> tuple:
    return tuple(int(i == index) for i in range(size))


class StratumModel:
    """A stratum's good compactification; D = sum D_i is its boundary, a
    tuple of BoundaryComponents.  stratum is the stratum's edge, the
    lattice's record, blown_points the edge keys of a surface's blown-up
    points, out_degree the total multiplicity away from the stratum, and
    c1 the first Chern class of the tangent bundle.  Every class is an
    integer vector in the basis 1 (point); 1, h (line); or 1, e, eps_p
    per blown point, pt (surface).  Assembly builds the model of a surface
    only; the strata dumps and the invariant checks build any."""

    def __init__(self, stratum: Edge, boundary: tuple,
                 out_degree: int, c1: tuple, blown_points: tuple):
        self.stratum, self.boundary = stratum, boundary
        self.out_degree, self.c1 = out_degree, c1
        self.blown_points = blown_points

    @property
    def m_s(self) -> int:
        return self.stratum.m_s

    @property
    def dim(self) -> int:
        return self.stratum.dim

    @property
    def kind(self) -> str:
        return _KIND[self.dim]

    @lazy_attribute
    def deligne_base_vector(self) -> tuple:
        """First Chern class of the base extension bundle: the ambient twist
        by minus the rounded-up relative degree, corrected on the sub-edge
        transforms by the integer parts of the induced multiplicity ratios.
        The ambient hyperplane pulls back to basis class 1."""
        size, m_s = len(self.c1), self.m_s
        twist = [(-_ceil_div(self.out_degree, m_s), _unit(size, 1))
                 ] if self.dim else []
        return combine(size, 0, twist + [(c.m_sub // m_s, c.cls)
                                         for c in self.boundary
                                         if c.source != "infinity"])

    @lazy_attribute
    def twist_classes(self) -> tuple:
        """(m_res, D_r) per residue m_res on the boundary, D_r the sum of
        the components with that residue: a Deligne power twists them
        alike."""
        by_res = {}
        for c in self.boundary:
            cls = by_res.get(c.m_res)
            by_res[c.m_res] = (c.cls if cls is None
                               else tuple(map(add, cls, c.cls)))
        return tuple(sorted(by_res.items()))

    def to_json(self) -> dict:
        basis = (["1", "h"][:self.dim + 1] if self.dim < 2 else
                 ["1", "e", *(f"eps_{p}" for p in self.blown_points), "pt"])
        return {
            "edge": self.stratum.key,
            "kind": self.kind,
            "dim": self.dim,
            "m_s": self.m_s,
            "ring_basis": basis,
            "blown_points": list(self.blown_points),
            "boundary": [
                {
                    "name": c.name,
                    "source": c.source,
                    "m_sub": c.m_sub,
                    "m_res": c.m_res,
                    "class": [str(x) for x in c.cls],
                }
                for c in self.boundary
            ],
        }


def check_envelope(stratum: Edge):
    """Refuse a stratum of dimension > 2, which no model serves."""
    if stratum.dim > 2:
        raise StratumDimensionError(
            f"unsupported stratum dimension {stratum.dim} (cap is 2)")


def boundary_edges(arr: Arrangement, stratum: Edge) -> list:
    """(edge, m_rel) per edge inside the stratum's closure: its lattice
    row, the edges strictly above it in lattice order, each with its
    induced multiplicity m_rel = m_s(edge) - m_s >= 1."""
    m_s = stratum.m_s
    return [(e, e.m_s - m_s) for e in arr.lattice.above(stratum)]


def compactify(arr: Arrangement, stratum: Edge) -> StratumModel:
    """Good compactification of a stratum of dimension <= 2.

    Curves need no blow-ups; surfaces are blown up exactly at the points
    of the closure through which at least three induced boundary lines
    pass.  The generic auxiliary section contributes one extra boundary
    component symbolically (a generic point on curves, a generic line on
    surfaces) and never passes through an edge.
    """
    check_envelope(stratum)
    d, m_s = stratum.dim, stratum.m_s
    out_degree = arr.m - m_s

    def res(value: int) -> int:
        return value % m_s

    if d == 0:
        return StratumModel(stratum, (), out_degree, (0,), ())

    if d == 1:
        pt = (0, 1)
        comps = [BoundaryComponent(e.key, "edge", m_rel, res(m_rel), pt)
                 for e, m_rel in boundary_edges(arr, stratum)]
        comps.append(BoundaryComponent("infinity", "infinity", 0,
                                       res(-arr.m), pt))
        return StratumModel(stratum, tuple(comps), out_degree, (0, 2), ())

    # the lattice row by position: the edges above a boundary line are
    # exactly the points on it, so its row counts the lines through each
    lattice = arr.lattice
    above, edges = lattice.strictly_above, lattice.edges
    lines, points, through = [], [], {}
    for j in above[stratum.position]:
        if edges[j].codim == stratum.codim + 1:
            lines.append(j)
            for i in above[j]:
                through[i] = through.get(i, 0) + 1
        else:
            points.append(j)
    slot = {}  # blown point's position -> its eps index in the basis
    for j in points:
        if through.get(j, 0) >= 3:
            slot[j] = 2 + len(slot)
    size = 3 + len(slot)
    e = _unit(size, 1)
    comps = []
    for j in lines:
        cls = [0] * size
        cls[1] = 1
        for i in above[j]:
            if i in slot:
                cls[slot[i]] = -1
        m_rel = edges[j].m_s - m_s
        comps.append(BoundaryComponent(edges[j].key, "edge", m_rel,
                                       res(m_rel), tuple(cls)))
    for j, k in slot.items():
        m_rel = edges[j].m_s - m_s
        comps.append(BoundaryComponent(edges[j].key, "exceptional", m_rel,
                                       res(m_rel), _unit(size, k)))
    comps.append(BoundaryComponent("infinity", "infinity", 0, res(-arr.m), e))
    c1 = [0] * size
    c1[1] = 3
    for k in slot.values():
        c1[k] = -1
    return StratumModel(stratum, tuple(comps), out_degree, tuple(c1),
                        tuple(edges[j].key for j in slot))


def residues(model: StratumModel) -> dict:
    """Residue integer per boundary component name; all lie in [0, m_s)."""
    return {c.name: c.m_res for c in model.boundary}


# ---------------------------------------------------------------------------
# Deligne-extension line bundles

EXT_HALF_OPEN_UP = "res_(0,1]"
EXT_HALF_OPEN_DOWN = "res_[0,1)"


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


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


def deligne_residues(model: StratumModel, k: int,
                     mode: str = EXT_HALF_OPEN_UP) -> dict:
    """Connection residues k*m_res/m_s minus their boundary twist, per
    component, as Fractions; they lie in (0,1] or [0,1) according to the
    mode.  Only the check harness and the tests read them."""
    from fractions import Fraction

    b, c = twist_offsets(model.m_s, mode)
    out = {}
    for comp in model.boundary:
        t = (k * comp.m_res + b) // model.m_s + c
        out[comp.name] = Fraction(k * comp.m_res, model.m_s) - t
    return out


def power_identity_holds(model: StratumModel) -> bool:
    """Exact divisor-class form of the m_s-th tensor power identity: m_s
    times the base class equals minus the residue-weighted boundary sum."""
    lhs = tuple(model.m_s * x for x in model.deligne_base_vector)
    return lhs == combine(len(lhs), 0, [(-c.m_res, c.cls)
                                        for c in model.boundary])


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
    """y0 -> the vector at y = y0, for y0 = -1, 0 and 1, in one pass:
    strata of one local type carry equal coefficients, so each distinct
    normal form is evaluated once, and its zero values are dropped there.
    A value must be a polynomial num / den (any other has a pole at -1)
    and nonzero (no builder stores a zero): at -1, 0 and 1 it is the
    alternating sum of num, num[0] and the sum of num, over den."""
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
            cs = at[form] = [(out, RatFuncY.from_ints((c,), den))
                             for out, c in zip(outs.values(), values)
                             if c]
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
    milnor's sums and Chern path)."""
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
