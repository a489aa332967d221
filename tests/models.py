"""Stratum models: the oracle of a stratum's compactification.

A StratumModel is a stratum's good compactification built as objects: a
point, a line, or the stratum closure blown up at the points where the
induced arrangement fails to be normal crossing, with its blown points,
the tangent Chern class c1 and its boundary components with integer
residues.  Every class of a model is a coefficient vector of integers in
the model basis.  build_model walks the stratum's lattice row on its own,
so the models check what the package reads from strata.compactify's
walk: the integers of a surface's type key, the --dump-strata entries
(to_json) and the integer form of the residue windows and the
tensor-power identity that hmclass check runs.  Standard library only,
besides the package.
"""

from fractions import Fraction

from hmclass.arrangement import lazy_attribute
from hmclass.strata import EXT_HALF_OPEN_UP, check_envelope, twist_offsets


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


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


class StratumModel:
    """A stratum's good compactification; D = sum D_i is its boundary, a
    tuple of BoundaryComponents.  stratum is the stratum's edge, the
    lattice's record, blown_points the edge keys of a surface's blown-up
    points, out_degree the total multiplicity away from the stratum, and
    c1 the first Chern class of the tangent bundle.  Every class is an
    integer vector in the basis 1 (point); 1, h (line); or 1, e, eps_p
    per blown point, pt (surface)."""

    def __init__(self, stratum, boundary: tuple, out_degree: int, c1: tuple,
                 blown_points: tuple):
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


def build_model(arr, stratum) -> StratumModel:
    """Good compactification of a stratum of dimension <= 2, as objects.

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

    lattice = arr.lattice
    above, edges = lattice.strictly_above, lattice.edges
    if d == 1:
        pt = (0, 1)
        comps = [BoundaryComponent(edges[j].key, "edge", edges[j].m_s - m_s,
                                   res(edges[j].m_s - m_s), pt)
                 for j in above[stratum.position]]
        comps.append(BoundaryComponent("infinity", "infinity", 0,
                                       res(-arr.m), pt))
        return StratumModel(stratum, tuple(comps), out_degree, (0, 2), ())

    # the lattice row by position: the edges above a boundary line are
    # exactly the points on it, so its row counts the lines through each
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


def report_models(report) -> list:
    """The model of each stratum a Milnor report lists, those with a
    nonzero germ, in lattice order: the strata its --dump-strata writes."""
    return [build_model(report.arrangement, s)
            for s in report.listed.values()]


def residues(model: StratumModel) -> dict:
    """Residue integer per boundary component name; all lie in [0, m_s)."""
    return {c.name: c.m_res for c in model.boundary}


def deligne_residues(model: StratumModel, k: int,
                     mode: str = EXT_HALF_OPEN_UP) -> dict:
    """Connection residues k*m_res/m_s minus their boundary twist, per
    component, as Fractions; they lie in (0,1] or [0,1) according to the
    mode."""
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
