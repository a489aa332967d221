"""Assembly of the Hirzebruch-Milnor class of an arrangement divisor.

The class is summed stratum by stratum from spectrum multiplicities,
Deligne-extension line bundles twisted by logarithmic cotangent powers,
and the scaled Todd transformation, then pushed into the labeled Chow
basis of the singular locus.  Every germ, catalogue class or user table,
is read as runs of exponents whose multiplicities are linear in c, and
summed over the Deligne powers between the breaks of each twist, so no
spectrum is listed; each distinct local type is computed once per report.
Every stratum contributes from a few integers per power of y, in closed
form, one coefficient per codegree on its closure: the summed
multiplicities, and on a curve their twist degrees and its boundary
count, on a surface the pairings of the summed Deligne classes with the
line, c1 and K + D, the sum of their squares and its boundary lines.
Those integers come from one walk of the stratum's lattice row
(strata.compactify), a surface's boundary lines and blown points
included, so assembly builds no stratum model, and two strata whose rows
give the same integers share one contribution.  A point has no boundary,
so no twist and no break: it sums its runs directly.  M_y is the
label-by-label sum of the per-stratum vectors.
An independent Euler-weighted Chern path provides the cross-check at
y = -1: it reads the lattice alone, since c(T(-log D)) of a stratum,
pushed to its closure, is a CSM class (Aluffi) in closed form: 1 on a
point, 1 + (chi - 1) pt on a curve, 1 + (2 - L) line + (chi - 2 + L) pt
on a surface with L boundary lines.  A degree-zero comparison against
the virtual-genus difference is always reported.  The one unprintable
global choice (a shift convention) is quarantined in ConventionSet and
explored exhaustively by calibrate().  The report's layout is jsontext's:
each label -> value object is the schema's object of zero values, cut
once per report, with the text of each nonzero value in its place.
"""

from __future__ import annotations

from itertools import chain
from math import lcm

from .ambient import virtual_genus
from .arrangement import Arrangement, chi_y, sigma_strata
from .coeffs import RatFuncY, ratio_text
from .jsontext import HOLE, dumps, parts, splice
from .spectra import SpectrumError, stratum_germs
from .strata import (EXT_HALF_OPEN_DOWN, EXT_HALF_OPEN_UP, LabelSchema,
                     build_labels, check_envelope, compactify, push_to_sigma,
                     specializations, trace, twist_offsets)

__all__ = [
    "MilnorError",
    "MissingSpectrumError",
    "PolynomialityError",
    "ConventionSet",
    "DEFAULT_CONVENTIONS",
    "ALL_CONVENTIONS",
    "MilnorReport",
    "assemble",
    "chern_milnor",
    "calibrate",
]


class MilnorError(RuntimeError):
    pass


class MissingSpectrumError(MilnorError):
    """A stratum has no catalogue spectrum and no user table."""

    def __init__(self, keys):
        self.keys = list(keys)
        super().__init__(
            "missing spectrum tables for edges: " + ", ".join(self.keys))


class PolynomialityError(MilnorError):
    """A per-stratum sum kept a (1+y) denominator: convention violation."""

    def __init__(self, key, coefficient):
        self.key = key
        super().__init__(
            f"stratum {key}: non-polynomial contribution {coefficient}")


SIGN_MODES = ("as_printed", "flip_odd_strata")


class ConventionSet:
    """The two unprinted global choices: an overall per-stratum sign and the
    half-open window for Deligne-extension residues."""

    def __init__(self, sign_mode: str = "as_printed",
                 extension_mode: str = EXT_HALF_OPEN_UP):
        if sign_mode not in SIGN_MODES:
            raise ValueError(f"unknown sign mode {sign_mode!r}")
        if extension_mode not in (EXT_HALF_OPEN_UP, EXT_HALF_OPEN_DOWN):
            raise ValueError(f"unknown extension mode {extension_mode!r}")
        self.sign_mode, self.extension_mode = sign_mode, extension_mode

    def __eq__(self, other):
        if not isinstance(other, ConventionSet):
            return NotImplemented
        return (self.sign_mode, self.extension_mode) == (
            other.sign_mode, other.extension_mode)

    def label(self) -> str:
        return f"{self.sign_mode}/{self.extension_mode}"


DEFAULT_CONVENTIONS = ConventionSet()
ALL_CONVENTIONS = tuple(
    ConventionSet(s, e)
    for s in SIGN_MODES
    for e in (EXT_HALF_OPEN_UP, EXT_HALF_OPEN_DOWN)
)


class MilnorReport:
    """An assembled class and its checks.  m_y, chern_path and each value
    of per_stratum and of specializations are Chow vectors on schema: m_y
    and per_stratum hold RatFuncY values, and chern_path and the
    specializations, constant vectors, integer pairs (p, q) in lowest
    terms."""

    def __init__(self, arrangement: Arrangement, conventions: ConventionSet,
                 schema: LabelSchema, m_y: dict, per_stratum: dict,
                 degree0: dict, specializations: dict, chern_path: dict,
                 cross_path_ok: bool, listed: dict):
        self.arrangement, self.conventions = arrangement, conventions
        self.schema, self.m_y, self.per_stratum = schema, m_y, per_stratum
        self.degree0, self.specializations = degree0, specializations
        self.chern_path, self.cross_path_ok = chern_path, cross_path_ok
        self.listed = listed  # edge key -> stratum, for nonzero germs

    def json_chunks(self, dump_strata: bool = False):
        """The report as indented JSON text, chunk by chunk: jsontext.splice
        writes the skeleton, with a hole for each label -> value block."""
        names = self.schema.names()
        # no rendered string holds a raw newline, so the object one level
        # deeper is the same text with each line indented two more spaces
        top = parts(dict.fromkeys(names, HOLE), 1)
        inner = [piece.replace("\n", "\n  ") for piece in top]
        slot = {name: 2 * i + 1 for i, name in enumerate(names)}
        m_y = _label_block(top, slot, 1, RatFuncY.as_strings)
        stratum = _label_block(inner, slot, 2, RatFuncY.as_strings)
        constants = _label_block(inner, slot, 2, lambda v: ratio_text(*v),
                                 constant=True)
        skeleton = {
            "n": self.arrangement.n,
            "m": self.arrangement.m,
            "conventions": {"sign_mode": self.conventions.sign_mode,
                            "extension_mode": self.conventions.extension_mode},
            "M_y": HOLE,
            "per_stratum": dict.fromkeys(self.per_stratum, HOLE),
            "specializations": dict.fromkeys(map(str, self.specializations),
                                             HOLE),
            "degree0": self.degree0,
            "cross_path_ok": self.cross_path_ok,
            "cross_path": {"ok": self.cross_path_ok, "chern_milnor": HOLE},
        }
        if dump_strata:
            skeleton["strata"] = [_stratum_dump(self.arrangement, s)
                                  for s in self.listed.values()]
        # each block is rendered as its chunk is read
        blocks = chain(map(m_y, [self.m_y]),
                       map(stratum, self.per_stratum.values()),
                       map(constants, self.specializations.values()),
                       map(constants, [self.chern_path]))
        count = len(self.per_stratum) + len(self.specializations) + 2
        return chain(splice(skeleton, blocks, count), ("\n",))


_KIND = ("point", "curve", "surface")


def _stratum_dump(arr: Arrangement, stratum) -> dict:
    """A listed stratum's --dump-strata entry, from its compactification's
    walk (compactify): its ring basis, 1 on a point, 1, h on a curve, and
    1, e, eps_k per blown point k, pt on a surface, and its boundary
    components, each with its m_sub, its residue m_res and its class as
    an integer vector in that basis.  The components are the boundary
    lines (a curve's points), each with m_sub = its m_s minus the
    stratum's and class h, or e minus the eps_k of the blown points on
    it; then the exceptional curve over each blown point k, with m_sub
    read alike and class eps_k; then infinity, with residue (-m) mod m_s
    and class h or e.  A point has no boundary."""
    dim, m_s = stratum.dim, stratum.m_s
    lattice = arr.lattice
    edges, above = lattice.edges, lattice.strictly_above
    lines, blown = compactify(arr, stratum)
    slot = {k: 2 + i for i, k in enumerate(blown)}  # eps_k's place
    points = [edges[k].key for k in blown]
    basis = (["1", "h"][:dim + 1] if dim < 2 else
             ["1", "e", *(f"eps_{key}" for key in points), "pt"])
    boundary = []

    def component(name, source, m_sub, m_res, places):
        cls = ["0"] * len(basis)
        for i, x in places:
            cls[i] = x
        boundary.append({"name": name, "source": source, "m_sub": m_sub,
                         "m_res": m_res, "class": cls})

    for j in lines:
        m_sub = edges[j].m_s - m_s
        component(edges[j].key, "edge", m_sub, m_sub % m_s,
                  [(1, "1"), *((slot[i], "-1") for i in above[j]
                               if i in slot)])
    for k, i in slot.items():
        m_sub = edges[k].m_s - m_s
        component(edges[k].key, "exceptional", m_sub, m_sub % m_s,
                  [(i, "1")])
    if dim:
        component("infinity", "infinity", 0, -arr.m % m_s, [(1, "1")])
    return {"edge": stratum.key, "kind": _KIND[dim], "dim": dim, "m_s": m_s,
            "ring_basis": basis, "blown_points": points,
            "boundary": boundary}


def _label_block(pieces: list, slot: dict, depth: int, to_json,
                 constant: bool = False):
    """Renderer of a vector as its label -> value object, depth levels deep
    in the report, whose text cut at each value is pieces, with each value
    written as to_json writes it: the object of zero values, rendered
    once, with the texts of the vector's nonzero values in their places.
    A vector holds RatFuncY values, or integer pairs (p, q) when it is
    constant.  slot maps each label to the place of its value among the
    pieces and values.  A value's text is rendered once per renderer,
    since strata of one local type share their coefficients."""
    zeros = [None] * (2 * len(pieces) - 1)
    zeros[::2] = pieces
    zero = (0, 1) if constant else RatFuncY.ZERO
    zeros[1::2] = [dumps(to_json(zero), depth + 1)] * len(slot)
    # normal form of a coefficient, a pair being its own -> its text
    rendered = {}

    def block(vec: dict) -> str:
        out = zeros[:]
        for name, value in vec.items():
            form = value if constant else (value.num, value.den, value.k)
            text = rendered.get(form)
            if text is None:
                text = rendered[form] = dumps(to_json(value), depth + 1)
            out[slot[name]] = text
        return "".join(out)

    return block


def _power_sums(lo: int, hi: int) -> tuple:
    """The sums of c^i over lo <= c <= hi, for i = 0..3 and 0 <= lo: the
    sums over 0 <= c <= hi less those over 0 <= c <= lo - 1, where the
    sum of c, s = n (n + 1)/2 up to n, gives s (2n + 1)/3 and s^2."""
    m = lo - 1
    s, t = hi * (hi + 1) // 2, m * (m + 1) // 2
    return (hi - m, s - t, (s * (2 * hi + 1) - t * (2 * m + 1)) // 3,
            s * s - t * t)


def _breaks(lo: int, hi: int, a: int, b: int, m: int) -> list:
    """The c in (lo, hi] at which floor((a c + b) / m) differs from its
    value at c - 1, for |a| <= m."""
    first, last = (a * lo + b) // m, (a * hi + b) // m
    if a > 0:
        return [-((b - v * m) // a) for v in range(first + 1, last + 1)]
    if a < 0:
        return [((v + 1) * m - b) // a + 1
                for v in range(first - 1, last - 1, -1)]
    return []


def _twist_slopes(q: int, m_s: int, residues) -> list:
    """(slope, step) per residue r: the twist at the power q c is slope c
    plus floor((step c + b0) / m_s) + c0, with the slope that leaves
    fewer breaks (at most min(r, e - r))."""
    out = []
    for r in residues:
        slope = (q * r) // m_s + (2 * (q * r % m_s) > m_s)
        out.append((slope, q * r - slope * m_s))
    return out


def _segments(runs, twists, m_s: int, mode: str):
    """The runs (p, lo, hi, a, b) cut where some twist breaks, for the
    (slope, step) twists: per segment, p, the constant part
    floor((start step + b0) / m_s) + c0 of each twist, and n_i = the sum of
    (a + b c) c^i over its c, for i = 0..2.

    Every germ, catalogue class or user table, gives its exponents as runs
    codim - p - c/e with multiplicity a + b c for lo <= c <= hi, and the
    exponent at c has the Deligne power k = q c for q = m_s/e:
    e(k/m_s) = e(-alpha) with k/m_s in [0,1).  In the window (0,1] the
    power k = 0 stands for k = m_s: the twists of (0,1] give both the
    class -D, since m_s times the base class is minus the residue-weighted
    boundary, so the window enters only through the twists.  Each twist is
    linear in c between its breaks."""
    b0, c0 = twist_offsets(m_s, mode)
    for p, lo, hi, a, b in runs:
        if lo > hi:
            continue
        cuts = [lo]
        if lo < hi:  # a run of one exponent has no break
            for _, step in twists:
                cuts += _breaks(lo, hi, step, b0, m_s)
            if len(cuts) > 2:  # each twist's breaks ascend, past lo
                cuts = sorted(set(cuts))
        cuts.append(hi + 1)
        for start, end in zip(cuts, cuts[1:]):
            p0, p1, p2, p3 = _power_sums(start, end - 1)
            yield (p, [(start * step + b0) // m_s + c0 for _, step in twists],
                   a * p0 + b * p1, a * p1 + b * p2, a * p2 + b * p3)


def _sign(p: int, codim: int) -> int:
    """s_p = (-1)^(p + codim - 1), the sign of the terms at p."""
    return -1 if (p + codim - 1) % 2 else 1


def _curve_terms(key: tuple, codim: int, m: int, mode: str) -> list:
    """The fundamental class of a point, or the fundamental and point
    classes of a curve, each as the integer coefficients of powers of y:
    the sums over p of s_p y^p times A_p, and times
    (A_p + B_p) + (B_p + (b - 1) A_p) y, for A_p = the sum of the
    multiplicities a + b c at p, b boundary components, infinity included,
    and B_p = the sum of (a + b c) deg L_(qc), where deg L_k = beta k + the
    sum of n_r t_r(k) over the residues r, n_r components having residue
    r, t_r(k) = floor((k r + b0) / m_s) + c0, and beta = floor(-(m - m_s)/m_s)
    + the sum of floor(m_sub/m_s) over the edge components is the degree
    of the base class.  On P^1, 12 td = (12, 12),
    2 ch(Omega^1(log D)) = (2, 2 (b - 2)) and 2 ch(L_k) = (2, 2 deg L_k),
    and products of degree-1 classes vanish.  A curve's edge components
    are its lattice row, whose m_sub = m_rel the key holds, and its
    infinity has residue (-m) mod m_s.  A point has no boundary, so no
    twist and no break: it sums its runs directly, A_p = the sum over its
    runs at p of a (hi - lo + 1) + b (lo + hi)(hi - lo + 1)/2."""
    dim, m_s, row, e, runs = key
    q = m_s // e
    if not dim:
        points = {}  # p -> A_p
        for p, lo, hi, a, b in runs:
            if lo <= hi:
                n = hi - lo + 1
                points[p] = points.get(p, 0) + a * n + b * (lo + hi) * n // 2
        fundamental = [0] * (max(points) + 1)
        for p, a_p in points.items():
            fundamental[p] = _sign(p, codim) * a_p
        return [fundamental]
    beta, b_d = -(m - m_s) // m_s, len(row) + 1
    counts = {-m % m_s: 1}  # residue -> the components with it
    for m_sub in row:
        r = m_sub % m_s
        counts[r] = counts.get(r, 0) + 1
        beta += m_sub // m_s
    residues = sorted(counts)
    twists = _twist_slopes(q, m_s, residues)
    n_r = [counts[r] for r in residues]
    v = q * beta
    for (s, _), n in zip(twists, n_r):
        v += s * n
    sums = {}  # p -> A_p, B_p
    for p, t, n0, n1, _ in _segments(runs, twists, m_s, mode):
        a_p, b_p = sums.get(p, (0, 0))
        u = 0
        for x, n in zip(t, n_r):
            u += x * n
        sums[p] = a_p + n0, b_p + n0 * u + n1 * v
    top = max(sums) + 2
    fundamental, point = [0] * top, [0] * top
    for p, (a_p, b_p) in sums.items():
        sign = _sign(p, codim)
        fundamental[p] = sign * a_p
        point[p] += sign * (a_p + b_p)
        point[p + 1] += sign * (b_p + (b_d - 1) * a_p)
    return [fundamental, point]


def _surface_terms(key: tuple, codim: int, mode: str) -> list:
    """The fundamental, line and point classes of a surface, times 2, each
    as the integer coefficients of powers of y, from the integers of its
    type key's row (_surface_row): the sums over p of s_p y^p times 2 A,
    (2E + 3A)(1 + y) + 2 (L - 2) A y and
    (Q + C + 2A)(1 + y)^2 + (2X + kappa A) y (1 + y) + A (s1 y + s2 y^2).

    A is the sum of the multiplicities N at p; with W = the sum of N D_k,
    E, C and X are the pairings of W with the line e, with c1 and with
    x = D - c1 = K + D, and Q is the sum of N D_k^2.  D_k = k base + the
    sum of t_r(k) D_r over the residues r, so D_k = U + V c between the
    breaks of the twists, and the slopes and V depend on q alone.  Each
    degree-1 class is its e-coefficient and one integer per blown point
    k, in the basis e, eps_k of the plane blown up at the points, where
    a.b = a_e b_e - the sum of a_k b_k; so c1 = (3; -1, ...) and
    x = (L - 2; 2 - t_k), t_k the boundary lines through k.  W is never
    formed: each segment adds its pairings with e, c1 and x, which are
    linear in it, to those of its p.  L is the number of boundary lines,
    kappa = x.c1, s1 = c1^2 - 2 c2 - the sum of D_i^2
    = 2 - 2b - L + the sum of t_k over the b blown points, and s2 = x^2:
    with c1^2 + c2 = 12 on a blown-up plane (Noether),
    12 td = 12 + 6 c1 + 12 pt, 2 ch(Omega^1(log D)) = 4 + 2x + s1 pt,
    2 ch(Omega^2(log D)) = 2 + 2x + s2 pt and
    2 ch(L_k) = 2 + 2 D_k + D_k^2."""
    _, m_s, row, e, runs = key
    lines, residues, counts, points, base_e = row
    q, l2 = m_s // e, lines - 2
    twists = _twist_slopes(q, m_s, residues)
    # V = q base + the sum of slope_r D_r
    ve = q * base_e
    for (s, _), a in zip(twists, counts):
        ve += s * a
    s1, s2, kappa = 2 - lines, l2 * l2, 3 * l2
    vc, vx, vv = 3 * ve, l2 * ve, ve * ve
    blown = []  # (B_rk per residue, x_k, V_k) per blown point k
    for by_res, base, t in points:
        vk = q * base
        for (s, _), b in zip(twists, by_res):
            vk += s * b
        xk = 2 - t
        blown.append((by_res, xk, vk))
        s1 += t - 2
        s2 -= xk * xk
        kappa += xk
        vc += vk
        vx -= xk * vk
        vv -= vk * vk
    sums = {}  # p -> A, W.e, W.c1, W.x, Q
    for p, t, n0, n1, n2 in _segments(runs, twists, m_s, mode):
        ue = 0
        for x, a in zip(t, counts):
            ue += x * a
        uc, ux, uu, uv = 3 * ue, l2 * ue, ue * ue, ue * ve
        for by_res, xk, vk in blown:
            uk = 0
            for x, b in zip(t, by_res):
                uk += x * b
            uc += uk
            ux -= xk * uk
            uu -= uk * uk
            uv -= uk * vk
        a, we, wc, wx, sq = sums.get(p, (0, 0, 0, 0, 0))
        sums[p] = (a + n0, we + n0 * ue + n1 * ve,
                   wc + n0 * uc + n1 * vc, wx + n0 * ux + n1 * vx,
                   sq + n0 * uu + 2 * n1 * uv + n2 * vv)
    top = max(sums) + 3
    out = [[0] * top, [0] * top, [0] * top]
    fundamental, line_class, point_class = out
    for p, (a, we, wc, wx, sq) in sums.items():
        sign = _sign(p, codim)
        line = 2 * we + 3 * a
        point = sq + wc + 2 * a
        middle = 2 * wx + kappa * a
        fundamental[p] = sign * 2 * a
        line_class[p] += sign * line
        line_class[p + 1] += sign * (line + 2 * (lines - 2) * a)
        point_class[p] += sign * point
        point_class[p + 1] += sign * (2 * point + middle + s1 * a)
        point_class[p + 2] += sign * (point + middle + s2 * a)
    return out


def _stratum_contribution(arr: Arrangement, key: tuple,
                          conv: ConventionSet) -> list:
    """Sum over exponents and cotangent powers for one stratum of the type
    key (_type_key), with the degree scaling already applied: one RatFuncY
    per codegree j = 0..dim on the closure P^dim.  Besides the key it
    reads n and m alone.  The exceptional curves of a surface contract to
    zero on P^2, so none of their classes is summed.

    The germ is read through its runs in its own frame: alpha stands at
    p = floor(codim - alpha) with multiplicity (-1)^dim n_alpha, and the
    summand td ch(L_k) ch(Omega^q) (-y)^(p + q) sign_q (-1)^dim n_alpha
    has y only in y^(p + q), with the sign (-1)^(p + q + dim) sign_q =
    s_p = (-1)^(p + codim - 1).  So the sum is a few integers per p, and
    12 td, 2 ch(Omega^q(log D)), 2 ch(L_k) and the scaling (1+y)^(q - dim)
    multiply out to closed forms, each polynomial in y (_curve_terms,
    _surface_terms), which give each class as its integer coefficients."""
    codim, mode = arr.n - key[0], conv.extension_mode
    if key[0] == 2:
        den, out = 2, _surface_terms(key, codim, mode)
    else:
        den, out = 1, _curve_terms(key, codim, arr.m, mode)
    return [RatFuncY.from_ints(cls, den) for cls in out]


def _surface_row(arr: Arrangement, m_s: int, lines, blown) -> tuple:
    """The integers a surface's closed form reads, from its
    compactification's walk (compactify): (L, residues, A, points,
    base_e).  lines are its L boundary lines, each with m_j = its m_s
    minus the surface's m_s and residue r_j = m_j mod m_s, and blown its
    blown points, each with t_k lines through it, m_k and r_k; infinity,
    the class e, has residue (-m) mod m_s.  In the basis
    e, eps_k, D_r has e-coefficient A_r = the lines of residue r,
    infinity included, and eps_k-coefficient B_rk = [r_k = r] - the lines
    through k of residue r; the base class has e-coefficient
    base_e = -ceil((m - m_s)/m_s) + the sum of floor(m_j/m_s), and
    eps_k-coefficient base_k = floor(m_k/m_s) - the sum of floor(m_j/m_s)
    over the lines through k.  residues is sorted, A lists the A_r in its
    order, and points the sorted (B_rk per residue, base_k, t_k), so that
    surfaces that differ only in the order of their points share one."""
    lattice = arr.lattice
    above, edges = lattice.strictly_above, lattice.edges
    # blown point -> its residue -> B_rk, and base_k
    points = {i: [{}, 0] for i in blown}
    counts = {-arr.m % m_s: 1}  # residue -> A_r
    base_e = -(arr.m - m_s) // m_s
    for j in lines:
        m_j = edges[j].m_s - m_s
        r, f = m_j % m_s, m_j // m_s
        counts[r] = counts.get(r, 0) + 1
        base_e += f
        for i in above[j]:
            point = points.get(i)
            if point is not None:
                by_res = point[0]
                by_res[r] = by_res.get(r, 0) - 1
                point[1] -= f
    for i, point in points.items():
        m_k = edges[i].m_s - m_s
        by_res, r = point[0], m_k % m_s
        by_res[r] = by_res.get(r, 0) + 1
        point[1] += m_k // m_s
    residues = set(counts)
    for by_res, _ in points.values():
        residues.update(by_res)
    residues = tuple(sorted(residues))
    return (len(lines), residues, tuple(counts.get(r, 0) for r in residues),
            tuple(sorted((tuple(by_res.get(r, 0) for r in residues), base,
                          blown[i])
                         for i, (by_res, base) in points.items())), base_e)


def _type_key(arr: Arrangement, stratum, germ) -> tuple:
    """The input of a stratum's contribution within one report, where n, m
    and the conventions are fixed: (dim, m_s, row, e, runs), for the
    germ's e and runs, read in its own frame ('germ', codim) with e
    dividing m_s, or SpectrumError.  row is read from the stratum's
    compactification, one walk of its lattice row (compactify): () for a
    point, the sorted m_rel = m_s(edge) - m_s of a curve's boundary
    points, and a surface's integers (_surface_row), which say which
    boundary lines pass through which blown points as well; so two
    surfaces share a key exactly when their closed forms read the same
    integers."""
    dim, m_s = stratum.dim, stratum.m_s
    codim = arr.n - dim
    if germ.frame != ("germ", codim):
        raise SpectrumError(f"expected the germ frame ('germ', {codim}), "
                            f"got {germ.frame}")
    e = germ.e
    if m_s % e:
        raise SpectrumError(f"denominator lcm {e} does not divide m_s = {m_s}")
    if not dim:
        row = ()
    else:
        lines, blown = compactify(arr, stratum)
        if dim == 1:
            edges = arr.lattice.edges
            row = tuple(sorted([edges[j].m_s - m_s for j in lines]))
        else:
            row = _surface_row(arr, m_s, lines, blown)
    return dim, m_s, row, e, germ.runs


def assemble(arr: Arrangement, user_tables: dict = None,
             conv: ConventionSet = DEFAULT_CONVENTIONS) -> MilnorReport:
    """Assemble the Hirzebruch-Milnor class of the arrangement divisor.

    Every stratum of the singular locus needs a spectrum (catalogue or
    user table); each per-stratum sum must come out polynomial in y, and
    a failure is raised as a convention violation rather than silenced.

    One pass over the strata, and the Chern path reads the same list,
    through the lattice alone.  Each distinct (codim, mults) has its
    germ classified once (stratum_germs).  Each curve and surface with a
    nonzero germ is compactified once, one walk of its lattice row, which
    its type key reduces to integers, and no stratum model is built; the
    report keeps the strata with a nonzero germ, which --dump-strata
    walks again to write.
    Strata with the same type key get the same contribution, which
    is computed once per report from the key alone; a stratum's vector is
    push_to_sigma's label -> coefficient dict as it stands, and M_y is
    the label-by-label sum of those vectors.  A label's first push is
    kept as the memo's shared RatFuncY; a label pushed to again sums
    integer numerators over a common denominator (1 or 2 in the closed
    forms) and becomes one RatFuncY at the end, or none if it cancels.
    """
    strata = sigma_strata(arr)
    for s in strata:  # before any label is named or spectrum looked up
        check_envelope(s)
    schema = build_labels(arr)
    germs = stratum_germs(strata, user_tables)
    missing = [s.key for s, germ in zip(strata, germs) if germ is None]
    if missing:
        raise MissingSpectrumError(missing)

    per_stratum = {}
    listed = {}  # edge key -> its stratum
    memo = {}  # type key -> contribution, for this report only
    m_y = {}  # label -> its first push, the memo's value
    sums = {}  # label pushed to again -> [den, numerator list] of its sum
    for s, germ in zip(strata, germs):
        if germ.is_zero():
            continue  # skip by spectrum content only
        listed[s.key] = s
        key = _type_key(arr, s, germ)
        coeffs = memo.get(key)
        if coeffs is None:
            coeffs = _stratum_contribution(arr, key, conv)
            for c in coeffs:
                if not c.is_polynomial():
                    raise PolynomialityError(s.key, c)
            if conv.sign_mode == "flip_odd_strata" and s.dim % 2 == 1:
                coeffs = [-c for c in coeffs]
            memo[key] = coeffs
        contribution = per_stratum[s.key] = push_to_sigma(schema, s, coeffs)
        for name, v in contribution.items():
            first = m_y.get(name)
            if first is None:
                m_y[name] = v
                continue
            acc = sums.get(name)
            if acc is None:
                acc = sums[name] = [first.den, list(first.num)]
            den, num = acc
            if v.den != den:  # over the lcm of the two
                common = lcm(den, v.den)
                if common != den:
                    num[:] = [c * (common // den) for c in num]
                    acc[0] = den = common
            scale = den // v.den
            if len(num) < len(v.num):
                num += [0] * (len(v.num) - len(num))
            for i, c in enumerate(v.num):
                num[i] += scale * c
    for name, (den, num) in sums.items():  # each sum, once, and may cancel
        v = RatFuncY.from_ints(num, den)
        if v:
            m_y[name] = v
        else:
            del m_y[name]

    chern_path = chern_milnor(arr, schema, strata)
    at = specializations(m_y)
    return MilnorReport(
        arrangement=arr,
        conventions=conv,
        schema=schema,
        m_y=m_y,
        per_stratum=per_stratum,
        degree0=degree0_check(arr, schema, m_y),
        specializations=at,
        chern_path=chern_path,
        cross_path_ok=(at[-1] == chern_path),
        listed=listed,
    )


def chern_milnor(arr: Arrangement, schema: LabelSchema,
                 strata: list) -> dict:
    """Euler-weighted Chern-class path: the sum over strata of the reduced
    Milnor-fiber Euler number chi~ times c(T(-log D)) of the stratum's
    compactification, pushed to the Chow basis.  Needs no spectra, no
    conventions and no model: on an arrangement that class, pushed to the
    closure S = P^d, is the Chern-Schwartz-MacPherson class of the open
    stratum minus the generic section (Aluffi 1999), so it is read from
    the lattice.  With chi = chi(open stratum), chi_y_open at y = -1: 1 on
    the fundamental class; on a curve chi - 1 on the point; on a surface
    with L boundary lines, the edges one codimension above it, 2 - L on
    the line and chi - 2 + L on the point.  The sums are kept in
    integers, and each nonzero one is its label's value as the integer
    pair (sum, 1), so the vector compares with the specialization at
    y = -1 and builds no RatFuncY.  Each stratum is read once, its Euler
    number and m_s directly."""
    lattice = arr.lattice
    fundamental, shared = schema.fundamental, schema.shared
    totals = {}
    for s in strata:
        chi_tilde = s.euler * s.m_s - 1  # milnor_fiber_chi(s) - 1
        if not chi_tilde:
            continue
        name = fundamental[s.key]
        totals[name] = totals.get(name, 0) + chi_tilde
        if s.dim:
            i = s.position
            cs = lattice.chi_y_open[i]
            chi = sum(cs[::2]) - sum(cs[1::2])  # chi_y at y = -1
            if s.dim == 1:
                terms = ((shared[0], chi - 1),)
            else:
                lines = sum(lattice.edges[j].codim == s.codim + 1
                            for j in lattice.strictly_above[i])
                terms = ((shared[1], 2 - lines), (shared[0], chi - 2 + lines))
            for name, v in terms:
                totals[name] = totals.get(name, 0) + chi_tilde * v
    return {name: (v, 1) for name, v in totals.items() if v}


def degree0_check(arr: Arrangement, schema: LabelSchema, m_y: dict) -> dict:
    """Compare the trace of the assembled class m_y on schema with the
    wholly independent degree-zero difference: the virtual genus of the
    divisor degree minus the chi_y genus of the underlying reduced divisor."""
    vg = virtual_genus(arr.m, arr.n)
    cx = chi_y(arr)
    delta = vg - cx
    total = trace(schema, m_y).as_poly()
    return {
        "virtual_genus": vg.as_strings(),
        "chi_y_X": cx.as_strings(),
        "delta": delta.as_strings(),
        "trace_M_y": total.as_strings(),
        "equal": delta == total,
    }


def calibrate(suite) -> tuple:
    """Exhaustively evaluate the convention space over a suite of
    arrangements.

    suite: iterable of (name, arrangement, user_tables-or-None).  Returns
    (chosen_conventions, report).  The chosen set maximizes the number of
    suite members whose degree-zero comparison holds, ties broken toward
    the default; disagreements are reported per member, never reconciled.
    """
    suite = list(suite)
    results = {}
    scores = []
    for conv in ALL_CONVENTIONS:
        per = {}
        score = 0
        for name, arr, tables in suite:
            try:
                rep = assemble(arr, tables, conv)
            except MilnorError as exc:
                per[name] = {
                    "polynomial": False,
                    "degree0_equal": False,
                    "cross_path_ok": False,
                    "error": str(exc),
                }
                continue
            entry = {
                "polynomial": True,
                "degree0_equal": rep.degree0["equal"],
                "cross_path_ok": rep.cross_path_ok,
                "delta": rep.degree0["delta"],
                "trace_M_y": rep.degree0["trace_M_y"],
            }
            per[name] = entry
            if rep.degree0["equal"]:
                score += 1
        results[conv.label()] = per
        scores.append((score, conv))
    best_score = max(s for s, _ in scores)
    chosen = next(conv for s, conv in scores if s == best_score)
    report = {
        "suite": [name for name, _, _ in suite],
        "conventions": results,
        "chosen": {
            "sign_mode": chosen.sign_mode,
            "extension_mode": chosen.extension_mode,
            "degree0_agreement": best_score,
            "out_of": len(suite),
        },
    }
    return chosen, report
