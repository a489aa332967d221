"""Spectrum data for local defining functions of arrangement strata.

A spectrum is a finitely supported integer-valued function on rational
exponents.  The built-in catalogue covers the two germ families that
arrangements of small ambient dimension produce: monomial germs (local
normal crossings with multiplicities) and ordinary plane germs (k distinct
reduced concurrent lines).  Everything else is admitted via user tables,
which are validated before use and rejected on any failure.

A catalogue germ is fixed by a few integers, its class: the rank r and
the gcd e of the exponents of a monomial germ, or the line count e of an
ordinary one.  Its spectrum is held in closed form, as runs of exponents
r - p - c/e whose multiplicities are linear in c; the entries are
expanded into a Spectrum only for the spectrum report and the validators,
in time linear in their number.  A user table answers the same questions
(frame, e, runs), with one run per entry, so assembly reads every germ
through its runs.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from math import gcd, lcm

from .arrangement import Arrangement, Edge, milnor_fiber_chi
from .coeffs import rat

__all__ = [
    "SpectrumError",
    "SpectrumValidationError",
    "Spectrum",
    "GermKind",
    "classify_germ",
    "sp_monomial",
    "sp_ordinary",
    "sp_shift",
    "sp_validate",
    "sp_user_load",
    "stratum_germ",
    "stratum_germs",
    "stratum_spectrum",
]


class SpectrumError(ValueError):
    """Malformed spectrum data."""


class SpectrumValidationError(SpectrumError):
    """Well-formed spectrum table rejected by the validators."""


class Spectrum:
    """Finite map exponent -> multiplicity with a frame tag.

    frame is ('germ', d) for a function germ on affine d-space at the
    origin, or ('stratum', n) for ambient indexing after the dimension
    shift.  Zero multiplicities are never stored.  A germ-frame table
    answers e and runs() as a catalogue GermKind does, one run per entry.
    """

    def __init__(self, entries: tuple, frame: tuple):
        self.entries = entries  # sorted ((Fraction, int), ...)
        self.frame = frame

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return (self.entries, self.frame) == (other.entries, other.frame)

    @staticmethod
    def make(mapping, frame) -> "Spectrum":
        items = tuple(sorted((Fraction(a), int(m)) for a, m in mapping.items()
                             if m != 0))
        return Spectrum(items, tuple(frame))

    def as_dict(self) -> dict:
        return dict(self.entries)

    @property
    def mass(self) -> int:
        return sum(m for _, m in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    @property
    def e(self) -> int:
        """The lcm of the exponents' denominators; 1 for an empty table."""
        return lcm(*(a.denominator for a, _ in self.entries))

    def runs(self) -> tuple:
        """The entries as GermKind.runs() gives a spectrum: a run
        (p, c, c, n, 0) per entry n at the exponent rank - p - c/e, so
        p = floor(rank - alpha) and c = (rank - p - alpha) e."""
        rank, e = self.frame[1], self.e
        out = []
        for alpha, n in self.entries:
            num, den = alpha.numerator, alpha.denominator
            p = (rank * den - num) // den
            c = (rank - p) * e - num * (e // den)
            out.append((p, c, c, n, 0))
        return tuple(out)

    def to_json(self) -> list:
        return [{"alpha": str(a), "mult": m} for a, m in self.entries]


def sp_monomial(exponents) -> Spectrum:
    """Spectrum of a monomial germ prod y_i^{m_i} on affine r-space."""
    ms = [int(m) for m in exponents]
    if not ms or any(m < 1 for m in ms):
        raise SpectrumError("monomial exponents must be positive integers")
    return GermKind("monomial", tuple(ms)).spectrum()


def sp_ordinary(k: int) -> Spectrum:
    """Spectrum of k distinct reduced concurrent lines in the plane."""
    if k < 2:
        raise SpectrumError("ordinary plane germ needs k >= 2 lines")
    return GermKind("ordinary", (k,)).spectrum()


def sp_shift(germ_sp: Spectrum, stratum: Edge, n: int) -> Spectrum:
    """Reindex a germ spectrum to the ambient stratum frame: exponents move
    up by dim S and multiplicities pick up (-1)^{dim S}."""
    kind, d = germ_sp.frame
    if kind != "germ":
        raise SpectrumError(f"expected a germ frame, got {germ_sp.frame}")
    if d != stratum.codim:
        raise SpectrumError(
            f"germ frame dimension {d} does not match stratum codimension "
            f"{stratum.codim}")
    sign = (-1) ** stratum.dim
    out = {a + stratum.dim: sign * m for a, m in germ_sp.entries}
    return Spectrum.make(out, ("stratum", n))


class GermKind:
    """Classification of a localized germ: 'monomial' with its exponent
    vector, 'ordinary' with its line count, or 'user_table'.

    A catalogue germ's spectrum depends only on its class (tag, rank, e):
    the rank and the gcd of the exponents of a monomial germ, or rank 2
    and the line count of an ordinary one.  A GermKind is never changed,
    so its rank, e and frame are plain attributes set with it; equality
    and the hash read (tag, data) alone."""

    def __init__(self, tag: str, data: tuple = ()):
        self.tag, self.data = tag, data
        self.rank = len(data) if tag == "monomial" else 2
        self.e = gcd(*data)
        self.frame = ("germ", self.rank)

    def __eq__(self, other):
        if not isinstance(other, GermKind):
            return NotImplemented
        return (self.tag, self.data) == (other.tag, other.data)

    def __hash__(self):
        return hash((self.tag, self.data))

    def describe(self) -> str:
        if self.tag == "monomial":
            return "monomial(" + ",".join(map(str, self.data)) + ")"
        if self.tag == "ordinary":
            return f"ordinary({self.data[0]})"
        return "user_table_required"

    def is_zero(self) -> bool:
        # the runs of y^1 on the line are empty; every other catalogue
        # germ has a nonzero spectrum
        return self.rank == 1 and self.e == 1

    def runs(self) -> tuple:
        """The spectrum in closed form: runs (p, lo, hi, a, b), each the
        exponents rank - p - c/e with multiplicity a + b c for
        lo <= c <= hi < e; built once per class (_catalogue_runs)."""
        return _catalogue_runs(self.tag, self.rank, self.e)

    def spectrum(self) -> Spectrum:
        """The runs expanded into a Spectrum, one entry per exponent."""
        r, e = self.rank, self.e
        out = {}
        for p, lo, hi, a, b in self.runs():
            for c in range(lo, hi + 1):
                out[Fraction((r - p) * e - c, e)] = a + b * c
        return Spectrum.make(out, self.frame)


@functools.lru_cache(maxsize=256)
def _catalogue_runs(tag: str, r: int, e: int) -> tuple:
    """The runs of the catalogue class (tag, rank r, e), kept per process
    as the Hirzebruch series are: a report reads them for every stratum,
    and a tuple of ints is never changed.

    A monomial germ's Milnor fiber is e disjoint tori of dimension r - 1,
    of Tate type (j, j) in degree j, with the monodromy cycling the
    components; so each degree-j group splits into eigenspaces for every
    e-th root of unity, of dimension binomial(r - 1, j), and p = j (reduced
    cohomology drops c = 0 from j = 0).  An ordinary germ is equisingular
    to x^e + y^e, whose exponents (i + j)/e for 1 <= i, j <= e - 1 give
    p = 1 for i + j <= e and p = 0 above."""
    if tag == "ordinary":
        return ((0, 1, e - 1, -1, 1), (1, 0, e - 2, e - 1, -1))
    out = []
    binom = 1
    for j in range(r):
        if j > 0:
            binom = binom * (r - j) // j
        sign = 1 if (j - r + 1) % 2 == 0 else -1
        out.append((j, 1 if j == 0 else 0, e - 1, sign * binom, 0))
    return tuple(out)


def classify_germ(loc: Edge) -> GermKind:
    # the covectors through the edge are linearly independent exactly when
    # there are rank of them: the local model is then a product of
    # coordinate hyperplanes
    if len(loc.mults) == loc.rank:
        return GermKind("monomial", loc.mults)
    if loc.rank == 2 and loc.reduced:
        return GermKind("ordinary", (len(loc.mults),))
    return GermKind("user_table")


def sp_validate(sp: Spectrum, loc: Edge) -> dict:
    """Validate a germ spectrum against its localized arrangement.

    Checks support within (0, rank) with denominators dividing the local
    degree, the signed total-mass identity against the Milnor-fiber Euler
    characteristic, and the exponent symmetry for isolated germs.
    Returns {"ok": bool, "failures": [...]}.
    """
    failures = []
    kind, d = sp.frame
    if kind != "germ" or d != loc.rank:
        failures.append(f"frame {sp.frame} does not match germ dimension {loc.rank}")
    m_s = loc.m_s
    for a, _ in sp.entries:
        if not (0 < a < loc.rank):
            failures.append(f"support: exponent {a} outside (0, {loc.rank})")
        if (a * m_s).denominator != 1:
            failures.append(f"support: exponent {a} has denominator not dividing {m_s}")
    expected_mass = (-1) ** (loc.rank - 1) * (milnor_fiber_chi(loc) - 1)
    if sp.mass != expected_mass:
        failures.append(f"mass: total {sp.mass} != expected {expected_mass}")
    # a localized arrangement germ is an isolated singularity exactly for a
    # single (possibly multiple) hyperplane or a reduced plane germ
    if loc.rank == 1 or (loc.rank == 2 and loc.reduced):
        table = sp.as_dict()
        for a, m in table.items():
            if table.get(loc.rank - a, 0) != m:
                failures.append(f"symmetry: n_{a} = {m} but "
                                f"n_{loc.rank - a} = {table.get(loc.rank - a, 0)}")
                break
    return {"ok": not failures, "failures": failures}


def sp_user_load(source, arr: Arrangement) -> dict:
    """Load and validate user spectrum tables.

    source is a path or a parsed mapping {edge-key: [{"alpha": "p/q",
    "mult": int}, ...]} with exponents in the germ frame.  Every table is
    validated against its edge before use; any failure rejects the load.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise SpectrumError(f"malformed JSON: {exc}")
    else:
        data = source
    if not isinstance(data, dict):
        raise SpectrumError("spectrum tables must be a JSON object keyed by edge")
    records = {e.key: e for e in arr.lattice.edges}
    out = {}
    for key, entries in data.items():
        # the edge whose key is this very text: another spelling ("2,1",
        # "01,2", " 1", "+1") names no edge
        loc = records.get(key)
        if loc is None:
            raise SpectrumError(f"unknown edge key {key!r}")
        if not isinstance(entries, list):
            raise SpectrumError(
                f"table for edge {key} is not a list of entries: {entries!r}")
        table = {}
        for item in entries:
            try:
                alpha = rat(item["alpha"])
                mult = item["mult"]
                if not isinstance(mult, int) or isinstance(mult, bool):
                    raise TypeError(f"mult must be an integer, got {mult!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise SpectrumError(f"bad spectrum entry {item!r}: {exc}")
            table[alpha] = table.get(alpha, 0) + mult
        sp = Spectrum.make(table, ("germ", loc.rank))
        report = sp_validate(sp, loc)
        if not report["ok"]:
            raise SpectrumValidationError(
                f"table for edge {key} rejected: " + "; ".join(report["failures"]))
        out[key] = sp
    return out


def stratum_germ(stratum: Edge, user_tables: dict = None):
    """Germ of a stratum as assembly reads it: the user table's Spectrum,
    else the catalogue GermKind of its localization, else None.  User
    tables win over the catalogue when both exist."""
    if user_tables and stratum.key in user_tables:
        return user_tables[stratum.key]
    kind = classify_germ(stratum)
    return None if kind.tag == "user_table" else kind


def stratum_germs(strata, user_tables: dict = None) -> list:
    """stratum_germ of each stratum, in order, with each distinct
    (codim, mults) classified once: a catalogue germ depends on both
    alone, as (1, 1, 1) is ordinary(3) on a triple line and
    monomial(1,1,1) at a normal-crossing point."""
    by_type, out = {}, []
    for s in strata:
        if user_tables and s.key in user_tables:
            out.append(user_tables[s.key])
        else:
            local = (s.codim, s.mults)
            if local not in by_type:
                by_type[local] = stratum_germ(s)
            out.append(by_type[local])
    return out


def stratum_spectrum(arr: Arrangement, stratum: Edge,
                     user_tables: dict = None):
    """Germ spectrum for a stratum from the catalogue or the user tables,
    with a catalogue germ's entries expanded; arr is not read."""
    germ = stratum_germ(stratum, user_tables)
    return germ.spectrum() if isinstance(germ, GermKind) else germ
