"""Spectrum data for local defining functions of arrangement strata.

A spectrum is a finitely supported integer-valued function on rational
exponents.  For an arrangement germ every exponent is c/e with e dividing
the local degree m_s (Budur-Saito, Math. Ann. 347, 2010), so a spectrum
keeps integer numerators over one e and never needs general rationals.
The built-in catalogue covers the two germ families that
arrangements of small ambient dimension produce: monomial germs (local
normal crossings with multiplicities) and ordinary plane germs (k distinct
reduced concurrent lines).  Everything else is admitted via user tables,
which are validated before use and rejected on any failure.

Every germ, catalogue or table, is one Spectrum record: its frame, the
lcm e of its exponents' denominators, its runs and its source.  A run
holds exponents rank - p - c/e whose multiplicities are linear in c; a
catalogue germ has a few runs fixed by its class (the rank and the gcd e
of the exponents of a monomial germ, or the line count e of an ordinary
one), and a table one run per entry.  Assembly reads every germ through
its runs; the exponents are expanded to (c, multiplicity) pairs, with the
numerator c of each exponent c/e, only when the spectrum report or a
validator asks for them, in time linear in their number.
"""

from __future__ import annotations

from math import gcd, lcm
from types import SimpleNamespace

from .arrangement import (Arrangement, Edge, echo, lazy_attribute,
                          milnor_fiber_chi, read_json)
from .coeffs import rat, ratio_text

__all__ = [
    "SpectrumError",
    "SpectrumValidationError",
    "Spectrum",
    "classify_germ",
    "sp_monomial",
    "sp_ordinary",
    "sp_shift",
    "sp_validate",
    "sp_user_load",
    "stratum_germs",
    "stratum_spectrum",
]


class SpectrumError(ValueError):
    """Malformed spectrum data."""


class SpectrumValidationError(SpectrumError):
    """Well-formed spectrum table rejected by the validators."""


class Spectrum:
    """A germ's spectrum as runs: each run (p, lo, hi, a, b) stands for the
    exponents rank - p - c/e with multiplicity a + b c, for lo <= c <= hi,
    where rank is frame[1].

    frame is ('germ', d) for a function germ on affine d-space at the
    origin, or ('stratum', n) for ambient indexing after the dimension
    shift.  source is the catalogue class, such as 'monomial(1,2)' or
    'ordinary(3)', or 'user_table'.  A record is never changed, so it is
    zero or not from its runs alone, set with it.  Its pairs (c, n), one
    per exponent c/e of nonzero multiplicity n, sorted by c, which is the
    order of the exponents, are expanded on first read and kept in the
    instance's __dict__, where later reads find them.  Equality reads the
    exponents, their multiplicities and the frame."""

    def __init__(self, frame: tuple, e: int, runs: tuple,
                 source: str = "user_table"):
        self.frame, self.e, self.runs, self.source = frame, e, runs, source
        # a + b c is linear in c, so it vanishes on a run exactly when it
        # does at both ends; a run with lo > hi is empty
        self._zero = all(lo > hi or a + b * lo == 0 == a + b * hi
                         for _, lo, hi, a, b in runs)

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        # c/e = d/f exactly when c f = d e
        e, f = self.e, other.e
        return (self.frame == other.frame
                and [(c * f, n) for c, n in self.pairs]
                == [(d * e, n) for d, n in other.pairs])

    @staticmethod
    def make(mapping, frame) -> "Spectrum":
        """A table from {(num, den): n}, the multiplicity n at the exponent
        num/den in lowest terms, den > 0: e is the lcm of the denominators,
        and a run (p, c, c, n, 0) stands for each entry at the exponent
        a/e = rank - p - c/e, so p = floor(rank - a/e) and
        c = (rank - p) e - a, with its pairs set."""
        items = [(num, den, int(n)) for (num, den), n in mapping.items()
                 if n != 0]
        rank = frame[1]
        e = lcm(*(den for _, den, _ in items))
        pairs = tuple(sorted((num * (e // den), n) for num, den, n in items))
        runs = []
        for a, n in pairs:
            p = (rank * e - a) // e
            c = (rank - p) * e - a
            runs.append((p, c, c, n, 0))
        sp = Spectrum(tuple(frame), e, tuple(runs))
        sp.pairs = pairs
        return sp

    @lazy_attribute
    def pairs(self) -> tuple:
        """((c, n), ...), sorted, one per exponent c/e of nonzero
        multiplicity n: a run's exponent rank - p - c/e has the numerator
        (rank - p) e - c."""
        rank, e = self.frame[1], self.e
        return tuple(sorted(
            ((rank - p) * e - c, a + b * c)
            for p, lo, hi, a, b in self.runs for c in range(lo, hi + 1)
            if a + b * c))

    @property
    def mass(self) -> int:
        return sum(n for _, n in self.pairs)

    def is_zero(self) -> bool:
        return self._zero

    def describe(self) -> str:
        return self.source


def _catalogue(tag: str, data: tuple) -> Spectrum:
    """The record of the catalogue class 'monomial' with its exponent
    vector or 'ordinary' with its line count: its spectrum depends only on
    the rank and e, the gcd of the data."""
    r, e = (len(data) if tag == "monomial" else 2), gcd(*data)
    return Spectrum(("germ", r), e, _catalogue_runs(tag, r, e),
                    f"{tag}({','.join(map(str, data))})")


def sp_monomial(exponents) -> Spectrum:
    """Spectrum of a monomial germ prod y_i^{m_i} on affine r-space."""
    ms = [int(m) for m in exponents]
    if not ms or any(m < 1 for m in ms):
        raise SpectrumError("monomial exponents must be positive integers")
    return _catalogue("monomial", tuple(ms))


def sp_ordinary(k: int) -> Spectrum:
    """Spectrum of k distinct reduced concurrent lines in the plane."""
    if k < 2:
        raise SpectrumError("ordinary plane germ needs k >= 2 lines")
    return _catalogue("ordinary", (k,))


def sp_shift(germ_sp: Spectrum, stratum: Edge, n: int) -> Spectrum:
    """Reindex a germ spectrum to the ambient stratum frame: exponents move
    up by dim S and multiplicities pick up (-1)^{dim S}.  As codim S +
    dim S = n, the run exponents codim - p - c/e move to n - p - c/e, so
    each run keeps p, lo and hi and only its a and b change sign."""
    kind, d = germ_sp.frame
    if kind != "germ":
        raise SpectrumError(f"expected a germ frame, got {germ_sp.frame}")
    if d != stratum.codim:
        raise SpectrumError(
            f"germ frame dimension {d} does not match stratum codimension "
            f"{stratum.codim}")
    sign = (-1) ** stratum.dim
    runs = tuple((p, lo, hi, sign * a, sign * b)
                 for p, lo, hi, a, b in germ_sp.runs)
    return Spectrum(("stratum", n), germ_sp.e, runs, germ_sp.source)


def _catalogue_runs(tag: str, r: int, e: int) -> tuple:
    """The runs of the catalogue class (tag, rank r, e), at most r of them
    whatever e is.

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


# what classify_germ gives for a germ the catalogue cannot serve
_USER_TABLE_REQUIRED = SimpleNamespace(describe=lambda: "user_table_required")


def classify_germ(loc: Edge):
    """The catalogue record of a localized germ, or a stand-in that only
    describes itself as 'user_table_required'."""
    # the covectors through the edge are linearly independent exactly when
    # there are rank of them: the local model is then a product of
    # coordinate hyperplanes
    if len(loc.mults) == loc.rank:
        return _catalogue("monomial", loc.mults)
    if loc.rank == 2 and loc.reduced:
        return _catalogue("ordinary", (len(loc.mults),))
    return _USER_TABLE_REQUIRED


def sp_validate(sp: Spectrum, loc: Edge) -> dict:
    """Validate a germ spectrum against its localized arrangement.

    Checks support within (0, rank) with denominators dividing the local
    degree, the signed total-mass identity against the Milnor-fiber Euler
    characteristic, and the exponent symmetry for isolated germs, on the
    integer numerators c of the exponents c/e; each failure names an
    exponent as str of its Fraction would.  Returns {"ok": bool,
    "failures": [...]}.
    """
    failures = []
    kind, d = sp.frame
    rank, m_s, e = loc.rank, loc.m_s, sp.e
    if kind != "germ" or d != rank:
        failures.append(f"frame {sp.frame} does not match germ dimension {rank}")
    top = rank * e  # the exponent rank, over e
    for c, _ in sp.pairs:
        if not (0 < c < top):
            failures.append(f"support: exponent {ratio_text(c, e)} "
                            f"outside (0, {rank})")
        if c * m_s % e:
            failures.append(f"support: exponent {ratio_text(c, e)} has "
                            f"denominator not dividing {m_s}")
    expected_mass = (-1) ** (rank - 1) * (milnor_fiber_chi(loc) - 1)
    if sp.mass != expected_mass:
        failures.append(f"mass: total {sp.mass} != expected {expected_mass}")
    # a localized arrangement germ is an isolated singularity exactly for a
    # single (possibly multiple) hyperplane or a reduced plane germ; the
    # partner of the exponent c/e is rank - c/e
    if rank == 1 or (rank == 2 and loc.reduced):
        table = dict(sp.pairs)
        for c, n in table.items():
            partner = top - c
            if table.get(partner, 0) != n:
                failures.append(f"symmetry: n_{ratio_text(c, e)} = {n} but "
                                f"n_{ratio_text(partner, e)} = "
                                f"{table.get(partner, 0)}")
                break
    return {"ok": not failures, "failures": failures}


def sp_user_load(source, arr: Arrangement) -> dict:
    """Load and validate user spectrum tables.

    source is a path or a parsed mapping {edge-key: [{"alpha": "p/q",
    "mult": int}, ...]} with exponents in the germ frame.  Every table is
    validated against its edge before use; any failure rejects the load.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        data = read_json(source, SpectrumError)
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
                raise SpectrumError(
                    f"bad spectrum entry {echo(item)}: {exc}")
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
    else the catalogue Spectrum of its localization, else None.  User
    tables win over the catalogue when both exist."""
    if user_tables and stratum.key in user_tables:
        return user_tables[stratum.key]
    germ = classify_germ(stratum)
    return None if germ is _USER_TABLE_REQUIRED else germ


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
    """stratum_germ, under the name and signature that
    perfbench/make_pool.py calls and perfbench/spans.py traces; arr is not
    read."""
    return stratum_germ(stratum, user_tables)
