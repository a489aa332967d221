import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hmclass import (ambient, arrangement, cli, coeffs, corpus, milnor,
                     spectra, strata)
from hmclass.arrangement import (ArrangementError, build, lazy_attribute,
                                 sigma_strata)
from hmclass.coeffs import RatFuncY
from hmclass.jsontext import dumps
from hmclass.milnor import (ALL_CONVENTIONS, DEFAULT_CONVENTIONS,
                            ConventionSet, MissingSpectrumError,
                            _stratum_contribution, _type_key, assemble,
                            calibrate, chern_milnor)
from hmclass.spectra import (Spectrum, SpectrumError, sp_monomial,
                             sp_user_load, stratum_germ, stratum_spectrum)
from hmclass.strata import build_labels, relabel_vector, trace
from models import build_model, report_models
from oracles import (ChernData, arrangement_to_json, by_codegree,
                     chern_milnor_by_classes, constant_pairs, entries,
                     euler_defect, generated_tables, k_representative,
                     make_table, model_ring, push_by_basis,
                     report_to_json, sp_shift,
                     stratum_contribution_by_terms, table_entries, td_1py,
                     vector_is_polynomial, vector_scale, vector_sum)

F = Fraction


def count_calls(monkeypatch, module, name):
    """Count the calls to module.name through every hmclass namespace that
    holds it; returns the list of argument tuples."""
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "hmclass" or mod_name.startswith("hmclass."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def signature(arr, stratum, tables=None):
    """The type key of a stratum and its germ."""
    return _type_key(arr, stratum, stratum_germ(stratum, tables))


def chern_path(arr):
    """The Chern path of an arrangement, checked against the oracle that
    sums RatFuncY classes."""
    vec = chern_milnor(arr, build_labels(arr), sigma_strata(arr))
    assert vec == constant_pairs(chern_milnor_by_classes(arr))
    return vec


def constant_values(vec):
    """A constant vector's integer pairs as Fractions, zeros dropped."""
    return {k: F(*v) for k, v in vec.items() if v[0]}


def poly_values(vec):
    return {k: v.as_poly() for k, v in vec.items() if not v.is_zero()}


class TestTdTransform:
    def line_model(self):
        arr = corpus.load("doubleline")
        return build_model(arr, sigma_strata(arr)[0])

    def test_line_bundles_riemann_roch(self):
        model = self.line_model()
        ring = model_ring(model)
        inv = RatFuncY([1], 1)
        for d in range(-3, 6):
            cd = ChernData(1, (ring.h * d,))
            elem = td_1py(cd, model)
            assert elem.coeff(0) == inv
            assert elem.coeff(1) == RatFuncY([d + 1])

    def test_structure_sheaf_of_point(self):
        arr = corpus.load("triangle3")
        model = build_model(arr, sigma_strata(arr)[0])
        elem = td_1py(ChernData(1, ()), model)
        assert elem.coeff(0) == RatFuncY.ONE


class TestAssembleCorpus:
    def test_concurrent3(self):
        rep = assemble(corpus.load("concurrent3"))
        assert poly_values(rep.m_y) == {"P_{123}": RatFuncY([-1, 3])}
        assert rep.degree0["equal"]
        assert rep.degree0["trace_M_y"] == ["-1", "3"]

    def test_triangle3(self):
        rep = assemble(corpus.load("triangle3"))
        assert poly_values(rep.m_y) == {"P_{12}": RatFuncY([0, 1]),
                                        "P_{13}": RatFuncY([0, 1]),
                                        "P_{23}": RatFuncY([0, 1])}
        assert rep.degree0["equal"]

    def test_doubleline(self):
        rep = assemble(corpus.load("doubleline"))
        assert poly_values(rep.m_y) == {"H_{1}": RatFuncY([1]),
                                        "Q_{0}": RatFuncY([0, -1])}
        # the degree-zero tension is recorded, never silenced
        assert not rep.degree0["equal"]
        assert rep.degree0["delta"] == []
        assert rep.degree0["trace_M_y"] == ["0", "-1"]

    def test_pencil3planes(self):
        rep = assemble(corpus.load("pencil3planes"))
        assert poly_values(rep.m_y) == {"L_{123}": RatFuncY([-1, 3]),
                                        "Q_{0}": RatFuncY([0, 1, -3])}
        assert not rep.degree0["equal"]

    def test_fourplanes(self):
        rep = assemble(corpus.load("fourplanes"))
        values = poly_values(rep.m_y)
        for pair in ("12", "13", "14", "23", "24", "34"):
            assert values[f"L_{{{pair}}}"] == RatFuncY([0, 1])
        assert values["Q_{0}"] == RatFuncY([0, -4, -2])

    def test_doubleplane3(self):
        rep = assemble(corpus.load("doubleplane3"))
        values = poly_values(rep.m_y)
        assert values["H_{1}"] == RatFuncY([1])
        assert values["Q_{1}"] == RatFuncY([F(-1, 2), F(7, 2)])
        assert values["Q_{0}"] == RatFuncY([0, -5, -2])

    def test_smooth_arrangement_empty_class(self):
        rep = assemble(build(3, [((1, 0, 0, 0), 1)]))
        assert not rep.m_y
        assert rep.cross_path_ok

    @pytest.mark.parametrize("name", list(corpus.ALL_NAMES))
    def test_per_stratum_polynomiality(self, name):
        rep = assemble(corpus.load(name))
        for vec in rep.per_stratum.values():
            assert vector_is_polynomial(vec)

    @pytest.mark.parametrize("name", list(corpus.ALL_NAMES))
    def test_cross_path(self, name):
        rep = assemble(corpus.load(name))
        assert rep.cross_path_ok
        assert rep.specializations[-1] == rep.chern_path

    @pytest.mark.parametrize("name", list(corpus.CORE_NAMES + corpus.PAIR_NAMES))
    def test_y_zero_trace_matches_delta(self, name):
        rep = assemble(corpus.load(name))
        delta_at_zero = F(rep.degree0["delta"][0]) if rep.degree0["delta"] else F(0)
        at0 = rep.specializations[0]
        total = sum((F(*at0[label.name]) for label in rep.schema.labels
                     if label.degree == 0 and label.name in at0), F(0))
        assert total == delta_at_zero


class TestChernPath:
    def test_pencil(self):
        vec = chern_path(corpus.load("pencil3planes"))
        assert constant_values(vec) == {"L_{123}": -4, "Q_{0}": -4}

    def test_doubleline(self):
        vec = chern_path(corpus.load("doubleline"))
        assert constant_values(vec) == {"H_{1}": 1, "Q_{0}": 1}

    def test_smooth_is_zero(self):
        vec = chern_path(build(2, [((1, 0, 0), 1)]))
        assert not vec

    def test_fourplanes(self):
        vec = chern_path(corpus.load("fourplanes"))
        got = constant_values(vec)
        assert got["Q_{0}"] == 2
        for pair in ("12", "13", "14", "23", "24", "34"):
            assert got[f"L_{{{pair}}}"] == -1


class TestInvariance:
    def test_reports_agree_under_relabeling(self):
        rep_a = assemble(corpus.load("quad6a"))
        rep_b = assemble(corpus.load("quad6b"))
        perm = corpus.QUAD6_BIJECTION
        source, target = rep_a.schema, rep_b.schema
        assert relabel_vector(rep_a.m_y, perm, source, target) == rep_b.m_y
        # per-stratum contributions match edge by edge
        def rekey(key):
            return ",".join(str(v) for v in
                            sorted(perm[int(p)] for p in key.split(",")))
        moved = {rekey(k): relabel_vector(v, perm, source, target)
                 for k, v in rep_a.per_stratum.items()}
        assert moved == rep_b.per_stratum
        assert rep_a.degree0 == rep_b.degree0

    def test_projective_coordinate_change_invariance(self):
        # the class may depend only on the labeled lattice, never on the
        # chosen coordinates
        import random
        rng = random.Random(19)
        for name in ("fourplanes", "doubleplane3"):
            arr = corpus.load(name)
            size = arr.n + 1
            while True:
                mat = [[F(rng.randint(-3, 3)) for _ in range(size)]
                       for _ in range(size)]
                det = _det(mat)
                if det != 0:
                    break
            moved = build(arr.n, [
                (tuple(sum(mat[i][j] * cov[j] for j in range(size))
                       for i in range(size)), m)
                for cov, m in zip(arr.covectors, arr.mults)])
            rep = assemble(arr)
            rep_moved = assemble(moved)
            assert rep.m_y == rep_moved.m_y
            assert rep.per_stratum == rep_moved.per_stratum

    def test_hyperplane_reordering_equivariance(self):
        arr = corpus.load("doubleplane3")
        order = [2, 0, 3, 1]  # new position -> old index
        perm = {old + 1: new + 1 for new, old in enumerate(order)}
        shuffled = build(arr.n, [(arr.covectors[i], arr.mults[i])
                                 for i in order])
        rep = assemble(arr)
        rep_shuffled = assemble(shuffled)
        moved = relabel_vector(rep.m_y, perm, rep.schema,
                               rep_shuffled.schema)
        assert moved == rep_shuffled.m_y

    def test_relabeling_with_dotted_labels(self):
        # twelve lines with one triple point: indices from 10 on give
        # dotted label names such as P_{1.10}
        covectors = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
        covectors += [(1, t, t * t) for t in range(1, 10)]
        arr = build(2, [(c, 1) for c in covectors])
        order = list(range(len(covectors)))  # new position -> old index
        random.Random(5).shuffle(order)
        perm = {old + 1: new + 1 for new, old in enumerate(order)}
        shuffled = build(2, [(covectors[i], 1) for i in order])
        rep = assemble(arr)
        rep_shuffled = assemble(shuffled)
        assert [len(e.index_set) for e in arr.lattice.edges
                if e.codim == 2].count(3) == 1
        assert "P_{1.10}" in rep.m_y
        source, target = rep.schema, rep_shuffled.schema
        assert (relabel_vector(rep.m_y, perm, source, target)
                == rep_shuffled.m_y)
        assert (relabel_vector(rep.chern_path, perm, source, target)
                == rep_shuffled.chern_path)

        def rekey(key):
            return ",".join(str(v) for v in
                            sorted(perm[int(p)] for p in key.split(",")))

        moved = {rekey(k): relabel_vector(v, perm, source, target)
                 for k, v in rep.per_stratum.items()}
        assert moved == rep_shuffled.per_stratum



class TestSparseVectors:
    def test_sum_with_negative_is_empty(self):
        rep = assemble(corpus.load("fourplanes"))
        minus = vector_scale(rep.m_y, -1)
        assert vector_sum([rep.m_y, minus]) == {}

    def test_point_contribution_has_one_key(self):
        rep = assemble(corpus.load("triangle3"))
        assert list(rep.per_stratum["1,2"]) == ["P_{12}"]

    def test_report_lists_every_label(self):
        rep = assemble(corpus.load("fourplanes"))
        assert "L_{12}" not in rep.specializations[0]
        block = json.loads("".join(rep.json_chunks()))["specializations"]["0"]
        assert block["L_{12}"] == "0"
        assert list(block) == rep.schema.names()

def _det(mat):
    if len(mat) == 1:
        return mat[0][0]
    total = F(0)
    for j in range(len(mat)):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


class TestConventions:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConventionSet("nonsense")
        with pytest.raises(ValueError):
            ConventionSet(extension_mode="res_[0,2)")

    def test_flip_changes_odd_strata(self):
        arr = corpus.load("doubleline")
        flipped = assemble(arr, None, ConventionSet("flip_odd_strata"))
        default = assemble(arr)
        assert poly_values(flipped.m_y) == {
            k: -v for k, v in poly_values(default.m_y).items()}
        assert not flipped.cross_path_ok

    def test_flip_keeps_point_strata(self):
        arr = corpus.load("triangle3")
        assert assemble(arr, None, ConventionSet("flip_odd_strata")).m_y == \
            assemble(arr).m_y

    def test_extension_mode_changes_integer_characters(self):
        arr = corpus.load("fourplanes")
        other = assemble(arr, None, ConventionSet(extension_mode="res_[0,1)"))
        assert poly_values(other.m_y) != poly_values(assemble(arr).m_y)


class TestCalibrate:
    def test_default_convention_chosen(self):
        conv, report = calibrate(corpus.calibration_suite())
        assert conv == DEFAULT_CONVENTIONS
        assert report["chosen"]["degree0_agreement"] == 2

    def test_tensions_reported(self):
        _, report = calibrate(corpus.calibration_suite())
        printed = report["conventions"]["as_printed/res_(0,1]"]
        assert printed["concurrent3"]["degree0_equal"]
        assert printed["triangle3"]["degree0_equal"]
        assert not printed["doubleline"]["degree0_equal"]
        assert not printed["pencil3planes"]["degree0_equal"]
        assert all(printed[n]["cross_path_ok"] for n in printed)

    def test_empty_suite(self):
        conv, report = calibrate([])
        assert conv == DEFAULT_CONVENTIONS


class TestBlownSurfacePath:
    def test_end_to_end_with_user_table(self):
        # multiplicity-2 plane crossed by a pencil of three planes: the
        # induced lines on the plane are concurrent, so its model carries an
        # exceptional curve; the deepest germ needs a user table (any table
        # passing the validators fixes the y-distribution of that one point,
        # while the y=-1 cross-path stays an independent check of the rest)
        arr = build(3, [((0, 0, 0, 1), 2), ((1, 0, 0, 0), 1),
                        ((0, 1, 0, 0), 1), ((1, 1, 0, 0), 1)])
        tables = sp_user_load({"1,2,3,4": [{"alpha": "7/5", "mult": -1}]}, arr)
        rep = assemble(arr, tables)
        models = report_models(rep)
        assert [m.kind for m in models].count("surface") == 1
        surface = [m for m in models if m.kind == "surface"][0]
        assert surface.blown_points == ("1,2,3,4",)
        assert vector_is_polynomial(rep.m_y)
        assert rep.cross_path_ok
        values = poly_values(rep.m_y)
        assert values["H_{1}"] == RatFuncY([1])
        assert values["Q_{1}"] == RatFuncY([F(-1, 2), F(7, 2)])
        assert values["L_{234}"] == RatFuncY([-1, 3])
        got = constant_values(rep.chern_path)
        assert got == {"H_{1}": 1, "L_{234}": -4, "Q_{1}": -4, "Q_{0}": -1}


class TestMissingSpectra:
    def cone_over_four_lines(self):
        # four planes through one point with no common line: the deepest
        # germ is not in the catalogue
        return build(3, [((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1),
                         ((0, 0, 1, 0), 1), ((1, 1, 1, 0), 1)])

    def test_missing_table_raises(self):
        with pytest.raises(MissingSpectrumError, match="1,2,3,4"):
            assemble(self.cone_over_four_lines())

    def test_user_table_unblocks(self):
        arr = self.cone_over_four_lines()
        # mass must be chi(F) - 1 = 4*1 - 1 = 3 with support in (0, 3)
        tables = sp_user_load({"1,2,3,4": [{"alpha": "3/2", "mult": 3}]}, arr)
        rep = assemble(arr, tables)
        assert vector_is_polynomial(rep.m_y)


class TestReportSerialization:
    def test_shape_and_determinism(self):
        arr = corpus.load("fourplanes")
        text = "".join(assemble(arr).json_chunks())
        assert "".join(assemble(arr).json_chunks()) == text
        one = json.loads(text)
        assert set(one) == {"n", "m", "conventions", "M_y", "per_stratum",
                            "specializations", "degree0", "cross_path_ok",
                            "cross_path"}
        assert one["cross_path_ok"] is True

    def test_dump_strata(self):
        arr = corpus.load("doubleline")
        payload = json.loads("".join(assemble(arr).json_chunks(True)))
        assert payload["strata"][0]["kind"] == "curve"
        assert payload["strata"][0]["boundary"][0]["name"] == "infinity"

    def test_empty_schema(self):
        # a smooth divisor: no strata, no labels, so every block is {}
        rep = assemble(build(3, [((1, 0, 0, 0), 1)]))
        text = "".join(rep.json_chunks(True))
        assert text == json.dumps(report_to_json(rep, True), indent=2) + "\n"
        assert '"per_stratum": {}' in text and '"chern_milnor": {}' in text


class TestEulerDefect:
    # chi(smooth hypersurface) - chi(X) minus the trace of M_y at y = -1;
    # zero on the reduced plane files, a missing generic-section term on
    # the files with curve and surface strata (see
    # tests/test_properties.py).  Of doubleplane3's 48, its curve strata
    # give 24 and its surface -4 * 1 * (2 - 3 - 5) = 24.
    @pytest.mark.parametrize("name, gap", [
        ("fourplanes", 18), ("pencil3planes", 8), ("doubleline", -1),
        ("concurrent3", 0), ("triangle3", 0), ("quad6a", 0), ("quad6b", 0),
        ("doubleplane3", 48)])
    def test_corpus_gap(self, name, gap):
        arr = corpus.load(name)
        rep = assemble(arr)
        assert euler_defect(arr) - trace(rep.schema, rep.m_y)(-1) == gap


def spectra_of_strata(arr):
    """(stratum, catalogue germ) for each stratum of the singular locus with
    a nonzero catalogue spectrum, or None if some stratum has none."""
    out = []
    for s in sigma_strata(arr):
        germ = stratum_germ(s)
        if germ is None:
            return None
        if not germ.is_zero():
            out.append((s, germ))
    return out


def random_covered(rng, n, count, mults=(1, 1, 2, 3)):
    """Seeded arrangements in P^n, with multiplicities drawn from mults,
    that have a singular locus and a catalogue spectrum for each of its
    strata."""
    values = [-2, -1, 0, 0, 1, 2, F(1, 2)]
    found = []
    while len(found) < count:
        k = rng.randint(n + 1, n + 3)
        covs = [[rng.choice(values) for _ in range(n + 1)] for _ in range(k)]
        ms = [rng.choice(mults) for _ in range(k)]
        try:
            arr = build(n, list(zip(covs, ms)))
        except ArrangementError:
            continue
        strata = spectra_of_strata(arr)
        if strata:
            found.append((arr, strata))
    return found


class TestClosedFormSums:
    """The sums the closed form is made of, against direct summation."""

    def test_breaks(self):
        rng = random.Random(9)
        for _ in range(2000):
            lo = rng.randint(0, 30)
            hi = rng.randint(lo, 60)
            a, b, m = rng.randint(-15, 15), rng.randint(0, 60), rng.randint(
                30, 60)
            want = [c for c in range(lo + 1, hi + 1)
                    if (a * c + b) // m != (a * (c - 1) + b) // m]
            assert sorted(milnor._breaks(lo, hi, a, b, m)) == want

    def test_power_sums(self):
        for lo in range(6):
            for hi in range(lo, 15):
                assert milnor._power_sums(lo, hi) == tuple(
                    sum(c ** i for c in range(lo, hi + 1)) for i in range(4))


class TestRegroupedContribution:
    """The per-stratum sum, regrouped by Deligne power, against the sum
    taken term by term."""

    def check(self, arr, strata, conv):
        # the closed form of the germ class, and its expanded spectrum read
        # as a table, against the oracle
        for s, germ in strata:
            model = build_model(arr, s)
            sp = make_table(dict(entries(germ)), germ.frame)
            want = by_codegree(model, stratum_contribution_by_terms(
                arr, s, sp, model, conv).coeffs)
            for g in (germ, sp):
                got = _stratum_contribution(arr, _type_key(arr, s, g), conv)
                assert got == want, s.key

    @pytest.mark.parametrize("name", corpus.ALL_NAMES)
    def test_corpus_under_all_conventions(self, name):
        arr = corpus.load(name)
        for conv in ALL_CONVENTIONS:
            self.check(arr, spectra_of_strata(arr), conv)

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_arrangements(self, n):
        for arr, strata in random_covered(random.Random(60 + n), n, 6):
            for conv in ALL_CONVENTIONS:
                self.check(arr, strata, conv)

    @pytest.mark.parametrize("n", [2, 3])
    def test_high_multiplicities(self, n):
        # multiplicities up to 8: in each residue window every Deligne
        # power k up to 8 runs, and so does the window's end (k = m_s in
        # (0,1], k = 0 in [0,1)) on a stratum with m_s >= 8; k depends on
        # the exponent modulo 1 only, so the germ frame serves
        seen = {}  # extension mode -> the Deligne powers met
        ends = {}  # extension mode -> the m_s whose window end was met
        found = random_covered(random.Random(80 + n), n, 4,
                               mults=(1, 2, 3, 5, 6, 7, 8))
        for arr, covered in found:
            for conv in ALL_CONVENTIONS:
                self.check(arr, covered, conv)
                mode = conv.extension_mode
                end = 0 if mode == strata.EXT_HALF_OPEN_DOWN else None
                for s, germ in covered:
                    m_s = s.m_s
                    ks = {k_representative(a, m_s, mode)
                          for a, _ in entries(germ)}
                    seen.setdefault(mode, set()).update(ks)
                    if (m_s if end is None else end) in ks:
                        ends.setdefault(mode, set()).add(m_s)
        for mode, lo in ((strata.EXT_HALF_OPEN_UP, 1),
                         (strata.EXT_HALF_OPEN_DOWN, 0)):
            assert set(range(lo, lo + 8)) <= seen[mode], (mode, seen)
            assert max(ends[mode]) >= 8, (mode, ends)

    def test_ordinary_line_of_many_planes(self):
        # nine reduced planes through the line x0 = x1 = 0 give an ordinary
        # germ on a curve, whose counts are linear in the Deligne power, so
        # its twists are summed with weights over each segment; two more
        # planes, one of them double, cross the line at points that need
        # tables, so only the catalogue strata are checked
        pencil = [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (1, -1), (2, 1),
                  (3, 1), (1, -2)]
        arr = build(3, [((a, b, 0, 0), 1) for a, b in pencil]
                    + [((1, 1, 1, 1), 2), ((1, 2, 3, 5), 1)])
        covered = [(s, germ) for s in sigma_strata(arr)
                   if (germ := stratum_germ(s)) is not None]
        assert any(germ.describe() == "ordinary(9)" and s.dim == 1
                   for s, germ in covered)
        for conv in ALL_CONVENTIONS:
            self.check(arr, covered, conv)

    def test_germ_frame_only(self):
        # a spectrum in the stratum frame, or a germ of another codimension,
        # catalogue class or table, is refused rather than read in the
        # wrong frame
        arr = corpus.load("fourplanes")
        line = next(s for s in sigma_strata(arr) if s.dim == 1)
        germ = stratum_spectrum(arr, line)
        triple = sp_monomial([1, 1, 1])
        for wrong in (sp_shift(germ, line, arr.n), triple,
                      make_table(dict(entries(triple)), triple.frame)):
            with pytest.raises(SpectrumError):
                _type_key(arr, line, wrong)

    def test_e_divides_m_s(self):
        # a table in the germ frame whose exponent denominators have an
        # lcm e that does not divide m_s is refused: a double point read
        # with an exponent in thirds
        arr = build(2, [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)])
        point = next(s for s in sigma_strata(arr) if s.m_s == 2)
        table = make_table({F(2, 3): 1}, ("germ", 2))
        with pytest.raises(SpectrumError, match="does not divide m_s"):
            _type_key(arr, point, table)

    def test_one_contribution_per_signature(self, monkeypatch):
        calls = count_calls(monkeypatch, milnor, "_stratum_contribution")
        for name in corpus.ALL_NAMES:
            arr = corpus.load(name)
            before = len(calls)
            rep = assemble(arr)
            listed = rep.listed.values()
            signatures = {signature(arr, s) for s in listed}
            assert len(calls) - before == len(signatures), name
            if name in ("triangle3", "fourplanes"):  # repeated local types
                assert len(signatures) < len(listed), name


class TestWorkPerStratum:
    """A stratum's work does not grow with its multiplicity: the same
    shapes at multiplicity 1000 (a line plus 3 lines) or 24 (a plane plus 4
    planes) and at 100 000 cut the Deligne powers at as many breaks, whose
    segments replace the sum over each power, and expand no spectrum entry,
    neither from a germ's runs nor into a table.  When each power was
    summed on its own, the two lines made 1001 and 100 001 Deligne classes
    and listed 1005 and 100 005 entries, and the two planes 27 and 100 003
    classes and 53 and 100 029 entries."""

    def work(self, name):
        arr = arrangement.Arrangement.load(
            Path(__file__).parent / "golden" / f"{name}.json")
        counts = []
        with pytest.MonkeyPatch.context() as patch:
            breaks = []
            expanded = []
            real_breaks, real_make = milnor._breaks, Spectrum.make
            real_expand = Spectrum.pairs.func

            def counting_breaks(*args):
                out = real_breaks(*args)
                breaks.append(len(out))
                return out

            def counting_make(mapping, frame):
                sp = real_make(mapping, frame)
                expanded.append(len(sp.pairs))
                return sp

            def counting_expand(sp):
                out = real_expand(sp)
                expanded.append(len(out))
                return out

            expand = lazy_attribute(counting_expand)
            expand.__set_name__(Spectrum, "pairs")
            patch.setattr(milnor, "_breaks", counting_breaks)
            patch.setattr(Spectrum, "make", staticmethod(counting_make))
            patch.setattr(Spectrum, "pairs", expand)
            for conv in ALL_CONVENTIONS:
                assemble(arr, None, conv)
                counts.append((len(breaks), sum(breaks), sum(expanded)))
        return counts

    @pytest.mark.parametrize("low, high", [("mult1000", "mult100k"),
                                           ("plane24", "plane100k")])
    def test_same_work_at_any_multiplicity(self, low, high):
        work = self.work(low)
        assert work == self.work(high)
        assert all(expanded == 0 for *_, expanded in work)
        assert all(calls > 0 for calls, _, _ in work)  # the twists were cut


class TestOneStrataPass:
    def test_assemble_lists_strata_once(self, monkeypatch):
        calls = []
        real = milnor.sigma_strata

        def counting(arr):
            calls.append(arr)
            return real(arr)

        monkeypatch.setattr(milnor, "sigma_strata", counting)
        arr = corpus.load("fourplanes")
        rep = assemble(arr)
        assert len(calls) == 1
        assert rep.chern_path == constant_pairs(chern_milnor_by_classes(arr))

    @pytest.mark.parametrize("name", ["fourplanes", "doubleline"])
    def test_milnor_report_lists_strata_once(self, monkeypatch, capsys,
                                             name):
        # the label schema reads the edges of the singular locus by the
        # rule sigma_strata uses, so build_labels lists no strata
        calls = count_calls(monkeypatch, arrangement, "sigma_strata")
        assert cli.main(["milnor", str(corpus.corpus_path(name))]) == 0
        assert len(calls) == 1
        assert '"M_y"' in capsys.readouterr().out


class TestLazyAttributes:
    """A value built on first read lands in its instance's __dict__, where
    every later read finds it; the class holds no __getattr__, so any other
    missing name is an AttributeError in Python's own words."""

    def test_first_read_keeps_the_value(self):
        arr = arrangement.build(3, [((1, 0, 0, 0), 2), ((0, 1, 0, 0), 1),
                                    ((0, 0, 1, 0), 1), ((1, 1, 1, 1), 1)])
        assert "lattice" not in vars(arr)
        lattice = arr.lattice
        surface = next(s for s in sigma_strata(arr) if s.dim == 2)
        model = build_model(arr, surface)
        germ = sp_monomial([2])
        owners = [(arr, "lattice"), (lattice, "chi_y_open"),
                  (model, "deligne_base_vector"), (germ, "pairs")]
        for owner, name in owners[2:]:
            assert name not in vars(owner), name
        for owner, name in owners:
            value = getattr(owner, name)
            assert vars(owner)[name] is value is getattr(owner, name)
            kind = type(owner).__name__
            with pytest.raises(AttributeError) as info:
                getattr(owner, name + "_")
            assert str(info.value) == (
                f"'{kind}' object has no attribute '{name}_'")
            assert not hasattr(owner, "__deepcopy__")


class TestOnePass:
    """Per report: one lattice search, one record per edge, which is its
    own localization, built once and shared by every consumer, one walk of
    each listed curve's and surface's lattice row (compactify) and none of
    a point's, with at most one more per listed stratum with
    --dump-strata, one contribution per distinct signature, and one
    surface closed form per distinct surface key."""

    def counters(self, monkeypatch):
        return {name: count_calls(monkeypatch, module, name)
                for module, name in ((arrangement, "_search_edges"),
                                     (arrangement, "Edge"),
                                     (strata, "compactify"),
                                     (spectra, "sp_validate"),
                                     (milnor, "_stratum_contribution"),
                                     (milnor, "_surface_terms"))}

    def files(self, tmp_path):
        # nine lines with three triple points and many double points
        covs = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1),
                (0, 1, 1), (1, 2, 3), (2, -1, 5), (3, 1, -2)]
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(
            arrangement_to_json(build(2, [(c, 1) for c in covs]))))
        # two double planes that swapping x0 and x1 exchanges, so their
        # surfaces read the same integers
        planes = tmp_path / "planes.json"
        planes.write_text(json.dumps(arrangement_to_json(build(3, [
            ((1, 0, 0, 0), 2), ((0, 1, 0, 0), 2), ((0, 0, 1, 0), 1),
            ((0, 0, 0, 1), 1), ((1, 1, 1, 1), 1)]))))
        return [str(corpus.corpus_path(name)) for name in corpus.ALL_NAMES] \
            + [str(path), str(planes)]

    def test_milnor(self, monkeypatch, tmp_path, capsys):
        # every listed curve and surface contributes from one walk of its
        # lattice row, a point from none, and a report runs a surface's
        # closed form once per distinct surface key; --dump-strata lists
        # every stratum with a nonzero germ and walks each at most once
        # more
        surfaces = shared = 0
        for path in self.files(tmp_path):
            arr = arrangement.Arrangement.load(path)
            strata_ = sigma_strata(arr)
            signatures = {signature(arr, s) for s in strata_}
            listed = sorted(s.key for s in strata_
                            if not stratum_germ(s).is_zero())
            on_surfaces = [signature(arr, s) for s in strata_
                           if s.dim == 2 and s.key in listed]
            walked = Counter(s.key for s in strata_
                             if s.dim and s.key in listed)
            local_types = {(s.codim, s.mults) for s in strata_}
            for dump in ([], ["--dump-strata"]):
                with monkeypatch.context() as patch:
                    calls = self.counters(patch)
                    classified = count_calls(patch, spectra, "classify_germ")
                    code = cli.main(["milnor", path, *dump])
                    assert code == 0, capsys.readouterr().err
                # one germ per distinct (codim, mults) in the report
                assert len(classified) == len(local_types), path
                assert len(calls["_search_edges"]) == 1, path
                assert len(calls["Edge"]) == len(arr.lattice.edges), path
                compactified = Counter(s.key for _, s in calls["compactify"])
                if dump:
                    more = compactified - walked
                    assert set(more) <= set(listed), path
                    assert max(more.values(), default=0) <= 1, path
                    assert not walked - compactified, path
                else:
                    assert compactified == walked, path
                assert (len(calls["_stratum_contribution"])
                        == len(signatures)), path
                keys = [key for key, *_ in calls["_surface_terms"]]
                assert len(keys) == len(set(on_surfaces)), path
                assert set(keys) == set(on_surfaces), path
            surfaces += len(on_surfaces)
            shared += len(on_surfaces) - len(set(on_surfaces))
        assert len(signatures) < len(strata_)  # the planes repeat types
        # doubleplane3 and the two double planes have surface strata, and
        # the two double planes share one key
        assert surfaces >= 3 and shared, (surfaces, shared)

    def test_germ_per_local_type(self, monkeypatch, tmp_path, capsys):
        # x, y, x + y, z, w in P^3: multiplicities (1, 1, 1) are
        # ordinary(3) on the triple line x = y = 0 (codim 2) and
        # monomial(1,1,1) at each normal-crossing point such as
        # x = z = w = 0 (codim 3), so the codimension is part of the key;
        # the two quadruple points need a table
        arr = build(3, [(c, 1) for c in [(1, 0, 0, 0), (0, 1, 0, 0),
                                         (1, 1, 0, 0), (0, 0, 1, 0),
                                         (0, 0, 0, 1)]])
        entries = table_entries(arr)
        tables = sp_user_load(entries, arr)
        strata_ = sigma_strata(arr)
        germs = spectra.stratum_germs(strata_, tables)
        for s, germ in zip(strata_, germs, strict=True):
            assert germ == stratum_germ(s, tables), s.key
        kinds = {(s.codim, germ.describe()) for s, germ
                 in zip(strata_, germs) if s.mults == (1, 1, 1)
                 and germ.source != "user_table"}
        assert kinds == {(2, "ordinary(3)"), (3, "monomial(1,1,1)")}
        assert len(entries) == 2
        path, table_path = tmp_path / "arr.json", tmp_path / "tables.json"
        path.write_text(json.dumps(arrangement_to_json(arr)))
        table_path.write_text(json.dumps(entries))

        def reports():
            out = {}
            for command in ("milnor", "spectra"):
                code = cli.main([command, str(path), "--tables",
                                 str(table_path)])
                captured = capsys.readouterr()
                assert code == 0, captured.err
                out[command] = captured.out
            return out

        memo = reports()
        with monkeypatch.context() as patch:
            # a run with no memo: every stratum's germ found on its own
            def alone(strata, user_tables=None):
                return [stratum_germ(s, user_tables) for s in strata]

            # the spectra writer reads spectra.stratum_germs
            for module in (spectra, milnor):
                patch.setattr(module, "stratum_germs", alone)
            assert reports() == memo

    def test_spectra(self, monkeypatch, tmp_path, capsys):
        for path in self.files(tmp_path):
            arr = arrangement.Arrangement.load(path)
            with monkeypatch.context() as patch:
                calls = self.counters(patch)
                code = cli.main(["spectra", path])
                assert code == 0, capsys.readouterr().err
            assert len(calls["_search_edges"]) == 1, path
            assert len(calls["Edge"]) == len(arr.lattice.edges), path
            assert not calls["compactify"], path

    def test_lattice(self, monkeypatch, tmp_path, capsys):
        for path in self.files(tmp_path):
            arr = arrangement.Arrangement.load(path)
            with monkeypatch.context() as patch:
                calls = self.counters(patch)
                code = cli.main(["lattice", path])
                assert code == 0, capsys.readouterr().err
            assert len(calls["_search_edges"]) == 1, path
            # every edge carries its Euler number: the localization is the
            # edge, built once
            assert len(calls["Edge"]) == len(arr.lattice.edges), path

    def test_chi_y(self, monkeypatch, tmp_path, capsys):
        for path in self.files(tmp_path):
            arr = arrangement.Arrangement.load(path)
            with monkeypatch.context() as patch:
                calls = self.counters(patch)
                # the chi-y writer renders a value with cli.dumps, and
                # nothing else
                rendered = []

                def render(value, depth):
                    rendered.append(value)
                    return dumps(value, depth)

                patch.setattr(cli, "dumps", render)
                code = cli.main(["chi-y", path])
                assert code == 0, capsys.readouterr().err
            assert len(calls["_search_edges"]) == 1, path
            # one rendering per distinct open-stratum value, not per edge
            assert sorted(rendered) == sorted(
                RatFuncY(cs).as_strings()
                for cs in set(arr.lattice.chi_y_open)), path
            assert len(calls["Edge"]) == len(arr.lattice.edges), path
        assert len(corpus.load("quad6a").lattice.edges) == 13
        assert len(set(corpus.load("quad6a").lattice.chi_y_open)) < 13

    @pytest.mark.parametrize("command", ["milnor", "spectra"])
    def test_user_tables(self, monkeypatch, tmp_path, capsys, command):
        # four planes through a point of P^3, with a double plane off it:
        # the point needs a user table, which is validated on load
        covs = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0),
                (0, 1, 2, 3)]
        arr = build(3, [(c, 2 if j == 4 else 1) for j, c in enumerate(covs)])
        source = tmp_path / "cone.json"
        source.write_text(json.dumps(arrangement_to_json(arr)))
        tables = tmp_path / "tables.json"
        raw = table_entries(arr)
        assert list(raw) == ["1,2,3,4"]
        tables.write_text(json.dumps(raw))
        with monkeypatch.context() as patch:
            calls = self.counters(patch)
            listed = count_calls(patch, arrangement, "sigma_strata")
            code = cli.main([command, str(source), "--tables", str(tables)])
            assert code == 0, capsys.readouterr().err
        assert len(calls["_search_edges"]) == 1
        assert len(calls["Edge"]) == len(arr.lattice.edges)
        # the record the table was validated against is the stratum the
        # report lists
        loaded, validated = listed[0][0], calls["sp_validate"][0][1]
        assert validated.key == "1,2,3,4"
        assert any(s is validated for s in sigma_strata(loaded))
        # the table is validated once, on load, and a spectra report
        # validates each catalogue germ once
        germs = {germ.source for s in sigma_strata(arr)
                 if (germ := stratum_germ(s)) is not None}
        assert len(calls["sp_validate"]) == 1 + (
            len(germs) if command == "spectra" else 0)

    def test_virtual_class_once_per_degree_and_dimension(self, monkeypatch,
                                                         capsys):
        # the degree-0 check of every report at one (m, n) reads the same
        # pushed virtual class, which is evaluated on the first report only,
        # reading each of its two series once
        ambient._PUSHED.clear()
        calls = count_calls(monkeypatch, ambient, "hirzebruch_series")
        paths = [str(corpus.corpus_path(name))
                 for name in ("quad6a", "quad6b")]  # m = 6, n = 2
        for path in paths * 3:
            assert cli.main(["milnor", path]) == 0, capsys.readouterr().err
        assert calls == [("Q", 2), ("R", 2)]


class TestInPlaceSums:
    def test_vectors_linear_in_strata(self):
        # twenty generic lines: 190 double points, one label each
        arr = build(2, [((1, i, i * i), 1) for i in range(20)])
        rep = assemble(arr)
        count = len(rep.per_stratum)
        assert count == 190
        # per stratum: its contribution; per report: M_y, the Chern path
        # and three specializations
        vectors = [*rep.per_stratum.values(), rep.m_y, rep.chern_path,
                   *rep.specializations.values()]
        assert all(type(vec) is dict for vec in vectors)
        assert len(vectors) == count + 5
        assert sum(map(len, vectors)) <= 7 * count


class TestObjectsPerEdgeAndLabel:
    """The constant vectors hold integer pairs, so the Chern path and the
    specializations build no RatFuncY; assembly builds one RatFuncY per
    class of each distinct contribution and one per M_y label pushed to
    twice or more, whose integer sum it becomes; and the search builds
    each edge once, at its position."""

    def twelve_lines(self):
        # twelve lines, three of them through [0:0:1]: double and triple
        # points, each with a label of its own
        others = iter((1, i, i * i) for i in range(2, 11))
        covs = [(1, 0, 0) if j == 0 else (0, 1, 0) if j == 9
                else (1, 1, 0) if j == 11 else next(others)
                for j in range(12)]
        return build(2, [(c, 1) for c in covs])

    def count_builds(self, patch):
        """The RatFuncY values built through coeffs._value, the one maker
        of a nonzero value, outside degree0_check, whose virtual genus and
        chi_y are values in y of their own."""
        built, inside = [], []
        real_value, real_check = coeffs._value, milnor.degree0_check

        def value(*args):
            out = real_value(*args)
            if not inside:
                built.append(out)
            return out

        def check(*args):
            inside.append(True)
            try:
                return real_check(*args)
            finally:
                inside.pop()

        patch.setattr(coeffs, "_value", value)
        patch.setattr(milnor, "degree0_check", check)
        return built

    def test_constant_vectors_build_no_ratfunc(self, monkeypatch):
        arr = self.twelve_lines()
        assert {e.codim for e in arr.lattice.edges} == {1, 2}
        assert max(len(e.index_set) for e in arr.lattice.edges) == 3
        rep = assemble(arr)
        schema, strata_ = rep.schema, sigma_strata(arr)
        built = self.count_builds(monkeypatch)
        path = chern_milnor(arr, schema, strata_)
        at = strata.specializations(rep.m_y)
        assert not built
        assert path == rep.chern_path and at == rep.specializations
        assert path and all(type(v) is tuple for v in path.values())

    def test_assembly_builds_per_class_and_repeated_label(self, monkeypatch):
        repeated = 0
        for arr in [self.twelve_lines()] + [corpus.load(name)
                                            for name in corpus.ALL_NAMES]:
            with monkeypatch.context() as patch:
                classes = []
                real = milnor._stratum_contribution

                def contribution(*args):
                    out = real(*args)
                    classes.append(len(out))
                    return out

                patch.setattr(milnor, "_stratum_contribution", contribution)
                built = self.count_builds(patch)
                rep = assemble(arr)
            hits = Counter(name for vec in rep.per_stratum.values()
                           for name in vec)
            twice = sum(hits[name] >= 2 for name in rep.m_y)
            assert len(built) == sum(classes) + twice
            repeated += twice
        assert repeated  # the P^3 corpus sums labels pushed to more than once

    def test_search_builds_each_edge_once(self, monkeypatch):
        for arr in [self.twelve_lines(), corpus.load("fourplanes"),
                    build(4, [([i ** p for p in range(5)], 1)
                              for i in range(7)])]:
            with monkeypatch.context() as patch:
                made = []
                real = arrangement.Edge

                def edge(*args):
                    made.append(real(*args))
                    return made[-1]

                patch.setattr(arrangement, "Edge", edge)
                lattice = arrangement._search_edges(arr)
            # built in lattice order, each at its position, and kept
            assert len(made) == len(lattice.edges)
            assert all(a is b for a, b in zip(made, lattice.edges))
            assert [e.position for e in made] == list(range(len(made)))


def random_arrangement(rng, n):
    """A seeded arrangement in P^n with multiplicities 1-3."""
    values = [-2, -1, 0, 0, 1, 2]
    while True:
        k = rng.randint(n + 2, n + 4)
        covs = [[rng.choice(values) for _ in range(n + 1)] for _ in range(k)]
        mults = [rng.choice((1, 1, 2, 3)) for _ in range(k)]
        try:
            return build(n, list(zip(covs, mults)))
        except ArrangementError:
            pass


class TestMemo:
    """Every per-stratum vector and the Chern path against a memo-free
    computation: the term-by-term oracle per stratum, with a fresh model,
    and the Chern path from RatFuncY classes.  User tables admit germs
    whose strata share a local type but not a boundary."""

    def check(self, arr, conv):
        tables = generated_tables(arr)
        schema = build_labels(arr)
        want = {}
        for s in sigma_strata(arr):
            sp = stratum_spectrum(arr, s, tables)
            model = build_model(arr, s)
            elem = stratum_contribution_by_terms(arr, s, sp, model, conv)
            if conv.sign_mode == "flip_odd_strata" and s.dim % 2 == 1:
                elem = -elem
            want[s.key] = push_by_basis(schema, model, elem.coeffs)
        rep = assemble(arr, tables, conv)
        assert rep.per_stratum == want
        assert rep.chern_path == constant_pairs(chern_milnor_by_classes(arr))
        assert rep.m_y == vector_sum(want.values())
        return rep, tables

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_arrangements(self, n):
        rng = random.Random(80 + n)
        kinds = set()
        repeats = 0
        for _ in range(6):
            arr = random_arrangement(rng, n)
            for conv in ALL_CONVENTIONS:
                rep, tables = self.check(arr, conv)
                listed = rep.listed.values()
                kinds.update(("point", "curve", "surface")[s.dim]
                             for s in listed)
                repeats += len(listed) - len(
                    {signature(arr, s, tables) for s in listed})
        assert repeats
        assert kinds == ({"point", "curve"} if n == 2
                         else {"point", "curve", "surface"})

    def test_surfaces_with_one_boundary_multiset(self):
        # two double planes whose boundaries have the same multiset of
        # (source, m_sub, m_res) but different incidences of lines with
        # blown points; their contributions differ
        covs = [(1, 0, 0, 0), (1, 1, 0, 2), (1, 1, 0, 1), (0, 2, 2, 2),
                (1, 0, 2, 2), (2, 1, 1, 1), (2, 2, 0, 0), (1, 0, 0, 1)]
        arr = build(3, [(c, 2 if j < 2 else 1) for j, c in enumerate(covs)])
        for conv in ALL_CONVENTIONS:
            rep, _ = self.check(arr, conv)
            one, two = ([(c.source, c.m_sub, c.m_res) for c in m.boundary]
                        for m in report_models(rep)[:2])
            assert sorted(one) == sorted(two)
            shared = list(rep.schema.shared.values())
            one, two = ([rep.per_stratum[j].get(q)
                         for q in shared + [f"H_{{{j}}}"]] for j in "12")
            assert one != two
