import json
from fractions import Fraction
from itertools import product

import pytest

from hmclass import cli, corpus, spectra
from hmclass.arrangement import build, edges, localize, sigma_strata
from hmclass.spectra import (Spectrum, SpectrumError,
                             SpectrumValidationError, classify_germ,
                             sp_monomial, sp_ordinary,
                             sp_shift, sp_user_load, sp_validate,
                             stratum_spectrum)
from oracles import arrangement_to_json, make_table, sp_unshift, support
from oracles import entries as entry_list

F = Fraction


def entries(sp):
    return dict(entry_list(sp))


def concurrent_lines(k):
    """k distinct lines through one point of the projective plane."""
    covs = [(1, i, 0) for i in range(k - 1)] + [(0, 1, 0)]
    return build(2, [(c, 1) for c in covs])


def boolean_point(mults):
    """Coordinate hyperplanes with multiplicities in projective r-space,
    localized at their common point."""
    r = len(mults)
    covs = []
    for i in range(r):
        cov = [0] * (r + 1)
        cov[i] = 1
        covs.append(tuple(cov))
    arr = build(r, list(zip(covs, mults)))
    top = [e for e in edges(arr) if e.codim == r][0]
    return localize(arr, top)


class TestMonomial:
    def test_double_point(self):
        assert entries(sp_monomial([2])) == {F(1, 2): 1}

    def test_node(self):
        assert entries(sp_monomial([1, 1])) == {F(1): 1}

    def test_boolean_triple(self):
        assert entries(sp_monomial([1, 1, 1])) == {F(1): 1, F(2): -2}

    def test_single_variable_closed_form(self):
        for m in range(2, 7):
            expected = {F(c, m): 1 for c in range(1, m)}
            assert entries(sp_monomial([m])) == expected

    def test_frame(self):
        assert sp_monomial([2, 1]).frame == ("germ", 2)

    def test_bad_exponents(self):
        with pytest.raises(SpectrumError):
            sp_monomial([0, 1])

    def test_mass_against_mobius_oracle(self):
        # total mass must match the signed reduced Euler characteristic of
        # the Milnor fiber computed through the lattice route
        for r in (1, 2, 3):
            for mults in product((1, 2, 3), repeat=r):
                loc = boolean_point(list(mults))
                report = sp_validate(sp_monomial(list(mults)), loc)
                assert report["ok"], (mults, report["failures"])


class TestOrdinary:
    def test_two_lines_matches_monomial(self):
        assert sp_ordinary(2) == sp_monomial([1, 1])

    def test_three_lines(self):
        assert entries(sp_ordinary(3)) == {F(2, 3): 1, F(1): 2, F(4, 3): 1}

    def test_four_lines(self):
        assert entries(sp_ordinary(4)) == {
            F(1, 2): 1, F(3, 4): 2, F(1): 3, F(5, 4): 2, F(3, 2): 1}

    @pytest.mark.parametrize("k", range(2, 7))
    def test_mass_symmetry_support(self, k):
        sp = sp_ordinary(k)
        assert sp.mass == (k - 1) ** 2
        table = entries(sp)
        assert all(table[2 - a] == m for a, m in table.items())
        assert all(0 < a < 2 for a in support(sp))

    @pytest.mark.parametrize("k", range(2, 7))
    def test_validates_against_concurrent_lines(self, k):
        arr = concurrent_lines(k)
        point = [e for e in edges(arr) if e.codim == 2][0]
        assert len(point.index_set) == k
        report = sp_validate(sp_ordinary(k), localize(arr, point))
        assert report["ok"], report["failures"]

    def test_rejects_single_line(self):
        with pytest.raises(SpectrumError):
            sp_ordinary(1)


class TestShift:
    def fourplanes_line(self):
        arr = corpus.load("fourplanes")
        return arr, [s for s in sigma_strata(arr) if s.dim == 1][0]

    def test_node_on_a_line(self):
        arr, line = self.fourplanes_line()
        shifted = sp_shift(sp_monomial([1, 1]), line, arr.n)
        assert entries(shifted) == {F(2): -1}
        assert shifted.frame == ("stratum", 3)

    def test_dimension_zero_is_identity(self):
        arr = corpus.load("triangle3")
        point = sigma_strata(arr)[0]
        sp = sp_ordinary(2)
        assert entries(sp_shift(sp, point, arr.n)) == entries(sp)

    def test_triple_germ_on_a_line(self):
        arr = corpus.load("pencil3planes")
        line = sigma_strata(arr)[0]
        shifted = sp_shift(sp_ordinary(3), line, arr.n)
        assert entries(shifted) == {F(5, 3): -1, F(2): -2, F(7, 3): -1}

    def test_round_trip(self):
        arr, line = self.fourplanes_line()
        sp = sp_ordinary(2)
        assert sp_unshift(sp_shift(sp, line, arr.n), line) == sp

    def test_frame_mismatch(self):
        arr, line = self.fourplanes_line()
        stratum_framed = sp_shift(sp_monomial([1, 1]), line, arr.n)
        with pytest.raises(SpectrumError):
            sp_shift(stratum_framed, line, arr.n)  # already in stratum frame
        with pytest.raises(SpectrumError):
            sp_shift(sp_monomial([2, 1, 1]), line, arr.n)  # germ dim 3, codim 2


class TestValidate:
    def test_support_failure(self):
        arr = concurrent_lines(3)
        point = [e for e in edges(arr) if e.codim == 2][0]
        bad = make_table({F(0): 1, F(1): 3}, ("germ", 2))
        report = sp_validate(bad, localize(arr, point))
        assert not report["ok"]
        assert any("support" in f for f in report["failures"])

    def test_mass_failure(self):
        arr = concurrent_lines(3)
        point = [e for e in edges(arr) if e.codim == 2][0]
        bad = make_table({F(1): 1}, ("germ", 2))
        report = sp_validate(bad, localize(arr, point))
        assert any("mass" in f for f in report["failures"])

    def test_denominator_failure(self):
        arr = concurrent_lines(3)
        point = [e for e in edges(arr) if e.codim == 2][0]
        bad = make_table({F(1, 5): 4}, ("germ", 2))
        report = sp_validate(bad, localize(arr, point))
        assert any("denominator" in f for f in report["failures"])

    @pytest.mark.parametrize("table, failures", [
        # an exponent at the rank is outside the open support, and its
        # partner 0 is missing
        ({F(1): 3, F(2): 1}, ["support: exponent 2 outside (0, 2)",
                              "symmetry: n_2 = 1 but n_0 = 0"]),
        ({F(2, 3): 1, F(1): 2, F(4, 3): 2},
         ["mass: total 5 != expected 4", "symmetry: n_2/3 = 1 but n_4/3 = 2"]),
        ({F(-1, 3): 1, F(1, 2): 2, F(7, 3): 1},
         ["support: exponent -1/3 outside (0, 2)",
          "support: exponent 1/2 has denominator not dividing 3",
          "support: exponent 7/3 outside (0, 2)",
          "symmetry: n_1/2 = 2 but n_3/2 = 0"]),
    ])
    def test_failure_texts(self, table, failures):
        # the validators read the integer numerators c of the exponents
        # c/e, and name each exponent as str of its Fraction
        arr = concurrent_lines(3)
        point = [e for e in edges(arr) if e.codim == 2][0]
        report = sp_validate(make_table(table, ("germ", 2)),
                             localize(arr, point))
        assert report == {"ok": False, "failures": failures}

    @pytest.mark.parametrize("frame", [("germ", 3), ("stratum", 2)])
    def test_frame_failure(self, frame):
        # the entries of ordinary(3) pass every other check at the triple
        # point of x, y, x + y, so the frame is the one failure: another
        # germ dimension, or the right dimension in the stratum frame
        arr = concurrent_lines(3)
        point = [e for e in edges(arr) if e.codim == 2][0]
        sp = make_table(entries(sp_ordinary(3)), frame)
        report = sp_validate(sp, localize(arr, point))
        assert report == {"ok": False, "failures": [
            f"frame {frame} does not match germ dimension 2"]}

    @pytest.mark.parametrize("name", list(corpus.ALL_NAMES))
    def test_catalogue_validates_everywhere(self, name):
        arr = corpus.load(name)
        for s in sigma_strata(arr):
            loc = localize(arr, s)
            germ = classify_germ(loc)
            assert germ.describe() != "user_table_required"
            report = sp_validate(germ, loc)
            assert report["ok"], (name, s.key, report["failures"])


class TestUserTables:
    def test_manual_ordinary_table_accepted(self):
        arr = corpus.load("concurrent3")
        tables = sp_user_load(
            {"1,2,3": [{"alpha": "2/3", "mult": 1}, {"alpha": "1", "mult": 2},
                       {"alpha": "4/3", "mult": 1}]}, arr)
        assert tables["1,2,3"] == sp_ordinary(3)

    def test_empty_table_for_trivial_germ_accepted(self):
        # a simple hyperplane has a smooth germ: empty spectrum, all checks
        # trivially pass
        arr = corpus.load("triangle3")
        tables = sp_user_load({"1": []}, arr)
        assert tables["1"].is_zero()

    @pytest.mark.parametrize("sp,e", [
        (sp_ordinary(5), 5), (sp_monomial([4, 6]), 2),
        (make_table({F(1, 2): 1, F(4, 3): -2}, ("germ", 2)), 6),
        (make_table({}, ("germ", 1)), 1)])
    def test_table_read_as_runs(self, sp, e):
        # a table of the same entries answers e and runs as the spectrum
        # does: one run (p, c, c, n, 0) per entry n at the exponent
        # rank - p - c/e
        table = make_table(entries(sp), sp.frame)
        assert sp.e == table.e == e
        rank, runs = table.frame[1], table.runs
        assert all(lo == hi and b == 0 and 0 <= lo < e
                   for _, lo, hi, _, b in runs)
        assert {rank - p - F(c, e): n for p, c, _, n, _ in runs} == entries(sp)

    def test_mass_violation_rejected(self):
        arr = corpus.load("concurrent3")
        with pytest.raises(SpectrumValidationError):
            sp_user_load({"1,2,3": [{"alpha": "1", "mult": 1}]}, arr)

    def test_table_off_sigma_checked_against_its_localization(
            self, monkeypatch):
        # a reduced hyperplane is no stratum, yet a table may name it: it is
        # validated against the lattice's record of that hyperplane, its
        # own localization
        arr = corpus.load("triangle3")
        real, seen = spectra.sp_validate, []
        monkeypatch.setattr(spectra, "sp_validate",
                            lambda sp, loc: seen.append(loc) or real(sp, loc))
        with pytest.raises(SpectrumValidationError) as info:
            sp_user_load({"1": [{"alpha": "1/2", "mult": 1}]}, arr)
        assert str(info.value) == (
            "table for edge 1 rejected: support: exponent 1/2 has "
            "denominator not dividing 1; mass: total 1 != expected 0")
        assert seen == [arr.lattice.edges[0]]
        assert seen[0] is localize(arr, arr.lattice.edges[0])
        assert seen[0] not in sigma_strata(arr)

    def test_unknown_edge_rejected(self):
        # a table names an edge by its key text exactly: another spelling
        # of an edge's index set names no edge
        arr = corpus.load("triangle3")
        assert [e.key for e in arr.lattice.edges] == [
            "1", "2", "3", "1,2", "1,3", "2,3"]
        for key in ["9", "2,1", "01,2", " 1", "1,,2", "+1", "", "1,2,3",
                    "0", "-1", "1 ", "1_0", "\u0661", 1, (1,), None]:
            with pytest.raises(SpectrumError) as info:
                sp_user_load({key: []}, arr)
            assert str(info.value) == f"unknown edge key {key!r}"

    def test_malformed_exponent_rejected(self):
        arr = corpus.load("concurrent3")
        with pytest.raises(SpectrumError):
            sp_user_load({"1,2,3": [{"alpha": "x", "mult": 1}]}, arr)

    def test_refused_entry_is_echoed_up_to_a_cut(self):
        # an entry's repr is echoed whole up to 100 characters, and past
        # that cut after them, with a marker
        arr = corpus.load("concurrent3")
        assert len(repr({"alpha": "x" * 76, "mult": 1})) == 100
        for alpha, cut in (("x" * 76, False), ("x" * 77, True),
                           ("1" * 5000 + "/x", True)):
            item = {"alpha": alpha, "mult": 1}
            with pytest.raises(SpectrumError) as info:
                sp_user_load({"1,2,3": [item]}, arr)
            echoed = repr(item)[:100] + "..." if cut else repr(item)
            assert str(info.value).startswith(
                f"bad spectrum entry {echoed}: ")

    def test_user_table_overrides_catalogue(self):
        arr = corpus.load("concurrent3")
        tables = sp_user_load(
            {"1,2,3": [{"alpha": "2/3", "mult": 1}, {"alpha": "1", "mult": 2},
                       {"alpha": "4/3", "mult": 1}]}, arr)
        stratum = sigma_strata(arr)[0]
        assert stratum_spectrum(arr, stratum, tables) is tables["1,2,3"]


class TestGermData:
    """A germ's e and runs are set with it, and its entries are expanded
    from the runs; a catalogue germ's source, not its entries, tells it
    from another class."""

    def test_table_runs_repeat_a_fresh_computation(self):
        sp = make_table({F(1, 2): 1, F(4, 3): -2, F(5, 6): 3, F(1): 4},
                           ("germ", 2))
        # p = floor(rank - alpha), c = (rank - p - alpha) e, with e = 6
        fresh = tuple((int(2 - a), int((2 - int(2 - a) - a) * 6),
                       int((2 - int(2 - a) - a) * 6), n, 0)
                      for a, n in entry_list(sp))
        for _ in range(3):
            assert sp.runs == fresh
            assert sp.e == 6
        assert make_table(entries(sp), sp.frame).runs == fresh
        # the runs of a table, expanded, give its entries back
        assert entry_list(Spectrum(sp.frame, sp.e, sp.runs)) == entry_list(sp)

    def test_equality_reads_exponent_values(self):
        # monomial(1,1) holds its one exponent 1 over e = 1, ordinary(2)
        # over e = 2; another multiplicity, exponent or frame is unequal
        node, two_lines = sp_monomial([1, 1]), sp_ordinary(2)
        assert (node.e, node.pairs) == (1, ((1, 1),))
        assert (two_lines.e, two_lines.pairs) == (2, ((2, 1),))
        assert node == two_lines == make_table({F(1): 1}, ("germ", 2))
        for other in (make_table({F(1): 2}, ("germ", 2)),
                      make_table({F(1, 2): 1}, ("germ", 2)),
                      make_table({F(1): 1, F(3, 2): 1}, ("germ", 2)),
                      make_table({F(1): 1}, ("germ", 3))):
            assert node != other and other != two_lines

    def test_data_orders_get_rows_of_their_own(self, tmp_path, capsys):
        # lines of multiplicities 4, 6 and 4: the points 1,2 and 2,3 are
        # monomial(4,6) and monomial(6,4), whose spectra are equal, yet
        # each keeps its own source in the spectra report
        a, b = sp_monomial([4, 6]), sp_monomial([6, 4])
        assert a == b and (a.describe(), b.describe()) == (
            "monomial(4,6)", "monomial(6,4)")
        arr = build(2, [((1, 0, 0), 4), ((0, 1, 0), 6), ((0, 0, 1), 4)])
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(arrangement_to_json(arr)))
        assert cli.main(["spectra", str(path)]) == 0
        rows = json.loads(capsys.readouterr().out)["strata"]
        sources = {row["edge"]: row["source"] for row in rows}
        assert sources["1,2"] == "monomial(4,6)"
        assert sources["2,3"] == "monomial(6,4)"
        assert sources["1,3"] == "monomial(4,4)"


class TestCatalogueDispatch:
    def test_monomial_for_boolean_edges(self):
        arr = corpus.load("doubleplane3")
        line = [e for e in edges(arr) if e.index_set == (0, 1)][0]
        sp = classify_germ(localize(arr, line))
        assert sp == sp_monomial([2, 1])

    def test_ordinary_for_reduced_plane_points(self):
        arr = corpus.load("quad6a")
        triple = [e for e in edges(arr) if len(e.index_set) == 3][0]
        assert classify_germ(localize(arr, triple)) == sp_ordinary(3)

    def test_none_for_nonreduced_plane_points(self):
        arr = build(2, [((1, 0, 0), 2), ((0, 1, 0), 1), ((1, 1, 0), 1)])
        point = [e for e in edges(arr) if e.codim == 2][0]
        assert (classify_germ(localize(arr, point)).describe()
                == "user_table_required")
        assert stratum_spectrum(arr, sigma_strata(arr)[-1]) is None
