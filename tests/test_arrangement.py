import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from hmclass import arrangement, cli, corpus
from hmclass.arrangement import (Arrangement, ArrangementError, build,
                                 chi_y, chi_y_pn, edges,
                                 euler_by_inclusion_exclusion, is_dense,
                                 in_sigma, localize, milnor_fiber_chi,
                                 sigma_strata)
from hmclass.coeffs import RatFuncY, rat
from hmclass.milnor import assemble
from oracles import (brute_force_edges, dense_by_bipartition,
                     inclusion_exclusion_euler, primitive_reference)


def lines(*covs, mults=None):
    mults = mults or [1] * len(covs)
    return build(2, list(zip(covs, mults)))


CONCURRENT = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
TRIANGLE = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
# covector entries with both signs and non-integers; the extra zeros make
# concurrent hyperplanes common
MIXED = [Fraction(v) for v in (-2, -1, 0, 0, 0, 0, 1, 2)] \
    + [Fraction(v, 2) for v in (-3, -1, 1, 3)]


def random_covectors(rng, n, k, values):
    """(covectors, arrangement): k seeded distinct hyperplanes in P^n with
    covector entries drawn from values, as drawn and as built."""
    while True:
        covs = [[rng.choice(values) for _ in range(n + 1)] for _ in range(k)]
        try:
            return covs, build(n, [(c, 1) for c in covs])
        except ArrangementError:
            pass


def random_arrangement(rng, n, k, values):
    """A seeded arrangement of k distinct hyperplanes in P^n with covector
    entries drawn from values."""
    return random_covectors(rng, n, k, values)[1]


def assert_above_by_filter(lat):
    """The lattice's "above" table gives the same edges, in the same
    (codimension, index set) order, as filtering every edge by index-set
    containment, both above each edge and, read backwards, below it."""
    for i, e in enumerate(lat.edges):
        sset = set(e.index_set)
        above = [f for f in lat.edges if set(f.index_set) > sset]
        assert lat.above(e) == above
        assert [lat.edges[j] for j in lat.strictly_above[i]] == above
        below = [lat.edges[x] for x in range(len(lat.edges))
                 if i in lat.strictly_above[x]]
        assert below + [e] == \
            [f for f in lat.edges if set(f.index_set) <= sset]


def vandermonde(n, k):
    """k generic hyperplanes in P^n: the covectors (1, i, ..., i^n)."""
    return build(n, [([i ** p for p in range(n + 1)], 1) for i in range(k)])


class TestBuild:
    def test_valid_triangle(self):
        arr = lines(*TRIANGLE)
        assert arr.m == 3

    def test_proportional_rejected(self):
        with pytest.raises(ArrangementError, match="proportional"):
            lines((1, 0, 0), (2, 0, 0))

    def test_proportional_pair_named_by_first_position(self):
        # positions 2 and 3 clash first in input order, but the error names
        # the clashing pair with the lowest first position
        with pytest.raises(ArrangementError, match="positions 1 and 4$"):
            lines((1, 0, 0), (0, 1, 0), (0, 2, 0), (-2, 0, 0))
        with pytest.raises(ArrangementError, match="positions 1 and 2$"):
            lines(("1/2", "1", "0"), (1, 2, 0))

    def test_zero_covector_rejected(self):
        with pytest.raises(ArrangementError, match="zero covector"):
            lines((0, 0, 0), (1, 0, 0))

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(ArrangementError):
            build(2, [((1, 0, 0), 0)])

    def test_wrong_length_rejected(self):
        with pytest.raises(ArrangementError):
            build(3, [((1, 0, 0), 1)])

    def test_four_generic_planes(self):
        arr = corpus.load("fourplanes")
        assert arr.m == 4 and arr.n == 3

    @pytest.mark.parametrize("n, hyperplanes, text", [
        (3, [(("1/2", 0, 0), 1)],
         "covector (Fraction(1, 2), Fraction(0, 1), Fraction(0, 1)) has "
         "length 3, expected 4"),
        (2, [((1, 0, 0), 1), ((0, 0, 0), 1)], "zero covector"),
        (2, [((1, 0, 0), 0)], "multiplicity must be a positive integer, got 0"),
        (2, [((1, 0, 0), True)],
         "multiplicity must be a positive integer, got True"),
        (2, [((1, 0, 0), 100_001)],
         "multiplicity 100001 exceeds the limit 100000"),
        (2, [], "arrangement needs at least one hyperplane"),
        (2, [((0, 1, 0), 1), (("1/2", 0, 0), 1), ((0, -2, 0), 1),
             ((3, 0, 0), 1)],
         "proportional covectors at positions 1 and 3"),
    ])
    def test_error_texts(self, n, hyperplanes, text):
        with pytest.raises(ArrangementError) as info:
            build(n, hyperplanes)
        assert str(info.value) == text

    @pytest.mark.parametrize("command", ["lattice", "milnor"])
    def test_fractional_input_reports_as_its_integer_twin(self, command,
                                                          capsys, tmp_path):
        # the same lines, once with fractional and sign-flipped covectors
        # and once as primitive integers
        fractional = [("1/2", "0", "0"), ("0", "-2/3", "0"), ("1/3", "1/3", "0"),
                      ("0", "0", "-5"), ("1", "3/2", "9/4")]
        integral = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (4, 6, 9)]
        outputs = []
        for name, covs in (("frac", fractional), ("int", integral)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "n": 2, "hyperplanes": [{"coeffs": [str(c) for c in cov],
                                         "mult": 1} for cov in covs]}))
            assert cli.main([command, str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    # each string as the first entry of the covector (s, 1): what rat
    # parses, and the primitive covector build makes, or the error text;
    # from_json puts its entry before the text
    @pytest.mark.parametrize("text, value, covector", [
        ("7", Fraction(7), (7, 1)),
        ("-7", Fraction(-7), (7, -1)),
        ("+7", Fraction(7), (7, 1)),
        (" 7 ", Fraction(7), (7, 1)),
        ("007", Fraction(7), (7, 1)),
        ("-0", Fraction(0), (0, 1)),
        ("1_000", "underscore in '1_000'", None),
        # ARABIC-INDIC DIGIT THREE, then SUPERSCRIPT TWO
        ("\u0663", Fraction(3), (3, 1)),
        ("\u00b2", "Invalid literal for Fraction: '\u00b2'", None),
        ("", "Invalid literal for Fraction: ''", None),
        ("-", "Invalid literal for Fraction: '-'", None),
        ("--7", "Invalid literal for Fraction: '--7'", None),
        ("1/0", "zero denominator in '1/0'", None),
        ("1e5", "exponent notation in '1e5'", None),
        ("3.50", Fraction(7, 2), (7, 2)),
        ("2/4", Fraction(1, 2), (1, 2)),
    ])
    def test_coefficient_parse(self, text, value, covector):
        item = {"coeffs": [text, "1"], "mult": 1}
        if covector is None:
            for parse in (rat, lambda t: build(1, [([t, "1"], 1)])):
                with pytest.raises(ValueError) as info:
                    parse(text)
                assert type(info.value) is ValueError
                assert str(info.value) == value
            with pytest.raises(ArrangementError) as info:
                Arrangement.from_json({"n": 1, "hyperplanes": [item]})
            assert str(info.value) == f"bad hyperplane entry {item!r}: {value}"
        else:
            got = rat(text)
            assert type(got) is Fraction and got == value
            assert build(1, [([text, "1"], 1)]).covectors == (covector,)
            arr = Arrangement.from_json({"n": 1, "hyperplanes": [item]})
            assert arr.covectors == (covector,)

    def test_integer_text_past_the_digit_limit(self):
        # int and Fraction refuse integer text past Python's limit, 4300
        # digits by default, with a text that differs by version (and not
        # at all before 3.10.7), so the parser refuses it first, in one
        # text on every version, each run of digits counted on its own
        text = "1" * 4300
        assert build(1, [([text, "1"], 1)]).covectors == ((int(text), 1),)
        assert build(1, [([f"{text}/{text}", "1"], 1)]).covectors == ((1, 1),)
        for text, digits in (("1" * 4301, 4301), ("-" + "2" * 5000, 5000),
                             ("1/" + "3" * 4301, 4301),
                             (" 0." + "5" * 4301, 4301),
                             ("\u0663" * 4302, 4302)):
            item = {"coeffs": [text, "1"], "mult": 1}
            with pytest.raises(ArrangementError) as info:
                Arrangement.from_json({"n": 1, "hyperplanes": [item]})
            # the entry is echoed up to its first 100 characters
            assert str(info.value) == (
                f"bad hyperplane entry {repr(item)[:100]}...: integer text "
                f"of {digits} digits exceeds the limit of 4300 digits")


class TestPrimitive:
    def test_against_reference(self):
        # seeded integer vectors with leading and inner zeros, negative
        # leads, content above 1, and inputs already primitive
        rng = random.Random(12)
        seen = Counter()
        for _ in range(800):
            vec = tuple(rng.choice([0, 0, rng.randint(-9, 9)])
                        for _ in range(rng.randint(1, 6)))
            if not any(vec):
                continue
            vec = tuple(rng.choice([1, 1, 1, 1, -1, 2, -3]) * x for x in vec)
            want = primitive_reference(vec)
            got = arrangement._primitive(vec)
            assert got == want
            assert (got is vec) == (want == vec)  # primitive input: no copy
            assert arrangement._primitive(list(vec)) == want
            seen["zero"] += 0 in vec
            seen["negative lead"] += next(x for x in vec if x) < 0
            seen["content"] += math.gcd(*vec) > 1
            seen["primitive"] += want == vec
        assert min(seen.values()) >= 50, seen


class TestAppendOnlyBasis:
    def test_reduces_as_the_echelon_basis(self):
        # the search appends each join's residual to its edge's basis,
        # pivoted at its first nonzero entry, without reducing the rows
        # before it; a vector reduced against that basis gives the primitive
        # residual it gives against the echelon basis of the same rows
        rng = random.Random(31)
        seen = Counter()
        for _ in range(600):
            width = rng.choice([4, 5])
            rows = []
            for _ in range(rng.randint(1, width)):
                if rows and rng.random() < 0.2:  # a row in the span so far
                    row = [sum(rng.randint(-2, 2) * r[i] for r in rows)
                           for i in range(width)]
                else:
                    row = [rng.choice([0, rng.randint(-3, 3)])
                           for _ in range(width)]
                if any(row):
                    rows.append(row)
            if not rows:
                continue
            basis = []
            for row in rows:
                res = arrangement._reduce(basis, row)
                if res is not None:
                    basis.append((arrangement._pivot(res), res))
            echelon = arrangement._echelon(rows)
            assert sorted(p for p, _ in basis) == [p for p, _ in echelon]
            pivots = {p for p, _ in basis}
            seen["not reduced"] += any(row[q] for p, row in basis
                                       for q in pivots if q != p)
            for _ in range(5):
                vec = [rng.randint(-4, 4) for _ in range(width)]
                if rng.random() < 0.3:  # a vector in the span
                    vec = [sum(rng.randint(-2, 2) * r[i] for r in rows)
                           for i in range(width)]
                got = arrangement._reduce(basis, vec)
                assert got == arrangement._reduce(echelon, vec), (rows, vec)
                seen["in span"] += got is None
                seen["residual"] += got is not None
        assert seen["not reduced"] >= 50, seen
        assert seen["in span"] >= 50 and seen["residual"] >= 500, seen


class TestEdges:
    @pytest.mark.parametrize("name", ["concurrent3", "triangle3", "fourplanes",
                                      "quad6a", "doubleplane3"])
    def test_against_brute_force(self, name):
        arr = corpus.load(name)
        got = {(e.index_set, e.codim) for e in edges(arr)}
        oracle = brute_force_edges(arr.covectors, arr.n)
        assert got == oracle

    def test_random_arrangements_against_brute_force(self):
        rng = random.Random(4)
        concurrent = fractional = 0
        for n, k in [(2, 5), (2, 6), (2, 7)] * 4 + [(3, 5), (3, 6)] * 4:
            # the oracle reads the covectors as drawn, before scaling
            covs, arr = random_covectors(rng, n, k, MIXED)
            got = {(e.index_set, e.codim) for e in edges(arr)}
            assert got == brute_force_edges(covs, n)
            assert len(edges(arr)) == len(got)  # each edge found once
            concurrent += any(len(e.index_set) > e.codim for e in edges(arr))
            fractional += any(c.denominator > 1 for cov in covs for c in cov)
        assert concurrent >= 5 and fractional >= 5

    def test_random_p4_arrangements_against_brute_force(self):
        # five covector entries make zeros rarer, so the entries are drawn
        # from a sparser list; the "above" table is checked too
        rng = random.Random(5)
        sparse = [Fraction(v) for v in (-1, 0, 0, 0, 0, 0, 1, 2)] \
            + [Fraction(1, 2)]
        concurrent = 0
        for k in (6, 7, 6, 7):
            covs, arr = random_covectors(rng, 4, k, sparse)
            got = {(e.index_set, e.codim) for e in edges(arr)}
            assert got == brute_force_edges(covs, 4)
            assert len(edges(arr)) == len(got)
            assert max(e.codim for e in edges(arr)) == 4
            assert_above_by_filter(arr.lattice)
            concurrent += any(len(e.index_set) > e.codim for e in edges(arr))
        assert concurrent >= 2

    @pytest.mark.parametrize("n, k, counts", [
        (2, 30, {1: 30, 2: 435}),
        (3, 12, {1: 12, 2: 66, 3: 220}),
    ])
    def test_generic_counts(self, n, k, counts):
        es = edges(vandermonde(n, k))
        assert Counter(e.codim for e in es) == counts
        assert all(len(e.index_set) == e.codim for e in es)

    def test_triangle_counts(self):
        arr = lines(*TRIANGLE)
        es = edges(arr)
        assert [e.codim for e in es] == [1, 1, 1, 2, 2, 2]
        points = [e for e in es if e.codim == 2]
        assert all(len(e.index_set) == 2 and e.m_s == 2 for e in points)

    def test_concurrent_counts(self):
        arr = lines(*CONCURRENT)
        es = edges(arr)
        assert [e.codim for e in es] == [1, 1, 1, 2]
        point = es[-1]
        assert point.index_set == (0, 1, 2) and point.m_s == 3

    def test_four_planes_counts(self):
        arr = corpus.load("fourplanes")
        by_codim = {}
        for e in edges(arr):
            by_codim[e.codim] = by_codim.get(e.codim, 0) + 1
        assert by_codim == {1: 4, 2: 6, 3: 4}

    def test_m_s_additivity(self):
        arr = corpus.load("doubleplane3")
        es = edges(arr)
        for s in es:
            for t in es:
                if set(t.index_set) > set(s.index_set):
                    m_rel = sum(arr.mults[j] for j in t.index_set
                                if j not in s.index_set)
                    assert t.m_s == s.m_s + m_rel

    def test_key_text_and_identity(self):
        # twelve lines, three of them through [0:0:1]; the search passes
        # each edge its key, the 1-based index set as text, kept beside the
        # other six fields, and m_s is the sum of its multiplicities
        others = iter((1, i, i * i) for i in range(2, 11))
        covs = [(1, 0, 0) if j == 0 else (0, 1, 0) if j == 9
                else (1, 1, 0) if j == 11 else next(others)
                for j in range(12)]
        arr = lines(*covs)
        [point] = [e for e in arr.lattice.edges if e.key == "1,10,12"]
        assert point.index_set == (0, 9, 11) and point.codim == 2
        fields = {"index_set", "codim", "key", "position", "mults", "euler",
                  "dim"}
        for e in edges(arr):
            twin = arrangement.Edge(e.index_set, e.codim, e.key, e.position,
                                    e.mults, e.euler, e.dim)
            assert set(vars(e)) == set(vars(twin)) == fields | {"m_s"}
            assert twin.m_s == e.m_s == sum(e.mults)
            assert e.key == ",".join(str(j + 1) for j in e.index_set)
            assert vars(e)["key"] is e.key  # stored once, then kept
            assert twin.key is e.key

    def test_cover_walks_against_filters(self):
        rng = random.Random(9)
        arrs = [random_arrangement(rng, n, k, MIXED)
                for n, k in [(2, 6), (2, 8), (3, 5), (3, 7)] * 3]
        for arr in arrs + [corpus.load("pencil3planes")]:
            assert_above_by_filter(arr.lattice)


class TestStrata:
    def test_double_line_single_stratum(self):
        arr = corpus.load("doubleline")
        strata = sigma_strata(arr)
        assert len(strata) == 1
        assert strata[0].dim == 1 and arr.lattice.above(strata[0]) == []

    def test_triangle_point_strata(self):
        strata = sigma_strata(corpus.load("triangle3"))
        assert len(strata) == 3
        assert all(s.dim == 0 for s in strata)

    def test_smooth_hyperplane_no_strata(self):
        arr = build(2, [((1, 0, 0), 1)])
        assert sigma_strata(arr) == []

    def test_each_stratum_is_its_localization(self):
        # a stratum is one record: the lattice's edge, which is its own
        # localization, carrying the stratum's dimension and key, on every
        # listing
        rng = random.Random(21)
        arrs = [corpus.load(name) for name in corpus.ALL_NAMES]
        for n, k in [(2, 6), (3, 6), (4, 6)] * 4:
            covs = random_covectors(rng, n, k, MIXED)[0]
            arrs.append(build(n, [(c, rng.choice((1, 1, 2, 3)))
                                  for c in covs]))
        seen = Counter()
        for arr in arrs:
            strata = sigma_strata(arr)
            for s, again in zip(strata, sigma_strata(arr), strict=True):
                assert s is localize(arr, s) is again, s.key
                assert s is arr.lattice.edges[s.position], s.key
                assert s.dim == arr.n - s.codim, s.key
                seen[arr.n, s.dim] += 1
        assert all(seen[n, d] for n in (2, 3, 4) for d in range(n)), seen

    def test_each_edge_is_its_own_localization(self):
        # the lattice holds one record per edge, off the singular locus
        # too: localize returns the record at the edge's position, its
        # fields are the multiplicities of the hyperplanes through it and
        # its dimension, and sigma_strata lists the very records in_sigma
        # admits, in order; the Euler numbers are checked against the
        # Whitney oracle in test_properties
        rng = random.Random(22)
        arrs = [corpus.load(name) for name in corpus.ALL_NAMES]
        for n, k in [(2, 7), (3, 6), (4, 6)] * 3:
            covs = random_covectors(rng, n, k, MIXED)[0]
            arrs.append(build(n, [(c, rng.choice((1, 1, 2, 3)))
                                  for c in covs]))
        for arr in arrs:
            table = arr.lattice.edges
            for i, e in enumerate(table):
                assert e.position == i, e.key
                assert localize(arr, e) is e, e.key
                assert e.mults == tuple(arr.mults[j] for j in e.index_set)
                assert e.dim == arr.n - e.codim, e.key
            listed = [e for e in table if in_sigma(e)]
            for s, e in zip(sigma_strata(arr), listed, strict=True):
                assert s is e, s.key


class TestLocalizedChi:
    def test_three_concurrent_lines(self):
        arr = lines(*CONCURRENT)
        point = edges(arr)[-1]
        loc = localize(arr, point)
        assert loc.euler == -1
        assert milnor_fiber_chi(loc) == -3

    def test_two_lines(self):
        arr = lines(*TRIANGLE)
        point = [e for e in edges(arr) if e.codim == 2][0]
        loc = localize(arr, point)
        assert loc.euler == 0
        assert milnor_fiber_chi(loc) == 0

    def test_boolean_triple(self):
        arr = corpus.load("fourplanes")
        point = [e for e in edges(arr) if e.codim == 3][0]
        loc = localize(arr, point)
        assert loc.euler == 0
        assert milnor_fiber_chi(loc) == 0

    def test_single_hyperplane_localization(self):
        arr = corpus.load("doubleline")
        line = edges(arr)[0]
        loc = localize(arr, line)
        assert loc.euler == 1
        assert milnor_fiber_chi(loc) == 2


class TestDense:
    def test_normal_crossing_point_not_dense(self):
        arr = lines(*TRIANGLE)
        point = [e for e in edges(arr) if e.codim == 2][0]
        assert not is_dense(point, arr)

    def test_concurrent_point_dense(self):
        arr = lines(*CONCURRENT)
        assert is_dense(edges(arr)[-1], arr)

    def test_hyperplane_edge_dense(self):
        arr = corpus.load("doubleline")
        assert is_dense(edges(arr)[0], arr)

    @pytest.mark.parametrize("name", list(corpus.ALL_NAMES))
    def test_dense_iff_nonzero_chi(self, name):
        arr = corpus.load(name)
        for e in edges(arr):
            assert is_dense(e, arr) == (localize(arr, e).euler != 0)
            covs = [arr.covectors[j] for j in e.index_set]
            assert is_dense(e, arr) == dense_by_bipartition(covs), e.key

    def test_matches_bipartition_oracle_on_random_arrangements(self):
        # entries in {-1, 0, 1} give many concurrent and decomposable edges;
        # halves add non-integral covectors
        rng = random.Random(3)
        small = range(-1, 2)
        halves = [-1, Fraction(-1, 2), 0, 0, Fraction(1, 2), 1]
        for n, k, values in [(2, 7, small), (2, 7, small), (3, 7, small),
                             (3, 7, small), (3, 8, small), (2, 7, halves),
                             (2, 7, halves), (3, 7, halves), (3, 7, halves)]:
            arr = random_arrangement(rng, n, k, values)
            for e in edges(arr):
                covs = [arr.covectors[j] for j in e.index_set]
                assert is_dense(e, arr) == dense_by_bipartition(covs), e.key


class TestChiY:
    def test_concurrent(self):
        assert chi_y(lines(*CONCURRENT)) == RatFuncY([1, -3])

    def test_triangle(self):
        assert chi_y(lines(*TRIANGLE)) == RatFuncY([0, -3])

    def test_four_planes(self):
        assert chi_y(corpus.load("fourplanes")) == RatFuncY([2, 2, 4])

    def test_projective_space(self):
        assert chi_y_pn(3) == RatFuncY([1, -1, 1, -1])

    def test_open_line_stratum_of_triangle(self):
        arr = lines(*TRIANGLE)
        assert edges(arr)[0].codim == 1
        # a line minus two points
        assert arr.lattice.chi_y_open[0] == (-1, -1)

    def test_point_stratum(self):
        arr = lines(*TRIANGLE)
        i = next(i for i, e in enumerate(edges(arr)) if e.codim == 2)
        assert arr.lattice.chi_y_open[i] == (1,)

    @pytest.mark.parametrize("name", list(corpus.ALL_NAMES))
    def test_euler_specialization_matches_inclusion_exclusion(self, name):
        arr = corpus.load(name)
        assert chi_y(arr)(-1) == euler_by_inclusion_exclusion(arr)
        assert euler_by_inclusion_exclusion(arr) == \
            inclusion_exclusion_euler(arr.covectors, arr.n)

    def test_additivity_over_strata(self):
        arr = corpus.load("quad6a")
        total = RatFuncY()
        for cs in arr.lattice.chi_y_open:
            total = total + RatFuncY(cs)
        assert total == chi_y(arr)

    def test_double_line_is_reduced_line(self):
        # chi_y sees only the underlying set
        assert chi_y(corpus.load("doubleline")) == RatFuncY([1, -1])


class TestLatticeSearchedOnce:
    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        search = arrangement._search_edges

        def counted(arr):
            calls.append(arr)
            return search(arr)

        monkeypatch.setattr(arrangement, "_search_edges", counted)
        return calls

    def test_assemble(self, searches):
        assemble(corpus.load("doubleplane3"))
        assert len(searches) == 1

    @pytest.mark.parametrize("command", ["milnor", "lattice", "spectra", "chi-y"])
    def test_cli_report(self, searches, command, capsys):
        path = str(corpus.corpus_path("doubleplane3"))
        assert cli.main([command, path]) == 0, capsys.readouterr().err
        assert len(searches) == 1
