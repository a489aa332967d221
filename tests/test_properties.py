"""Properties of assembled reports and of the intersection lattice over
generated arrangements.

Derandomized, with few examples, so the suite stays quick and repeatable.
The properties hold for any stratum type key, so they also guard the
per-report memo of contributions against a key that is too coarse, and
one of them names the stratum where it is.
"""

import contextlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import (HealthCheck, Phase, assume, example, given, reject,
                        settings)
from hypothesis import strategies as st

from hmclass import arrangement, cli, corpus
from hmclass.ambient import virtual_pushed
from hmclass.arrangement import (ArrangementError, build, chi_y, chi_y_pn,
                                 euler_by_inclusion_exclusion, is_dense,
                                 localize, milnor_fiber_chi, sigma_strata)
from hmclass.coeffs import RatFuncY, poly_str
from hmclass.corpus import ALL_NAMES, corpus_path
from hmclass.milnor import (ALL_CONVENTIONS, DEFAULT_CONVENTIONS,
                            MissingSpectrumError, _pair,
                            _stratum_contribution, _type_key, assemble,
                            chern_milnor)
from hmclass.spectra import sp_user_load, stratum_germ
from hmclass.strata import (build_labels, chow_dims, compactify,
                            homology_weight_dims, push_to_sigma,
                            relabel_vector, trace)
from oracles import (BlownPlaneRing, ProjRing, RingElement,
                     arrangement_to_json, by_codegree, coeff,
                     chern_milnor_by_classes, chern_to_ch,
                     chi_y_stratum_by_whitney, dense_by_bipartition,
                     euler_by_whitney, euler_defect, generated_tables,
                     hirzebruch_class_by_additivity, log_ch2, log_chern,
                     model_class, model_ring, product_by_basis,
                     push_by_basis, report_to_json, ring_contribution,
                     spectra_rows_by_stratum, spread_table_entries,
                     stratum_contribution_by_terms, table_entries,
                     tangent_chern, todd12, todd_from_chern)

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

# every phase but shrinking, for the properties that are slow to fail: a
# draw that writes files and runs the CLI, or that checks many strata
# under every convention, is costly, and shrinking one tries hundreds of
# them; such a property reports the first failing draw as drawn
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@st.composite
def arrangements(draw):
    """(n, hyperplanes, permutation): small integer covectors in P^2 or
    P^3 with some multiple hyperplanes, and a reordering of them."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(n + 1, 7 if n == 2 else 6))
    entry = st.integers(-2, 2)
    covs = draw(st.lists(st.tuples(*[entry] * (n + 1)), min_size=k,
                         max_size=k, unique=True))
    mults = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3]), min_size=k,
                          max_size=k))
    order = draw(st.permutations(range(k)))
    return n, list(zip(covs, mults)), order


def assembled(n, hyperplanes):
    try:
        return assemble(build(n, hyperplanes))
    except (ArrangementError, MissingSpectrumError):
        reject()


@settings(SETTINGS, phases=NO_SHRINK)
@given(arrangements())
def test_cross_path_reruns_and_relabeling(case):
    n, hyperplanes, order = case  # order: new position -> old index
    rep = assembled(n, hyperplanes)
    assert rep.cross_path_ok
    again = assemble(build(n, hyperplanes))
    assert "".join(again.json_chunks(True)) == "".join(rep.json_chunks(True))
    shuffled = assemble(build(n, [hyperplanes[i] for i in order]))
    perm = {old + 1: new + 1 for new, old in enumerate(order)}
    assert (relabel_vector(rep.m_y, perm, rep.schema, shuffled.schema)
            == shuffled.m_y)


@SETTINGS
@given(arrangements())
def test_fundamental_labels_cover_sigma_strata(case):
    # the label schema names exactly the Sigma-strata, in lattice order
    n, hyperplanes, _ = case
    try:
        arr = build(n, hyperplanes)
    except ArrangementError:
        reject()
    assert (list(build_labels(arr).fundamental)
            == [s.key for s in sigma_strata(arr)])


@st.composite
def reduced_plane_arrangements(draw):
    """Hyperplanes of 3 to 9 distinct reduced lines in P^2 with small
    integer covectors; the degree of the divisor is the line count."""
    k = draw(st.integers(3, 9))
    entry = st.integers(-3, 3)
    covs = draw(st.lists(st.tuples(entry, entry, entry), min_size=k,
                         max_size=k, unique=True))
    return [(cov, 1) for cov in covs]


@settings(SETTINGS, phases=NO_SHRINK)
@given(reduced_plane_arrangements())
def test_degree0_equality_on_reduced_plane_arrangements(hyperplanes):
    # trace of M_y equals the virtual genus of the degree minus chi_y
    rep = assembled(2, hyperplanes)
    assert rep.degree0["equal"], rep.degree0


@settings(SETTINGS, phases=NO_SHRINK)
@given(arrangements())
def test_streamed_report_matches_dense_reference(case):
    # the spliced writer gives the bytes of json.dumps on the dense dict,
    # under every convention, with and without the strata dump
    n, hyperplanes, _ = case
    try:
        arr = build(n, hyperplanes)
        reports = [assemble(arr, None, conv) for conv in ALL_CONVENTIONS]
    except (ArrangementError, MissingSpectrumError):
        reject()
    for rep in reports:
        for dump_strata in (False, True):
            want = json.dumps(report_to_json(rep, dump_strata), indent=2)
            assert "".join(rep.json_chunks(dump_strata)) == want + "\n"


def transversal_milnor_number(stratum) -> int:
    """mu of the germ transversal to a curve stratum, (-1)^(c-1) times the
    reduced Euler number of its Milnor fiber F, c the codimension.  On a
    line of multiplicity d in P^2, F is d points; where k planes of total
    multiplicity d meet along a line in P^3, F is a d-fold cover of P^1
    minus k points."""
    c, d, k = stratum.codim, stratum.m_s, len(stratum.index_set)
    chi_f = d if c == 1 else d * (2 - k)
    return (-1) ** (c - 1) * (chi_f - 1)


@SETTINGS
@given(arrangements())
def test_euler_defect_is_trace_plus_curve_terms(case):
    # At y = -1 the degree-0 part of M_y should be chi(smooth hypersurface)
    # - chi(X).  The trace misses it by one term per curve stratum S, from
    # the germ g_S + z^m at S meeting the hyperplane removed from every
    # stratum: (-1)^(n-1) mu(g_S) (m - 1).  Surface strata are left out by
    # assume: their term is not derived yet.
    n, hyperplanes, _ = case
    rep = assembled(n, hyperplanes)
    arr = rep.arrangement
    strata = sigma_strata(arr)
    assume(all(s.dim < 2 for s in strata))
    curves = sum(transversal_milnor_number(s)
                 for s in strata if s.dim == 1)
    term = (-1) ** (n - 1) * curves * (arr.m - 1)
    assert trace(rep.schema, rep.m_y)(-1) + term == euler_defect(arr)


@st.composite
def p4_arrangements(draw):
    """(4, hyperplanes, permutation): 5 or 6 reduced hyperplanes in P^4
    with covector entries in {-1, 0, 1}, so every stratum of the singular
    locus is a point, a line or a plane, and a reordering of them."""
    k = draw(st.integers(5, 6))
    entry = st.integers(-1, 1)
    covs = draw(st.lists(st.tuples(*[entry] * 5), min_size=k, max_size=k,
                         unique=True))
    return 4, [(c, 1) for c in covs], draw(st.permutations(range(k)))


def with_tables(n, hyperplanes, conv=DEFAULT_CONVENTIONS):
    """The arrangement and its report, with generated user tables for the
    strata the catalogue cannot serve."""
    try:
        arr = build(n, hyperplanes)
    except ArrangementError:
        reject()
    return arr, assemble(arr, generated_tables(arr), conv)


def pushed_by_terms(arr, stratum, germ, conv, schema):
    """A stratum's contribution on its own, term by term, pushed to the
    labels."""
    model = compactify(arr, stratum)
    elem = stratum_contribution_by_terms(arr, stratum, germ, model, conv)
    if conv.sign_mode == "flip_odd_strata" and stratum.dim % 2 == 1:
        elem = -elem
    return push_by_basis(schema, model, elem.coeffs)


# explicit examples that meet every coverage guard of the two properties
# below whatever else is drawn, since an edit to a property's body
# re-draws its examples.  In P^3: a double plane x0, blown up at
# [0:0:0:1], where x1, x2 and x0 + x1 + x2 meet it in a point that needs
# a table, beside a triple plane x3, so curves meet boundary points of
# several residues.  In P^4: the five coordinate hyperplanes, whose
# points, lines and planes repeat one local type each.
GUARDED_P3 = (3, [((1, 0, 0, 0), 2), ((0, 1, 0, 0), 1), ((0, 0, 1, 0), 1),
                  ((1, 1, 1, 0), 1), ((0, 0, 0, 1), 3)], [0, 1, 2, 3, 4])
GUARDED_P4 = (4, [(tuple(int(i == j) for i in range(5)), 1)
                  for j in range(5)], [0, 1, 2, 3, 4])

# the same for the lattice-side properties further down.  In P^2: a double
# line x0, with x1 and x0 + x1 through [0:0:1], a dense point, and x2
# crossing the three in points that are not dense.  In P^4: the coordinate
# hyperplanes and x0 + x1, whose codimension-2 edge 1,2,6 is dense.
GUARDED_P2 = (2, [((1, 0, 0), 2), ((0, 1, 0), 1), ((1, 1, 0), 1),
                  ((0, 0, 1), 1)], [0, 1, 2, 3])
DENSE_P4 = (4, GUARDED_P4[1] + [((1, 1, 0, 0, 0), 1)], [0, 1, 2, 3, 4, 5])


def test_type_key_is_sound():
    # every stratum's memoized contribution is the one its own germ and
    # model give: a type key that is too coarse fails on a named stratum;
    # and it is the one its key gives with n and m alone, on a bare record
    # in place of the arrangement, so nothing else is read
    seen = Counter()

    @settings(SETTINGS, max_examples=40)
    @given(st.one_of(arrangements(), p4_arrangements()))
    # two points with m_s = 4 and no boundary, whose germs differ only in
    # the gcd of their exponents: (2, 2) and (1, 3)
    @example((2, [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 1),
                  ((1, 1, 1), 3)], [0, 1, 2, 3]))
    @example(GUARDED_P3)
    @example(GUARDED_P4)
    def check(case):
        n, hyperplanes, _ = case
        for conv in ALL_CONVENTIONS:
            arr, rep = with_tables(n, hyperplanes, conv)
            tables = generated_tables(arr)
            keys = set()
            for s in sigma_strata(arr):
                germ = stratum_germ(s, tables)
                if germ.is_zero():
                    continue
                key = _type_key(arr, rep.listed[s.key], germ)
                keys.add(key)
                want = pushed_by_terms(arr, s, germ, conv, rep.schema)
                assert rep.per_stratum[s.key] == want, (s.key, conv)
                bare = SimpleNamespace(n=arr.n, m=arr.m)
                coeffs = _stratum_contribution(bare, key, conv)
                if conv.sign_mode == "flip_odd_strata" and s.dim % 2 == 1:
                    coeffs = [-c for c in coeffs]
                got = push_to_sigma(rep.schema, s, coeffs)
                assert got == want, (s.key, conv)
        seen[n] += 1
        seen["tables"] += bool(tables)
        seen["repeats"] += len(keys) < len(rep.per_stratum)

    check()
    assert seen[2] and seen[3] and seen[4], seen
    assert seen["tables"] and seen["repeats"], seen


def test_integer_path_matches_ring_path_on_every_stratum():
    # every stratum's contribution, summed in integers and pushed to the
    # labels, against the same sum through the model's ring, exceptional
    # curves included, pushed basis class by basis class: catalogue germs,
    # tables with a whole mass at exponent 1 and tables spread over random
    # exponents, under every convention, in P^2 to P^4
    seen = Counter()

    @settings(SETTINGS, max_examples=50, phases=NO_SHRINK)
    @given(st.one_of(arrangements(), model_arrangements(),
                     p4_arrangements()), st.integers(0, 2 ** 32))
    @example(GUARDED_P3, 0)
    @example(GUARDED_P4, 0)
    def check(case, seed):
        n, hyperplanes = case[:2]
        try:
            arr = build(n, hyperplanes)
        except ArrangementError:
            reject()
        schema = build_labels(arr)
        spread = sp_user_load(
            spread_table_entries(arr, random.Random(seed)), arr)
        for tables in (generated_tables(arr), spread):
            for s in sigma_strata(arr):
                germ = stratum_germ(s, tables)
                model = compactify(arr, s)
                if germ.is_zero():
                    continue
                # what assembly passes: a surface's model, or the stratum
                shape = model if s.dim == 2 else s
                key = _type_key(arr, shape, germ)
                for conv in ALL_CONVENTIONS:
                    got = _stratum_contribution(arr, key, conv)
                    want = ring_contribution(germ, model, conv)
                    assert (push_to_sigma(schema, s, got)
                            == push_by_basis(schema, model, want)), (
                                s.key, conv.label())
                seen[n, model.kind] += 1
                seen[model.kind, bool(model.blown_points)] += 1
                seen["spread", model.kind] += tables is spread and (
                    s.key in tables)
                seen["whole mass"] += tables is not spread and (
                    s.key in tables)
                seen["curve, several residues"] += model.dim == 1 and len(
                    {c.m_res for c in model.boundary}) > 1

    check()
    for n in (3, 4):
        for kind in ("point", "curve", "surface"):
            assert seen[n, kind], (n, kind, seen)
    assert seen["surface", True] and seen["surface", False], seen
    assert all(seen["spread", kind] for kind in ("point", "curve",
                                                 "surface")), seen
    assert seen["whole mass"] and seen["curve, several residues"], seen


def test_each_class_pushes_to_a_label_of_its_own():
    # a stratum's class of codegree j lands on the label of its closure
    # when j = 0 and on the shared label of degree dim - j otherwise, so
    # each codegree has a label of its own, and the all-ones class pushes
    # to 1 on each of them
    seen = Counter()

    @SETTINGS
    @given(st.one_of(arrangements(), p4_arrangements()))
    @example(GUARDED_P3)
    def check(case):
        n, hyperplanes = case[:2]
        try:
            arr = build(n, hyperplanes)
        except ArrangementError:
            reject()
        schema = build_labels(arr)
        for s in sigma_strata(arr):
            model = compactify(arr, s)
            size = model.dim + 1
            units = [push_to_sigma(schema, s,
                                   [int(i == j) for i in range(size)])
                     for j in range(size)]
            want = [{schema.fundamental[s.key]: 1}] + [
                {schema.shared[model.dim - j]: 1} for j in range(1, size)]
            assert units == want, s.key
            labels = {name for pushed in want for name in pushed}
            assert len(labels) == size, s.key
            assert (push_to_sigma(schema, s, [1] * size)
                    == dict.fromkeys(labels, 1)), s.key
            seen[model.kind] += 1

    check()
    assert seen["point"] and seen["curve"] and seen["surface"], seen


@st.composite
def unimodular(draw, size):
    """A product of one to six elementary integer matrices I + t E_ij."""
    mat = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.lists(st.integers(0, size - 1), min_size=2,
                             max_size=2, unique=True))
        t = draw(st.sampled_from([-2, -1, 1, 2]))
        mat[i] = [x + t * z for x, z in zip(mat[i], mat[j])]
    return mat


@SETTINGS
@given(arrangements(), st.data())
def test_unimodular_coordinate_change_keeps_report_bytes(case, data):
    # a GL_{n+1}(Z) change of coordinates keeps the lattice with its
    # labels, so the milnor report keeps every byte
    n, hyperplanes, _ = case
    mat = data.draw(unimodular(n + 1))
    moved = [(tuple(sum(c[i] * mat[i][j] for i in range(n + 1))
                    for j in range(n + 1)), m) for c, m in hyperplanes]
    _, rep = with_tables(n, hyperplanes)
    _, rep_moved = with_tables(n, moved)
    for dump_strata in (False, True):
        assert ("".join(rep_moved.json_chunks(dump_strata))
                == "".join(rep.json_chunks(dump_strata)))


def generic_section_euler(arr) -> int:
    """The y = -1 value of the generic-section term: a stratum S of
    positive dimension meets the removed hyperplane H where the germ is
    g_S + z^m, whose reduced Milnor-fiber Euler number is -(m - 1) times
    that of g_S, along (S meet H) minus a generic degree-m hypersurface,
    of Euler number 1 on a curve and 2 - (the lines on S) - m on a
    surface."""
    m = arr.m
    total = 0
    for s in sigma_strata(arr):
        if s.dim == 0:
            continue
        chi_tilde = milnor_fiber_chi(localize(arr, s)) - 1
        factor = 1
        if s.dim == 2:
            lines = [e for e in arr.lattice.above(s)
                     if arr.n - e.codim == 1]
            factor = 2 - len(lines) - m
        total += -(m - 1) * chi_tilde * factor
    return total


def test_euler_defect_is_trace_plus_generic_section_terms():
    # chi(smooth hypersurface) - chi(X) is the trace of M_y at y = -1 plus
    # the generic-section term of every curve and surface stratum
    seen = Counter()

    @settings(SETTINGS, max_examples=40)
    @given(st.one_of(arrangements(), p4_arrangements()))
    @example(GUARDED_P2)
    @example(GUARDED_P3)
    @example(GUARDED_P4)
    def check(case):
        n, hyperplanes, _ = case
        arr, rep = with_tables(n, hyperplanes)
        assert (trace(rep.schema, rep.m_y)(-1) + generic_section_euler(arr)
                == euler_defect(arr))
        seen[n] += 1
        seen[n, "surface"] += any(s.dim == 2 for s in sigma_strata(arr))

    check()
    assert seen[2] and seen[3] and seen[4], seen
    assert seen[3, "surface"] and seen[4, "surface"], seen


def test_pushed_class_matches_additivity_from_sigma_dimension_up():
    # Every label is the class of a linear subspace, so M_y pushed to P^n
    # in degree k is the sum of its coefficients on the labels of degree k.
    # It equals the virtual class minus T_*(V), which the lattice gives by
    # additivity, in every degree k from d_Sigma, the largest stratum
    # dimension, up.  The generic-section term these models leave out
    # lives on Sigma meet H, of dimension d_Sigma - 1, so nothing is
    # asserted below d_Sigma.
    seen = Counter()
    # the corpus and the five coordinate hyperplanes of P^4 meet every
    # shape guard below; the seeded draws add the degrees
    reports = [assemble(corpus.load(name)) for name in ALL_NAMES]
    reports.append(assemble(build(*GUARDED_P4[:2])))
    rng = random.Random(21)
    # (n, multiplicities, entry bound, most hyperplanes, draws)
    for n, mults, bound, most, count in [
            (2, (1,), 2, 7, 12), (2, (1, 1, 1, 2), 2, 7, 16),
            (3, (1,), 2, 6, 12), (3, (1, 1, 1, 1, 2), 2, 6, 16),
            (4, (1,), 1, 6, 12)]:
        drawn = len(reports)
        while len(reports) < drawn + count:
            hyperplanes = [([rng.randint(-bound, bound)
                             for _ in range(n + 1)], rng.choice(mults))
                           for _ in range(rng.randint(n + 1, most))]
            try:
                reports.append(assemble(build(n, hyperplanes)))
            except (ArrangementError, MissingSpectrumError):
                pass
    for rep in reports:
        arr, n = rep.arrangement, rep.arrangement.n
        strata = sigma_strata(arr)
        if not strata:
            continue
        virtual = virtual_pushed(arr.m, n)
        reduced = hirzebruch_class_by_additivity(arr)
        for k in range(max(s.dim for s in strata), n):
            pushed = sum((rep.m_y.get(label.name, RatFuncY.ZERO)
                          for label in rep.schema.labels
                          if label.degree == k), RatFuncY.ZERO)
            assert pushed == virtual[n - k] - reduced[k], (arr, k)
            seen["degrees"] += 1
        seen[n, arr.m > arr.r] += 1
    # reduced P^2, P^2 with a double line, reduced P^3, P^3 with a multiple
    # plane, and reduced P^4
    assert all(seen[shape] for shape in ((2, False), (2, True), (3, False),
                                         (3, True), (4, False))), seen
    assert seen["degrees"] >= 120, seen


@st.composite
def lattice_arrangements(draw):
    """(n, hyperplanes): small integer covectors in P^2 and P^3, a few in
    P^4, with multiplicities 1 to 3."""
    n = draw(st.sampled_from([2, 2, 3, 3, 4]))
    k = draw(st.integers(2, {2: 8, 3: 7, 4: 6}[n]))
    entry = st.integers(-2, 2)
    covs = draw(st.lists(st.tuples(*[entry] * (n + 1)), min_size=k,
                         max_size=k, unique=True))
    mults = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return n, list(zip(covs, mults))


@settings(SETTINGS, max_examples=100)
@given(lattice_arrangements())
def test_lattice_tables_match_whitney_oracle(case):
    # the bottom-up Mobius pass and the top-down chi_y pass give, for every
    # edge, the values of the Whitney polynomials of its lower and upper
    # intervals; their sum at y = -1 is the inclusion-exclusion count
    n, hyperplanes = case
    try:
        arr = build(n, hyperplanes)
    except ArrangementError:
        reject()
    for e, cs in zip(arr.lattice.edges, arr.lattice.chi_y_open):
        assert localize(arr, e).euler == euler_by_whitney(arr, e), e.key
        assert RatFuncY(cs) == chi_y_stratum_by_whitney(arr, e), e.key
    assert chi_y(arr)(-1) == euler_by_inclusion_exclusion(arr)


def search_reductions(arr):
    """The lattice of arr, searched afresh, and the number of _reduce calls
    _search_edges makes itself, told apart by the caller's frame: a call
    from anywhere else, such as _echelon or _extend, is not counted."""
    reduce = arrangement._reduce
    calls = 0

    def counted(basis, vec):
        nonlocal calls
        calls += sys._getframe(1).f_code.co_name == "_search_edges"
        return reduce(basis, vec)

    arrangement._reduce = counted
    try:
        lattice = arrangement._search_edges(arr)
    finally:
        arrangement._reduce = reduce
    return lattice, calls


def test_search_reduces_each_hyperplane_into_one_new_edge():
    # each reduction of the search adds a hyperplane to a new edge X beyond
    # the index set of the one edge X is found from, which holds at least
    # codim X - 1 hyperplanes; so X costs at most |S_X| - codim X + 1
    # reductions
    seen = Counter()

    @settings(SETTINGS, max_examples=60)
    @given(st.one_of(arrangements(), p4_arrangements()))
    @example(GUARDED_P2)
    @example(GUARDED_P3)
    @example(GUARDED_P4)
    def check(case):
        n, hyperplanes, _ = case
        try:
            arr = build(n, hyperplanes)
        except ArrangementError:
            reject()
        lattice, calls = search_reductions(arr)
        assert calls <= sum(len(e.index_set) - e.codim + 1
                            for e in lattice.edges if e.codim >= 2)
        seen[n] += 1
        seen["concurrent"] += any(len(e.index_set) > e.codim
                                  for e in lattice.edges)

    check()
    assert seen[2] and seen[3] and seen[4] and seen["concurrent"], seen


@pytest.mark.parametrize("n, k, reductions", [(2, 10, 45), (3, 30, 4495),
                                              (4, 8, 154)])
def test_search_reduces_generic_hyperplanes_once_per_edge(n, k, reductions):
    # k generic hyperplanes in P^n: every edge of codimension i >= 2 is one
    # i-subset, found by exactly one reduction
    arr = build(n, [([i ** p for p in range(n + 1)], 1) for i in range(k)])
    assert search_reductions(arr)[1] == reductions
    assert reductions == sum(comb(k, i) for i in range(2, n + 1))


def test_searched_edge_keys_and_degrees():
    # the search builds each edge's key from the hyperplanes' key texts
    # and its m_s from their multiplicities, as Edge would build them
    seen = Counter()

    @settings(SETTINGS, max_examples=60)
    @given(st.one_of(arrangements(), p4_arrangements()))
    @example(GUARDED_P2)
    @example(GUARDED_P3)
    @example(GUARDED_P4)
    def check(case):
        n, hyperplanes, _ = case
        try:
            arr = build(n, hyperplanes)
        except ArrangementError:
            reject()
        for e in arr.lattice.edges:
            assert e.key == ",".join(str(j + 1) for j in e.index_set)
            assert e.m_s == sum(arr.mults[j] for j in e.index_set)
        seen[n] += 1
        seen["multiple"] += max(arr.mults) > 1

    check()
    assert seen[2] and seen[3] and seen[4] and seen["multiple"], seen


def test_dense_iff_nonzero_euler():
    # Crapo: a central arrangement is indecomposable exactly when its beta
    # invariant, up to sign the Euler number of its projectivized
    # complement, is nonzero; so the lattice report reads density from the
    # Euler table, and is_dense and the bipartition search stay oracles
    seen = Counter()

    # the P^4 cases with entries in {-1, 0, 1} have dense edges of
    # codimension 2 and more, which entries in [-2, 2] rarely give
    @settings(SETTINGS, max_examples=80)
    @given(st.one_of(lattice_arrangements(),
                     p4_arrangements().map(lambda case: case[:2])))
    @example(GUARDED_P2[:2])
    @example(GUARDED_P3[:2])
    @example(DENSE_P4[:2])
    def check(case):
        n, hyperplanes = case
        try:
            arr = build(n, hyperplanes)
        except ArrangementError:
            reject()
        for e in arr.lattice.edges:
            dense = localize(arr, e).euler != 0
            covs = [arr.covectors[j] for j in e.index_set]
            assert dense == is_dense(e, arr), e.key
            assert dense == dense_by_bipartition(covs), e.key
            seen[n, dense] += e.codim >= 2

    check()
    assert all(seen[n, dense] for n in (2, 3, 4)
               for dense in (True, False)), seen


def test_catalogue_germ_fixes_the_spectra_row_fields():
    # the spectra report builds one row body per catalogue germ, so the
    # germ must fix every stratum field the body reads: the dimension in
    # one P^n, and the rank, degree, reducedness and Euler number in any
    seen = Counter()
    fields = {}

    @settings(SETTINGS, max_examples=100)
    @given(st.one_of(arrangements(), p4_arrangements()))
    @example(GUARDED_P2)
    @example(GUARDED_P3)
    @example(GUARDED_P4)
    def check(case):
        n, hyperplanes, _ = case
        try:
            arr = build(n, hyperplanes)
        except ArrangementError:
            reject()
        germs = set()
        for s in sigma_strata(arr):
            germ = stratum_germ(s)
            if germ is None:
                continue
            kept = fields.setdefault((n, germ.source), (
                s.dim, s.rank, s.m_s, s.reduced, s.euler))
            assert (s.dim, s.rank, s.m_s, s.reduced, s.euler) == kept, \
                (s.key, germ.describe())
            seen["repeats"] += germ.source in germs
            germs.add(germ.source)
        seen[n] += 1

    check()
    assert seen[2] and seen[3] and seen[4] and seen["repeats"], seen


def run_cli(argv) -> tuple:
    """(exit code, standard output, standard error) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_spectra_report_matches_rows_by_stratum():
    # the rows built once per germ type are the rows each stratum gives on
    # its own, without tables, where some strata need one, and with
    # generated tables for those strata
    seen = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        source, table_file = Path(tmp, "input.json"), Path(tmp, "tables.json")

        @settings(SETTINGS, max_examples=40, phases=NO_SHRINK)
        @given(st.one_of(arrangements(), p4_arrangements()))
        # lines of multiplicities 1, 2, 1: the points with exponents (1, 2)
        # and (2, 1) share the germ class (rank 2, e = 1) and print
        # different sources
        @example((2, [((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 1)],
                  [0, 1, 2]))
        def check(case):
            n, hyperplanes, _ = case
            try:
                arr = build(n, hyperplanes)
            except ArrangementError:
                reject()
            source.write_text(json.dumps(arrangement_to_json(arr)))
            table_file.write_text(json.dumps(table_entries(arr)))
            tables = generated_tables(arr)
            for argv, used in ((["spectra", str(source)], {}),
                               (["spectra", str(source), "--tables",
                                 str(table_file)], tables)):
                code, out, err = run_cli(argv)
                assert code == 0, err
                want = {"n": arr.n, "m": arr.m,
                        "strata": spectra_rows_by_stratum(arr, used)}
                assert out == json.dumps(want, indent=2) + "\n"
                sources = [row["source"] for row in want["strata"]]
                seen[n] += 1
                seen["required"] += "user_table_required" in sources
                seen["tables"] += "user_table" in sources
                seen["order"] += ("monomial(1,2)" in sources
                                  and "monomial(2,1)" in sources)

        check()
    assert seen[2] and seen[3] and seen[4], seen
    assert seen["required"] and seen["tables"] and seen["order"], seen


def lattice_payload(arr) -> dict:
    """The lattice report built dict by dict: each edge's row from its own
    localization and density test, and the divisor's Euler number as chi_y
    at y = -1."""
    rows = []
    for e in arr.lattice.edges:
        loc = localize(arr, e)
        rows.append({"key": e.key, "codim": e.codim, "dim": arr.n - e.codim,
                     "m_s": e.m_s, "dense": is_dense(e, arr),
                     "complement_chi": loc.euler,
                     "milnor_fiber_chi": milnor_fiber_chi(loc)})
    return {
        "n": arr.n,
        "m": arr.m,
        "edges": rows,
        "chow_dims": {k: {str(d): v for d, v in sorted(t.items(),
                                                       reverse=True)}
                      for k, t in chow_dims(arr).items()},
        "weight_dims": {str(k): v for k, v in
                        sorted(homology_weight_dims(arr).items())},
        "euler_inclusion_exclusion": int(chi_y(arr)(-1)),
    }


def chi_y_payload(arr) -> dict:
    """The chi-y report built dict by dict, one open stratum at a time."""
    value = chi_y(arr)
    return {
        "n": arr.n,
        "chi_y_X": value.as_strings(),
        "chi_y_X_text": poly_str(value),
        "chi_y_Pn": chi_y_pn(arr.n).as_strings(),
        "euler_X": str(value(-1)),
        "per_stratum": {e.key: RatFuncY(cs).as_strings() for e, cs in
                        zip(arr.lattice.edges, arr.lattice.chi_y_open)},
    }


def test_lattice_side_reports_match_json_dumps():
    # the lattice, spectra and chi-y writers splice text rendered once per
    # row or per distinct part into a skeleton; the result is json.dumps of
    # the report built dict by dict, with catalogue germs, strata that need
    # a table, and tables that spread each mass over random exponents
    seen = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        source, table_file = Path(tmp, "input.json"), Path(tmp, "tables.json")

        @settings(SETTINGS, max_examples=40, phases=NO_SHRINK)
        @given(lattice_arrangements(), st.integers(0, 2 ** 32 - 1))
        # one reduced line: no stratum, so the spectra report lists none
        @example((2, [((1, 0, 0), 1)]), 0)
        def check(case, seed):
            n, hyperplanes = case
            try:
                arr = build(n, hyperplanes)
            except ArrangementError:
                reject()
            source.write_text(json.dumps(arrangement_to_json(arr)))
            raw = spread_table_entries(arr, random.Random(seed))
            table_file.write_text(json.dumps(raw))
            tables = sp_user_load(raw, arr)
            lattice = lattice_payload(arr)
            cases = [(["lattice"], lattice), (["chi-y"], chi_y_payload(arr))]
            for extra, used in (([], {}),
                                (["--tables", str(table_file)], tables)):
                rows = spectra_rows_by_stratum(arr, used)
                cases.append((["spectra", *extra],
                              {"n": arr.n, "m": arr.m, "strata": rows}))
                sources = [row["source"] for row in rows]
                seen["required"] += "user_table_required" in sources
                seen["tables"] += "user_table" in sources
                seen["no strata"] += not rows
            for (command, *extra), want in cases:
                code, out, err = run_cli([command, str(source), *extra])
                assert code == 0, err
                assert out == json.dumps(want, indent=2) + "\n", command
            seen[n] += 1
            seen["not dense"] += not all(row["dense"]
                                         for row in lattice["edges"])

        check()
    assert seen[2] and seen[3] and seen[4], seen
    assert all(seen[k] for k in ("required", "tables", "no strata",
                                 "not dense")), seen


@st.composite
def euler_arrangements(draw):
    """(n, hyperplanes): small integer covectors in P^2 to P^4 with
    multiplicities 1 to 3, up to 12 hyperplanes."""
    n = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(1, {2: 12, 3: 10, 4: 8}[n]))
    entry = st.integers(-2, 2)
    covs = draw(st.lists(st.tuples(*[entry] * (n + 1)), min_size=k,
                         max_size=k, unique=True))
    mults = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return n, list(zip(covs, mults))


def summed_open_strata(arr) -> list:
    """chi_y of the divisor by additivity: the top-down table's rows of
    every open stratum, summed coefficient by coefficient."""
    total = [0] * arr.n
    for cs in arr.lattice.chi_y_open:
        for p, c in enumerate(cs):
            total[p] += c
    return total


@settings(SETTINGS, max_examples=100)
@given(euler_arrangements())
def test_divisor_euler_of_the_mobius_pass(case):
    # the Mobius pass's Euler number of the divisor is the top-down table's
    # sum over open strata at y = -1, and for few hyperplanes the
    # inclusion-exclusion count over every subfamily
    n, hyperplanes = case
    try:
        arr = build(n, hyperplanes)
    except ArrangementError:
        reject()
    total = summed_open_strata(arr)
    assert arr.lattice.divisor_euler == sum(total[::2]) - sum(total[1::2])
    if arr.r <= 9:
        assert arr.lattice.divisor_euler == euler_by_inclusion_exclusion(arr)


def test_chi_y_of_the_mobius_pass_sums_the_open_strata():
    # chi_y of the divisor from the Mobius pass is the sum of the top-down
    # table's rows in every coefficient, and the chi-y report's per-stratum
    # values sum to its chi_y_X
    seen = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp, "input.json")

        @settings(SETTINGS, max_examples=100, phases=NO_SHRINK)
        @given(euler_arrangements())
        @example(GUARDED_P2[:2])
        @example(GUARDED_P3[:2])
        @example(GUARDED_P4[:2])
        def check(case):
            n, hyperplanes = case
            try:
                arr = build(n, hyperplanes)
            except ArrangementError:
                reject()
            total = summed_open_strata(arr)
            value = chi_y(arr)
            assert value.is_polynomial()
            assert [coeff(value, p) for p in range(n)] == total
            assert len(value.num) <= n
            source.write_text(json.dumps(arrangement_to_json(arr)))
            code, out, err = run_cli(["chi-y", str(source)])
            assert code == 0, err
            report = json.loads(out)
            summed = [0] * n
            for cs in report["per_stratum"].values():
                for p, c in enumerate(cs):
                    summed[p] += Fraction(c)
            want = [Fraction(c) for c in report["chi_y_X"]]
            assert summed == want + [0] * (n - len(want))
            seen[n] += 1
            seen["multiple"] += any(m > 1 for m in arr.mults)

        check()
    assert seen[2] and seen[3] and seen[4] and seen["multiple"], seen


@st.composite
def model_arrangements(draw):
    """(n, hyperplanes) in P^2 or P^3 with multiplicities 1 to 3.  In P^3
    the first plane is multiple, and it and at least three others pass
    through the point [0:0:0:1], so its surface model is often blown up
    there."""
    n = draw(st.sampled_from([2, 3]))
    entry = st.integers(-2, 2)
    if n == 2:
        covs = draw(st.lists(st.tuples(entry, entry, entry), min_size=3,
                             max_size=7, unique=True))
        first = []
    else:
        covs = draw(st.lists(st.tuples(entry, entry, entry, st.just(0)),
                             min_size=4, max_size=5, unique=True))
        covs += draw(st.lists(st.tuples(entry, entry, entry, entry),
                              max_size=2, unique=True))
        first = [draw(st.integers(2, 3))]
    mults = first + draw(st.lists(st.integers(1, 3), min_size=len(covs),
                                  max_size=len(covs)))
    return n, list(zip(covs, mults))


def test_model_classes_match_newton_identity_oracle():
    # the integer forms 12 td, 2 ch(Omega^q(log D)) and 2 c(T(-log D)) of
    # every model, divided by 12, 2 and 2, against Newton's identities on
    # the Chern data
    seen = Counter()

    @SETTINGS
    @given(model_arrangements())
    @example(GUARDED_P3[:2])
    def check(case):
        n, hyperplanes = case
        try:
            arr = build(n, hyperplanes)
        except ArrangementError:
            reject()
        for s in sigma_strata(arr):
            model = compactify(arr, s)
            seen[model.kind, bool(model.blown_points)] += 1
            ring = model_ring(model)
            assert (model_class(model, todd12(model), 12)
                    == todd_from_chern(tangent_chern(model), ring))
            assert len(log_ch2(model)) == model.dim + 1
            for q, ch in enumerate(log_ch2(model)):
                assert (model_class(model, ch, 2)
                        == chern_to_ch(log_chern(model, q), ring)), (s.key, q)

    check()
    assert seen["surface", True], seen  # some surface has a blown point
    assert seen["surface", False] and seen["curve", False], seen


def test_chern_path_matches_class_oracle():
    # the Chern path, read from the lattice in closed form, against the
    # same sum of RatFuncY classes from each model's Chern data, pushed by
    # hand: in P^2 to P^4, over points, curves and surfaces with and
    # without blown points
    seen = Counter()

    @settings(SETTINGS, phases=NO_SHRINK)
    @given(st.one_of(model_arrangements(), p4_arrangements()))
    def check(case):
        n, hyperplanes = case[:2]
        try:
            arr = build(n, hyperplanes)
        except ArrangementError:
            reject()
        strata = sigma_strata(arr)
        seen.update((n, m.kind, bool(m.blown_points))
                    for m in (compactify(arr, s) for s in strata))
        assert (chern_milnor(arr, build_labels(arr), strata)
                == chern_milnor_by_classes(arr))

    check()
    for n in (3, 4):
        for kind in ("point", "curve", "surface"):
            assert seen[n, kind, False], (n, kind, seen)
        assert seen[n, "surface", True], (n, seen)  # a blown point


@pytest.mark.parametrize("ring", [
    ProjRing(0), ProjRing(1),
    *(BlownPlaneRing(tuple(f"p{i}" for i in range(k))) for k in range(4))],
    ids=["point", "line", *(f"plane-{k}-points" for k in range(4))])
@SETTINGS
@given(st.data())
def test_vector_product_matches_ring_elements(ring, data):
    # the per-shape product of integer vectors, and RingElement.__mul__,
    # against the product by the basis multiplication table; on a blown-up
    # plane, the surface pairing of the degree-1 parts against the top
    # coefficient of their product
    vector = st.lists(st.integers(-50, 50), min_size=len(ring.names),
                      max_size=len(ring.names))
    a, b = data.draw(vector), data.draw(vector)
    expected = product_by_basis(ring, a, b)
    assert ring.mul_vectors(a, b) == expected
    assert (RingElement(ring, a) * RingElement(ring, b)
            == RingElement(ring, expected))
    if isinstance(ring, BlownPlaneRing):
        a1, b1 = ([0, *v[1:-1], 0] for v in (a, b))
        assert _pair(a1, b1) == product_by_basis(ring, a1, b1)[-1]


@SETTINGS
@given(model_arrangements())
def test_every_contribution_is_polynomial(case):
    # per stratum, under the default conventions, every coefficient of the
    # contribution has no (1+y) denominator
    n, hyperplanes = case
    try:
        arr = build(n, hyperplanes)
    except ArrangementError:
        reject()
    for s in sigma_strata(arr):
        germ = stratum_germ(s)
        assume(germ is not None)  # assemble raises MissingSpectrumError
        if germ.is_zero():
            continue
        shape = compactify(arr, s) if s.dim == 2 else s
        coeffs = _stratum_contribution(arr, _type_key(arr, shape, germ),
                                       DEFAULT_CONVENTIONS)
        assert all(c.k == 0 for c in coeffs), (s.key, coeffs)


@st.composite
def high_multiplicity_arrangements(draw):
    """(n, hyperplanes): model_arrangements with the first line or plane
    of multiplicity up to 1000 and the others up to 12."""
    n, hyperplanes = draw(model_arrangements())
    mults = draw(st.lists(st.sampled_from([1, 1, 2, 3, 4, 6, 12]),
                          min_size=len(hyperplanes),
                          max_size=len(hyperplanes)))
    mults[0] = draw(st.integers(2, 1000))
    return n, [(c, m) for (c, _), m in zip(hyperplanes, mults)]


def test_closed_form_matches_per_exponent_oracle():
    # the runs of a catalogue germ class, summed between the breaks of
    # each twist, against one Deligne class per exponent of the expanded
    # spectrum
    seen = Counter()

    @settings(SETTINGS, max_examples=12)
    @given(high_multiplicity_arrangements())
    # a plane of multiplicity 1000 blown up where three lines on it meet,
    # beside a double plane: each guard below holds whatever is drawn
    @example((3, [((1, 0, 0, 0), 1000), ((0, 1, 0, 0), 1),
                  ((0, 0, 1, 0), 1), ((0, 1, 1, 0), 1),
                  ((0, 0, 0, 1), 2)]))
    def check(case):
        n, hyperplanes = case
        try:
            arr = build(n, hyperplanes)
        except ArrangementError:
            reject()
        for s in sigma_strata(arr):
            germ = stratum_germ(s)
            if germ is None or germ.is_zero():
                continue
            model = compactify(arr, s)
            shape = model if s.dim == 2 else s
            key = _type_key(arr, shape, germ)
            for conv in ALL_CONVENTIONS:
                want = stratum_contribution_by_terms(arr, s, germ, model,
                                                     conv)
                assert (_stratum_contribution(arr, key, conv)
                        == by_codegree(model, want.coeffs)), (s.key, conv)
            seen[model.kind, bool(model.blown_points)] += 1
        seen["multiple planes"] += n == 3 and sum(
            m > 1 for _, m in hyperplanes) >= 2
        seen["largest"] = max(seen["largest"], hyperplanes[0][1])

    check()
    assert seen["surface", True] and seen["multiple planes"], seen
    assert seen["largest"] >= 500, seen


# values a mutation puts in place of a JSON value
JUNK = st.one_of(st.integers(-3, 20), st.booleans(), st.none(),
                 st.sampled_from(["x", "1/0", "1e5", "", "1,2,3"]),
                 st.lists(st.integers(-2, 2), max_size=3),
                 st.dictionaries(st.sampled_from(["coeffs", "mult", "a"]),
                                 st.integers(0, 2), max_size=2))

# a valid table for concurrent3: the spectrum of the ordinary triple point
TRIPLE_POINT_TABLE = {"1,2,3": [{"alpha": "2/3", "mult": 1},
                                {"alpha": "1", "mult": 2},
                                {"alpha": "4/3", "mult": 1}]}


def _paths(value, prefix=()):
    """Every path to a value inside a JSON document, the root excluded."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, document):
    """A copy of a JSON document with one to three values dropped or
    replaced by junk."""
    doc = json.loads(json.dumps(document))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = doc
        for key in head:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = draw(JUNK)
    return doc


@st.composite
def cli_cases(draw):
    """(command, arrangement document, tables document or None)."""
    name = draw(st.sampled_from(ALL_NAMES))
    source = json.loads(corpus_path(name).read_text())
    command = draw(st.sampled_from(["milnor", "lattice", "spectra", "chi-y"]))
    tables = None
    if command in ("milnor", "spectra") and draw(st.booleans()):
        tables = draw(st.one_of(st.just(TRIPLE_POINT_TABLE),
                                mutated(TRIPLE_POINT_TABLE)))
    return command, draw(mutated(source)), tables


def test_mutated_inputs_exit_with_a_code_never_a_traceback():
    # every input ends in a report (0) or a typed error (1 or 2) with one
    # JSON line on standard error; an escaping exception fails here
    with tempfile.TemporaryDirectory() as tmp:
        source, table_file = Path(tmp, "input.json"), Path(tmp, "tables.json")

        @settings(SETTINGS, max_examples=150)
        @given(cli_cases())
        def check(case):
            command, document, tables = case
            source.write_text(json.dumps(document))
            argv = [command, str(source)]
            if tables is not None:
                table_file.write_text(json.dumps(tables))
                argv += ["--tables", str(table_file)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2), code
            if code:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, lines
                assert set(json.loads(lines[0])["error"]) == {"kind",
                                                              "message"}

        check()


def stored_zeros(rep) -> list:
    """(vector, label) for each value of a report's vectors that is zero,
    and for each label of one that is not in the report's schema, which
    the writer has no place for."""
    vectors = {"M_y": rep.m_y, "chern_path": rep.chern_path,
               **{f"per_stratum {k}": v for k, v in rep.per_stratum.items()},
               **{f"specialization {y0}": v
                  for y0, v in rep.specializations.items()}}
    names = set(rep.schema.names())
    return [(where, name) for where, vec in vectors.items()
            for name, v in vec.items() if v.is_zero() or name not in names]


def test_no_vector_stores_a_zero():
    # each builder drops its zeros as it makes them and nothing filters a
    # vector afterwards, so no vector of a report holds a zero, nor a
    # label outside the schema: on the corpus and on random P^2 to P^4
    # draws, under every convention
    for name in ALL_NAMES:
        arr = corpus.load(name)
        for conv in ALL_CONVENTIONS:
            rep = assemble(arr, generated_tables(arr), conv)
            assert not stored_zeros(rep), (name, conv.label())
    seen = Counter()

    @settings(SETTINGS, max_examples=40)
    @given(st.one_of(arrangements(), p4_arrangements()))
    # under flip_odd_strata/res_[0,1) the pushes to one label of M_y
    # cancel, so the sum must drop it
    @example((2, [((0, -1, -1), 2), ((0, -1, 2), 3), ((-1, -2, 1), 1)],
              [0, 1, 2]))
    def check(case):
        n, hyperplanes, _ = case
        for conv in ALL_CONVENTIONS:
            _, rep = with_tables(n, hyperplanes, conv)
            assert not stored_zeros(rep), conv.label()
            seen["zero at a point"] += any(
                len(v) < len(rep.m_y) for v in rep.specializations.values())
        seen[n] += 1

    check()
    assert seen[2] and seen[3] and seen[4] and seen["zero at a point"], seen


def test_specializations_and_trace_read_every_label():
    # the specializations and the trace evaluate, or add, each distinct
    # coefficient once; each must equal the label-by-label value: every
    # label evaluated on its own at y0, and the degree-0 labels summed one
    # by one
    seen = Counter()

    @settings(SETTINGS, phases=NO_SHRINK)
    @given(st.one_of(arrangements(), p4_arrangements()))
    @example(GUARDED_P2)
    @example(GUARDED_P3)
    @example(GUARDED_P4)
    def check(case):
        n, hyperplanes, _ = case
        for conv in ALL_CONVENTIONS:
            _, rep = with_tables(n, hyperplanes, conv)
            for y0 in (-1, 0, 1):
                want = {name: RatFuncY([v(y0)])
                        for name, v in rep.m_y.items() if v(y0)}
                assert rep.specializations[y0] == want, (y0, conv.label())
            total = RatFuncY.ZERO
            for label in rep.schema.labels:
                if label.degree == 0 and label.name in rep.m_y:
                    total = total + rep.m_y[label.name]
            assert trace(rep.schema, rep.m_y) == total, conv.label()
            forms = {(v.num, v.den, v.k) for v in rep.m_y.values()}
            seen["shared"] += len(forms) < len(rep.m_y)
        seen[n] += 1

    check()
    assert seen[2] and seen[3] and seen[4] and seen["shared"], seen
