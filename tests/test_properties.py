"""Properties of assembled reports and of the intersection lattice over
generated arrangements.

Derandomized, with few examples, so the suite stays quick and repeatable.
The properties hold for any stratum signature, so they also guard the
per-report memo of contributions against a signature that is too coarse.
"""

import contextlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from hmclass import cli
from hmclass.arrangement import (ArrangementError, build, chi_y,
                                 chi_y_stratum, euler_by_inclusion_exclusion,
                                 localize, sigma_strata)
from hmclass.corpus import ALL_NAMES, corpus_path
from hmclass.milnor import (ALL_CONVENTIONS, DEFAULT_CONVENTIONS,
                            MissingSpectrumError, _stratum_contribution,
                            assemble, chern_milnor)
from hmclass.rings import BlownPlaneRing, ProjRing, RingElement
from hmclass.spectra import stratum_spectrum
from hmclass.strata import build_labels, compactify, relabel_vector
from oracles import (chern_milnor_by_classes, chern_to_ch,
                     chi_y_stratum_by_whitney, euler_by_whitney, euler_defect,
                     log_chern, log_tangent_by_chern, model_class,
                     product_by_basis, report_to_json, tangent_chern,
                     todd_from_chern)

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


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


@SETTINGS
@given(arrangements())
def test_cross_path_reruns_and_relabeling(case):
    n, hyperplanes, order = case  # order: new position -> old index
    rep = assembled(n, hyperplanes)
    assert rep.cross_path_ok
    again = assemble(build(n, hyperplanes))
    assert "".join(again.json_chunks(True)) == "".join(rep.json_chunks(True))
    shuffled = assemble(build(n, [hyperplanes[i] for i in order]))
    perm = {old + 1: new + 1 for new, old in enumerate(order)}
    assert relabel_vector(rep.m_y, perm, shuffled.schema) == shuffled.m_y


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


@SETTINGS
@given(reduced_plane_arrangements())
def test_degree0_equality_on_reduced_plane_arrangements(hyperplanes):
    # trace of M_y equals the virtual genus of the degree minus chi_y
    rep = assembled(2, hyperplanes)
    assert rep.degree0["equal"], rep.degree0


@SETTINGS
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
    c, d, k = stratum.edge.codim, stratum.edge.m_s, len(stratum.edge.index_set)
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
    assert rep.m_y.trace()(-1) + term == euler_defect(arr)


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
    for e in arr.lattice.edges:
        assert localize(arr, e).euler == euler_by_whitney(arr, e), e.key
        assert chi_y_stratum(arr, e) == chi_y_stratum_by_whitney(arr, e), e.key
    assert chi_y(arr)(-1) == euler_by_inclusion_exclusion(arr)


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
    def check(case):
        n, hyperplanes = case
        try:
            arr = build(n, hyperplanes)
        except ArrangementError:
            reject()
        for s in sigma_strata(arr):
            model = compactify(arr, s)
            seen[model.kind, bool(model.blown)] += 1
            ring = model.ring
            assert (model_class(model, model.todd12, 12)
                    == todd_from_chern(tangent_chern(model), ring))
            assert len(model.log_ch2) == model.dim + 1
            for q, ch in enumerate(model.log_ch2):
                assert (model_class(model, ch, 2)
                        == chern_to_ch(log_chern(model, q), ring)), (s.key, q)
            assert (model_class(model, model.log_tangent2, 2)
                    == log_tangent_by_chern(model)), s.key

    check()
    assert seen["surface", True], seen  # some surface has a blown point
    assert seen["surface", False] and seen["curve", False], seen


def test_chern_path_matches_class_oracle():
    # the Chern path, summed in integers, against the same sum of RatFuncY
    # classes from the Chern data, pushed by hand
    seen = Counter()

    @SETTINGS
    @given(model_arrangements())
    def check(case):
        n, hyperplanes = case
        try:
            arr = build(n, hyperplanes)
        except ArrangementError:
            reject()
        models = [compactify(arr, s) for s in sigma_strata(arr)]
        seen.update((m.kind, bool(m.blown)) for m in models)
        assert (chern_milnor(arr, build_labels(arr), models)
                == chern_milnor_by_classes(arr))

    check()
    assert seen["surface", True], seen  # some surface has a blown point


@pytest.mark.parametrize("ring", [
    ProjRing(0), ProjRing(1),
    *(BlownPlaneRing(tuple(f"p{i}" for i in range(k))) for k in range(4))],
    ids=["point", "line", *(f"plane-{k}-points" for k in range(4))])
@SETTINGS
@given(st.data())
def test_vector_product_matches_ring_elements(ring, data):
    # the per-shape product of integer vectors, and RingElement.__mul__,
    # against the product by the basis multiplication table
    vector = st.lists(st.integers(-50, 50), min_size=len(ring.names),
                      max_size=len(ring.names))
    a, b = data.draw(vector), data.draw(vector)
    expected = product_by_basis(ring, a, b)
    assert ring.mul_vectors(a, b) == expected
    assert (RingElement(ring, a) * RingElement(ring, b)
            == RingElement(ring, expected))


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
        germ = stratum_spectrum(arr, s)
        assume(germ is not None)  # assemble raises MissingSpectrumError
        if germ.is_zero():
            continue
        coeffs = _stratum_contribution(germ, compactify(arr, s),
                                       DEFAULT_CONVENTIONS)
        assert all(c.k == 0 for c in coeffs), (s.key, coeffs)


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
