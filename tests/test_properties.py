"""Properties of assembled reports and of the intersection lattice over
generated arrangements.

Derandomized, with few examples, so the suite stays quick and repeatable.
The properties hold for any stratum signature, so they also guard the
per-report memo of contributions against a signature that is too coarse.
"""

import json

from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from hmclass.arrangement import (ArrangementError, build, chi_y,
                                 chi_y_stratum, euler_by_inclusion_exclusion,
                                 localize, sigma_strata)
from hmclass.milnor import ALL_CONVENTIONS, MissingSpectrumError, assemble
from hmclass.strata import build_labels, relabel_vector
from oracles import (chi_y_stratum_by_whitney, euler_by_whitney, euler_defect,
                     report_to_json)

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
