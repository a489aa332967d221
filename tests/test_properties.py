"""Properties of assembled reports over generated arrangements.

Derandomized, with few examples, so the suite stays quick and repeatable.
The properties hold for any stratum signature, so they also guard the
per-report memo of contributions against a signature that is too coarse.
"""

import json

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from hmclass.arrangement import ArrangementError, build, sigma_strata
from hmclass.milnor import MissingSpectrumError, assemble
from hmclass.strata import build_labels, relabel_vector

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
    assert json.dumps(again.to_json(True)) == json.dumps(rep.to_json(True))
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
