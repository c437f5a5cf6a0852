"""Property tests that tie the exact routes to each other at random sizes."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from port_trees.degree import degree_pmf_closed, degree_pmf_hypergeom, degree_pmf_recurrence, root_pmf

# a fixed seed and no example database: the same draws on every run
_SETTINGS = settings(derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _node_and_degree(draw):
    n = draw(st.integers(2, 120))
    j = draw(st.integers(2, n))
    return n, j, draw(st.integers(1, n - j + 1))


@settings(_SETTINGS, max_examples=60)
@given(_node_and_degree())
def test_closed_and_hypergeometric_routes_round_the_exact_law(case):
    # both routes sum in exact rationals and round once, so they equal the
    # exact DP's value rounded to float, with no tolerance
    n, j, d = case
    expected = float(degree_pmf_recurrence(n, j, exact=True).probs[d])
    assert degree_pmf_closed(n, j, d) == expected
    assert degree_pmf_hypergeom(n, j, d) == expected


@settings(_SETTINGS, max_examples=10)
@given(st.integers(2, 299))
def test_root_pmf_tracks_the_exact_root_law(n):
    # root_pmf runs on lgamma, so it is held to 1e-10 relative, degree by degree
    law = degree_pmf_recurrence(n, 1, exact=True).probs
    assert set(law) == set(range(1, n))
    for d, p in law.items():
        assert abs(root_pmf(n, d) - float(p)) <= 1e-10 * float(p)
