"""Property tests that tie the exact routes to each other at random sizes."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from port_trees.degree import (
    degree_mean,
    degree_pmf_closed,
    degree_pmf_hypergeom,
    degree_pmf_recurrence,
    degree_variance,
)
from port_trees.oracle import oracle_moment

# a fixed seed and no example database: the same draws on every run
_SETTINGS = settings(derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _node(draw, n_max=300):
    n = draw(st.integers(2, n_max))
    return n, draw(st.integers(1, n))


@settings(_SETTINGS, max_examples=60)
@given(_node(120))
def test_closed_and_hypergeometric_routes_round_the_exact_law(case):
    # both routes sum in exact rationals and round once, so each whole law
    # equals the exact DP's rounded to float, with no tolerance
    n, j = case
    expected = {d: float(p) for d, p in degree_pmf_recurrence(n, j, exact=True).items()}
    assert degree_pmf_closed(n, j) == expected
    assert degree_pmf_hypergeom(n, j) == expected


@settings(_SETTINGS, max_examples=10)
@given(st.integers(2, 299))
def test_root_pmf_tracks_the_exact_root_law(n):
    # the root's closed form divides two integers once per degree, so it
    # equals the exact law rounded to float
    law = degree_pmf_recurrence(n, 1, exact=True)
    assert set(law) == set(range(1, n))
    assert degree_pmf_closed(n, 1) == {d: float(p) for d, p in law.items()}


@settings(_SETTINGS, max_examples=40)
@given(_node())
def test_degree_moments_match_the_exact_law(case):
    # the float moment formulas against the exact DP's mean and variance
    n, j = case
    law = degree_pmf_recurrence(n, j, exact=True)
    exact_mean = oracle_moment(law, 1)
    mean, variance = float(exact_mean), float(oracle_moment(law, 2) - exact_mean**2)
    assert abs(degree_mean(n, j) - mean) <= 1e-11 * mean
    if variance == 0:  # j = n: the degree is 1
        assert abs(degree_variance(n, j)) <= 1e-12
    else:
        assert abs(degree_variance(n, j) - variance) <= 1e-9 * variance
