"""Property tests that tie the exact routes to each other at random sizes."""

import math
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from port_trees.degree import (
    _pfq_sum,
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


def _rising(x, m):
    return math.prod((x + k for k in range(m)), start=Fraction(1))


def _hits_pole(c, m):
    # (c)_m = 0, and the series meets the lower pole c + s = 0 at some s < m
    return c.denominator == 1 and -m < c <= 0


_RATIONALS = st.fractions(min_value=-12, max_value=12, max_denominator=10)


@settings(_SETTINGS, max_examples=80)
@given(st.integers(0, 30), _RATIONALS, _RATIONALS)
def test_hypergeometric_chu_vandermonde(m, b, c):
    # 2F1(-m, b; c; 1) = (c-b)_m / (c)_m
    assume(not _hits_pole(c, m))
    value = Fraction(*_pfq_sum([-m, b], [c], 1))
    assert value == _rising(c - b, m) / _rising(c, m)


@settings(_SETTINGS, max_examples=80)
@given(st.integers(0, 30), _RATIONALS, _RATIONALS, _RATIONALS)
def test_hypergeometric_pfaff_saalschutz(m, a, b, c):
    # balanced 3F2(-m, a, b; c, 1+a+b-c-m; 1) = (c-a)_m (c-b)_m / ((c)_m (c-a-b)_m)
    e = 1 + a + b - c - m
    assume(not _hits_pole(c, m) and not _hits_pole(e, m))
    value = Fraction(*_pfq_sum([-m, a, b], [c, e], 1))
    assert value == _rising(c - a, m) * _rising(c - b, m) / (_rising(c, m) * _rising(c - a - b, m))


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
