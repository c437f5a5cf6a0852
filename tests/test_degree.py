import hashlib
import math
import sys
from fractions import Fraction

import pytest

from port_trees.degree import (
    Regime,
    degree_mean,
    degree_moments_asymptotic,
    degree_pmf_closed,
    degree_pmf_hypergeom,
    degree_pmf_recurrence,
    degree_variance,
)
from port_trees.oracle import oracle_moment


def test_newest_node_is_a_leaf():
    for n in (2, 5, 9):
        assert degree_pmf_closed(n, n) == {1: 1.0}
        assert degree_pmf_hypergeom(n, n) == {1: 1.0}
        assert degree_pmf_recurrence(n, n, exact=True) == {1: Fraction(1)}


def test_known_law_n4_j2():
    law = degree_pmf_recurrence(4, 2, exact=True)
    assert law == {1: Fraction(8, 15), 2: Fraction(1, 3), 3: Fraction(2, 15)}
    assert degree_pmf_closed(4, 2) == pytest.approx({1: 8 / 15, 2: 1 / 3, 3: 2 / 15}, abs=1e-12)


def test_known_law_n3_j2():
    law = degree_pmf_recurrence(3, 2, exact=True)
    assert law == {1: Fraction(2, 3), 2: Fraction(1, 3)}


def test_max_degree_closed_form():
    # P(degree = n-j+1) = Gamma(n-j+1) Gamma(j-1/2) / (2^{n-j} Gamma(n-1/2))
    for n, j in [(4, 2), (7, 3), (10, 5)]:
        d = n - j + 1
        expected = math.exp(
            math.lgamma(n - j + 1) + math.lgamma(j - 0.5) - (n - j) * math.log(2) - math.lgamma(n - 0.5)
        )
        assert degree_pmf_closed(n, j)[d] == pytest.approx(expected, rel=1e-10)


def test_out_of_support_is_zero():
    # a law holds the degrees of its support and no other
    for route in (degree_pmf_closed, degree_pmf_hypergeom, degree_pmf_recurrence):
        assert list(route(5, 3)) == [1, 2, 3]
        assert list(route(5, 1)) == [1, 2, 3, 4]


@pytest.mark.parametrize("route", [degree_pmf_closed, degree_pmf_hypergeom, degree_pmf_recurrence])
def test_every_route_rejects_bad_labels(route):
    for n, j in [(1, 1), (5, 0), (5, 6)]:
        with pytest.raises(ValueError, match="need"):
            route(n, j)


def test_recurrence_rejects_bad_labels():
    for n, j in [(1, 1), (5, 0), (5, 6)]:
        with pytest.raises(ValueError):
            degree_pmf_recurrence(n, j)


def test_root_pmf_small_cases():
    for route in (degree_pmf_closed, degree_pmf_hypergeom):
        assert route(2, 1) == {1: 1.0}
        assert route(4, 1) == pytest.approx({1: 1 / 5, 2: 2 / 5, 3: 2 / 5}, rel=1e-12)


def test_root_pmf_matches_recurrence():
    for n in (3, 6, 20, 50):
        law = degree_pmf_recurrence(n, 1, exact=True)
        assert list(law) == list(range(1, n))
        assert degree_pmf_closed(n, 1) == {d: float(p) for d, p in law.items()}
        assert sum(law.values()) == 1


def test_root_recurrence_small_laws():
    assert degree_pmf_recurrence(2, 1, exact=True) == {1: Fraction(1)}
    assert degree_pmf_recurrence(4, 1, exact=True) == {1: Fraction(1, 5), 2: Fraction(2, 5), 3: Fraction(2, 5)}


@pytest.mark.parametrize("j", [1, 2])
def test_recurrence_table_holds_plain_nonzero_scalars(j):
    # numpy scalars would change every repr the CLI writes; the far tail
    # falls below the smallest normal float at this n and must stay out of the table
    n = 1500
    law = degree_pmf_recurrence(n, j)
    assert all(type(d) is int and type(p) is float and p >= sys.float_info.min for d, p in law.items())
    assert len(law) < n - 1  # the support is 1 .. n - 1 for j = 1 and 2
    exact = degree_pmf_recurrence(60, j, exact=True)
    assert all(type(p) is Fraction for p in exact.values())
    approx = degree_pmf_recurrence(60, j)
    for d, p in exact.items():
        assert approx[d] == pytest.approx(float(p), rel=1e-12)


@pytest.mark.parametrize("j", [1, 2])
def test_float_laws_leave_out_subnormal_tails(j):
    # each root step multiplies the smallest subnormal by (m-1)/(2m-3) > 1/2, which rounds
    # back to itself, so a stuck 5e-324 would stand at d = n - 1 for an exact ~1e-359
    n = 1200
    law = degree_pmf_recurrence(n, j)
    assert list(law) == list(range(1, len(law) + 1))
    assert min(law.values()) >= sys.float_info.min
    assert len(law) < n - 1
    if j == 1:  # the closed law at j = 2 costs about a second
        closed = degree_pmf_closed(n, j)
        assert list(closed) == list(law)
        assert all(law[d] == pytest.approx(p, rel=1e-14) for d, p in closed.items())


@pytest.mark.parametrize("n,j", [(200, 1), (200, 2), (300, 100), (500, 2)])
def test_float_recurrence_is_within_its_rounding_bound(n, j):
    # the DP's coefficients are nonnegative and each entry takes at most three
    # roundings per step, so its relative error is at most 3(n - j + 1) u; the
    # closed route divides once, so it is the exact law correctly rounded
    u = 2.0**-53
    law, closed = degree_pmf_recurrence(n, j), degree_pmf_closed(n, j)
    assert list(law) == list(closed)
    assert all(abs(law[d] - p) <= 3 * (n - j + 1) * u * p for d, p in closed.items())


def test_root_pmf_normalizes_at_n50():
    assert sum(degree_pmf_closed(50, 1).values()) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", range(2, 31))
def test_route_equivalence(n):
    for j in range(1, n + 1):
        law = degree_pmf_recurrence(n, j)
        assert degree_pmf_closed(n, j) == pytest.approx(law, rel=1e-9, abs=1e-12)
        assert degree_pmf_hypergeom(n, j) == pytest.approx(law, rel=1e-9, abs=1e-12)


def _terminating_3f2(upper, lower):
    """sum_s (a1)_s (a2)_s (a3)_s / ((b1)_s (b2)_s s!) at z = 1, up to the first zero upper (a)_{s+1}."""
    total, term = Fraction(0), Fraction(1)
    for s in range(1000):
        total += term
        if any(a + s == 0 for a in upper):
            return total
        term *= math.prod(a + s for a in upper) / (math.prod(b + s for b in lower) * (s + 1))
    raise AssertionError("series did not terminate")


@pytest.mark.parametrize("n", range(2, 31))
def test_hypergeometric_route_is_the_paper_difference_of_two_3f2s(n):
    # P(d) = A 3F2((1-d)/2, (2-d)/2, 2-j; 1/2, 2-n; 1) - B 3F2((2-d)/2, (3-d)/2, 5/2-j; 3/2, 5/2-n; 1), with
    # A = Gamma(n-1) Gamma(j-1/2) / (Gamma(j-1) Gamma(n-1/2)) and B = (d-1) (j-3/2) / (n-3/2), rounded once
    half = Fraction(1, 2)
    for j in range(2, n + 1):
        a = Fraction(math.factorial(n - 2), math.factorial(j - 2)) / math.prod(k - half for k in range(j, n))
        expected = {}
        for d in range(1, n - j + 2):
            p = a * _terminating_3f2([(1 - d) * half, (2 - d) * half, 2 - j], [half, 2 - n])
            if d > 1:  # the pole of 1/Gamma(d-1) makes B zero at d = 1
                b = (d - 1) * (j - 3 * half) / (n - 3 * half)
                p -= b * _terminating_3f2([(2 - d) * half, (3 - d) * half, 5 * half - j], [3 * half, 5 * half - n])
            expected[d] = float(p)
        assert degree_pmf_hypergeom(n, j) == expected


def test_hypergeometric_route_past_the_subnormal_cut():
    # at (1030, 2) the law's tail falls below the smallest normal float (first at n = 1019), so both
    # float laws leave entries out; the DP keeps its rounding bound against the exactly rounded route
    n, j = 1030, 2
    law, hypergeom = degree_pmf_recurrence(n, j), degree_pmf_hypergeom(n, j)
    assert list(hypergeom) == list(law)
    assert len(law) < n - j + 1
    assert all(abs(law[d] - p) <= 3 * (n - j + 1) * 2.0**-53 * p for d, p in hypergeom.items())


@pytest.mark.parametrize(
    "n,j,digest",
    [
        (1000, 2, "494be1801f995e03ac1c6acf361f2be3ffe8ae56d15ca51030f700b5300f7ca7"),  # F1's row is one entry
        (150, 3, "ffe1d2473dcd5e59b5d62c48364b3cb472bcd62697f3e5ddf76c1a68ec9c9563"),
        (150, 76, "a3d25df08e44d5afb90ecd8bbed6b18dbd92b71a39253201bb95e47769927072"),  # F1's span is the whole row
    ],
    ids=["1000-2", "150-3", "150-76"],
)
def test_hypergeometric_route_carries_f1_at_its_span(n, j, digest):
    # sha256 of the law's items, taken from the route when it carried F1's row at full length n - j + 1
    law = degree_pmf_hypergeom(n, j)
    assert hashlib.sha256(repr(list(law.items())).encode()).hexdigest() == digest
    if n < 1000:  # the exact DP at (1000, 2) takes about a second
        assert law == {d: float(p) for d, p in degree_pmf_recurrence(n, j, exact=True).items()}


def test_rational_recurrence_normalizes_exactly():
    for n, j in [(8, 2), (12, 5), (25, 10)]:
        assert sum(degree_pmf_recurrence(n, j, exact=True).values()) == 1


def test_float_recurrence_normalization_drift():
    for j in (2, 250, 500):
        assert sum(degree_pmf_recurrence(500, j).values()) == pytest.approx(1.0, abs=1e-10)


def test_support_bounds():
    assert list(degree_pmf_recurrence(6, 2, exact=True)) == [1, 2, 3, 4, 5]
    assert list(degree_pmf_recurrence(6, 6, exact=True)) == [1]
    assert list(degree_pmf_recurrence(6, 1, exact=True)) == [1, 2, 3, 4, 5]


def test_degree_mean_values():
    assert degree_mean(7, 7) == pytest.approx(1.0, rel=1e-12)
    assert degree_mean(3, 1) == pytest.approx(5 / 3, rel=1e-12)
    assert degree_mean(3, 2) == pytest.approx(4 / 3, rel=1e-12)


def test_degree_variance_values():
    assert degree_variance(9, 9) == pytest.approx(0.0, abs=1e-10)
    assert degree_variance(3, 1) == pytest.approx(2 / 9, abs=1e-10)
    assert degree_variance(3, 2) == pytest.approx(2 / 9, abs=1e-10)


def test_degree_variance_is_never_negative():
    # near j = n the mean's gamma ratio is a float product, so no rounding drives the variance below 0
    for n in range(2, 201):
        assert all(degree_variance(n, j) >= 0.0 for j in range(1, n + 1))
        assert degree_variance(n, n) == 0.0
    assert degree_mean(2, 1) == 1.0
    assert degree_variance(2, 1) == 0.0


@pytest.mark.parametrize("n,j", [(2**16 + 1000, 2**16 - 10), (2**16 + 3000, 2**16 + 5), (2**17, 2**17 - 1)])
def test_mean_past_the_float_product_matches_the_exact_ratio(n, j):
    # the ratio's factors from k = 2^16 on come from an asymptotic series; prod 2k / prod (2k-1) is exact
    exact = math.prod(range(2 * j, 2 * n, 2)) / math.prod(range(2 * j - 1, 2 * n - 1, 2))
    assert degree_mean(n, j) == pytest.approx(exact, rel=1e-14)


def test_moments_at_huge_n_cost_no_more_than_at_2_to_the_16():
    # the float product stops at 2^16 factors, so n = 10^9 allocates no n-sized array
    mean, variance = degree_mean(10**9, 2), degree_variance(10**9, 2)
    asymptotic_mean, asymptotic_variance = degree_moments_asymptotic(10**9, 2, Regime.FIXED_J)
    assert mean == pytest.approx(asymptotic_mean, rel=1e-8)
    assert variance == pytest.approx(asymptotic_variance - mean, rel=1e-8)  # the series drops the -mean term
    assert 0.0 < degree_variance(10**9, 10**9 - 1) == pytest.approx(1 / (2 * 10**9 - 3), rel=1e-6)


@pytest.mark.parametrize("n", [10, 40, 100])
def test_moments_match_law(n):
    for j in (2, n // 2, n):
        law = degree_pmf_recurrence(n, j)
        mean = oracle_moment(law, 1)
        assert mean == pytest.approx(degree_mean(n, j), abs=1e-9)
        assert oracle_moment(law, 2) - mean * mean == pytest.approx(degree_variance(n, j), abs=1e-9)


def test_asymptotic_regimes():
    mean, _ = degree_moments_asymptotic(10**6, 1, Regime.FIXED_J)
    assert mean == pytest.approx(math.sqrt(math.pi * 10**6), rel=1e-12)
    mean2, _ = degree_moments_asymptotic(10**6, 2, Regime.FIXED_J)
    assert mean2 / degree_mean(10**6, 2) == pytest.approx(1.0, abs=0.01)
    _, variance = degree_moments_asymptotic(8, 2, Regime.LINEAR_THETA)  # theta = 1/4
    assert variance == pytest.approx(4.0 - 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        degree_moments_asymptotic(5, 5, Regime.LINEAR_THETA)


@pytest.mark.parametrize(
    "n,j,regime,message",
    [(100, 0, Regime.GROWING_J, "j=0"), (0, 1, Regime.FIXED_J, "n=0"), (5, 9, Regime.GROWING_J, "j=9")],
)
def test_asymptotic_rejects_bad_labels(n, j, regime, message):
    with pytest.raises(ValueError, match=message):
        degree_moments_asymptotic(n, j, regime)


def test_asymptotic_growing_j():
    mean, variance = degree_moments_asymptotic(10**6, 10**3, Regime.GROWING_J)
    assert mean == pytest.approx(math.sqrt(1000.0), rel=1e-12)
    assert variance == pytest.approx(1000.0, rel=1e-12)
