import math

import numpy as np
import pytest
from scipy import stats

from port_trees.degree import degree_pmf_recurrence
from port_trees.poisson import (
    DT_MAX,
    mgf_w,
    moments_w,
    scaled_limit_test,
    simulate_gap_tree,
    simulate_yule,
)


def test_mgf_at_zero_is_one():
    for dt in (0.0, 0.5, 2.0, 6.0):
        assert mgf_w(0.0, dt) == pytest.approx(1.0, rel=1e-14)


def test_mgf_at_start_time():
    for u in (-1.0, 0.3, 2.0):
        assert mgf_w(u, 0.0) == pytest.approx(math.exp(u), rel=1e-14)


def test_mgf_convergence_region():
    with pytest.raises(ValueError):
        mgf_w(1.0, 3.0)  # u >= -log(1 - e^-3) ~ 0.051
    with pytest.raises(ValueError):
        mgf_w(0.0, -1.0)


def test_mgf_finite_differences_reproduce_moments():
    for dt in (0.5, 1.0, 2.0, 3.0):
        h = 1e-5
        mean, second, var = moments_w(dt)
        d1 = (mgf_w(h, dt) - mgf_w(-h, dt)) / (2 * h)
        d2 = (mgf_w(h, dt) - 2.0 * mgf_w(0.0, dt) + mgf_w(-h, dt)) / (h * h)
        assert d1 == pytest.approx(mean, rel=1e-6)
        assert d2 == pytest.approx(second, rel=1e-5)


def test_moments_closed_forms():
    assert moments_w(0.0) == (1.0, 1.0, 0.0)
    mean, second, var = moments_w(math.log(2.0))
    assert (mean, second, var) == pytest.approx((2.0, 6.0, 2.0), rel=1e-12)
    assert moments_w(5.0)[0] == pytest.approx(math.exp(5.0), rel=1e-12)


def test_variance_identity():
    for dt in (0.1, 1.0, 4.0):
        mean, second, var = moments_w(dt)
        assert var == pytest.approx(second - mean * mean, rel=1e-12)


def test_yule_degenerate_at_start():
    rng = np.random.default_rng(0)
    assert simulate_yule(0.0, rng) == 1
    assert np.all(simulate_yule(0.0, rng, size=100) == 1)


def test_yule_rejects_horizons_it_cannot_sample():
    # past DT_MAX numpy's geometric sampler saturates at 2^63 - 1, or rejects e^{-dt} = 0
    rng = np.random.default_rng(12)
    for dt in (-1.0, DT_MAX + 0.5, math.nan, math.inf):
        for size in (None, 10):
            with pytest.raises(ValueError, match="dt="):
                simulate_yule(dt, rng, size)
    assert simulate_yule(DT_MAX, rng) >= 1
    assert simulate_yule(DT_MAX, rng, size=10).max() < np.iinfo(np.int64).max


def test_moments_and_mgf_refuse_the_same_horizons():
    # NaN used to pass through as a NaN moment, and e^{2dt} overflowed past dt ~ 355
    for dt in (-1.0, DT_MAX + 0.5, 710.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt="):
            moments_w(dt)
        with pytest.raises(ValueError, match="dt="):
            mgf_w(0.0, dt)
    assert moments_w(DT_MAX)[0] == pytest.approx(math.exp(DT_MAX), rel=1e-12)
    assert mgf_w(0.0, DT_MAX) == pytest.approx(1.0, rel=1e-12)


def test_yule_mean_at_dt5():
    rng = np.random.default_rng(1)
    sample = simulate_yule(5.0, rng, size=100_000)
    se = math.sqrt(sample.var(ddof=1) / sample.size)
    assert abs(sample.mean() - math.exp(5.0)) < 3 * se


def test_yule_is_geometric():
    rng = np.random.default_rng(2)
    for dt in (0.5, 1.0, 2.0):
        sample = simulate_yule(dt, rng, size=50_000)
        p = math.exp(-dt)
        support = np.arange(1, 31)
        probs = p * (1 - p) ** (support - 1)
        observed = np.array([(sample == k).sum() for k in support], dtype=float)
        observed = np.append(observed, sample.size - observed.sum())
        expected = np.append(probs, 1.0 - probs.sum()) * sample.size
        keep = expected > 5
        chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        pval = stats.chi2.sf(chi2, keep.sum() - 1)
        assert pval > 0.001


def test_full_tree_trivial_horizon():
    rng = np.random.default_rng(3)
    sample = simulate_gap_tree(3, 0.0, rng, 100)
    assert sample.dtype == np.int64
    assert np.all(sample == 1)


def test_full_tree_matches_exact_mixture_law():
    # W is node j's degree at n = j + K with K ~ NegBin(j - 1/2, e^{-2dt});
    # the degree laws come from the exact DP, so each frequency is pinned
    j, dt, size = 3, 0.4, 200_000
    rng = np.random.default_rng(4)
    sample = simulate_gap_tree(j, dt, rng, size)
    law = np.zeros(11)
    for k in range(81):  # the NegBin tail beyond 80 is below 1e-18
        weight = stats.nbinom.pmf(k, j - 0.5, math.exp(-2 * dt))
        for d, p in degree_pmf_recurrence(j + k, j).items():
            if d <= 10:
                law[d] += weight * p
    for d in range(1, 11):
        freq = np.count_nonzero(sample == d) / size
        se = math.sqrt(law[d] * (1 - law[d]) / size)
        assert abs(freq - law[d]) < 4 * se, (d, freq, law[d])


def test_full_tree_is_deterministic():
    first = simulate_gap_tree(3, 1.5, np.random.default_rng(11), 2000)
    second = simulate_gap_tree(3, 1.5, np.random.default_rng(11), 2000)
    assert np.array_equal(first, second)


def test_full_tree_mean_matches_yule():
    rng = np.random.default_rng(5)
    vals = simulate_gap_tree(2, 1.0, rng, 10_000)
    se = math.sqrt(vals.var(ddof=1) / vals.size)
    assert abs(vals.mean() - math.e) < 4 * se


def test_full_tree_marginal_equals_yule_marginal():
    rng = np.random.default_rng(6)
    tree_vals = simulate_gap_tree(3, 1.0, rng, 10_000)
    yule_vals = simulate_yule(1.0, rng, size=10_000)
    assert stats.ks_2samp(tree_vals, yule_vals).pvalue > 0.001


def test_full_tree_argument_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        simulate_gap_tree(1, 1.0, rng, 10)
    for dt in (-1.0, math.nan):
        with pytest.raises(ValueError, match="elapsed time"):
            simulate_gap_tree(2, dt, rng, 10)
    with pytest.raises(ValueError):
        simulate_gap_tree(2, 1.0, rng, 0)
    with pytest.raises(ValueError, match="cap"):
        simulate_gap_tree(2, 10.0, rng, 1)
    with pytest.raises(ValueError, match="cap"):
        simulate_gap_tree(2, 400.0, rng, 1)  # e^{-2dt} underflows to 0


def test_scaled_limit_regime_guards():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        scaled_limit_test(0.0, 100_000, rng)
    with pytest.raises(ValueError):
        scaled_limit_test(6.0, 100, rng)


def test_scaled_limit_convergence():
    rng = np.random.default_rng(9)
    report = scaled_limit_test(6.0, 100_000, rng)
    assert report.passed
    assert report.ks_distance < 0.01
    # scaled sample has unit mean in the limit
    assert report.scaled_mean == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("dt", [4.0, 6.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scaled_limit_ks_distance_matches_scipy(seed, dt):
    # the geometric lattice puts ties in the sample, so ties are covered too
    report = scaled_limit_test(dt, 10_000, np.random.default_rng(seed))
    sample = simulate_yule(dt, np.random.default_rng(seed), 10_000)
    reference = stats.kstest(sample * math.exp(-dt), "expon").statistic
    assert report.ks_distance == pytest.approx(reference, rel=0, abs=1e-12)
