import math

import numpy as np
import pytest
from scipy import stats

from port_trees.degree import degree_pmf_recurrence
from port_trees.poisson import (
    DT_MAX,
    mgf_w,
    moments_w,
    scaled_limit_distance,
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
    assert np.all(simulate_yule(0.0, rng, size=100) == 1)


def test_yule_rejects_horizons_it_cannot_sample():
    # past DT_MAX numpy's geometric sampler saturates at 2^63 - 1, or rejects e^{-dt} = 0
    rng = np.random.default_rng(12)
    for dt in (-1.0, DT_MAX + 0.5, math.nan, math.inf):
        for size in (1, 10):
            with pytest.raises(ValueError, match="dt="):
                simulate_yule(dt, rng, size)
    assert simulate_yule(DT_MAX, rng, size=1)[0] >= 1
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


def _lattice_distance(dt):
    # pW lives on p, 2p, ...: sup |P(pW <= x) - (1 - e^{-x})| over each
    # jump kp and just before it, for k up to 60/p (the tail past it is
    # below e^{-60}), in blocks of 2^20 jumps to keep the arrays small
    p = math.exp(-dt)
    log_q = math.log1p(-p)
    top = math.ceil(60 / p)
    sup = 0.0
    for start in range(1, top + 1, 1 << 20):
        k = np.arange(start, min(start + (1 << 20), top + 1), dtype=float)
        exp_cdf = -np.expm1(-k * p)
        at_jump = -np.expm1(k * log_q)  # P(W <= k) = 1 - (1 - p)^k
        before_jump = -np.expm1((k - 1) * log_q)  # P(W <= k - 1)
        sup = max(sup, np.abs(at_jump - exp_cdf).max(), np.abs(exp_cdf - before_jump).max())
    return float(sup)


@pytest.mark.parametrize("dt", [0.5, 1.0, 2.0, 3.0, 6.0, 9.0, 12.0])
def test_scaled_limit_distance_is_the_lattice_sup(dt):
    assert scaled_limit_distance(dt) == pytest.approx(_lattice_distance(dt), rel=1e-12, abs=0)


def test_scaled_limit_distance_values():
    assert scaled_limit_distance(0.0) == pytest.approx(1 - math.exp(-1), rel=1e-15)  # W = 1
    assert scaled_limit_distance(6.0) == pytest.approx(0.002475682607247459, rel=1e-15)
    assert scaled_limit_distance(DT_MAX) == pytest.approx(math.exp(-DT_MAX), rel=1e-15)


@pytest.mark.parametrize("dt", [4.0, 6.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_ks_distance_is_within_dkw_band_of_exact(seed, dt):
    # |D_sample - D_exact| <= sup |F_R - F_W|, which the DKW inequality
    # keeps below sqrt(ln(2/alpha) / 2R) except with probability alpha = 1e-3
    size = 10_000
    sample = simulate_yule(dt, np.random.default_rng(seed), size)
    distance = stats.kstest(sample * math.exp(-dt), "expon").statistic
    assert abs(distance - scaled_limit_distance(dt)) <= math.sqrt(math.log(2000) / (2 * size))


@pytest.mark.parametrize("dt", [math.nan, -1.0, 41.0])
def test_scaled_limit_distance_domain(dt):
    with pytest.raises(ValueError, match="elapsed time"):
        scaled_limit_distance(dt)
