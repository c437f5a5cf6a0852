"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Three criteria concern limits, so their finite-n evidence is chosen to
match what the exact mathematics gives:

* criterion 6: Var[Z_n]/n^2 -> 16 - 2 pi^2/3 is a limit.  The exact value
  at n = 10^4 sits 7.0% below the constant, because the
  -128 Gamma(n+1/2)/(sqrt(pi) Gamma(n-1)) term of Var[Z_n] leaves a
  relative deficit of about 7.66 n^{-1/2}; the 2% band is first met at
  n ~ 1.37*10^5.  The test ties the float series to the exact
  rational value at n = 10^4 and checks the band at n = 10^6.
* criterion 7: E[Y_n]/n^{3/2} -> 32/sqrt(pi) is a limit of the mean.
  Y_n/n^{3/2} itself keeps a random limit (its coefficient of variation
  is about 0.7 from n = 10^3 to 10^5), so there is no weak law for Y,
  and every clause below is on means.  The exact
  E[Y_{10^5}]/10^{7.5} = 17.774 sits 1.55% below the constant, and a
  200-replicate mean has a standard error near 5%, so a 5% band on the
  sample mean fails by chance.  The test checks the sample mean against
  the exact E[Y_n] within 4 standard errors, and the exact mean against
  the limit: within 5% at n = 10^5 and closer than at n = 10^4 (4.1%).
* criterion 8: Z_n is not asymptotically normal.  Its law is
  *right*-skewed: exhaustive enumeration gives skew(Z_9) = +1.30 exactly
  under the degree kernel, and Monte Carlo gives +2.1 at n = 2*10^4.
  The test asserts the Jarque-Bera rejection, a positive exact skewness
  and a sample skewness well outside what a Gaussian sample would give.
"""

import json
import math

import numpy as np

from port_trees.cli import main as cli_main
from port_trees.degree import (
    degree_mean,
    degree_pmf_closed,
    degree_pmf_hypergeom,
    degree_pmf_recurrence,
    degree_variance,
)
from port_trees.montecarlo import SimulationConfig, grow_forest, martingale_diagnostics, summarize
from port_trees.oracle import enumerate_statistic, oracle_moment
from port_trees.poisson import scaled_limit_distance, simulate_gap_tree, simulate_yule
from port_trees.tree import Kernel
from port_trees.zagreb import (
    M_SECOND_MOMENT_LIMIT,
    VAR_Z_COEFFICIENT,
    Y_WEAK_LIMIT,
    cubic_mean,
    moment_rows,
    zagreb_mean,
    zagreb_second_moment,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {name}{suffix}")


def test_criterion_01_oracle_formula_equivalence_degree():
    ok = True
    worst = 0.0
    for n in range(2, 9):
        for j in range(1, n + 1):
            law = enumerate_statistic(n, Kernel.GAP, f"degree:{j}")
            ok &= law == degree_pmf_recurrence(n, j, exact=True)
            closed = degree_pmf_closed(n, j)
            ok &= closed.keys() == law.keys()
            for d, p in law.items():
                worst = max(worst, abs(closed[d] - float(p)))
    ok &= worst <= 1e-10
    _report("criterion 1: oracle vs DP vs closed forms, n <= 8", ok, f"max closed-form error {worst:.2e}")
    assert ok


def test_criterion_02_route_equivalence_to_n30():
    ok = True
    worst = 0.0
    for n in range(2, 31):
        for j in range(1, n + 1):
            law = degree_pmf_recurrence(n, j)
            for route in (degree_pmf_closed(n, j), degree_pmf_hypergeom(n, j)):
                ok &= route.keys() == law.keys()
                for d, p in law.items():
                    worst = max(worst, abs(route[d] - p) / max(p, 1e-300))
    ok &= worst <= 1e-9
    _report("criterion 2: three-route equivalence, n <= 30", ok, f"max relative error {worst:.2e}")
    assert ok


def test_criterion_03_degree_moment_formulas_vs_oracle():
    ok = True
    for n in range(2, 9):
        for j in range(1, n + 1):
            law = enumerate_statistic(n, Kernel.GAP, f"degree:{j}")
            mean = oracle_moment(law, 1)
            var = oracle_moment(law, 2) - mean * mean
            ok &= abs(float(mean) - degree_mean(n, j)) <= 1e-10
            ok &= abs(float(var) - degree_variance(n, j)) <= 1e-10
    ok &= abs(degree_mean(3, 1) - 5 / 3) <= 1e-10
    ok &= abs(degree_variance(3, 1) - 2 / 9) <= 1e-10
    _report("criterion 3: degree mean/variance vs oracle, n <= 8 incl. j=1", ok)
    assert ok


def test_criterion_04_zagreb_exactness_vs_oracle():
    ok = True
    for n in range(2, 9):
        zdist = enumerate_statistic(n, Kernel.DEGREE, "zagreb")
        ydist = enumerate_statistic(n, Kernel.DEGREE, "cubic")
        ok &= oracle_moment(zdist, 1) == zagreb_mean(n)
        ok &= oracle_moment(zdist, 2) == zagreb_second_moment(n)
        ok &= oracle_moment(ydist, 1) == cubic_mean(n)
    ok &= zagreb_mean(4) == 11
    ok &= cubic_mean(3) == 10
    ok &= zagreb_second_moment(4) == 122
    ok &= zagreb_second_moment(4) - zagreb_mean(4) ** 2 == 1
    _report("criterion 4: Zagreb/cubic moment closed forms exact vs oracle, n <= 8", ok)
    assert ok


def test_criterion_05_kernel_distinction_regression():
    from fractions import Fraction

    gap_mean = oracle_moment(enumerate_statistic(4, Kernel.GAP, "zagreb"), 1)
    ok = gap_mean == Fraction(166, 15) and gap_mean != zagreb_mean(4)
    _report("criterion 5: gap-kernel E[Z_4] = 166/15 != 11", ok)
    assert ok


def test_criterion_06_asymptotic_variance_constant():
    exact_var = zagreb_second_moment(10_000) - zagreb_mean(10_000) ** 2
    var_z = {n: v for n, _, _, _, v in moment_rows(1_000_000, exact=False) if n in (10_000, 1_000_000)}
    route_rel = abs(var_z[10_000] - float(exact_var)) / float(exact_var)
    ratio_1e4 = float(exact_var) / 10_000**2
    ratio_1e6 = var_z[1_000_000] / 1_000_000**2
    rel_1e4 = abs(ratio_1e4 - VAR_Z_COEFFICIENT) / VAR_Z_COEFFICIENT
    rel_1e6 = abs(ratio_1e6 - VAR_Z_COEFFICIENT) / VAR_Z_COEFFICIENT
    ok_route = route_rel <= 1e-9
    ok_band = rel_1e6 <= 0.02
    ok_trend = rel_1e6 < rel_1e4
    _report(
        "criterion 6: Var[Z]/n^2 -> 16 - 2pi^2/3, within 2% at n=1e6 (float tied to exact at n=1e4)",
        ok_route and ok_band and ok_trend,
        f"float vs exact at 1e4 {route_rel:.1e}; ratio {ratio_1e4:.4f} (rel dev {rel_1e4:.3f}) at 1e4, "
        f"{ratio_1e6:.4f} (rel dev {rel_1e6:.4f}) at 1e6 vs {VAR_Z_COEFFICIENT:.4f}",
    )
    assert ok_route
    assert ok_band
    assert ok_trend


def test_criterion_07_weak_laws_monte_carlo():
    n = 100_000
    res = grow_forest(n, 200, Kernel.DEGREE, seed=2024, stats=("zagreb", "cubic"))
    z = res.extra["zagreb"].astype(float)
    y = res.extra["cubic"].astype(float)
    exact_mean = float(zagreb_mean(n))
    se = math.sqrt(z.var(ddof=1) / z.size)
    ok_z = abs(z.mean() - exact_mean) <= 4 * se
    mean_y = {m: y for m, _, y, _, _ in moment_rows(n, exact=False) if m in (10**4, n)}
    exact_y = mean_y[n]
    se_y = math.sqrt(y.var(ddof=1) / y.size)
    ok_y_mean = abs(y.mean() - exact_y) <= 4 * se_y
    # the limit itself, on the exact means
    y_dev = {m: abs(y / m**1.5 - Y_WEAK_LIMIT) / Y_WEAK_LIMIT for m, y in mean_y.items()}
    ok_y_limit = y_dev[n] <= 0.05 and y_dev[n] < y_dev[10**4]
    _report(
        "criterion 7: Z weak law and E[Y] limit at n=1e5, 200 replicates",
        ok_z and ok_y_mean and ok_y_limit,
        f"Z dev {abs(z.mean() - exact_mean) / se:.2f} se; Y dev {abs(y.mean() - exact_y) / se_y:.2f} se; "
        f"E[Y]/n^1.5 = {exact_y / n**1.5:.3f} vs {Y_WEAK_LIMIT:.3f} (rel dev {y_dev[n]:.4f} at 1e5, "
        f"{y_dev[10**4]:.4f} at 1e4)",
    )
    assert ok_z and ok_y_mean and ok_y_limit


def test_criterion_08_non_normality_replication():
    law = enumerate_statistic(9, Kernel.DEGREE, "zagreb")
    m1, m2, m3 = (oracle_moment(law, k) for k in (1, 2, 3))
    exact_var = m2 - m1 * m1
    exact_third = m3 - 3 * m1 * m2 + 2 * m1**3
    exact_skew = float(exact_third) / float(exact_var) ** 1.5
    res = grow_forest(20_000, 5000, Kernel.DEGREE, seed=42, stats=("zagreb",))
    z = res.extra["zagreb"].astype(float)
    centered = z - z.mean()
    skew = float(np.mean(centered**3) / np.mean(centered**2) ** 1.5)
    skew_floor = 5 * math.sqrt(6 / z.size)
    summary = summarize(z)
    jb, p = summary["jb_statistic"], summary["jb_pvalue"]
    ok_reject = p < 1e-6
    ok_exact = exact_third > 0
    ok_skew = skew > skew_floor
    _report(
        "criterion 8: 5000 replicates at n=2e4, right skew + JB rejection",
        ok_reject and ok_exact and ok_skew,
        f"exact skew(Z_9) {exact_skew:+.3f}, sample skewness {skew:+.3f} vs floor {skew_floor:.3f}, "
        f"JB {jb:.1f}, p {p:.3g}",
    )
    assert ok_reject
    assert ok_exact, f"exact skew(Z_9) is {exact_skew:+.3f}; expected a right-skewed law"
    assert ok_skew, f"sample skewness {skew:+.3f} does not exceed 5 SE of a Gaussian ({skew_floor:.3f})"


def test_criterion_09_martingale_suite():
    report = martingale_diagnostics(
        SimulationConfig(n=10_000, replicates=10_000, kernel=Kernel.DEGREE, seed=7, statistic="martingale")
    )
    ok_mean = abs(report["mean_M"]) < 4 * report["mean_M_stderr"]
    ok_var = abs(report["var_M"] - M_SECOND_MOMENT_LIMIT) / M_SECOND_MOMENT_LIMIT <= 0.10
    ok_bound = report["increment_bound_satisfied"]
    _report(
        "criterion 9: martingale mean/variance/increment bound at n=1e4, 1e4 reps",
        ok_mean and ok_var and ok_bound,
        f"mean {report['mean_M']:+.4f} (se {report['mean_M_stderr']:.4f}), "
        f"var {report['var_M']:.2f} vs {M_SECOND_MOMENT_LIMIT:.2f}",
    )
    assert ok_mean and ok_var and ok_bound


def test_criterion_10_poissonized_process():
    rng = np.random.default_rng(314)
    sample = simulate_yule(5.0, rng, size=100_000)
    mean_t = math.exp(5.0)
    var_t = math.exp(10.0) - math.exp(5.0)
    se = math.sqrt(sample.var(ddof=1) / sample.size)
    ok_mean = abs(sample.mean() - mean_t) <= 3 * se
    ok_var = abs(sample.var(ddof=1) - var_t) / var_t <= 0.05
    from scipy import stats

    # the KS distance of 1e5 draws lies within the DKW band of the exact distance, except with probability 1e-3
    exact = scaled_limit_distance(6.0)
    ks = stats.kstest(simulate_yule(6.0, rng, size=100_000) * math.exp(-6.0), "expon").statistic
    band = math.sqrt(math.log(2000) / (2 * 100_000))
    ok_ks = ks < 0.01 and exact < 0.01 and abs(ks - exact) <= band
    tree_vals = simulate_gap_tree(3, 1.0, rng, 10_000)
    yule_vals = simulate_yule(1.0, rng, size=10_000)
    p2 = stats.ks_2samp(tree_vals, yule_vals).pvalue
    ok_2s = p2 > 0.001
    _report(
        "criterion 10: Poissonized degree process",
        ok_mean and ok_var and ok_ks and ok_2s,
        f"mean dev {(sample.mean() - mean_t) / se:+.2f} se, var dev "
        f"{(sample.var(ddof=1) - var_t) / var_t:+.3f}, KS {ks:.4f} vs exact {exact:.4f} (band {band:.4f}), "
        f"2-sample p {p2:.3f}",
    )
    assert ok_mean and ok_var and ok_ks and ok_2s


def test_criterion_11_normalization_and_determinism(tmp_path, capsys):
    ok_norm = True
    for j in (2, 100, 250, 500):
        ok_norm &= abs(sum(degree_pmf_recurrence(500, j).values()) - 1.0) <= 1e-10
    ok_norm &= abs(sum(degree_pmf_recurrence(500, 1).values()) - 1.0) <= 1e-10
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(
            ["simulate", "--n", "200", "--reps", "500", "--stat", "zagreb", "--seed", "99", "--out", str(out)]
        )
        assert code == 0
        runs.append(out)
    capsys.readouterr()
    manifest_a = json.loads((runs[0] / "run-manifest.json").read_text())
    manifest_b = json.loads((runs[1] / "run-manifest.json").read_text())
    ok_repro = (
        manifest_a["resolved"] == manifest_b["resolved"]
        and (runs[0] / "sample.csv").read_bytes() == (runs[1] / "sample.csv").read_bytes()
        and (runs[0] / "summary.json").read_bytes() == (runs[1] / "summary.json").read_bytes()
    )
    _report(
        "criterion 11: PMF normalization at n=500 and byte-reproducible runs",
        ok_norm and ok_repro,
    )
    assert ok_norm and ok_repro
