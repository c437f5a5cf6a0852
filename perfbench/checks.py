"""Output checks, one per benchmark command.

Every check judges a command's files by a route independent of the code
path that produced them: exact targets computed here (harmonic numbers,
gamma ratios, a separate float DP), Monte Carlo means against exact
expectations within 5 standard errors, and sha256 digests of the exact
outputs recorded in digests.json.  A check returns a list of error
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

# exact outputs can hold integers past CPython's default 4300-digit
# str<->int limit; the checker must read whatever the program wrote
sys.set_int_max_str_digits(0)

SE_LIMIT = 5.0
PMF_SUM_TOL = 1e-10
ROUTE_TOL = 1e-9

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as _fh:
    DIGESTS = json.load(_fh)


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _digest_errors(path: str, name: str | None) -> list[str]:
    if name is None:
        return []
    got = sha256(path)
    if got != DIGESTS[name]:
        return [f"{os.path.basename(path)} digest {got[:12]} != recorded {name} {DIGESTS[name][:12]}"]
    return []


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def harmonic_float(m: int) -> float:
    return math.fsum(1.0 / k for k in range(1, m + 1))


def zagreb_mean_exact(n: int) -> Fraction:
    """E[Z_n] = 2 (n-1) H_{n-1}."""
    return 2 * (n - 1) * sum((Fraction(1, k) for k in range(1, n)), Fraction(0))


def gap_degree_mean(n: int, j: int) -> float:
    """Mean degree of node j >= 2 at time n under the gap kernel:
    Gamma(n) Gamma(j - 1/2) / (Gamma(n - 1/2) Gamma(j))."""
    return math.exp(math.lgamma(n) + math.lgamma(j - 0.5) - math.lgamma(n - 0.5) - math.lgamma(j))


def gap_degree_mean_exact(n: int, j: int) -> Fraction:
    """The same mean as an exact rational: (n-1)!/(j-1)! / prod_{k=j}^{n-1} (k - 1/2)."""
    mean = Fraction(math.factorial(n - 1), math.factorial(j - 1))
    for k in range(j, n):
        mean /= Fraction(2 * k - 1, 2)
    return mean


def degree_law_dp(n: int, j: int) -> np.ndarray:
    """Float law of the degree of node j at time n, index d = 0..n.

    Node j >= 2 owns d gaps at degree d; the root owns d + 1.  A tree of
    m - 1 nodes has 2m - 3 gaps, so each step moves degree d up with
    probability (gaps owned) / (2m - 3).  Written independently of the
    package's dict-based DP.
    """
    p = np.zeros(n + 2)
    p[1] = 1.0
    owned = np.arange(n + 2, dtype=float) + (1.0 if j == 1 else 0.0)
    for m in range(max(j, 2) + 1, n + 1):
        up = p * owned / (2 * m - 3)
        p = p - up
        p[1:] += up[:-1]
    return p[: n + 1]


def _mean_errors(label: str, sample: np.ndarray, target: float) -> list[str]:
    se = float(np.std(sample, ddof=1)) / math.sqrt(sample.size)
    mean = float(sample.mean())
    if not abs(mean - target) <= SE_LIMIT * se:
        return [f"{label}: sample mean {mean!r} is {abs(mean - target) / se:.1f} SE from exact {target!r}"]
    return []


def _read_sample(out_dir: str, count: int) -> tuple[np.ndarray, list[str]]:
    sample = np.loadtxt(os.path.join(out_dir, "sample.csv"), dtype=float, ndmin=1)
    if sample.size != count:
        return sample, [f"sample.csv has {sample.size} values, expected {count}"]
    return sample, []


def _summary_errors(out_dir: str, sample: np.ndarray) -> list[str]:
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    errors = []
    if summary["count"] != sample.size:
        errors.append(f"summary.json count {summary['count']} != {sample.size}")
    if not math.isclose(summary["mean"], float(sample.mean()), rel_tol=1e-12, abs_tol=1e-12):
        errors.append(f"summary.json mean {summary['mean']!r} != sample mean {float(sample.mean())!r}")
    return errors


def _kde_errors(out_dir: str, grid_size: int) -> list[str]:
    table = np.loadtxt(os.path.join(out_dir, "kde.csv"), delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (grid_size, 2):
        return [f"kde.csv shape {table.shape} != ({grid_size}, 2)"]
    x, density = table[:, 0], table[:, 1]
    mass = float(np.sum((density[1:] + density[:-1]) * np.diff(x)) / 2.0)
    if density.min() < 0 or not 0.97 <= mass <= 1.001:
        return [f"kde.csv density integrates to {mass!r} (min {density.min()!r})"]
    return []


def zagreb_sample(n: int, reps: int, kde_grid: int = 0):
    def check(out_dir, counters):
        sample, errors = _read_sample(out_dir, reps)
        if errors:
            return errors
        errors += _mean_errors("Z_n", sample, 2.0 * (n - 1) * harmonic_float(n - 1))
        errors += _summary_errors(out_dir, sample)
        if kde_grid:
            errors += _kde_errors(out_dir, kde_grid)
        return errors

    return check


def martingale_sample(reps: int):
    def check(out_dir, counters):
        sample, errors = _read_sample(out_dir, reps)
        if errors:
            return errors
        errors += _mean_errors("M_n", sample, 0.0)
        errors += _summary_errors(out_dir, sample)
        checked = counters.get("montecarlo.grow_forest.bound_checked", 0)
        violations = counters.get("montecarlo.grow_forest.bound_violations", 0)
        if checked != reps or violations:
            errors.append(f"increment bound violated in {violations} of {checked} checked trajectories ({reps} grown)")
        return errors

    return check


def degree_sample(n: int, j: int, reps: int):
    def check(out_dir, counters):
        sample, errors = _read_sample(out_dir, reps)
        if errors:
            return errors
        if sample.min() < 1 or sample.max() > n - j + 1:
            errors.append(f"degree outside 1..{n - j + 1}")
        errors += _mean_errors(f"degree of node {j}", sample, gap_degree_mean(n, j))
        return errors + _summary_errors(out_dir, sample)

    return check


def normality_report(n: int, reps: int):
    def check(out_dir, counters):
        sample, errors = _read_sample(out_dir, reps)
        if errors:
            return errors
        errors += _mean_errors("Z_n", sample, 2.0 * (n - 1) * harmonic_float(n - 1))
        report = _read_json(os.path.join(out_dir, "report.json"))
        centered = sample - sample.mean()
        m2 = float(np.mean(centered**2))
        skew = float(np.mean(centered**3)) / m2**1.5
        if report["replicates"] != reps or not math.isclose(report["skewness"], skew, rel_tol=1e-9):
            errors.append(f"report.json skewness {report['skewness']!r} != recomputed {skew!r}")
        expected = "normality rejected" if report["jb_pvalue"] < 1e-3 else "normality not rejected"
        if report["verdict"] != expected:
            errors.append(f"verdict {report['verdict']!r} disagrees with p = {report['jb_pvalue']!r}")
        return errors

    return check


def poisson_sample(dt: float, reps: int):
    def check(out_dir, counters):
        sample, errors = _read_sample(out_dir, reps)
        if errors:
            return errors
        if sample.min() < 1:
            errors.append("gap count below 1")
        errors += _mean_errors("W(dt)", sample, math.exp(dt))
        summary = _read_json(os.path.join(out_dir, "summary.json"))
        if summary["count"] != reps or not math.isclose(summary["theoretical_mean"], math.exp(dt), rel_tol=1e-12):
            errors.append(f"summary.json count/theoretical_mean wrong: {summary['count']}, {summary['theoretical_mean']!r}")
        return errors

    return check


def zagreb_series(n_max: int, rational: bool, digest: str | None = None):
    def check(out_dir, counters):
        path = os.path.join(out_dir, "series.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["n", "mean_Z", "mean_Y", "second_Z", "var_Z"] or len(rows) != n_max + 1:
            return [f"series.csv header/length wrong ({len(rows) - 1} rows)"]
        errors = []
        if rational:
            h = Fraction(0)  # H_{n-1}
            for n, row in enumerate(rows[1:], start=1):
                if n > 1:
                    h += Fraction(1, n - 1)
                target = 2 * (n - 1) * h
                num, _, den = row[1].partition("/")
                if int(row[0]) != n or int(num) != target.numerator or int(den) != target.denominator:
                    errors.append(f"row n={n}: mean_Z {row[1][:40]} != 2(n-1)H_(n-1)")
                    break
        else:
            mean_z = np.array([float(row[1]) for row in rows[1:]])
            h = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, n_max))))
            target = 2.0 * np.arange(n_max) * h
            bad = np.flatnonzero(~np.isclose(mean_z, target, rtol=1e-9, atol=0.0))
            if bad.size:
                errors.append(f"row n={bad[0] + 1}: mean_Z {mean_z[bad[0]]!r} != 2(n-1)H_(n-1) {target[bad[0]]!r}")
        return errors + _digest_errors(path, digest)

    return check


def pmf(n: int, j: int, rational: bool = False, digest: str | None = None):
    def check(out_dir, counters):
        path = os.path.join(out_dir, "pmf.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        law = {int(d): _fraction(p) if rational else float(p) for d, p in rows}
        errors = []
        if rational:
            if sum(law.values(), Fraction(0)) != 1:
                errors.append("rational law does not sum to exactly 1")
        elif abs(math.fsum(law.values()) - 1.0) > PMF_SUM_TOL:
            errors.append(f"law sums to {math.fsum(law.values())!r}")
        reference = degree_law_dp(n, j)
        worst = max(abs(float(law.get(d, 0.0)) - reference[d]) for d in range(n + 1))
        if worst > ROUTE_TOL:
            errors.append(f"law differs from the independent DP by {worst!r}")
        return errors + _digest_errors(path, digest)

    return check


def oracle_law(n: int, kernel: str, stat: str, digest: str | None = None):
    def check(out_dir, counters):
        path = os.path.join(out_dir, "oracle.json")
        payload = _read_json(path)
        law = {_fraction(v): _fraction(p) for v, p in payload["law"].items()}
        mean = _fraction(payload["mean"])
        errors = []
        if sum(law.values(), Fraction(0)) != 1:
            errors.append("law does not sum to exactly 1")
        if mean != sum((v * p for v, p in law.items()), Fraction(0)):
            errors.append("reported mean is not the mean of the reported law")
        weights = [(2 * m - 1) if kernel == "gap" else 2 * (m - 1) for m in range(2, n)]
        if payload["history_count"] != math.prod(weights):
            errors.append(f"history_count {payload['history_count']} != {math.prod(weights)}")
        if stat == "zagreb":
            target = zagreb_mean_exact(n)
        elif stat == "martingale":
            target = Fraction(0)
        else:
            target = gap_degree_mean_exact(n, int(stat.split(":")[1]))
        if mean != target:
            errors.append(f"mean {payload['mean']} != exact {target}")
        return errors + _digest_errors(path, digest)

    return check


def verify_passed():
    def check(out_dir, counters):
        with open(os.path.join(out_dir, "stdout.txt")) as fh:
            lines = fh.read().splitlines()
        passed = sum(line.startswith("PASS ") for line in lines)
        if not lines or passed == 0 or lines[-1] != f"verify: {passed}/{passed} checks passed":
            return [f"verify reported {lines[-1] if lines else 'nothing'!r}"]
        return []

    return check
