"""Exact moments of the Zagreb and cubic degree indices, their limit
constants, and the increment bound of the martingale
M_n = 2 Z_n/(n-1) - 4 H_{n-1} used by the normality diagnostics.

All three moment recurrences (mean of Z, mean of Y, second moment of Z)
are coupled, so ``moment_series`` evaluates them jointly in one forward
pass.  Exact rational arithmetic is the default up to ``RATIONAL_CAP``
nodes; beyond that a float forward pass is used.

Note on the cubic-index recurrence: solving the conditional expectation
E[Y_n | F_{n-1}] = (1 + 3/(2(n-2))) Y_{n-1} + 3/(2(n-2)) Z_{n-1} + 2
with E[Z_m] = 2(m-1) H_{m-1} gives the inhomogeneous term 3 H_{n-2} + 2;
this is the version consistent with the closed form (checked against
exhaustive enumeration and the gamma-ratio expression).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .special import harmonic, log_gamma

__all__ = [
    "VAR_Z_COEFFICIENT",
    "M_SECOND_MOMENT_LIMIT",
    "Z_WEAK_LIMIT",
    "Y_WEAK_LIMIT",
    "RATIONAL_CAP",
    "ZagrebMomentSeries",
    "moment_series",
    "zagreb_mean",
    "cubic_mean",
    "cubic_mean_closed",
    "zagreb_second_moment",
    "zagreb_variance_asymptotic",
    "martingale_diff_bound",
]

# leading coefficient of Var[Z_n] ~ (16 - 2 pi^2 / 3) n^2
VAR_Z_COEFFICIENT = 16.0 - 2.0 * math.pi**2 / 3.0
# limit of E[M_n^2]; also the slope of the conditional variance V_n / n
M_SECOND_MOMENT_LIMIT = 64.0 - 8.0 * math.pi**2 / 3.0
# weak-law targets: Z_n / (n log n) -> 2 and Y_n / n^{3/2} -> 32/sqrt(pi)
Z_WEAK_LIMIT = 2.0
Y_WEAK_LIMIT = 32.0 / math.sqrt(math.pi)

RATIONAL_CAP = 10_000


@dataclass(frozen=True)
class ZagrebMomentSeries:
    """Per-n exact moments for n = 1 .. n_max (index n-1 in each list)."""

    n_max: int
    mean_z: list
    mean_y: list
    second_z: list

    def var_z(self, n: int):
        return self.second_z[n - 1] - self.mean_z[n - 1] ** 2


def moment_series(n_max: int, exact: bool | None = None) -> ZagrebMomentSeries:
    """Jointly evaluate E[Z_n], E[Y_n], E[Z_n^2] for n = 1 .. n_max.

    ``exact=None`` picks rational arithmetic up to RATIONAL_CAP and
    floats beyond.
    """
    if n_max < 1:
        raise ValueError(f"moment_series requires n_max >= 1, got {n_max}")
    if exact is None:
        exact = n_max <= RATIONAL_CAP
    one = Fraction(1) if exact else 1.0
    mean_z = [one * 0]
    mean_y = [one * 0]
    second_z = [one * 0]
    if n_max >= 2:
        mean_z.append(one * 2)
        mean_y.append(one * 2)
        second_z.append(one * 4)
    ez, ey, ez2 = one * 2, one * 2, one * 4
    h = one  # H_{n-2} for the upcoming n = 3
    for n in range(3, n_max + 1):
        ez2 = (n * ez2 + 2 * ey + 4 * (n - 1) * ez) / (n - 2) + 4
        ey = (2 * n - 1) * ey / (2 * (n - 2)) + 3 * h + 2
        ez = (n - 1) * ez / (n - 2) + 2
        h = h + one / (n - 1)
        mean_z.append(ez)
        mean_y.append(ey)
        second_z.append(ez2)
    return ZagrebMomentSeries(n_max=n_max, mean_z=mean_z, mean_y=mean_y, second_z=second_z)


def zagreb_mean(n: int) -> Fraction:
    """E[Z_n] = 2(n-1) H_{n-1}, exact."""
    if n < 1:
        raise ValueError(f"zagreb_mean requires n >= 1, got {n}")
    return 2 * (n - 1) * harmonic(n - 1)


def cubic_mean(n: int) -> Fraction:
    """E[Y_n] via the exact recurrence (authoritative at any n)."""
    if n < 1:
        raise ValueError(f"cubic_mean requires n >= 1, got {n}")
    return moment_series(n, exact=True).mean_y[n - 1]


def cubic_mean_closed(n: int) -> float:
    """E[Y_n] closed form; floating point, valid up to gamma overflow."""
    if n < 1:
        raise ValueError(f"cubic_mean_closed requires n >= 1, got {n}")
    if n == 1:
        return 0.0
    h = sum(1.0 / k for k in range(1, n))
    lead = 32.0 * math.exp(log_gamma(n + 0.5) - log_gamma(n - 1.0)) / math.sqrt(math.pi)
    return lead - 6.0 * (n - 1) * (h + 8.0 / 3.0)


def zagreb_second_moment(n: int) -> Fraction:
    """E[Z_n^2] via the exact coupled recurrences."""
    if n < 2:
        raise ValueError(f"zagreb_second_moment requires n >= 2, got {n}")
    return moment_series(n, exact=True).second_z[n - 1]


def zagreb_variance_asymptotic(n: int) -> dict:
    """Leading-term approximations next to the exact variance.

    Returns the asymptotic variance (16 - 2 pi^2/3) n^2, the three-term
    second-moment expansion, and the exact Var[Z_n] for comparison.
    """
    if n < 2:
        raise ValueError(f"zagreb_variance_asymptotic requires n >= 2, got {n}")
    series = moment_series(n, exact=n <= RATIONAL_CAP)
    exact_var = float(series.var_z(n))
    g = 0.5772156649015329
    logn = math.log(n)
    second_asym = 4 * (n * logn) ** 2 + 8 * g * n * n * logn + (16 + 4 * g * g - 2 * math.pi**2 / 3) * n * n
    return {
        "n": n,
        "variance_asymptotic": VAR_Z_COEFFICIENT * n * n,
        "second_moment_asymptotic": second_asym,
        "variance_exact": exact_var,
    }


def martingale_diff_bound(j):
    """Uniform bound (6j^2 - 8j - 2)/((j-1)(j-2)) on |M_j - M_{j-1}|,
    strictly decreasing for j >= 3.  ``j`` may be an int or an integer
    array (one bound per entry)."""
    if np.any(np.asarray(j) < 3):
        raise ValueError(f"martingale_diff_bound requires j >= 3, got {j}")
    return (6 * j * j - 8 * j - 2) / ((j - 1) * (j - 2))

