"""Exact moments of the Zagreb and cubic degree indices, their limit
constants, and the increment bound of the martingale
M_n = 2 Z_n/(n-1) - 4 H_{n-1} used by the normality diagnostics.

The moments are closed forms in m = n - 1, H = H_m, H2 = sum_{k<=m} 1/k^2
and B_n = Gamma(n+1/2)/(sqrt(pi) Gamma(n-1)):

    E[Z_n]   = 2 m H
    E[Y_n]   = 32 B_n - 6 m H - 16 m
    E[Z_n^2] = 4 m (m+1) (H^2 - H2) + 20 m H + 16 m^2 + 64 m - 128 B_n
    Var[Z_n] = 4 m H^2 - 4 m (m+1) H2 + 20 m H + 16 m^2 + 64 m - 128 B_n

``moment_rows`` streams the table one row at a time.  Its exact rows
come from integers: with L = lcm(1..m), the loop keeps A = H L,
C = H2 L^2 and K = C(2n, n), so that B_n = n m K / 4^n.  When m grows to
n, L is multiplied by f = n / gcd(L, n), A and C are scaled by f and
f^2, and L/n and (L/n)^2 are added.  Each moment is then one integer
numerator over a known denominator: L for E[Z], L 4^n for E[Y], and
L^2 4^n for E[Z^2] and Var[Z].  Writing L = L_odd 2^v, a numerator is
reduced by cancelling the power of two by its trailing-zero count and
running one gcd against L_odd (or L_odd^2) only.  The float rows keep
the closed forms' own expression order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .special import harmonic

__all__ = [
    "VAR_Z_COEFFICIENT",
    "M_SECOND_MOMENT_LIMIT",
    "Z_WEAK_LIMIT",
    "Y_WEAK_LIMIT",
    "RATIONAL_CAP",
    "ZagrebMomentSeries",
    "moment_rows",
    "moment_series",
    "zagreb_mean",
    "cubic_mean",
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


def _mean_z(m, h):
    return 2 * m * h


def _mean_y(m, h, b):
    return 32 * b - 6 * m * h - 16 * m


def _second_z(m, h, h2, b):
    return 4 * m * (m + 1) * (h * h - h2) + 20 * m * h + 16 * m * m + 64 * m - 128 * b


def _b(n: int) -> Fraction:
    """B_n = Gamma(n+1/2)/(sqrt(pi) Gamma(n-1)) = n(n-1) C(2n, n)/4^n, exact."""
    return Fraction(n * (n - 1) * math.comb(2 * n, n), 4**n)


@dataclass(frozen=True)
class ZagrebMomentSeries:
    """Per-n moments for n = 1 .. n_max (index n-1 in each list)."""

    n_max: int
    mean_z: list
    mean_y: list
    second_z: list

    def var_z(self, n: int):
        return self.second_z[n - 1] - self.mean_z[n - 1] ** 2


def _lowest(num: int, odd: int, v: int) -> tuple[int, int]:
    """num / (odd 2^v) in lowest terms, for odd ``odd``: the power of two
    cancels by trailing-zero count, so gcd runs against the odd part only."""
    if num == 0:
        return 0, 1
    t = min((num & -num).bit_length() - 1, v)
    num >>= t
    g = math.gcd(num, odd)
    return num // g, (odd // g) << (v - t)


def _exact_rows(n_max: int):
    lcm, odd, v = 1, 1, 0  # L = lcm(1..m) = odd 2^v
    a = c = 0  # A = H L and C = H2 L^2
    k = 1  # C(2n, n), so that B_n = n m k / 4^n
    for n in range(1, n_max + 1):
        m = n - 1
        k = k * 2 * (2 * n - 1) // n
        lsq, aa = lcm * lcm, a * a
        b128 = 128 * n * m * k * lsq  # 128 B_n over L^2 4^n
        rest = 20 * m * a * lcm + (16 * m * m + 64 * m) * lsq
        second = ((4 * m * (m + 1) * (aa - c) + rest) << 2 * n) - b128
        yield (
            n,
            _lowest(2 * m * a, odd, v),
            _lowest(32 * n * m * k * lcm - ((6 * m * a + 16 * m * lcm) << 2 * n), odd, v + 2 * n),
            _lowest(second, odd * odd, 2 * v + 2 * n),
            _lowest(second - (4 * m * m * aa << 2 * n), odd * odd, 2 * v + 2 * n),
        )
        f = n // math.gcd(lcm, n)  # m grows to n: f = p if n = p^k, else 1
        t = (f & -f).bit_length() - 1
        lcm, odd, v = lcm * f, odd * (f >> t), v + t
        q = lcm // n
        a = a * f + q
        c = c * f * f + q * q


def _float_rows(n_max: int):
    h = h2 = 0.0  # H_{n-1} and H2_{n-1}
    c = 1.0  # C(2n, n) / 4^n, so that B_n = n(n-1) c
    for n in range(1, n_max + 1):
        m = n - 1
        c = c * (2 * n - 1) / (2 * n)
        b = n * m * c
        mean_z, second_z = _mean_z(m, h), _second_z(m, h, h2, b)
        yield n, mean_z, _mean_y(m, h, b), second_z, second_z - mean_z * mean_z
        h += 1.0 / n
        h2 += 1.0 / (n * n)


def _wants_exact(n_max: int, exact: bool | None) -> bool:
    return n_max <= RATIONAL_CAP if exact is None else exact


def moment_rows(n_max: int, exact: bool | None = None):
    """Rows (n, E[Z_n], E[Y_n], E[Z_n^2], Var[Z_n]) for n = 1 .. n_max,
    one at a time.

    Exact rows hold each moment as a (numerator, denominator) pair in
    lowest terms; float rows hold floats.  ``exact=None`` picks exact
    rows up to RATIONAL_CAP and floats beyond.
    """
    if n_max < 1:
        raise ValueError(f"moment_series requires n_max >= 1, got {n_max}")
    return _exact_rows(n_max) if _wants_exact(n_max, exact) else _float_rows(n_max)


def moment_series(n_max: int, exact: bool | None = None) -> ZagrebMomentSeries:
    """E[Z_n], E[Y_n], E[Z_n^2] for n = 1 .. n_max, as Fractions or floats
    (``exact`` as in ``moment_rows``)."""
    exact = _wants_exact(n_max, exact)
    mean_z, mean_y, second_z = [], [], []
    for _, mz, my, sz, _ in moment_rows(n_max, exact):
        mean_z.append(mz)
        mean_y.append(my)
        second_z.append(sz)
    if exact:
        mean_z, mean_y, second_z = ([Fraction(*x) for x in column] for column in (mean_z, mean_y, second_z))
    return ZagrebMomentSeries(n_max, mean_z, mean_y, second_z)


def zagreb_mean(n: int) -> Fraction:
    """E[Z_n] = 2(n-1) H_{n-1}, exact."""
    if n < 1:
        raise ValueError(f"zagreb_mean requires n >= 1, got {n}")
    return _mean_z(n - 1, harmonic(n - 1))


def cubic_mean(n: int) -> Fraction:
    """E[Y_n] = 32 B_n - 6(n-1) H_{n-1} - 16(n-1), exact."""
    if n < 1:
        raise ValueError(f"cubic_mean requires n >= 1, got {n}")
    return _mean_y(n - 1, harmonic(n - 1), _b(n))


def zagreb_second_moment(n: int) -> Fraction:
    """E[Z_n^2] from its closed form, exact."""
    if n < 2:
        raise ValueError(f"zagreb_second_moment requires n >= 2, got {n}")
    return _second_z(n - 1, harmonic(n - 1), harmonic(n - 1, order=2), _b(n))


def zagreb_variance_asymptotic(n: int) -> dict:
    """Leading-term approximations next to the exact variance.

    Returns the asymptotic variance (16 - 2 pi^2/3) n^2, the three-term
    second-moment expansion, and the exact Var[Z_n] for comparison.
    """
    if n < 2:
        raise ValueError(f"zagreb_variance_asymptotic requires n >= 2, got {n}")
    if n <= RATIONAL_CAP:
        exact_var = float(zagreb_second_moment(n) - zagreb_mean(n) ** 2)
    else:
        exact_var = moment_series(n, exact=False).var_z(n)
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

