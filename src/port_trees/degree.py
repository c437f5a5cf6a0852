"""Exact and asymptotic distribution of the degree of a fixed-label node.

Three independent evaluation routes are provided for the law of the
degree of the node labeled j in a gap-oriented tree of n nodes:

* ``degree_pmf_closed`` -- the alternating gamma-ratio sum.  Each
  summand is rational, so the sum runs on integer numerators over one
  denominator per parity and the alternating cancellation costs no
  precision.
* ``degree_pmf_recurrence`` -- a forward DP with all-nonnegative
  coefficients; numerically stable and the default route, with an
  exact mode on integer numerators over the common denominator
  prod (2m-3).  It also covers the root (j = 1).
* ``degree_pmf_hypergeom`` -- two terminating 3F2 series, summed as
  unreduced integer pairs.

The exact routes build no ``Fraction`` in their loops: they divide once
at the end, by ``p / q`` for a float (int true division rounds
correctly, so p/q need not be in lowest terms) or by one ``Fraction``
per probability in the DP's exact mode.  The root (j = 1) has its own
closed form, ``root_pmf``, which also divides once.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

import numpy as np

from .special import _pfq_sum, log_gamma

__all__ = [
    "Regime",
    "degree_support",
    "degree_pmf_closed",
    "degree_pmf_recurrence",
    "root_pmf",
    "degree_pmf_hypergeom",
    "degree_mean",
    "degree_variance",
    "degree_moments_asymptotic",
]


class Regime(Enum):
    FIXED_J = "fixed-j"
    GROWING_J = "growing-j"
    LINEAR_THETA = "linear-theta"


def degree_support(n: int, j: int) -> range:
    """Possible degrees of node j at time n."""
    if j == 1:
        return range(1, n) if n >= 2 else range(0, 1)
    return range(1, n - j + 2)


def _check_nj(n: int, j: int, j_min: int = 2) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if j < j_min or j > n:
        raise ValueError(f"need {j_min} <= j <= n, got j={j}, n={n}")


def degree_pmf_closed(n: int, j: int, d: int) -> float:
    """Alternating-sum closed form for P(degree of node j at time n = d).

    The i-th summand is C(d-1, i) times the gamma ratio
    R(i) = Gamma(j-1/2) Gamma(n-1-i/2) / (Gamma(n-1/2) Gamma(j-1-i/2)).
    Its gamma arguments pair up into integer-difference ratios, so the
    sqrt(pi) factors cancel and R(i) is rational; consecutive ratios of
    one parity differ by one factor, R(i) = R(i-2) (2j-2-i)/(2n-2-i), and
    a pole of Gamma(j-1-i/2) (even i >= 2j-2) makes R(i) zero from then
    on.  Each parity keeps R(i) as an integer numerator over an integer
    denominator, and its partial sum of C(d-1, i) R(i) as an integer over
    that same denominator, so a step is a few int multiplies.  The two
    sums are subtracted by one cross-multiplication and divided once, at
    the end; this keeps full relative accuracy even at tiny tail
    probabilities where a floating evaluation would lose everything to
    cancellation.
    """
    _check_nj(n, j)
    if d < 1 or d > n - j + 1:
        return 0.0
    # per parity [numerator of R(i), denominator of R(i), numerator of the sum]
    # R(0) = prod_{t=j-1}^{n-2} 2t / prod_{k=j}^{n-1} (2k-1); R(1) = (2j-3)/(2n-3)
    r0 = math.prod(range(2 * j - 2, 2 * n - 2, 2))
    even = [r0, math.prod(range(2 * j - 1, 2 * n - 1, 2)), r0]
    odd = [2 * j - 3, 2 * n - 3, 0]
    for i in range(1, d):
        part = odd if i % 2 else even
        if i >= 2:
            part[0] *= 2 * j - 2 - i
            part[1] *= 2 * n - 2 - i
            part[2] *= 2 * n - 2 - i
        part[2] += math.comb(d - 1, i) * part[0]
    return (even[2] * odd[1] - odd[2] * even[1]) / (even[1] * odd[1])


def degree_pmf_recurrence(n: int, j: int, exact: bool = False) -> dict:
    """Stable DP for the full degree law of node j at time n (j = 1: root).

    A node of degree d owns d insertion gaps, the root d + 1, out of the
    2m-3 gaps of the (m-1)-node tree.  Starting from the certain degree 1
    at time max(j, 2), each growth step with g = gaps(d) maps
    P_m(d) = (g(d-1)/(2m-3)) P_{m-1}(d-1) + ((2m-3-g(d))/(2m-3)) P_{m-1}(d)
    as one numpy shift-add.  Exact mode carries the integer numerators
    N_m(d) = g(d-1) N_{m-1}(d-1) + (2m-3-g(d)) N_{m-1}(d) over the common
    denominator D_m = prod (2k-3), with no division in the loop, and
    builds one Fraction N(d)/D per degree at the end, so the law sums
    to 1 exactly.  The law is returned as {d: probability}, ascending in
    d, with zero probabilities left out.
    """
    _check_nj(n, j, j_min=1)
    offset = 1 if j == 1 else 0  # the root's extra gap
    steps = range(max(j, 2) + 1, n + 1)
    if exact:
        nums, den = [1], 1  # nums[i] / den = P(degree = i + 1)
        for m in steps:
            c = 2 * m - 3
            nums = [
                (c - d - offset) * a + (d - 1 + offset) * b
                for d, a, b in zip(range(1, len(nums) + 2), nums + [0], [0] + nums)
            ]
            den *= c
        return {d: Fraction(p, den) for d, p in enumerate(nums, start=1) if p}
    probs = np.array([1.0])  # probs[i] = P(degree = i + 1)
    for m in steps:
        denom = 1.0 * (2 * m - 3)
        gaps = np.arange(1 + offset, probs.size + 1 + offset, dtype=float)
        new = np.append(probs * (2 * m - 3 - gaps) / denom, 0.0)
        new[1:] += probs * gaps / denom
        probs = new
    # plain Python floats: a numpy float would change every repr
    return {d: float(p) for d, p in enumerate(probs, start=1) if p}


def root_pmf(n: int, d: int) -> float:
    """Closed form for the root's degree law: P(root degree at time n = d).

    Equal to d (2n-d-3)! / (2^{n-d-1} (n-d-1)! (2n-3)!!), which is
    d 2^d perm(n-1, d) / perm(2n-2, d+1): two integers, divided once.
    """
    if n < 2:
        raise ValueError(f"root_pmf requires n >= 2, got {n}")
    if d < 1 or d > n - 1:
        return 0.0
    return (d * math.perm(n - 1, d) << d) / math.perm(2 * n - 2, d + 1)


def degree_pmf_hypergeom(n: int, j: int, d: int) -> float:
    """Hypergeometric route: the degree PMF as a difference of two 3F2s.

    Both 3F2 series terminate and every gamma-ratio prefactor reduces to
    a rational number (the half-integer gammas appear in ratios whose
    sqrt(pi) factors cancel).  Each series is summed as an unreduced
    integer pair, each prefactor is a pair of integer products, and the
    difference is one cross-multiplication divided once, at the end.
    This sidesteps the catastrophic cancellation between the two terms
    that a floating evaluation suffers at small tail probabilities.
    """
    _check_nj(n, j)
    if d < 1 or d > n - j + 1:
        return 0.0
    t1, s1 = _pfq_sum(
        [Fraction(2 - d, 2), Fraction(1 - d, 2), Fraction(2 - j)],
        [Fraction(1, 2), Fraction(2 - n)],
        1,
    )
    # Gamma(n-1)/Gamma(j-1) = prod_{k=j-1}^{n-2} k;
    # Gamma(j-1/2)/Gamma(n-1/2) = 1 / prod_{k=j}^{n-1} (k - 1/2) = 2^{n-j} / prod (2k-1)
    p1 = math.prod(range(j - 1, n - 1)) << (n - j)
    q1 = math.prod(range(2 * j - 1, 2 * n - 1, 2))
    if d == 1:
        return (p1 * t1) / (q1 * s1)  # 1/Gamma(d-1) pole kills the second term
    t2, s2 = _pfq_sum(
        [Fraction(3 - d, 2), Fraction(2 - d, 2), Fraction(5, 2) - j],
        [Fraction(3, 2), Fraction(5, 2) - n],
        1,
    )
    # Gamma(d)/Gamma(d-1) = d-1; Gamma(j-1/2)/Gamma(j-3/2) = j-3/2;
    # Gamma(n-3/2)/Gamma(n-1/2) = 1/(n-3/2)
    p2, q2 = (d - 1) * (2 * j - 3), 2 * n - 3
    return (p1 * t1 * q2 * s2 - p2 * t2 * q1 * s1) / (q1 * s1 * q2 * s2)


def _mean_gamma_ratio(n: int, j: int) -> float:
    # Gamma(n) Gamma(j-1/2) / (Gamma(n-1/2) Gamma(j)) = prod_{k=j}^{n-1} 2k/(2k-1): a float product
    # (exact at j = n) for k < m, and for k >= m >= 2^16 the series log Gamma(y+1/2) - log Gamma(y)
    # = ln(y)/2 - 1/(8y) + O(y^-3) at y = n-1/2 and y = m-1/2, whose O(y^-3) is below 2e-17
    m = min(n, max(j, 1 << 16))
    k = np.arange(j, m, dtype=float)
    y, z = n - 0.5, m - 0.5
    return float(np.prod(2 * k / (2 * k - 1))) * math.exp(0.5 * math.log1p((n - m) / z) + (n - m) / (8 * y * z))


def degree_mean(n: int, j: int) -> float:
    """Exact mean degree of node j at time n (root loses its phantom gap)."""
    _check_nj(n, j, j_min=1)
    return _mean_gamma_ratio(n, j) - (1.0 if j == 1 else 0.0)


def degree_variance(n: int, j: int) -> float:
    """Exact variance of the degree of node j at time n."""
    _check_nj(n, j, j_min=1)
    a = _mean_gamma_ratio(n, j)
    return -a * a - a + (4 * n - 2) / (2 * j - 1)


def degree_moments_asymptotic(n: int, j: int, regime: Regime) -> tuple[float, float]:
    """Large-n approximations (mean, variance) of the degree of node j.

    The behavior changes with how j scales against n: fixed j, growing
    j = o(n), and the linear phase j = theta * n with 0 < theta < 1.
    """
    if regime is Regime.FIXED_J:
        ratio = math.exp(log_gamma(j - 0.5) - log_gamma(j + 0.0))
        return ratio * math.sqrt(n), (4.0 / (2 * j - 1) - ratio * ratio) * n
    if regime is Regime.GROWING_J:
        return math.sqrt(n / j), n / j
    if regime is Regime.LINEAR_THETA:
        theta = j / n
        if not 0.0 < theta < 1.0:
            raise ValueError(f"linear regime requires 0 < j/n < 1, got {theta}")
        return math.sqrt(n / j), 1.0 / theta - 1.0 / math.sqrt(theta)
    raise ValueError(f"unknown regime {regime!r}")
