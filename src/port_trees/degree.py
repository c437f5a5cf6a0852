"""Exact and asymptotic distribution of the degree of a fixed-label node.

Three independent routes give the law of the degree of the node labeled
j in a gap-oriented tree of n nodes, 1 <= j <= n.  Each returns the
whole law as one {d: probability} dict, ascending in d, with empty
entries left out:

* ``degree_pmf_closed`` -- the alternating gamma-ratio sum.  Each ratio
  is rational, so the routine puts all of them over one integer
  denominator and gets every degree's sum from them by Pascal's rule,
  in integer additions.  The root (j = 1) has its own closed form.
* ``degree_pmf_recurrence`` -- a forward DP with all-nonnegative
  coefficients; numerically stable and the default route, with an
  exact mode on integer numerators over one common denominator.
* ``degree_pmf_hypergeom`` -- two terminating 3F2 series, summed as
  unreduced integer pairs by this module's ``_pfq_sum``.  The root's
  law is one hypergeometric term, the closed route's.

The exact routes build no ``Fraction`` in their loops: they divide once
per probability, by ``p / q`` for a float (int true division rounds
correctly, so p/q need not be in lowest terms) or by one ``Fraction``
in the DP's exact mode.  A float law leaves out every probability below
the smallest normal float: a subnormal keeps too few bits to mean
anything, and the DP's can even stick, as each root step multiplies the
smallest one by more than 1/2.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction

from .tree import Kernel

__all__ = [
    "Regime",
    "degree_pmf_closed",
    "degree_pmf_recurrence",
    "degree_pmf_hypergeom",
    "degree_mean",
    "degree_variance",
    "degree_moments_asymptotic",
]


class Regime(Enum):
    FIXED_J = "fixed-j"
    GROWING_J = "growing-j"
    LINEAR_THETA = "linear-theta"


def _check_nj(n: int, j: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if j < 1 or j > n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")


def _float_law(probs) -> dict:
    """{d: p} from (d, p) pairs, without the p below the smallest normal float."""
    return {d: p for d, p in probs if p >= sys.float_info.min}


def _root_law(n: int) -> dict:
    """The root's law, P(d) = d 2^d perm(n-1, d) / perm(2n-2, d+1).

    Equal to d (2n-d-3)! / (2^{n-d-1} (n-d-1)! (2n-3)!!).  Each perm is
    carried across d by one factor, and each P(d) is one division.
    """
    probs, num, den = [], 1, 2 * n - 2
    for d in range(1, n):
        num, den = num * (n - d), den * (2 * n - 2 - d)  # perm(n-1, d), perm(2n-2, d+1)
        probs.append((d, (d * num << d) / den))
    return _float_law(probs)


def degree_pmf_closed(n: int, j: int) -> dict:
    """Closed form for the law of the degree of node j at time n.

    For j >= 2, P(d) is the alternating sum over 0 <= i < d of
    (-1)^i C(d-1, i) R(i), with the gamma ratio
    R(i) = Gamma(j-1/2) Gamma(n-1-i/2) / (Gamma(n-1/2) Gamma(j-1-i/2)).
    Its gamma arguments pair up into integer-difference ratios, so the
    sqrt(pi) factors cancel and R(i) is rational; consecutive ratios of
    one parity differ by one factor, R(i) = R(i-2) (2j-2-i)/(2n-2-i), and
    a pole of Gamma(j-1-i/2) (even i >= 2j-2) makes R(i) zero from then
    on.  Each R(i) is formed once and put over one denominator D, the
    product of the two parities' last denominators.  From the row
    (-1)^i R(i) D, Pascal's rule row'[i] = row[i] + row[i+1] gives the
    row whose first entry is the next P(d) D, in integer additions only.
    Each P(d) is one division, so it is the exact value correctly
    rounded, even at tiny tail probabilities where a floating evaluation
    would lose everything to cancellation.  The root (j = 1) has its own
    closed form (``_root_law``).
    """
    _check_nj(n, j)
    if j == 1:
        return _root_law(n)
    # (numerator, denominator) of R(i) for 0 <= i <= max(n - j, 1), from
    # R(0) = prod_{t=j-1}^{n-2} 2t / prod_{k=j}^{n-1} (2k-1) and R(1) = (2j-3)/(2n-3)
    ratios = [(math.prod(range(2 * j - 2, 2 * n - 2, 2)), math.prod(range(2 * j - 1, 2 * n - 1, 2)))]
    ratios.append((2 * j - 3, 2 * n - 3))
    for i in range(2, n - j + 1):
        num, den = ratios[i - 2]
        ratios.append((num * (2 * j - 2 - i), den * (2 * n - 2 - i)))
    den = ratios[-1][1] * ratios[-2][1]
    row = [(-1) ** i * num * (den // q) for i, (num, q) in enumerate(ratios)]
    probs = []
    for d in range(1, n - j + 2):
        probs.append((d, row[0] / den))
        row = [a + b for a, b in zip(row, row[1:])]
    return _float_law(probs)


def degree_pmf_recurrence(n: int, j: int, exact: bool = False) -> dict:
    """Stable DP for the full degree law of node j at time n (j = 1: root).

    Under ``Kernel.GAP`` node j of degree d has weight g(d), its degree
    plus the root's extra gaps when j = 1, out of the total weight T_m of
    the (m-1)-node tree that node m joins.  Starting from the certain
    degree 1 at time max(j, 2), each growth step maps
    P_m(d) = (g(d-1)/T_m) P_{m-1}(d-1) + ((T_m-g(d))/T_m) P_{m-1}(d)
    as one numpy shift-add.  Exact mode carries the integer numerators
    N_m(d) = g(d-1) N_{m-1}(d-1) + (T_m-g(d)) N_{m-1}(d) over the common
    denominator D_m = prod T_k, with no division in the loop, and
    builds one Fraction N(d)/D per degree at the end, so the law sums
    to 1 exactly.  The law is returned as {d: probability}, ascending in
    d, with zero probabilities (and, in floats, subnormal ones) left out.
    """
    _check_nj(n, j)
    offset = Kernel.GAP.root_gaps if j == 1 else 0
    # T_m for the steps m = max(j, 2) + 1 .. n
    totals = range(Kernel.GAP.total_weight(max(j, 2)), Kernel.GAP.total_weight(n), 2)
    if exact:
        nums, den = [1], 1  # nums[i] / den = P(degree = i + 1)
        for c in totals:
            nums = [
                (c - d - offset) * a + (d - 1 + offset) * b
                for d, a, b in zip(range(1, len(nums) + 2), nums + [0], [0] + nums)
            ]
            den *= c
        return {d: Fraction(p, den) for d, p in enumerate(nums, start=1) if p}
    import numpy as np  # here, not at the top: the exact routes never load it

    probs = np.array([1.0])  # probs[i] = P(degree = i + 1)
    for c in totals:
        denom = 1.0 * c
        gaps = np.arange(1 + offset, probs.size + 1 + offset, dtype=float)
        new = np.append(probs * (c - gaps) / denom, 0.0)
        new[1:] += probs * gaps / denom
        probs = new
    # plain Python floats: a numpy float would change every repr
    return _float_law(enumerate(probs.tolist(), start=1))


_MAX_PFQ_TERMS = 100_000


def _pfq_sum(upper, lower, z) -> tuple[int, int]:
    """The terminating series pFq(upper; lower; z) = sum_s (prod (a_i)_s /
    prod (b_j)_s) z^s / s!, summed until the first upper Pochhammer factor
    is exactly zero, as an unreduced (numerator, denominator) pair of ints,
    for int or Fraction parameters.

    A parameter a = p/q turns a + s into (p + s q)/q, so the ratio of
    term s+1 to term s is r_num/r_den with int factors; then
    term_{s+1} = term_s r_num and total_{s+1} = total_s r_den + term_{s+1},
    both over den_{s+1} = den_s r_den.  The series stops where some
    p + s q of an upper parameter is zero, and a lower one reaching zero
    first is a pole.  (``den`` may be negative.)  Raises ValueError if no
    upper parameter can terminate the series, or at a pole.
    """
    ups = [(a.numerator, a.denominator) for a in upper]
    los = [(b.numerator, b.denominator) for b in lower]
    # a nonpositive integer upper parameter must exist: a + s with a
    # non-integer a never reaches 0
    if not any(q == 1 and p <= 0 for p, q in ups):
        raise ValueError("series does not terminate: no nonpositive integer upper parameter")
    # the constant parts of the term ratio: the 1/q of each a + s, and z
    num_scale = math.prod(q for _, q in los) * z.numerator
    den_scale = math.prod(q for _, q in ups) * z.denominator
    total = term = den = 1
    for s in range(_MAX_PFQ_TERMS):
        if any(p + s * q == 0 for p, q in ups):
            return total, den
        if any(p + s * q == 0 for p, q in los):
            raise ValueError("lower-parameter pole reached before termination")
        r_num = math.prod(p + s * q for p, q in ups) * num_scale
        r_den = math.prod(p + s * q for p, q in los) * (s + 1) * den_scale
        term *= r_num
        total = total * r_den + term
        den *= r_den
    raise ValueError("series failed to terminate within the iteration cap")


def degree_pmf_hypergeom(n: int, j: int) -> dict:
    """Hypergeometric route: each P(d) as a difference of two 3F2s.

    Both 3F2 series terminate and every gamma-ratio prefactor reduces to
    a rational number (the half-integer gammas appear in ratios whose
    sqrt(pi) factors cancel).  Each series is summed as an unreduced
    integer pair, each prefactor is a pair of integer products, and the
    difference is one cross-multiplication divided once.  This sidesteps
    the catastrophic cancellation between the two terms that a floating
    evaluation suffers at small tail probabilities.  The root's law
    (j = 1) is a single hypergeometric term, the closed route's.
    """
    _check_nj(n, j)
    if j == 1:
        return _root_law(n)
    # Gamma(n-1)/Gamma(j-1) = prod_{k=j-1}^{n-2} k;
    # Gamma(j-1/2)/Gamma(n-1/2) = 1 / prod_{k=j}^{n-1} (k - 1/2) = 2^{n-j} / prod (2k-1)
    p1 = math.prod(range(j - 1, n - 1)) << (n - j)
    q1 = math.prod(range(2 * j - 1, 2 * n - 1, 2))
    # Gamma(n-3/2)/Gamma(n-1/2) = 1/(n-3/2)
    q2 = 2 * n - 3
    lower1, lower2 = [Fraction(1, 2), Fraction(2 - n)], [Fraction(3, 2), Fraction(5, 2) - n]
    probs = []
    for d in range(1, n - j + 2):
        t1, s1 = _pfq_sum([Fraction(2 - d, 2), Fraction(1 - d, 2), Fraction(2 - j)], lower1, 1)
        # Gamma(d)/Gamma(d-1) = d-1 and Gamma(j-1/2)/Gamma(j-3/2) = j-3/2; at d = 1 the pole of
        # 1/Gamma(d-1) makes p2 zero, and the second series would not terminate
        p2 = (d - 1) * (2 * j - 3)
        t2, s2 = _pfq_sum([Fraction(3 - d, 2), Fraction(2 - d, 2), Fraction(5, 2) - j], lower2, 1) if p2 else (0, 1)
        probs.append((d, (p1 * t1 * q2 * s2 - p2 * t2 * q1 * s1) / (q1 * s1 * q2 * s2)))
    return _float_law(probs)


def _mean_gamma_ratio(n: int, j: int) -> float:
    # Gamma(n) Gamma(j-1/2) / (Gamma(n-1/2) Gamma(j)) = prod_{k=j}^{n-1} 2k/(2k-1): a float product
    # (exact at j = n) for k < m, and for k >= m >= 2^16 the series log Gamma(y+1/2) - log Gamma(y)
    # = ln(y)/2 - 1/(8y) + O(y^-3) at y = n-1/2 and y = m-1/2, whose O(y^-3) is below 2e-17
    m = min(n, max(j, 1 << 16))
    y, z = n - 0.5, m - 0.5
    product = math.prod(2.0 * k / (2.0 * k - 1) for k in range(j, m))
    return product * math.exp(0.5 * math.log1p((n - m) / z) + (n - m) / (8 * y * z))


def degree_mean(n: int, j: int) -> float:
    """Exact mean degree of node j at time n (root loses its phantom gap)."""
    _check_nj(n, j)
    return _mean_gamma_ratio(n, j) - (1.0 if j == 1 else 0.0)


def degree_variance(n: int, j: int) -> float:
    """Exact variance of the degree of node j at time n."""
    _check_nj(n, j)
    a = _mean_gamma_ratio(n, j)
    return -a * a - a + (4 * n - 2) / (2 * j - 1)


def degree_moments_asymptotic(n: int, j: int, regime: Regime) -> tuple[float, float]:
    """Large-n approximations (mean, variance) of the degree of node j.

    The behavior changes with how j scales against n: fixed j, growing
    j = o(n), and the linear phase j = theta * n with 0 < theta < 1.
    """
    _check_nj(n, j)
    if regime is Regime.FIXED_J:
        ratio = math.exp(math.lgamma(j - 0.5) - math.lgamma(j + 0.0))
        return ratio * math.sqrt(n), (4.0 / (2 * j - 1) - ratio * ratio) * n
    if regime is Regime.GROWING_J:
        return math.sqrt(n / j), n / j
    if regime is Regime.LINEAR_THETA:
        theta = j / n
        if not 0.0 < theta < 1.0:
            raise ValueError(f"linear regime requires 0 < j/n < 1, got {theta}")
        return math.sqrt(n / j), 1.0 / theta - 1.0 / math.sqrt(theta)
    raise ValueError(f"unknown regime {regime!r}")
