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
* ``degree_pmf_hypergeom`` -- the paper's difference of two terminating
  3F2 series.  By the duplication formula
  (a)_{2s} = 4^s (a/2)_s ((a+1)/2)_s, each is a sum over s of
  C(d-1, 2s) or C(d-2, 2s) times a coefficient free of d, so each
  series has an integer row that Pascal's rule carries from one d to
  the next.  It shares no code with the closed route, so each checks
  the other.  The root's law is one hypergeometric term, the closed
  route's.

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


def degree_pmf_hypergeom(n: int, j: int) -> dict:
    """Hypergeometric route: each P(d) as a difference of two 3F2 series.

    For j >= 2, P(d) = R F1(d) - (d-1) (2j-3)/(2n-3) F2(d), with the
    rational prefactor R = Gamma(n-1) Gamma(j-1/2) / (Gamma(j-1) Gamma(n-1/2)),
    F1(d) = 3F2((1-d)/2, (2-d)/2, 2-j; 1/2, 2-n; 1) and
    F2(d) = 3F2((2-d)/2, (3-d)/2, 5/2-j; 3/2, 5/2-n; 1).  By the
    duplication formula (a)_{2s} = 4^s (a/2)_s ((a+1)/2)_s, with
    (1/2)_s s! = (2s)!/4^s and (3/2)_s s! = (2s+1)!/4^s, the series are,
    term for term,
    F1(d) = sum_s C(d-1, 2s) C(j-2, s)/C(n-2, s) and
    F2(d) = sum_s C(d-2, 2s)/(2s+1) prod_{k<s} (2j-5-2k)/(2n-5-2k).
    F1 stops after s = j-2, where C(j-2, s) vanishes.  Each series'
    coefficients are free of d: they go over one integer denominator
    once, at index 2s of an int row whose first entry is the series'
    numerator at its first d, and Pascal's rule row'[i] = row[i] +
    row[i+1] carries the row to the next d in integer additions.  Each
    P(d) is one division, so it is the exact value correctly rounded,
    even at tiny tail probabilities where the two terms cancel.  The
    root's law (j = 1) is a single hypergeometric term, the closed
    route's.
    """
    _check_nj(n, j)
    if j == 1:
        return _root_law(n)
    top = n - j  # the largest d - 1
    # (numerator, denominator) of each coefficient the law reaches: F1's C(j-2, s)/C(n-2, s) for
    # 2s <= top and s <= j-2, and F2's prod_{k<s} (2j-5-2k)/(2n-5-2k) for 2s <= top - 1
    f1 = [(math.comb(j - 2, s), math.comb(n - 2, s)) for s in range(min(j - 2, top // 2) + 1)]
    f2 = [(1, 1)]
    for s in range((top - 1) // 2):
        num, den = f2[-1]
        f2.append((num * (2 * j - 5 - 2 * s), den * (2 * n - 5 - 2 * s)))

    def int_row(terms, length):
        """The terms at indices 0, 2, 4, ... of an int row over one denominator, and that denominator."""
        den = math.lcm(*(q for _, q in terms))
        nums = [0] * length
        nums[: 2 * len(terms) : 2] = [p * (den // q) for p, q in terms]
        return nums, den

    # F1's row is zero past its last term, and Pascal's rule keeps that tail zero: it is carried at its
    # span and its last entry carries over
    row1, den1 = int_row(f1, 2 * len(f1) - 1)
    row2, den2 = int_row([(p, q * (2 * s + 1)) for s, (p, q) in enumerate(f2)], top + 1)
    # R = p1/q1: Gamma(n-1)/Gamma(j-1) = prod_{k=j-1}^{n-2} k and
    # Gamma(j-1/2)/Gamma(n-1/2) = 1 / prod_{k=j}^{n-1} (k - 1/2) = 2^{n-j} / prod (2k-1)
    p1 = math.prod(range(j - 1, n - 1)) << (n - j)
    q1 = math.prod(range(2 * j - 1, 2 * n - 1, 2))
    # P(d) = (a N1(d) - (d-1) b N2(d)) / den, for the series' numerators N1 and N2
    a, b = p1 * (2 * n - 3) * den2, (2 * j - 3) * q1 * den1
    den = q1 * den1 * (2 * n - 3) * den2
    probs = [(1, a * row1[0] / den)]
    for d in range(2, top + 2):
        row1 = [x + y for x, y in zip(row1, row1[1:] + [0])][: top + 2 - d]
        probs.append((d, (a * row1[0] - (d - 1) * b * row2[0]) / den))
        row2 = [x + y for x, y in zip(row2, row2[1:])]
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
