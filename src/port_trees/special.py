"""Scalar special functions: exact harmonic numbers, shared by ``zagreb``
and ``oracle``, and the real-argument ``reciprocal_gamma``."""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["reciprocal_gamma", "harmonic"]


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), defined on all reals.

    Returns exactly 0.0 at the poles x = 0, -1, -2, ... so that series
    terms carrying a gamma pole in the denominator vanish without any
    special-casing at the call site.
    """
    if x > 0:
        return math.exp(-math.lgamma(x))
    if x == math.floor(x):
        return 0.0
    # reflection: 1/Gamma(x) = Gamma(1-x) sin(pi x) / pi
    return math.sin(math.pi * x) * math.exp(math.lgamma(1.0 - x)) / math.pi


def harmonic(n: int, order: int = 1) -> Fraction:
    """Exact H_n^(order) = sum_{k=1}^n 1/k^order, with H_0 = 0, by binary
    splitting (Haible & Papanikolaou, 1998): halves are summed unreduced
    and joined by cross-multiplication, with one gcd reduction at the end."""
    if n < 0:
        raise ValueError(f"harmonic requires n >= 0, got {n}")
    if order < 1:
        raise ValueError(f"harmonic requires order >= 1, got {order}")
    p, q = _split_powers(1, n + 1, order)
    return Fraction(p, q)


def _split_powers(lo: int, hi: int, order: int) -> tuple[int, int]:
    """sum_{lo <= k < hi} 1/k^order as an unreduced (numerator, denominator)."""
    if hi - lo <= 1:  # one term, or none
        return hi - lo, lo**order
    mid = (lo + hi) // 2
    p1, q1 = _split_powers(lo, mid, order)
    p2, q2 = _split_powers(mid, hi, order)
    return p1 * q2 + p2 * q1, q1 * q2
