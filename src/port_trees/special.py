"""Scalar special-function kernels used by the exact-analytics modules.

Everything here is pure and stateless.  Gamma ratios elsewhere in the
package are always formed as differences of ``log_gamma`` values, never
as quotients of raw gammas, so they stay finite far beyond n ~ 170.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

__all__ = [
    "log_gamma",
    "reciprocal_gamma",
    "harmonic",
    "hypergeometric_pfq",
]

_MAX_PFQ_TERMS = 100_000


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


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


def _rational(x) -> Fraction:
    if not isinstance(x, numbers.Rational):
        raise ValueError(f"hypergeometric_pfq needs rational (int/Fraction) arguments, got {x!r}")
    return Fraction(x)


def _doubled_integer(x: Fraction) -> int | None:
    """2*x as an int when x is an integer or half-integer, else None."""
    return int(2 * x) if x.denominator in (1, 2) else None


def hypergeometric_pfq(upper, lower, z) -> Fraction:
    """Terminating generalized hypergeometric series pFq(upper; lower; z).

    Sums sum_s (prod <a_i>_s / prod <b_j>_s) z^s / s! until the first
    upper Pochhammer factor is exactly zero.  All parameters and ``z``
    must be rational (int/Fraction); the sum is carried out in exact
    ``Fraction`` arithmetic, which avoids the cancellation the
    alternating terms suffer in floating point.  Termination is detected
    with half-integer bookkeeping on the parameters (stored as doubled
    integers).

    Raises ValueError for a non-rational argument, if no upper parameter
    can terminate the series, or if a lower-parameter pole is reached
    before termination.
    """
    ups = [_rational(a) for a in upper]
    los = [_rational(b) for b in lower]
    zv = _rational(z)
    up2 = [_doubled_integer(a) for a in ups]
    lo2 = [_doubled_integer(b) for b in los]
    # a nonpositive *integer* upper parameter (possibly reached from a
    # half-integer is impossible: a + s keeps parity of 2a) must exist
    if not any(a2 is not None and a2 <= 0 and a2 % 2 == 0 for a2 in up2):
        raise ValueError("series does not terminate: no nonpositive integer upper parameter")

    total = Fraction(1)
    term = Fraction(1)
    for s in range(_MAX_PFQ_TERMS):
        # factor taking term s to term s+1 involves (a + s) and (b + s)
        if any(a2 is not None and a2 == -2 * s for a2 in up2):
            return total
        if any(b2 is not None and b2 == -2 * s for b2 in lo2):
            raise ValueError("lower-parameter pole reached before termination")
        for a in ups:
            term *= a + s
        for b in los:
            term /= b + s
        term *= zv / (s + 1)
        total += term
    raise ValueError("series failed to terminate within the iteration cap")
