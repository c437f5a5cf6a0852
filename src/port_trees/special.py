"""Scalar special-function kernels used by the exact-analytics modules.

Everything here is pure and stateless.  No gamma ratio in the package
is a quotient of raw gammas, so each stays finite far beyond n ~ 170:
the exact degree routes form them as integer products, the exact degree
moments as a float product plus an asymptotic series, and the
fixed-j asymptotics as a difference of ``log_gamma`` values.
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


def hypergeometric_pfq(upper, lower, z) -> Fraction:
    """Terminating generalized hypergeometric series pFq(upper; lower; z).

    Sums sum_s (prod <a_i>_s / prod <b_j>_s) z^s / s! until the first
    upper Pochhammer factor is exactly zero.  All parameters and ``z``
    must be rational (int/Fraction).  The sum runs on integer numerators
    over one unreduced integer denominator (``_pfq_sum``) and is reduced
    once, into the returned Fraction; exact arithmetic avoids the
    cancellation the alternating terms suffer in floating point.

    Raises ValueError for a non-rational argument, if no upper parameter
    can terminate the series, or if a lower-parameter pole is reached
    before termination.
    """
    total, den = _pfq_sum([_rational(a) for a in upper], [_rational(b) for b in lower], _rational(z))
    return Fraction(total, den)


def _pfq_sum(upper, lower, z) -> tuple[int, int]:
    """The terminating series of ``hypergeometric_pfq`` as an unreduced
    (numerator, denominator) pair of ints, for int or Fraction parameters.

    A parameter a = p/q turns a + s into (p + s q)/q, so the ratio of
    term s+1 to term s is r_num/r_den with int factors; then
    term_{s+1} = term_s r_num and total_{s+1} = total_s r_den + term_{s+1},
    both over den_{s+1} = den_s r_den.  The series stops where some
    p + s q of an upper parameter is zero, and a lower one reaching zero
    first is a pole.  (``den`` may be negative.)
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
