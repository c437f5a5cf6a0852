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
come from integers: with L = lcm(1..m), the loop keeps A = H L and
C = H2 L^2, and K = C(2n, n) gives B_n = n m K / 4^n.  When m grows to
n, L is multiplied by f = n / gcd(L, n), A and C are scaled by f and
f^2, and L/n and (L/n)^2 are added.  Each moment is then one integer
numerator over a known denominator: L for E[Z], L 4^n for E[Y], and
L^2 4^n for E[Z^2] and Var[Z].  Writing L = L_odd 2^v, the gcd of a
numerator and its denominator comes from cancelling the power of two by
its trailing-zero count and running one gcd against L_odd (or L_odd^2)
only.

The exact loop is split three ways.  ``_binary_states`` steps L, L_odd,
v, A and C.  ``_square_divisors`` turns each state into the gcds of the
E[Y], E[Z^2] and Var[Z] numerators with their denominators, most of the
table's gcd time.  It builds those numerators from products it carries
beside the binary state, with S = L^2: S, Q = A^2, P = A L, KL = K L and
KS = K S, stepped as the base-10 loop below steps its own (without the
4^n), so no row multiplies two big ints.  ``_exact_rows`` finds the
E[Z] gcd, reduces the base-10 pairs below, and pairs each state with
its divisors by ``zip(..., strict=True)``.  Where the ``fork`` start
method exists and a second core is usable (``montecarlo._cpu_count``),
``_square_divisors`` runs in a forked worker that sends its rows in
blocks of ``_BLOCK`` through a one-way pipe, so the two halves run on
two cores; otherwise it runs in this process.  Either way the rows are
the same, and every ``_reduce`` remainder check runs here.  The worker
is forked, not spawned: a spawned one would import numpy again, which
costs more than a 2000-row table saves, and the worker touches nothing
but Python ints and its pipe.  It starts on the first row and ends when
the rows do.

That binary state only finds the gcds.  The pairs themselves are built
in base 10, as integer ``Decimal``s, because CPython's int -> str is
quadratic in the digit count and the values run to thousands of digits.
Beside the binary state the loop carries, with S = L^2, the decimals
L, L4 = L 4^n, S4 = S 4^n, KL = K L, KS = K S, A, A4 = A 4^n, C4 = C 4^n,
P = A L 4^n and Q = A^2 4^n, and updates them by small-integer products,
exact small-integer quotients and sums only.  Each row multiplies every
4^n term by 4 and steps KL and KS by (4n - 2)/n; the numerators are

    E[Z]     2 m A                                           over L
    E[Y]     32 n m KL - 6 m A4 - 16 m L4                    over L4
    E[Z^2]   4 m (m+1) (Q - C4) + 20 m P
               + (16 m^2 + 64 m) S4 - 128 n m KS             over S4
    Var[Z]   the E[Z^2] numerator - 4 m^2 Q                  over S4

and both sides are divided by the gcd.  When m grows to n, L, L4 and KL
are scaled by f and S4 and KS by f^2, and then

    A'  = A f + L'/n  (A4 likewise)    C4' = C4 f^2 + S4'/n^2
    P'  = P f^2 + S4'/n                Q'  = Q f^2 + 2 (P f^2)/n + S4'/n^2

That arithmetic runs under ``_EXACT``, a context of unbounded precision
that traps rounding, in blocks that close before each row is yielded, so
the caller's decimal context is neither used nor changed.  Outside
``_EXACT`` convert the pairs with ``int()`` before doing arithmetic on
them.  The float rows keep the closed forms' own expression order.
"""

from __future__ import annotations

import contextlib
import decimal
import itertools
import math
from collections import deque
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .special import harmonic

__all__ = [
    "VAR_Z_COEFFICIENT",
    "M_SECOND_MOMENT_LIMIT",
    "Z_WEAK_LIMIT",
    "Y_WEAK_LIMIT",
    "RATIONAL_CAP",
    "moment_rows",
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
# rows per message from the square-divisor worker: a message per row
# costs more in pickling and wake-ups than the worker saves
_BLOCK = 64

# unrounded integer arithmetic: a rounded result traps, and an inexact
# division cannot finish at this precision (MemoryError)
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, decimal.Inexact, decimal.Rounded],
)


def _mean_z(m, h):
    return 2 * m * h


def _mean_y(m, h, b):
    return 32 * b - 6 * m * h - 16 * m


def _second_z(m, h, h2, b):
    return 4 * m * (m + 1) * (h * h - h2) + 20 * m * h + 16 * m * m + 64 * m - 128 * b


def _b(n: int) -> Fraction:
    """B_n = Gamma(n+1/2)/(sqrt(pi) Gamma(n-1)) = n(n-1) C(2n, n)/4^n, exact."""
    return Fraction(n * (n - 1) * math.comb(2 * n, n), 4**n)


def _reduce(num: Decimal, den: Decimal, g: int) -> tuple[Decimal, Decimal]:
    """(num / g, den / g) for a common divisor g, by ``divmod``: an exact
    ``/`` costs twice as much at unbounded precision, so the remainders
    are checked here instead."""
    g = Decimal(g)
    (p, r), (q, s) = divmod(num, g), divmod(den, g)
    if r or s:
        raise decimal.Inexact("a divisor leaves a remainder in an exact row")
    return p, q


def _divisor(num: int, odd: int, v: int) -> int:
    """The gcd of num and odd 2^v, for odd ``odd``: the power of two cancels
    by trailing-zero count, so gcd runs against the odd part only."""
    if num == 0:
        return odd << v
    t = min((num & -num).bit_length() - 1, v)
    return math.gcd(num >> t, odd) << t


def _binary_states(n_max: int):
    """(n, L, L_odd, v, A, C, f) for n = 1 .. n_max, with m = n - 1:
    L = lcm(1..m) = L_odd 2^v, A = H L, C = H2 L^2, and f = n / gcd(L, n),
    the factor L gains when m grows to n."""
    lcm, odd, v = 1, 1, 0
    a = c = 0
    for n in range(1, n_max + 1):
        f = n // math.gcd(lcm, n)  # f = p if n = p^k, else 1
        yield n, lcm, odd, v, a, c, f
        t = (f & -f).bit_length() - 1
        lcm, odd, v = lcm * f, odd * (f >> t), v + t
        q = lcm // n
        a = a * f + q
        c = c * f * f + q * q


def _square_divisors(n_max: int):
    """(gy, g2, gv) for n = 1 .. n_max: the gcd of the E[Y] numerator with
    L 4^n, and those of the E[Z^2] and Var[Z] numerators with L^2 4^n."""
    # S = L^2, Q = A^2, P = A L, KL = K L and KS = K S
    s = kl = ks = 1
    q = p = 0
    for n, lcm, odd, v, a, c, f in _binary_states(n_max):
        m = n - 1
        kl, ks = kl * (4 * n - 2) // n, ks * (4 * n - 2) // n
        gy = _divisor(32 * n * m * kl - ((6 * m * a + 16 * m * lcm) << 2 * n), odd, v + 2 * n)
        rest = 20 * m * p + (16 * m * m + 64 * m) * s
        second = ((4 * m * (m + 1) * (q - c) + rest) << 2 * n) - 128 * n * m * ks
        var = second - (4 * m * m * q << 2 * n)
        square = s >> 2 * v  # L_odd^2
        yield gy, _divisor(second, square, 2 * v + 2 * n), _divisor(var, square, 2 * v + 2 * n)
        # m grows to n
        f2 = f * f
        s, kl, ks, q, p = s * f2, kl * f, ks * f2, q * f2, p * f2
        q += 2 * p // n + s // (n * n)
        p += s // n


def _send_square_divisors(n_max: int, reader, writer) -> None:
    """The worker: ``_square_divisors`` sent through ``writer`` in blocks."""
    reader.close()  # else, should the parent die, a full pipe would block this worker for ever
    rows = _square_divisors(n_max)
    while block := list(itertools.islice(rows, _BLOCK)):
        writer.send(block)
    writer.close()


def _piped_square_divisors(n_max: int, context):
    """``_square_divisors`` computed in a forked worker, received in blocks.

    The worker starts on the first ``next()``.  The ``finally`` ends it
    whatever way the generator ends, so it never outlives the generator,
    and a worker that exits before the last row raises ``RuntimeError``
    here instead of truncating the table."""
    reader, writer = context.Pipe(duplex=False)
    worker = context.Process(target=_send_square_divisors, args=(n_max, reader, writer), daemon=True)
    worker.start()
    writer.close()  # the worker's copy is then the only one, so its exit ends the pipe
    try:
        received = 0
        while received < n_max:
            try:
                block = reader.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"the square-divisor worker exited with code {worker.exitcode} after {received} of {n_max} rows"
                ) from None
            received += len(block)
            yield from block
    finally:
        if worker.is_alive():  # closed early: stop it before its pipe closes, so it never meets a broken pipe
            worker.terminate()
        worker.join()
        reader.close()


def _square_divisor_rows(n_max: int):
    """``_square_divisors`` from a forked worker where ``fork`` exists and
    a second core is usable, else in this process."""
    import multiprocessing

    from .montecarlo import _cpu_count

    if "fork" in multiprocessing.get_all_start_methods() and _cpu_count() > 1:
        return _piped_square_divisors(n_max, multiprocessing.get_context("fork"))
    return _square_divisors(n_max)


def _exact_rows(n_max: int):
    # base 10, with S = L^2: L, L 4^n, S 4^n, K L, K S, A, A 4^n, C 4^n,
    # P = A L 4^n and Q = A^2 4^n
    dl = dl4 = ds4 = dkl = dks = Decimal(1)
    da = da4 = dc4 = dp = dq = Decimal(0)
    with contextlib.closing(_square_divisor_rows(n_max)) as divisors:
        for (n, _, odd, v, a, _, f), (gy, g2, gv) in zip(_binary_states(n_max), divisors, strict=True):
            m = n - 1
            gz = _divisor(2 * m * a, odd, v)
            with decimal.localcontext(_EXACT):
                dl4, ds4, da4, dc4, dp, dq = dl4 * 4, ds4 * 4, da4 * 4, dc4 * 4, dp * 4, dq * 4
                dkl, dks = dkl * (4 * n - 2) / n, dks * (4 * n - 2) / n
                dsecond = 4 * m * (m + 1) * (dq - dc4) + 20 * m * dp + (16 * m * m + 64 * m) * ds4 - 128 * n * m * dks
                row = (
                    n,
                    _reduce(2 * m * da, dl, gz),
                    _reduce(32 * n * m * dkl - 6 * m * da4 - 16 * m * dl4, dl4, gy),
                    _reduce(dsecond, ds4, g2),
                    _reduce(dsecond - 4 * m * m * dq, ds4, gv),
                )
            yield row
            with decimal.localcontext(_EXACT):  # m grows to n
                f2 = f * f
                dl, dl4, ds4, dkl, dks = dl * f, dl4 * f, ds4 * f2, dkl * f, dks * f2
                da, da4, dc4, dp, dq = da * f, da4 * f, dc4 * f2, dp * f2, dq * f2
                da, da4 = da + dl / n, da4 + dl4 / n
                dc4, dq = dc4 + ds4 / (n * n), dq + 2 * dp / n + ds4 / (n * n)
                dp += ds4 / n


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


def moment_rows(n_max: int, exact: bool | None = None):
    """Rows (n, E[Z_n], E[Y_n], E[Z_n^2], Var[Z_n]) for n = 1 .. n_max,
    one at a time.

    Exact rows hold each moment as a (numerator, denominator) pair in
    lowest terms, both integer ``Decimal``s with exponent 0: they print
    as plain digits, compare equal to ints, and take ``int()`` before
    arithmetic under any other context.  Float rows hold floats.
    ``exact=None`` picks exact rows up to RATIONAL_CAP and floats beyond.
    """
    if n_max < 1:
        raise ValueError(f"moment_rows requires n_max >= 1, got {n_max}")
    if exact is None:
        exact = n_max <= RATIONAL_CAP
    return _exact_rows(n_max) if exact else _float_rows(n_max)


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
        exact_var = deque(moment_rows(n, exact=False), maxlen=1)[0][4]  # the last row's Var[Z_n]
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

