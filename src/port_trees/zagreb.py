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
come from integers: with L = lcm(1..m), A = H L, C = H2 L^2 and
K = C(2n, n), so that B_n = n m K / 4^n, each moment is one integer
numerator over a known denominator.  Let Lh = lcm(1..floor(m/2)) and
W = L/Lh, the product of the primes p whose largest power p^e <= m
exceeds m/2 (squarefree, as p^(e-1) <= m/2).  For such a p, p^e is the
only k <= m with v_p(k) = e, and so

    F1  v_p(H) = -e, as 1/p^e is the only term of H with v_p = -e:
        p does not divide A;
    F2  v_p(i j) <= 2e - 1 for i != j <= m, so p divides every term of
        A^2 - C = sum over i != j of L^2/(i j): W divides A^2 - C;
    F3  for odd p not dividing m, p divides neither 2 m A nor
        Y - 4 m^2 A^2 (below): F1 leaves p out of 2 m A and 4 m^2 A^2,
        and F2 and p | L put it in Y.

``_numerator_rows`` carries, with S = L^2, the values L, L4 = L 4^n,
S4 = S 4^n, KL = K L, KS = K S, A, A4 = A 4^n, C4 = C 4^n,
P = A L 4^n and Q = A^2 4^n, and, with W taken out, S4W = L Lh 4^n,
KSW = K L Lh, PW = A Lh 4^n and E4W = (A^2 - C) 4^n / W.  It steps
them by small-integer products, exact small-integer quotients and sums
only.  Each row multiplies every 4^n term by 4 and steps KL, KS and KSW
by (4n - 2)/n; the numerators are

    E[Z]     2 m A                                           over L
    E[Y]     32 n m KL - 6 m A4 - 16 m L4                    over L4
    E[Z^2]   4^n Y / W + (16 m^2 + 64 m) S4W - 128 n m KSW   over S4W
    Var[Z]   4^n (Y - 4 m^2 A^2) + (16 m^2 + 64 m) S4
             - 128 n m KS                                    over S4

with Y = 4 m (m+1) (A^2 - C) + 20 m A L, so that the heads are
4^n Y / W = 4 m (m+1) E4W + 20 m PW and
4^n (Y - 4 m^2 A^2) = 4 m (Q - (m+1) C4) + 20 m P.  By F2, E[Z^2]'s
pair is its pair over S4 divided by W.

When m grows to n, L gains the factor f = lcm(1..n)/lcm(1..m), which is
p if n = p^k and 1 otherwise (``_lcm_growth``, on small ints only), and
Lh gains fh = ``_lcm_growth(n // 2)`` for even n, else 1.  L, L4 and KL
are scaled by f, S4 and KS by f^2, S4W and KSW by f fh, and then

    A'  = A f + L'/n  (A4 likewise)    C4'  = C4 f^2 + S4'/n^2
    P'  = P f^2 + S4'/n                Q'   = Q f^2 + 2 (P f^2)/n + S4'/n^2
    PW' = PW f fh + S4W'/n             E4W' = E4W f fh + 2 (PW f fh)/n

where S4'/n^2 is (S4'/n)/n.  Every quotient goes through ``_exact_div``,
which raises on a remainder.

That one recurrence runs on two number types.  On ints,
``_square_divisors`` finds the gcds of the numerators with their
denominators.  It takes each common power of two from the lowest set
bits, so only odd parts meet in a gcd, and four facts cut those.
E[Y] + 3 E[Z] = 32 B_n - 16 m is dyadic, so the odd part of E[Y]'s
divisor is that of E[Z]'s, times 3 where 3 divides what it leaves of
L, and needs no gcd.  gcd(x, d^2) = gcd(x, gcd(x, d)^2), so Var[Z]'s
gcds run on numbers half the size.  The E[Z^2] and Var[Z] numerators
less their heads are multiples of L Lh and L^2, and 4^n is prime to
odd(L), so

    gcd(E[Z^2] numerator, odd(L Lh)) = gcd(Y / W, odd(Lh) odd(L))
    gcd(Var[Z] numerator, odd(L)^2)  = gcd(Y - 4 m^2 A^2, odd(L)^2)

and the odd gcds run on the heads' 4^n-free parts, which the worker
shifts out of them, each shift checked by ``_exact_shift`` as
``_exact_div`` checks a quotient.  Last, by F1 and F3 the gcds of
2 m A and of Y - 4 m^2 A^2 with odd(L) are those with
M = odd(Lh) gcd(m, odd(W)): at each prime p of odd(W), odd(L) holds p^e
and odd(Lh) p^(e-1), and p divides neither number unless it divides m,
where M holds p^e too.  At n = 3000 the E[Z^2] gcd runs on about 6,500
bits, not 8,700, and M has about 2,180 of odd(L)'s 4,320 bits.  The
powers of two, and gcd(0, den) = den, still come from the whole pairs.

On integer ``Decimal``s, ``_exact_rows`` builds the pairs themselves,
because CPython's int -> str is quadratic in the digit count and the
values run to thousands of digits.  It resumes the recurrence under
``_EXACT``, a context of unbounded precision that traps rounding, in
blocks that close before each row is yielded, so the caller's decimal
context is neither used nor changed.  Outside ``_EXACT`` convert the
pairs with ``int()`` before doing arithmetic on them.  ``_exact_rows``
divides each pair by its divisor (``_reduce``, which checks the
remainders), pairing rows and divisors by ``zip(..., strict=True)``.

Where the ``fork`` start method exists and a second core is usable
(``_cpu_count``, the package's one core counter, which ``montecarlo``
shares), ``_square_divisors`` runs in a forked worker that sends its
rows in blocks of ``_BLOCK`` through a one-way pipe, so the two number
types run on two cores; otherwise it runs in this process.  Either way
the rows are the same.  The worker is forked, not spawned: a spawned one
would start a new interpreter and import the package again, and the
worker touches nothing but Python ints and its pipe.  It starts on the
first row and ends when the rows do.  The float rows keep the closed
forms' own expression order.
"""

from __future__ import annotations

import contextlib
import decimal
import itertools
import math
import os
from decimal import Decimal
from fractions import Fraction

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
    "martingale_diff_bound",
]

# leading coefficient of Var[Z_n] ~ (16 - 2 pi^2 / 3) n^2
VAR_Z_COEFFICIENT = 16.0 - 2.0 * math.pi**2 / 3.0
# limit of E[M_n^2]; also the slope of the conditional variance V_n / n.  M_n = 2(Z_n - E[Z_n])/(n - 1),
# so E[M_n^2] = 4 Var[Z_n]/(n - 1)^2 -> 4 times the coefficient above
M_SECOND_MOMENT_LIMIT = 4 * VAR_Z_COEFFICIENT
# limits: the weak law Z_n / (n log n) -> 2, and E[Y_n] / n^{3/2} -> 32/sqrt(pi)
# for the mean only, since Y_n / n^{3/2} keeps a random limit (its coefficient
# of variation is about 0.7 from n = 10^3 to 10^5)
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


def _lcm_growth(n: int) -> int:
    """lcm(1..n) / lcm(1..n-1): p if n = p^k for a prime p, else 1."""
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else 1
    return n  # 1 or a prime


def _exact_div(num, den):
    """num / den, in num's type, for a den that divides num.  Decimal
    ``//`` does not trap an inexact quotient as ``/`` under ``_EXACT``
    does, and ``divmod`` costs half that ``/`` at unbounded precision, so
    the remainder is checked here, for ints and Decimals alike."""
    q, r = divmod(num, den)
    if r:
        raise decimal.Inexact("a divisor leaves a remainder in an exact row")
    return q


def _exact_shift(num: int, bits: int) -> int:
    """num >> bits for a num that 2^bits divides; raises as ``_exact_div`` does otherwise."""
    if num & ((1 << bits) - 1):
        raise decimal.Inexact("a shift drops a set bit in an exact row")
    return num >> bits


def _reduce(num: Decimal, den: Decimal, g: int) -> tuple[Decimal, Decimal]:
    """(num / g, den / g) for a common divisor g."""
    g = Decimal(g)
    return _exact_div(num, g), _exact_div(den, g)


def _numerator_rows(n_max: int, one):
    """The unreduced (numerator, denominator) pairs of E[Z_n], E[Y_n],
    E[Z_n^2] and Var[Z_n] for n = 1 .. n_max, each row with the heads
    4^n Y / W and 4^n (Y - 4 m^2 A^2) of the last two numerators, of the
    type of ``one``: ints, or integer Decimals, whose every ``next()``
    runs under ``_EXACT``."""
    # with S = L^2: L, L 4^n, S 4^n, K L, K S, A, A 4^n, C 4^n, P = A L 4^n and Q = A^2 4^n;
    # with Lh = lcm(1..m//2) and W = L/Lh: S4W = L Lh 4^n, KSW = K L Lh, PW = A Lh 4^n, E4W = (A^2 - C) 4^n / W
    l = l4 = s4 = kl = ks = s4w = ksw = one
    a = a4 = c4 = p = q = pw = e4w = one * 0
    for n in range(1, n_max + 1):
        m = n - 1
        l4, s4, a4, c4, p, q = l4 * 4, s4 * 4, a4 * 4, c4 * 4, p * 4, q * 4
        s4w, pw, e4w = s4w * 4, pw * 4, e4w * 4
        kl, ks, ksw = (_exact_div(x * (4 * n - 2), n) for x in (kl, ks, ksw))
        # the 4^n-carrying heads of E[Z^2] and Var[Z], and the multiples of L Lh and L^2 they add to them
        head = 4 * m * (m + 1) * e4w + 20 * m * pw
        head_var = 4 * m * (q - (m + 1) * c4) + 20 * m * p
        tail = (16 * m * m + 64 * m) * s4w - 128 * n * m * ksw
        tail_var = (16 * m * m + 64 * m) * s4 - 128 * n * m * ks
        cubic = 32 * n * m * kl - 6 * m * a4 - 16 * m * l4
        yield ((2 * m * a, l), (cubic, l4), (head + tail, s4w), (head_var + tail_var, s4)), (head, head_var)
        # m grows to n
        f = _lcm_growth(n)
        fh = _lcm_growth(n // 2) if n % 2 == 0 else 1
        if f * fh > 1:  # most rows scale nothing, and a product by 1 still costs a pass over its digits
            f2, ffh = f * f, f * fh
            l, l4, s4, kl, ks, s4w, ksw = l * f, l4 * f, s4 * f2, kl * f, ks * f2, s4w * ffh, ksw * ffh
            a, a4, c4, p, q, pw, e4w = a * f, a4 * f, c4 * f2, p * f2, q * f2, pw * ffh, e4w * ffh
        a, a4 = a + _exact_div(l, n), a4 + _exact_div(l4, n)
        t = _exact_div(s4, n)  # S4'/n, and then S4'/n^2
        u = _exact_div(t, n)
        c4, q, p = c4 + u, q + _exact_div(2 * p, n) + u, p + t
        e4w, pw = e4w + _exact_div(2 * pw, n), pw + _exact_div(s4w, n)


def _cpu_count() -> int:
    """Cores this process may run on (``taskset`` limits them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _square_divisors(n_max: int):
    """(gz, gy, g2, gv) for n = 1 .. n_max: the gcds of the E[Z], E[Y],
    E[Z^2] and Var[Z] numerators with L, L 4^n, L Lh 4^n and L^2 4^n.

    Their odd parts come from the moduli of the module docstring.  E[Z]'s
    is gcd(2 m A, M) and g1 = gcd(Y - 4 m^2 A^2, M), with
    M = odd(Lh) gcd(m, odd(W)), by F1 and F3; E[Z^2]'s is
    gcd(Y / W, odd(Lh) odd(L)), as its numerator is 4^n Y / W plus a
    multiple of L Lh; and Var[Z]'s is gcd(Y - 4 m^2 A^2, odd(L)^2), as its
    numerator is 4^n (Y - 4 m^2 A^2) plus a multiple of L^2, which is
    gcd(Y - 4 m^2 A^2, g1^2)."""
    odd_h = 1  # odd(Lh)
    for n, (pairs, heads) in enumerate(_numerator_rows(n_max, 1), start=1):
        m = n - 1
        (z, l), *_ = pairs
        odd = l // (l & -l)  # also the odd part of L 4^n, and its square that of L^2 4^n
        modulus = odd_h * math.gcd(m, odd // odd_h)
        y, y_var = (_exact_shift(head, 2 * n) for head in heads)
        gz, g1 = math.gcd(z, modulus), math.gcd(y_var, modulus)
        gy = gz * 3 if odd // gz % 3 == 0 else gz  # E[Y] + 3 E[Z] is dyadic
        # Var[Z]'s: gcd(x, d^2) = gcd(x, gcd(x, d)^2)
        odds = gz, gy, math.gcd(y, odd_h * odd), math.gcd(y_var, g1 * g1)
        # gcd(0, den) = den: every numerator is 0 at n = 1, and Var[Z]'s at n = 2
        yield tuple(g * min(num & -num, den & -den) if num else den for (num, den), g in zip(pairs, odds))
        if n % 2 == 0:  # m grows to n, and Lh with it
            fh = _lcm_growth(n // 2)
            odd_h *= fh // (fh & -fh)


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

    if "fork" in multiprocessing.get_all_start_methods() and _cpu_count() > 1:
        return _piped_square_divisors(n_max, multiprocessing.get_context("fork"))
    return _square_divisors(n_max)


def _exact_rows(n_max: int):
    numerators = _numerator_rows(n_max, Decimal(1))
    with contextlib.closing(_square_divisor_rows(n_max)) as divisors:
        for n, gcds in zip(range(1, n_max + 1), divisors, strict=True):
            with decimal.localcontext(_EXACT):
                pairs, _ = next(numerators)
                row = (n, *(_reduce(num, den, g) for (num, den), g in zip(pairs, gcds, strict=True)))
            yield row


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


def martingale_diff_bound(j):
    """Uniform bound (6j^2 - 8j - 2)/((j-1)(j-2)) on |M_j - M_{j-1}|,
    strictly decreasing for j >= 3.  ``j`` may be an int or an integer
    array (one bound per entry)."""
    import numpy as np  # here, not at the top: the exact tables never load it

    if np.any(np.asarray(j) < 3):
        raise ValueError(f"martingale_diff_bound requires j >= 3, got {j}")
    return (6 * j * j - 8 * j - 2) / ((j - 1) * (j - 2))

