import contextlib
import decimal
import itertools
import math
import multiprocessing
import os
import signal
from decimal import Decimal
from fractions import Fraction

import pytest

from port_trees import zagreb
from port_trees.oracle import enumerate_statistic
from port_trees.special import harmonic
from port_trees.tree import Kernel
from port_trees.zagreb import (
    M_SECOND_MOMENT_LIMIT,
    RATIONAL_CAP,
    VAR_Z_COEFFICIENT,
    Y_WEAK_LIMIT,
    Z_WEAK_LIMIT,
    cubic_mean,
    martingale_diff_bound,
    moment_rows,
    zagreb_mean,
    zagreb_second_moment,
)


def _pair(x: Fraction) -> tuple:
    return x.numerator, x.denominator


def _fraction(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def test_closed_forms_equal_the_recurrence(zagreb_recurrence):
    reference = zagreb_recurrence
    # the integer rows, pair by pair: equal values in lowest terms
    assert list(moment_rows(400, exact=True)) == [
        (n, _pair(ez), _pair(ey), _pair(ez2), _pair(ez2 - ez * ez))
        for n, (ez, ey, ez2) in enumerate(reference, start=1)
    ]
    assert (zagreb_mean(1), cubic_mean(1)) == reference[0][:2]
    for n in range(2, 401):
        assert (zagreb_mean(n), cubic_mean(n), zagreb_second_moment(n)) == reference[n - 1]


def test_exact_rows_ignore_the_callers_decimal_context(zagreb_recurrence):
    # the rows are built under their own unbounded context; a 5-digit context
    # around the consumer must neither round them nor be changed by them
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        rows = moment_rows(400, exact=True)
        for (n, *pairs), (ez, ey, ez2) in zip(rows, zagreb_recurrence, strict=True):
            assert decimal.getcontext().prec == 5
            assert pairs == [_pair(ez), _pair(ey), _pair(ez2), _pair(ez2 - ez * ez)]
            for value in (x for pair in pairs for x in pair):
                # an integer Decimal with exponent 0 prints its plain digits, never E+ notation
                assert type(value) is Decimal and value.as_tuple().exponent == 0


# Lh = lcm(1..(n-1)//2) gains 3^6, 31^2 and 2^10 at n = 2q + 1; n = 2q + 2 is the row after
LH_GROWTH_ROWS = tuple(n for q in (3**6, 31**2, 2**10) for n in (2 * q + 1, 2 * q + 2))


def test_exact_rows_where_the_lcm_grows():
    # L = lcm(1..n-1) doubles at n = 2^k + 1 and gains an odd prime power at
    # 730 = 3^6 + 1, 962 = 31^2 + 1 and 2004 (2003 is prime), and Lh at the
    # LH_GROWTH_ROWS; the scalars take their harmonic sums by binary
    # splitting, a route independent of the rows.
    # The odd part of E[Y]'s divisor is that of E[Z]'s at n = 3^k + 1, where L
    # gains a power of 3, and three times it at n = 3^k for k >= 3
    wanted = {n for k in range(1, 12) for n in (2**k - 1, 2**k, 2**k + 1) if n > 1} | {961, 962, 2003, 2004}
    wanted |= {n for k in range(1, 7) for n in (3**k, 3**k + 1)} | set(LH_GROWTH_ROWS)
    for n, mean_z, mean_y, second_z, var_z in moment_rows(max(wanted), exact=True):
        if n in wanted:
            ez, ez2 = zagreb_mean(n), zagreb_second_moment(n)
            assert (mean_z, mean_y) == (_pair(ez), _pair(cubic_mean(n)))
            assert (second_z, var_z) == (_pair(ez2), _pair(ez2 - ez * ez))


def _odd(x: int) -> int:
    return x // (x & -x)


def _rebuilt(n: int) -> tuple:
    """m, K = C(2n, n), L, Lh, A and C of row n, from lcm and the harmonic sums by binary splitting."""
    m, lcm = n - 1, math.lcm(*range(1, n))
    a, c = harmonic(m) * lcm, harmonic(m, 2) * lcm**2
    assert a.denominator == c.denominator == 1
    return m, math.comb(2 * n, n), lcm, math.lcm(*range(1, m // 2 + 1)), int(a), int(c)


def _rebuilt_divisors(n: int) -> tuple:
    """Row n's divisors from numerators rebuilt from lcm, the harmonic sums and
    C(2n, n), by plain gcds with L, L 4^n, L Lh 4^n and L^2 4^n; E[Z^2]'s
    numerator over L^2 4^n is divided by W = L/Lh first."""
    m, k, lcm, lh, a, c = _rebuilt(n)
    lsq, aa = lcm * lcm, a * a
    cubic = 32 * n * m * k * lcm - ((6 * m * a + 16 * m * lcm) << 2 * n)
    rest = 20 * m * a * lcm + (16 * m * m + 64 * m) * lsq
    second = ((4 * m * (m + 1) * (aa - c) + rest) << 2 * n) - 128 * n * m * k * lsq
    var = second - (4 * m * m * aa << 2 * n)
    second_w, left = divmod(second, lcm // lh)
    assert left == 0, n
    return (
        math.gcd(2 * m * a, lcm),
        math.gcd(cubic, lcm << 2 * n),
        math.gcd(second_w, lcm * lh << 2 * n),
        math.gcd(var, lsq << 2 * n),
    )


def test_carried_products_give_the_divisors_of_rebuilt_ones():
    # the worker steps L, A, K L, K L^2, K L Lh and, times 4^n, L, L^2, L Lh,
    # A, C, A L, A Lh, A^2 and (A^2 - C)/W from row to row, and takes its odd
    # gcds on the 4^n-free heads of E[Z^2] and Var[Z] with moduli cut by F1-F3;
    # here each row rebuilds the whole numerators
    assert list(zagreb._square_divisors(400)) == [_rebuilt_divisors(n) for n in range(1, 401)]


def test_carried_products_give_the_divisors_of_rebuilt_ones_where_the_lcm_grows():
    # past 400, where Lh grows at the LH_GROWTH_ROWS, L gains 2003 at n = 2004
    # and a power of two at n = 2049
    wanted = (*LH_GROWTH_ROWS, 2003, 2004, 2048, 2049)
    rows = itertools.islice(zagreb._square_divisors(max(wanted)), min(wanted) - 1, None)
    got = {n: row for n, row in enumerate(rows, start=min(wanted)) if n in wanted}
    assert got == {n: _rebuilt_divisors(n) for n in wanted}


def test_w_facts_hold_on_rebuilt_integers():
    # F1-F3 of the module docstring, on integers rebuilt by an independent
    # route: W = L/Lh divides A^2 - C (F2) and is prime to A (F1), and the
    # odd gcds the worker takes with M = odd(Lh) gcd(m, odd(W)) and with
    # odd(Lh) odd(L) equal those with the whole odd denominators (F3)
    for n in (*range(1, 401), *LH_GROWTH_ROWS):
        m, k, lcm, lh, a, c = _rebuilt(n)
        w, odd_lh, odd_l = lcm // lh, _odd(lh), _odd(lcm)
        assert (a * a - c) % w == 0, n
        assert math.gcd(a, _odd(w)) == 1, n
        y = 4 * m * (m + 1) * (a * a - c) + 20 * m * a * lcm
        y_var = y - 4 * m * m * a * a
        modulus = odd_lh * math.gcd(m, _odd(w))
        assert math.gcd(2 * m * a, modulus) == math.gcd(2 * m * a, odd_l), n
        assert math.gcd(y_var, modulus) == math.gcd(y_var, odd_l), n
        # E[Z^2]'s numerator over L Lh 4^n
        second_w = ((y // w + (16 * m * m + 64 * m) * lcm * lh) << 2 * n) - 128 * n * m * k * lcm * lh
        assert math.gcd(y // w, odd_lh * odd_l) == _odd(math.gcd(second_w, lcm * lh)), n


def test_mean_denominators_share_their_odd_parts():
    # E[Y_n] + 3 E[Z_n] = 32 B_n - 16 (n-1) is dyadic, which lets the worker
    # take E[Y]'s divisor from E[Z]'s; checked here on the binary-splitting
    # scalars, not on the row recurrence
    for n in range(2, 401):
        assert _odd(cubic_mean(n).denominator) == _odd((3 * zagreb_mean(n)).denominator), n


def test_lcm_growth_is_the_ratio_of_consecutive_lcms():
    previous = 1
    for n in range(1, 3001):
        current = math.lcm(previous, n)
        assert zagreb._lcm_growth(n) == current // previous, n
        previous = current


@pytest.mark.parametrize("one", [1, Decimal(1)])
def test_exact_division_raises_on_a_remainder(one):
    with decimal.localcontext(zagreb._EXACT):
        assert zagreb._exact_div(12 * one, 4) == 3
        assert type(zagreb._exact_div(12 * one, 4)) is type(one)
        with pytest.raises(decimal.Inexact, match="remainder"):
            zagreb._exact_div(13 * one, 4)


def test_exact_shift_raises_on_a_dropped_bit():
    assert zagreb._exact_shift(5 << 12, 12) == 5
    assert zagreb._exact_shift(-5 << 12, 12) == -5
    assert zagreb._exact_shift(0, 12) == 0
    for low in (1, 1 << 11):  # a set bit anywhere below 2n
        for num in ((5 << 12) + low, (-5 << 12) - low):
            with pytest.raises(decimal.Inexact, match="set bit"):
                zagreb._exact_shift(num, 12)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the square-divisor worker is forked"
)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError where the body would hang, as a deadlocked worker would make it."""

    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@needs_fork
@pytest.mark.parametrize("n_max", [1, 2, 3, 64, 65, 600])
def test_piped_and_in_process_divisors_give_equal_rows(table_cores, n_max):
    # 64 rows are one block from the worker, 65 two
    piped = table_cores(1)
    in_process = list(moment_rows(n_max, exact=True))
    assert piped == []  # one core: no worker
    table_cores(2)
    assert list(moment_rows(n_max, exact=True)) == in_process
    assert len(piped) == 1
    assert len(in_process) == n_max


@needs_fork
def test_the_worker_lives_from_the_first_row_to_the_close(table_cores):
    table_cores(2)
    rows = moment_rows(RATIONAL_CAP)
    assert multiprocessing.active_children() == []  # nothing starts before the first next()
    with _deadline(30):
        assert next(rows)[0] == 1
        assert len(multiprocessing.active_children()) == 1
        rows.close()  # the worker is still far from row 10^4
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("death,code", [("raise", 1), ("kill", -signal.SIGKILL)])
def test_a_worker_that_dies_fails_the_table(monkeypatch, table_cores, death, code):
    square_divisors = zagreb._square_divisors

    def dying(n_max):  # patched before the fork, so the worker runs it
        yield from itertools.islice(square_divisors(n_max), 100)
        if death == "raise":
            raise ArithmeticError("injected")
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(zagreb, "_square_divisors", dying)
    table_cores(2)
    with _deadline(30), pytest.raises(RuntimeError, match=rf"worker exited with code {code} after 64 of 300 rows"):
        list(moment_rows(300, exact=True))
    assert multiprocessing.active_children() == []


def test_zagreb_mean_small():
    assert zagreb_mean(1) == 0
    assert zagreb_mean(2) == 2
    assert zagreb_mean(3) == 6
    assert zagreb_mean(4) == 11


def test_zagreb_mean_closed_form_identity():
    for n in (1, 2, 7, 50, 400):
        assert zagreb_mean(n) == 2 * (n - 1) * harmonic(n - 1)


def test_cubic_mean_small():
    assert cubic_mean(1) == 0
    assert cubic_mean(2) == 2
    assert cubic_mean(3) == 10
    assert cubic_mean(4) == 24


def test_cubic_closed_vs_recurrence():
    approx = list(moment_rows(150, exact=False))
    for n in (2, 3, 10, 80, 150):
        assert approx[n - 1][2] == pytest.approx(float(cubic_mean(n)), rel=1e-9)


def test_second_moment_small():
    assert zagreb_second_moment(2) == 4
    assert zagreb_second_moment(3) == 36
    assert zagreb_second_moment(4) == 122


def test_variance_small():
    var_z = [row[4] for row in moment_rows(4, exact=True)]
    assert var_z[1:] == [(0, 1), (0, 1), (1, 1)]


def test_series_invariants():
    for n, mean_z, mean_y, second_z, var_z in moment_rows(60, exact=True):
        ez, ey, ez2 = _fraction(mean_z), _fraction(mean_y), _fraction(second_z)
        assert ez == 2 * (n - 1) * harmonic(n - 1)
        assert ez2 >= ez**2
        assert _fraction(var_z) == ez2 - ez**2
        if n >= 2:
            assert ey >= ez


def test_series_resolves_exact_and_rejects_an_empty_table():
    # exact=None: exact rows up to RATIONAL_CAP, float rows beyond
    assert type(next(moment_rows(3))[1]) is tuple
    assert type(next(moment_rows(RATIONAL_CAP))[1]) is tuple
    assert type(next(moment_rows(RATIONAL_CAP + 1))[1]) is float
    with pytest.raises(ValueError, match="moment_rows requires n_max >= 1, got 0"):
        moment_rows(0)


def test_float_series_tracks_exact():
    exact = list(moment_rows(200, exact=True))
    approx = list(moment_rows(200, exact=False))
    for n in (50, 125, 200):
        assert approx[n - 1][3] == pytest.approx(float(_fraction(exact[n - 1][3])), rel=1e-12)


def test_weak_law_constants():
    assert Z_WEAK_LIMIT == 2.0
    assert Y_WEAK_LIMIT == pytest.approx(32 / math.sqrt(math.pi), rel=1e-15)


def test_martingale_transform_known_values():
    # the map Z -> M gives M_2 = M_3 = 0 and M_4 = +-2/3 for Z_4 = 12 or 10
    for n in (2, 3):
        assert enumerate_statistic(n, Kernel.DEGREE, "martingale") == {0: 1}
    assert enumerate_statistic(4, Kernel.DEGREE, "martingale") == {Fraction(-2, 3): Fraction(1, 2), Fraction(2, 3): Fraction(1, 2)}


def test_martingale_normalized_form():
    # M_n = (Z_n - E[Z_n]) / ((n-1)/2) exactly, outcome by outcome
    for n in range(2, 9):
        zlaw = enumerate_statistic(n, Kernel.DEGREE, "zagreb")
        mlaw = enumerate_statistic(n, Kernel.DEGREE, "martingale")
        expected = {(z - zagreb_mean(n)) / Fraction(n - 1, 2): p for z, p in zlaw.items()}
        assert list(mlaw.items()) == list(expected.items())


def test_diff_bound_values():
    assert martingale_diff_bound(3) == pytest.approx(14.0, rel=1e-14)
    assert martingale_diff_bound(4) == pytest.approx(31 / 3, rel=1e-14)
    assert martingale_diff_bound(10**6) == pytest.approx(6.0, abs=1e-4)
    with pytest.raises(ValueError):
        martingale_diff_bound(2)


def test_diff_bound_strictly_decreasing():
    values = [martingale_diff_bound(j) for j in range(3, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_conditional_variance_targets():
    # limit of E[M_n^2] and slope of the conditional variance V_n / n
    assert M_SECOND_MOMENT_LIMIT == pytest.approx(64 - 8 * math.pi**2 / 3, rel=1e-15)
    assert M_SECOND_MOMENT_LIMIT == pytest.approx(4 * VAR_Z_COEFFICIENT, rel=1e-12)
