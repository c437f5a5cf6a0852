import math
from fractions import Fraction

import pytest

from port_trees.oracle import enumerate_statistic
from port_trees.special import harmonic
from port_trees.tree import Kernel
from port_trees.zagreb import (
    M_SECOND_MOMENT_LIMIT,
    VAR_Z_COEFFICIENT,
    Y_WEAK_LIMIT,
    Z_WEAK_LIMIT,
    cubic_mean,
    martingale_diff_bound,
    moment_series,
    zagreb_mean,
    zagreb_second_moment,
    zagreb_variance_asymptotic,
)


def _recurrence(n_max: int) -> list:
    """(E[Z_n], E[Y_n], E[Z_n^2]) for n = 1 .. n_max from the coupled one-step
    recurrences, the reference the closed forms are checked against.

    A new node attaches to a node of degree d with probability d/(2(n-2)),
    which adds 2d + 2 to Z and 3d^2 + 3d + 2 to Y.  Hence
    E[Z_n | F_{n-1}] = (n-1)/(n-2) Z_{n-1} + 2,
    E[Y_n | F_{n-1}] = (1 + 3/(2(n-2))) Y_{n-1} + 3/(2(n-2)) Z_{n-1} + 2, where
    E[Z_{n-1}] = 2(n-2) H_{n-2} turns the Z term into 3 H_{n-2}, and
    E[Z_n^2 | F_{n-1}] = (n Z_{n-1}^2 + 2 Y_{n-1} + 4(n-1) Z_{n-1})/(n-2) + 4.
    """
    rows = [(Fraction(0),) * 3, (Fraction(2), Fraction(2), Fraction(4))]
    ez, ey, ez2 = rows[-1]
    h = Fraction(1)  # H_{n-2}
    for n in range(3, n_max + 1):
        ez2 = (n * ez2 + 2 * ey + 4 * (n - 1) * ez) / (n - 2) + 4
        ey = (2 * n - 1) * ey / (2 * (n - 2)) + 3 * h + 2
        ez = (n - 1) * ez / (n - 2) + 2
        h += Fraction(1, n - 1)
        rows.append((ez, ey, ez2))
    return rows


def test_closed_forms_equal_the_recurrence():
    reference = _recurrence(400)
    series = moment_series(400, exact=True)
    assert list(zip(series.mean_z, series.mean_y, series.second_z)) == reference
    assert (zagreb_mean(1), cubic_mean(1)) == reference[0][:2]
    for n in range(2, 401):
        assert (zagreb_mean(n), cubic_mean(n), zagreb_second_moment(n)) == reference[n - 1]


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
    approx = moment_series(150, exact=False)
    for n in (2, 3, 10, 80, 150):
        assert approx.mean_y[n - 1] == pytest.approx(float(cubic_mean(n)), rel=1e-9)


def test_second_moment_small():
    assert zagreb_second_moment(2) == 4
    assert zagreb_second_moment(3) == 36
    assert zagreb_second_moment(4) == 122


def test_variance_small():
    series = moment_series(4, exact=True)
    assert series.var_z(4) == 1
    assert series.var_z(3) == 0
    assert series.var_z(2) == 0


def test_series_invariants():
    series = moment_series(60, exact=True)
    for n in range(1, 61):
        assert series.mean_z[n - 1] == 2 * (n - 1) * harmonic(n - 1)
        assert series.second_z[n - 1] >= series.mean_z[n - 1] ** 2
        if n >= 2:
            assert series.mean_y[n - 1] >= series.mean_z[n - 1]


def test_float_series_tracks_exact():
    exact = moment_series(200, exact=True)
    approx = moment_series(200, exact=False)
    for n in (50, 125, 200):
        assert approx.second_z[n - 1] == pytest.approx(float(exact.second_z[n - 1]), rel=1e-12)


def test_variance_asymptotic_report():
    report = zagreb_variance_asymptotic(4)
    assert report["variance_exact"] == pytest.approx(1.0, rel=1e-12)
    assert VAR_Z_COEFFICIENT == pytest.approx(16 - 2 * math.pi**2 / 3, rel=1e-15)


def test_weak_law_constants():
    assert Z_WEAK_LIMIT == 2.0
    assert Y_WEAK_LIMIT == pytest.approx(32 / math.sqrt(math.pi), rel=1e-15)


def test_martingale_transform_known_values():
    # the map Z -> M gives M_2 = M_3 = 0 and M_4 = +-2/3 for Z_4 = 12 or 10
    for n in (2, 3):
        assert enumerate_statistic(n, Kernel.DEGREE, "martingale").outcomes == {0: 1}
    dist = enumerate_statistic(4, Kernel.DEGREE, "martingale")
    assert dist.outcomes == {Fraction(-2, 3): Fraction(1, 2), Fraction(2, 3): Fraction(1, 2)}


def test_martingale_normalized_form():
    # M_n = (Z_n - E[Z_n]) / ((n-1)/2) exactly, outcome by outcome
    for n in range(2, 9):
        zlaw = enumerate_statistic(n, Kernel.DEGREE, "zagreb").outcomes
        mlaw = enumerate_statistic(n, Kernel.DEGREE, "martingale").outcomes
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
