from fractions import Fraction

import pytest


@pytest.fixture(scope="session")
def zagreb_recurrence() -> list:
    """(E[Z_n], E[Y_n], E[Z_n^2]) for n = 1 .. 400 from the coupled one-step
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
    for n in range(3, 401):
        ez2 = (n * ez2 + 2 * ey + 4 * (n - 1) * ez) / (n - 2) + 4
        ey = (2 * n - 1) * ey / (2 * (n - 2)) + 3 * h + 2
        ez = (n - 1) * ez / (n - 2) + 2
        h += Fraction(1, n - 1)
        rows.append((ez, ey, ez2))
    return rows
