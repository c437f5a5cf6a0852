from fractions import Fraction

import pytest

from port_trees.degree import degree_mean, degree_pmf_recurrence, degree_variance
from port_trees.oracle import enumerate_statistic, history_count, oracle_moment
from port_trees.special import harmonic
from port_trees.tree import Kernel
from port_trees.zagreb import zagreb_mean, cubic_mean, zagreb_second_moment


def test_history_counts():
    assert history_count(2, Kernel.GAP) == 1
    assert history_count(4, Kernel.GAP) == 15
    assert history_count(9, Kernel.GAP) == 3 * 5 * 7 * 9 * 11 * 13 * 15
    assert history_count(4, Kernel.DEGREE) == 8
    assert history_count(8, Kernel.DEGREE) == 2 * 4 * 6 * 8 * 10 * 12


@pytest.mark.parametrize("kernel", list(Kernel))
def test_history_count_is_the_dfs_leaf_weight(dfs_weights, kernel):
    for n in range(2, 9):
        assert history_count(n, kernel) == sum(dfs_weights(n, kernel, "zagreb").values())


@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("n", range(2, 9))
def test_multiset_dp_equals_the_history_dfs(enumerate_by_dfs, n, kernel):
    # every label, value for value and in the same order
    for label in ("zagreb", "cubic", "zagreb2", "martingale", "root-degree", *(f"degree:{j}" for j in range(1, n + 1))):
        assert list(enumerate_statistic(n, kernel, label).items()) == list(enumerate_by_dfs(n, kernel, label).items())


def test_unique_two_node_tree():
    for kernel in Kernel:
        assert enumerate_statistic(2, kernel, "zagreb") == {2: Fraction(1)}


def test_root_degree_n4_gap():
    law = enumerate_statistic(4, Kernel.GAP, "root-degree")
    assert law == {1: Fraction(1, 5), 2: Fraction(2, 5), 3: Fraction(2, 5)}


def test_zagreb_n4_degree_kernel():
    law = enumerate_statistic(4, Kernel.DEGREE, "zagreb")
    assert law == {10: Fraction(1, 2), 12: Fraction(1, 2)}
    assert oracle_moment(law, 1) == 11
    assert oracle_moment(law, 2) == 122


def test_degree_moment_n3_gap():
    law = enumerate_statistic(3, Kernel.GAP, "degree:1")
    assert oracle_moment(law, 1) == Fraction(5, 3)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_root_degree_is_degree_1(kernel):
    for n in (2, 5, 7):
        root = enumerate_statistic(n, kernel, "root-degree")
        assert list(root.items()) == list(enumerate_statistic(n, kernel, "degree:1").items())


@pytest.mark.parametrize("kernel", list(Kernel))
def test_probabilities_sum_to_one(kernel):
    for n in (2, 4, 6):
        for stat in ("zagreb", "cubic", "zagreb2", "root-degree", "martingale"):
            assert sum(enumerate_statistic(n, kernel, stat).values()) == 1


def test_oracle_matches_degree_recurrence():
    for n in range(2, 8):
        for j in range(1, n + 1):
            assert enumerate_statistic(n, Kernel.GAP, f"degree:{j}") == degree_pmf_recurrence(n, j, exact=True)


def test_oracle_matches_degree_moment_formulas():
    for n in range(2, 8):
        for j in range(1, n + 1):
            law = enumerate_statistic(n, Kernel.GAP, f"degree:{j}")
            mean = oracle_moment(law, 1)
            var = oracle_moment(law, 2) - mean * mean
            assert abs(float(mean) - degree_mean(n, j)) < 1e-10
            assert abs(float(var) - degree_variance(n, j)) < 1e-10


def test_oracle_matches_zagreb_recurrences():
    for n in range(2, 8):
        zlaw = enumerate_statistic(n, Kernel.DEGREE, "zagreb")
        ylaw = enumerate_statistic(n, Kernel.DEGREE, "cubic")
        assert oracle_moment(zlaw, 1) == zagreb_mean(n)
        assert oracle_moment(zlaw, 2) == zagreb_second_moment(n)
        assert oracle_moment(ylaw, 1) == cubic_mean(n)


def test_kernel_distinction_regression():
    # the gap-oriented model has a different Zagreb mean; this difference
    # is permanent and intentional
    gap_mean = oracle_moment(enumerate_statistic(4, Kernel.GAP, "zagreb"), 1)
    assert gap_mean == Fraction(166, 15)
    assert gap_mean != zagreb_mean(4)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_zagreb2_and_martingale_are_images_of_zagreb(kernel):
    for n in range(2, 9):
        zlaw = enumerate_statistic(n, kernel, "zagreb")
        h = harmonic(n - 1)
        squares = {z * z: p for z, p in zlaw.items()}
        martingale = {Fraction(2 * z, n - 1) - 4 * h: p for z, p in zlaw.items()}
        assert list(enumerate_statistic(n, kernel, "zagreb2").items()) == list(squares.items())
        assert list(enumerate_statistic(n, kernel, "martingale").items()) == list(martingale.items())


def test_martingale_statistic_is_centered():
    assert oracle_moment(enumerate_statistic(6, Kernel.DEGREE, "martingale"), 1) == 0


def test_cap_and_argument_validation():
    with pytest.raises(ValueError):
        enumerate_statistic(10, Kernel.GAP, "zagreb")
    with pytest.raises(ValueError, match="expected degree:J with an integer J"):
        enumerate_statistic(5, Kernel.GAP, "degree")  # no node
    for label in ("degree:0", "degree:6"):
        with pytest.raises(ValueError, match="node J must satisfy 1 <= J <= n = 5"):
            enumerate_statistic(5, Kernel.GAP, label)
    with pytest.raises(ValueError, match="unknown statistic"):
        enumerate_statistic(5, Kernel.GAP, "wiener")
