"""The two attachment kernels, as realized by the forest sampler."""

import math

import numpy as np
import pytest

from port_trees.montecarlo import grow_forest
from port_trees.oracle import enumerate_statistic
from port_trees.tree import STATISTICS, Kernel, parse_statistic


def _within_4se(hits, p):
    return abs(float(np.mean(hits)) - p) <= 4 * math.sqrt(p * (1 - p) / hits.size)


def test_first_insertion_deterministic():
    for kernel in Kernel:
        res = grow_forest(2, 50, kernel, seed=0, stats=("zagreb", "cubic", "degree:1")).extra
        assert (res["zagreb"] == 2).all() and (res["cubic"] == 2).all()
        assert (res["degree:1"] == 1).all()


def test_second_insertion_probabilities_gap():
    # gap weights at n=2 are 2 (root) and 1 (node 2) out of 3
    res = grow_forest(3, 200_000, Kernel.GAP, seed=123, stats=("degree:1",))
    assert _within_4se(res.extra["degree:1"] == 2, 2 / 3)


def test_second_insertion_probabilities_degree():
    # degree weights at n=2 are 1 and 1 out of 2
    res = grow_forest(3, 200_000, Kernel.DEGREE, seed=321, stats=("degree:1",))
    assert _within_4se(res.extra["degree:1"] == 2, 1 / 2)


@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("n", [2, 17, 500])
def test_growth_invariants(kernel, n):
    res = grow_forest(n, 64, kernel, seed=n, stats=("zagreb", "cubic", "degree:1", f"degree:{n}"))
    z, y, root = res.extra["zagreb"], res.extra["cubic"], res.extra["degree:1"]
    assert (res.extra[f"degree:{n}"] == 1).all()  # the newest node is a leaf
    assert ((root >= 1) & (root <= n - 1)).all()
    # the degrees sum to 2(n-1) and d^3 = d (mod 6), d^2 = d (mod 2)
    assert (z % 2 == 0).all()
    assert (y % 6 == 2 * (n - 1) % 6).all()
    # every other node has degree >= 1; the star bounds Z from above
    assert (z >= root**2 + n - 1).all() and (y >= root**3 + n - 1).all()
    assert (z <= n * (n - 1)).all()


def test_gap_insertion_frequencies_at_n5():
    # the per-node degree laws at n = 6 carry the pick frequencies of every
    # step up to 5 -> 6, which must match (outdeg+1)/(2m-1)
    n, reps = 6, 200_000
    res = grow_forest(n, reps, Kernel.GAP, seed=7, stats=tuple(f"degree:{v}" for v in range(1, n + 1)))
    for v in range(1, n + 1):
        degrees = res.extra[f"degree:{v}"]
        law = enumerate_statistic(n, Kernel.GAP, f"degree:{v}")
        for d, p in law.items():
            assert _within_4se(degrees == d, float(p))


def test_identical_seed_identical_tree():
    stats = ("zagreb", "cubic", "degree:1", "degree:2", "degree:10", "degree:150")
    grown = [grow_forest(300, 20, Kernel.GAP, seed=99, stats=stats) for _ in range(2)]
    for key in stats:
        assert np.array_equal(grown[0].extra[key], grown[1].extra[key])


def test_kernel_parse():
    assert Kernel.parse("gap") is Kernel.GAP
    assert Kernel.parse("degree") is Kernel.DEGREE
    with pytest.raises(ValueError):
        Kernel.parse("uniform")


def test_parse_statistic():
    assert parse_statistic("root-degree", 5) == parse_statistic("degree:1", 5) == ("degree", 1)
    assert parse_statistic("degree:5", 5) == ("degree", 5)
    for label in ("zagreb", "cubic", "zagreb2", "martingale"):
        assert parse_statistic(label, 5) == (label, None)
    assert set(STATISTICS) == {"zagreb", "cubic", "zagreb2", "root-degree", "martingale"}

