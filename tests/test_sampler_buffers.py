"""The forest sampler's reused chunk buffers: the bytes it draws are
pinned, no result is a view of a buffer, and no buffer outlives a call."""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

from port_trees import montecarlo
from port_trees.montecarlo import _bounded_draw, _grow_chunk, _slot_bounds, grow_forest
from port_trees.poisson import simulate_gap_tree
from port_trees.tree import Kernel, parse_statistic


def _stats(n, martingale=False):
    return ("zagreb", "cubic", "degree:1", "degree:5", f"degree:{n}") + ("martingale",) * martingale


# (n, replicates, kernel, keyword arguments) of grow_forest, seed 23
FOREST_CASES = {
    "degree-martingale-labels": (400, 700, Kernel.DEGREE, {"stats": _stats(400, martingale=True)}),
    "gap-labels": (400, 700, Kernel.GAP, {"stats": _stats(400)}),
    "partial-last-chunk": (300, 1000, Kernel.DEGREE, {"stats": _stats(300, martingale=True), "chunk_size": 70}),
    # 7 x 399 slots a chunk, then one row: odd draw counts
    "odd-slot-counts": (401, 99, Kernel.DEGREE, {"stats": _stats(401, martingale=True), "chunk_size": 7}),
}
# sha256 of each case's arrays, taken from the sampler before it reused
# buffers; odd-slot-counts from the sampler before it drew 64-bit words
FOREST_SHA256 = {
    "degree-martingale-labels": "2b2ae006715d0315fa2d014fc486496eff3f4f502e03226e898b37ae8ebec174",
    "gap-labels": "7845684f354f7b7e578f27158ad1ec10d6e3a74eda33f29c8ce3a86124d1b867",
    "partial-last-chunk": "9b93e1a79b197136c0b157512c576b3d5e2cb683ac1e65361456161613c591a9",
    "odd-slot-counts": "89c946aec6f9c9dddcb72ece62b7eef4b873e98aad1626ac58b3a939229ea6a2",
}
# (j, dt, size) of simulate_gap_tree, seed 29
GAP_TREE_CASES = {"j2-dt3": (2, 3.0, 600), "j5-dt2": (5, 2.0, 300)}
GAP_TREE_SHA256 = {
    "j2-dt3": "f0ee385268f2da0cda72e8336dc0ff0a16e16f57bd72f5362e2e43e5be8cd3fb",
    "j5-dt2": "1b740136e97b491b0ac8ed771e890c202ea8e2a9da77aee2f9f477458ecac98f",
}
# (n, reps) of a chunk's slot draw: no slot at all, the smallest trees,
# odd counts past a run of 64-bit words (9 and 29,997 slots), then
# chunks of the benchmark's shapes
DRAW_SHAPES = [(2, 3), (3, 1), (3, 40), (4, 1), (4, 40), (5, 3), (10001, 3), (20000, 6), (10000, 12), (5000, 25)]
# each (kernel, carried half) meets at least one Lemire rejection in
# these seeds' 10000 x 12 draws; gap seed 2 meets two
REJECTION_SEEDS = range(10)


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _forest_arrays(extra):
    """Z, Y, then the other samples by sorted label."""
    rest = sorted(set(extra) - {"zagreb", "cubic"})
    return [extra["zagreb"], extra["cubic"]] + [extra[k] for k in rest]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(FOREST_CASES))
def test_forest_bytes_are_pinned(case, workers, monkeypatch):
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
    n, replicates, kernel, flags = FOREST_CASES[case]
    result = grow_forest(n, replicates, kernel, 23, **flags)
    assert _digest(_forest_arrays(result.extra)) == FOREST_SHA256[case]


@pytest.mark.parametrize("case", sorted(GAP_TREE_CASES))
def test_gap_tree_bytes_are_pinned(case):
    j, dt, size = GAP_TREE_CASES[case]
    w = simulate_gap_tree(j, dt, np.random.default_rng(29), size)
    assert _digest([w]) == GAP_TREE_SHA256[case]


def test_workers_never_share_a_buffer(monkeypatch):
    # more workers than cores, 40 small chunks and a short switch
    # interval: two threads writing one buffer would change the bytes
    n, replicates, flags = 200, 400, {"stats": _stats(200, martingale=True), "chunk_size": 10}
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    expected = _digest(_forest_arrays(grow_forest(n, replicates, Kernel.DEGREE, 31, **flags).extra))
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _digest(_forest_arrays(grow_forest(n, replicates, Kernel.DEGREE, 31, **flags).extra)) == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("case", sorted(FOREST_CASES))
def test_forest_results_survive_the_next_call(case):
    n, replicates, kernel, flags = FOREST_CASES[case]
    first = grow_forest(n, replicates, kernel, 1, **flags).extra
    kept = [a.copy() for a in _forest_arrays(first)]
    grow_forest(n, replicates, kernel, 2, **flags)
    for a, b in zip(_forest_arrays(first), kept):
        assert a.tobytes() == b.tobytes()


def test_chunk_results_survive_the_next_chunk():
    # two chunks through the same buffers: the first chunk's arrays must
    # not be views of them
    n, reps = 60, 9
    slots, keys = np.empty(reps * n, dtype=np.int32), np.empty(reps * (n - 1), dtype=np.int64)
    bounds, martingale = _slot_bounds(n, Kernel.DEGREE), montecarlo._martingale_constants(n)
    stats = {label: parse_statistic(label, n) for label in _stats(n, martingale=True)}
    first = _grow_chunk(n, reps, bounds, np.random.default_rng(1), stats, martingale, slots, keys)
    kept = [a.copy() for a in _forest_arrays(first)]
    _grow_chunk(n, reps, bounds, np.random.default_rng(2), stats, martingale, slots, keys)
    for a, b in zip(_forest_arrays(first), kept):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        lambda: grow_forest(10000, 200, Kernel.DEGREE, 3, stats=("martingale",)),
        lambda: grow_forest(5000, 300, Kernel.GAP, 3, stats=("degree:10",)),
        lambda: simulate_gap_tree(2, 3.0, np.random.default_rng(3), 600),
    ],
    ids=["martingale", "gap-labels", "gap-tree"],
)
def test_no_buffer_outlives_the_call(call):
    # each call's buffers hold at least 480 kB; its results hold under 10 kB
    call()  # first-call imports and caches are not the call's buffers
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result is not None
    assert after - before < 50_000


def _both_draws(seed, n, reps, kernel, carried):
    """numpy's bounded draw of a chunk's slots and ``_bounded_draw``'s,
    from two generators of one seed, with the generators after each."""
    first_slot, ranges, thresholds = _slot_bounds(n, kernel)
    numpy_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if carried:  # the generator holds the other half of its last 64-bit output
        for g in (numpy_rng, rng):
            g.integers(0, 2**32, dtype=np.uint32)
            assert g.bit_generator.state["has_uint32"] == 1
    ends = 2 * np.arange(1, n - 1, dtype=np.int32)
    expected = numpy_rng.integers(first_slot, ends, size=(reps, n - 2), dtype=np.int32)
    got = np.empty((reps, n - 2), dtype=np.int64)
    _bounded_draw(rng, first_slot, ranges, thresholds, got, np.empty((reps, n - 2), dtype=np.uint32))
    return expected, got, numpy_rng, rng


@pytest.mark.parametrize("carried", [False, True], ids=["aligned", "carried-half"])
@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("n,reps", DRAW_SHAPES)
def test_bounded_draw_is_numpys(n, reps, kernel, carried):
    for seed in (0, 7):
        expected, got, numpy_rng, rng = _both_draws(seed, n, reps, kernel, carried)
        np.testing.assert_array_equal(got, expected)
        assert rng.bit_generator.state == numpy_rng.bit_generator.state


@pytest.mark.parametrize("carried", [False, True], ids=["aligned", "carried-half"])
@pytest.mark.parametrize("kernel", list(Kernel))
def test_bounded_draw_repairs_rejections(kernel, carried):
    n, reps = 10000, 12
    rejected = 0
    for seed in REJECTION_SEEDS:
        expected, got, numpy_rng, rng = _both_draws(seed, n, reps, kernel, carried)
        np.testing.assert_array_equal(got, expected)
        assert rng.bit_generator.state == numpy_rng.bit_generator.state
        # one uint32 per slot, unless numpy rejected one and drew again
        plain = np.random.default_rng(seed)
        plain.integers(0, 2**32, size=int(carried) + reps * (n - 2), dtype=np.uint32)
        rejected += plain.bit_generator.state != numpy_rng.bit_generator.state
    assert rejected >= 1
