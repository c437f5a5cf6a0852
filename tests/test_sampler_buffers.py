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
    "j2-dt3": "aefb3b454a15aab4e4bedbd4fc2a77984bfd4a08276c1cc2eea21894da4a755e",
    "j5-dt2": "6a69abf2353a20d4571f03d3ddfc31ca599f94eac2c01fb79392eacfa29e59b1",
}
# (n, reps) of a chunk's slot draw: no slot at all, the smallest trees,
# odd counts past a run of 64-bit words (9 and 29,997 slots), then
# chunks of the benchmark's shapes
DRAW_SHAPES = [(2, 3), (3, 1), (3, 40), (4, 1), (4, 40), (5, 3), (10001, 3), (20000, 6), (10000, 12), (5000, 25)]


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


def _replay(rng, low, ranges, thresholds, shape):
    """The slot draw's spec, one entry at a time on Python ints: entry k
    takes the k-th uint32 of numpy's 64-bit words, low half first; then,
    round by round, every entry whose low half x * r % 2**32 is below
    its threshold draws one fresh uint32, in ascending order.  Returns
    the slots, the kept uint32s and each entry's count of draws."""
    reps, cols = shape
    size = reps * cols
    words = rng.integers(0, 2**64, size=(size + 1) // 2, dtype=np.uint64).tolist()
    x = [w >> shift & 0xFFFFFFFF for w in words for shift in (0, 32)][:size]
    r, t = ranges.tolist(), thresholds.tolist()
    low = np.broadcast_to(low, (reps, 1)).ravel().tolist()
    draws = [1] * size
    redo = [k for k in range(size) if x[k] * r[k % cols] % 2**32 < t[k % cols]]
    while redo:
        for k in redo:
            x[k] = int(rng.integers(0, 2**32, dtype=np.uint32))
            draws[k] += 1
        redo = [k for k in redo if x[k] * r[k % cols] % 2**32 < t[k % cols]]
    slots = [low[k // cols] + (x[k] * r[k % cols] >> 32) for k in range(size)]
    return tuple(np.array(a, dtype=np.int64).reshape(shape) for a in (slots, x, draws))


def _generators(seed, carried, count=3):
    """``count`` generators of one seed, each holding the other half of
    its last 64-bit output if ``carried``."""
    gens = [np.random.default_rng(seed) for _ in range(count)]
    if carried:
        for g in gens:
            g.integers(0, 2**32, dtype=np.uint32)
            assert g.bit_generator.state["has_uint32"] == 1
    return gens


def _draw(rng, low, ranges, thresholds, shape):
    out = np.empty(shape, dtype=np.int64)
    return _bounded_draw(rng, low, ranges, thresholds, out, np.empty(shape, dtype=np.uint32))


@pytest.mark.parametrize("carried", [False, True], ids=["aligned", "carried-half"])
@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("n,reps", DRAW_SHAPES)
def test_bounded_draw_is_numpys(n, reps, kernel, carried):
    first_slot, ranges, thresholds = _slot_bounds(n, kernel)
    ranges, thresholds = ranges[: n - 2], thresholds[: n - 2]
    shape = (reps, n - 2)
    compared = 0
    for seed in (0, 7):
        rng, twin, numpy_rng = _generators(seed, carried)
        got = _draw(rng, first_slot, ranges, thresholds, shape)
        assert np.all(got >= first_slot) and np.all(got < first_slot + ranges.astype(np.int64))
        np.testing.assert_array_equal(got, _replay(twin, first_slot, ranges, thresholds, shape)[0])
        assert rng.bit_generator.state == twin.bit_generator.state
        if carried:
            continue
        # numpy's own bounded draw takes one uint32 per slot unless it rejects
        # one; with no rejection and no carried half, the slots are numpy's
        ends = 2 * np.arange(1, n - 1, dtype=np.int32)
        expected = numpy_rng.integers(first_slot, ends, size=shape, dtype=np.int32)
        plain = np.random.default_rng(seed)
        plain.integers(0, 2**32, size=reps * (n - 2), dtype=np.uint32)
        if plain.bit_generator.state == numpy_rng.bit_generator.state:
            np.testing.assert_array_equal(got, expected)
            compared += 1
    assert carried or compared  # each aligned shape meets numpy without a rejection in one seed


@pytest.mark.parametrize("carried", [False, True], ids=["aligned", "carried-half"])
@pytest.mark.parametrize("kernel", list(Kernel))
def test_bounded_draw_repairs_rejections(kernel, carried):
    # r = 3 * 2**29 has threshold 2**30: the low half of x * r is
    # (3x mod 8) * 2**29, so a quarter of all draws are rejected
    reps, cols = 40, 50
    ranges = np.full(cols, 3 << 29, dtype=np.uint32)
    thresholds = np.negative(ranges) % ranges
    assert np.all(thresholds == 2**30)
    low = 2 * np.arange(0, reps * cols, cols)[:, None] - kernel.root_gaps  # per-row lows, as in _draw_parents
    for seed in range(3):
        rng, twin = _generators(seed, carried, count=2)
        got = _draw(rng, low, ranges, thresholds, (reps, cols))
        slots, kept, draws = _replay(twin, low, ranges, thresholds, (reps, cols))
        np.testing.assert_array_equal(got, slots)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert np.all(kept * (3 << 29) % 2**32 >= 2**30)
        assert np.all(got >= low) and np.all(got < low + (3 << 29))
        assert draws.max() >= 3
