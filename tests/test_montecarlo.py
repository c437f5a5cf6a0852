import inspect
import math
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from port_trees import montecarlo
from port_trees.montecarlo import (
    SimulationConfig,
    _bounded_draw,
    _draw_parents,
    _grow_chunk,
    _martingale_constants,
    _slot_bounds,
    _zagreb2,
    grow_forest,
    kde,
    martingale_diagnostics,
    run_experiment,
    summarize,
)
from port_trees.oracle import enumerate_statistic, oracle_moment
from port_trees.special import harmonic
from port_trees.tree import Kernel, parse_statistic
from port_trees.zagreb import M_SECOND_MOMENT_LIMIT, martingale_diff_bound, zagreb_mean


def _within_se(sample_mean, exact, sample_var, count, k=4):
    return abs(sample_mean - exact) <= k * math.sqrt(sample_var / count)


def test_forest_mean_degree_matches_oracle():
    res = grow_forest(3, 100_000, Kernel.GAP, seed=11, stats=("degree:2",))
    vals = res.extra["degree:2"]
    assert _within_se(vals.mean(), 4 / 3, vals.var(ddof=1), vals.size)


def test_forest_mean_zagreb_matches_oracle():
    z = grow_forest(4, 100_000, Kernel.DEGREE, seed=12, stats=("zagreb",)).extra["zagreb"]
    assert _within_se(z.mean(), 11.0, z.var(ddof=1), z.size)


def test_forest_root_degree_law():
    res = grow_forest(4, 100_000, Kernel.GAP, seed=13, stats=("degree:1",))
    root = res.extra["degree:1"]
    for d, p in enumerate_statistic(4, Kernel.GAP, "root-degree").items():
        p_hat = float(np.mean(root == d))
        se = math.sqrt(float(p) * (1 - float(p)) / root.size)
        assert abs(p_hat - float(p)) < 4 * se


@pytest.mark.parametrize("statistic", ["zagreb", "cubic", "root-degree"])
@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_forest_law_matches_oracle(n, kernel, statistic):
    values = grow_forest(n, 100_000, kernel, seed=n, stats=(statistic,)).extra[statistic]
    law = enumerate_statistic(n, kernel, statistic)
    assert set(np.unique(values)) <= set(law)
    for v, p in law.items():
        p_hat = float(np.mean(values == v))
        se = math.sqrt(float(p) * (1 - float(p)) / values.size)
        assert abs(p_hat - float(p)) <= 4 * se  # exact for a degenerate law


def _oracle_stats(n):
    return ["zagreb", "cubic", "root-degree"] + [f"degree:{j}" for j in range(1, n + 1)]


@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("n,statistic", [(n, s) for n in (6, 8) for s in _oracle_stats(n)])
def test_forest_laws_match_oracle_at_6_and_8(n, statistic, kernel):
    # the sampler and the oracle read the same label
    values = grow_forest(n, 100_000, kernel, seed=n, stats=(statistic,)).extra[statistic]
    law = enumerate_statistic(n, kernel, statistic)
    assert set(np.unique(values)) <= set(law)
    for v, p in law.items():
        p_hat = float(np.mean(values == v))
        se = math.sqrt(float(p) * (1 - float(p)) / values.size)
        assert abs(p_hat - float(p)) <= 4 * se


def _replay(parents, n):
    """Insert nodes 2..n one at a time under the given parent labels and
    track degrees, Z, Y and the martingale M_m = 2 Z_m/(m-1) - 4 H_{m-1}
    with scalar arithmetic in the sampler's order of operations."""
    deg = [0] * (n + 1)
    z = y = 0
    h = 1.0  # H_1
    m_prev, max_diff, bound_ok = 0.0, 0.0, True  # M_2 = 0
    for m in range(2, n + 1):
        p = parents[m - 2]
        assert 1 <= p < m
        d = deg[p]
        z += 2 * d + 2
        y += 3 * d * (d + 1) + 2
        deg[p] += 1
        deg[m] = 1
        if m >= 3:
            h += 1.0 / (m - 1)
            m_cur = (2.0 / (m - 1)) * z - 4.0 * h
            diff = abs(m_cur - m_prev)
            max_diff = max(max_diff, diff)
            bound_ok = bound_ok and diff <= martingale_diff_bound(m) + 1e-9
            m_prev = m_cur
    return deg, z, y, m_prev, max_diff, bound_ok


@pytest.mark.parametrize("kernel", list(Kernel))
def test_forest_matches_scalar_replay(kernel):
    n, reps, seed = 40, 6, 9
    parents = _draw_parents(
        n, reps, _slot_bounds(n, kernel), np.random.default_rng(seed),
        np.empty(reps * n, dtype=np.int32), np.empty(reps * (n - 1), dtype=np.int64),
    )
    # same stream: _grow_chunk draws exactly these parents
    labels = ["zagreb", "cubic", "martingale"] + [f"degree:{j}" for j in range(1, n + 1)]
    res = _grow_chunk(
        n, reps, _slot_bounds(n, kernel), np.random.default_rng(seed),
        stats={label: parse_statistic(label, n) for label in labels}, martingale=_martingale_constants(n),
        slots=np.empty(reps * n, dtype=np.int32), keys=np.empty(reps * (n - 1), dtype=np.int64),
    )
    labels = parents - np.arange(reps)[:, None] * n + 1  # flat grid index -> node label
    for r in range(reps):
        deg, z, y, m_n, max_diff, bound_ok = _replay(labels[r].tolist(), n)
        assert res["zagreb"][r] == z
        assert res["cubic"][r] == y
        assert [int(res[f"degree:{j}"][r]) for j in range(1, n + 1)] == deg[1:]
        assert res["martingale"][r] == m_n
        assert res["martingale_max_diff"][r] == max_diff
        assert res["martingale_bound_ok"][r] == bound_ok


@pytest.mark.parametrize("n,reps,kernel", [(10000, 12, Kernel.DEGREE), (5000, 25, Kernel.GAP)])
def test_pointer_jump_matches_column_by_column_resolution(n, reps, kernel):
    # chunks of the benchmark's shapes; the slots are _bounded_draw's on a
    # twin generator: node m draws from the 2(m - 2) edge ends and the root's gaps
    seed = 17
    bounds = _slot_bounds(n, kernel)
    parents = _draw_parents(
        n, reps, bounds, np.random.default_rng(seed),
        np.empty(reps * n, dtype=np.int32), np.empty(reps * (n - 2), dtype=np.int64),
    )
    first_slot, ranges, thresholds = bounds
    q = _bounded_draw(
        np.random.default_rng(seed), first_slot, ranges[: n - 2], thresholds[: n - 2],
        np.empty((reps, n - 2), dtype=np.int64), np.empty((reps, n - 2), dtype=np.uint32),
    )
    rows = np.arange(reps)
    label = np.zeros((reps, n + 1), dtype=np.int64)  # label[:, m]: node m's parent
    label[:, 2] = 1
    for m in range(3, n + 1):
        s = q[:, m - 3]
        node = (s >> 1) + 2  # the root for s = -1
        # odd slot: that node itself; even slot: the final parent of that earlier node
        label[:, m] = np.where(s & 1, node, label[rows, node])
    row_start = rows[:, None] * n
    np.testing.assert_array_equal(parents, row_start + label[:, 2:] - 1)
    # every parent lies in its own row and before its child
    child = np.arange(2, n + 1)
    assert np.all(parents >= row_start) and np.all(parents < row_start + child - 1)


@pytest.mark.parametrize(
    "kernel,want_martingale", [(Kernel.DEGREE, False), (Kernel.DEGREE, True), (Kernel.GAP, False)]
)
@pytest.mark.parametrize("n,z,y", [(2, 2, 2), (3, 6, 10)])
def test_forest_smallest_trees(n, z, y, kernel, want_martingale):
    stats = ("zagreb", "cubic", "degree:1", "degree:2") + ("martingale",) * want_martingale
    res = grow_forest(n, 50, kernel, seed=1, stats=stats)
    zagreb, cubic = res.extra["zagreb"], res.extra["cubic"]
    assert zagreb.dtype == np.int64 and cubic.dtype == np.int64
    assert np.all(zagreb == z) and np.all(cubic == y)
    # degrees sum to 2(n - 1) and node n is a leaf
    assert np.all(res.extra["degree:1"] + res.extra["degree:2"] + (n - 2) == 2 * (n - 1))
    if want_martingale:
        # Z_2 and Z_3 are deterministic, so M_2 = M_3 = 0
        assert np.all(res.extra["martingale"] == 0.0)
        assert np.all(res.extra["martingale_max_diff"] == 0.0)
        assert np.all(res.extra["martingale_bound_ok"])
    else:
        assert "martingale" not in res.extra


def test_zagreb2_refuses_int64_overflow():
    largest = math.isqrt(np.iinfo(np.int64).max)
    assert _zagreb2(np.array([2, largest])).tolist() == [4, largest**2]
    with pytest.raises(ValueError, match="zagreb2 overflows int64"):
        _zagreb2(np.array([2, largest + 1]))


def test_forest_martingale_is_the_zagreb_map():
    n = 300
    res = grow_forest(n, 200, Kernel.DEGREE, seed=4, stats=("zagreb", "martingale"))
    h = float(harmonic(n - 1))
    expected = 2.0 * res.extra["zagreb"] / (n - 1) - 4.0 * h
    assert np.allclose(res.extra["martingale"], expected, rtol=0.0, atol=1e-9)


def test_forest_reproducible_across_chunkings(monkeypatch):
    # 7 chunks of 150 rows, grown on 1, 2 and 3 worker threads, must give
    # the same bits; chunk 0 is held back so that it finishes last, and
    # merging in completion order would move its rows to the end
    first = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5).spawn(7)[0])).bit_generator.state
    grow_chunk = montecarlo._grow_chunk

    def first_chunk_last(n, reps, kernel, rng, *rest):
        if rng.bit_generator.state == first:
            time.sleep(0.1)
        return grow_chunk(n, reps, kernel, rng, *rest)

    monkeypatch.setattr(montecarlo, "_grow_chunk", first_chunk_last)
    for kernel in Kernel:
        martingale = kernel is Kernel.DEGREE
        stats = ("zagreb", "cubic", "degree:1", "degree:2", "degree:7") + ("martingale",) * martingale
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
            results.append(grow_forest(50, 1000, kernel, seed=5, stats=stats, chunk_size=150))
        keys = set(stats)
        if martingale:
            keys |= {"martingale_max_diff", "martingale_bound_ok"}
        assert set(results[0].extra) == keys
        for other in results[1:]:
            for k in keys:
                a, b = results[0].extra[k], other.extra[k]
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_forest_caps_chunks_in_flight(monkeypatch):
    # on 8 cores at most 4 chunks of 125,000 slots grow at once.  Each
    # chunk waits 20 ms on entry, so an uncapped pool would hold more than
    # 4 at once: ``in_flight == [0, 4]`` is the assert that catches it.
    # The 24.8 MB bound is what one 500,000-slot chunk of the martingale
    # path took when chunks were first grown in parallel; with the reused
    # chunk buffers this test's traced peak reads 9-11 MB on a 2-core host
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 8)
    grow_chunk = montecarlo._grow_chunk
    lock = threading.Lock()
    in_flight = [0, 0]  # now, most

    def counted(*args):
        with lock:
            in_flight[0] += 1
            in_flight[1] = max(in_flight[1], in_flight[0])
        time.sleep(0.02)
        try:
            return grow_chunk(*args)
        finally:
            with lock:
                in_flight[0] -= 1

    monkeypatch.setattr(montecarlo, "_grow_chunk", counted)
    tracemalloc.start()
    try:
        grow_forest(10000, 200, Kernel.DEGREE, 1, stats=("martingale",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert in_flight == [0, 4]
    assert peak < 24.8e6


def test_forest_workers_call_no_public_function(monkeypatch):
    # a tracer that wraps the package's public functions keeps one span
    # stack, so the worker threads may call none of them; the labels are
    # parsed and the martingale constants computed once, on the calling
    # thread (SimulationConfig parses its default label first)
    calls = []
    for name, fn in list(vars(montecarlo).items()):
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__.startswith("port_trees."):

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                calls.append((_name, threading.get_ident()))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(montecarlo, name, wrapper)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    grow_forest(1000, 700, Kernel.DEGREE, seed=3, stats=("martingale", "degree:1", "degree:5"))
    tid = threading.get_ident()
    assert calls == [("parse_statistic", tid)] * 4 + [("martingale_diff_bound", tid)]


def test_forest_validates_arguments():
    with pytest.raises(ValueError):
        grow_forest(1, 10, Kernel.GAP, seed=0, stats=("zagreb",))
    with pytest.raises(ValueError):
        grow_forest(10, 0, Kernel.GAP, seed=0, stats=("zagreb",))
    with pytest.raises(ValueError):
        grow_forest(10, 10, Kernel.GAP, seed=0, stats=("martingale",))
    for chunk_size in (0, -1):
        with pytest.raises(ValueError, match="chunk_size"):
            grow_forest(10, 10, Kernel.GAP, seed=0, stats=("zagreb",), chunk_size=chunk_size)


def test_forest_rejects_labels_outside_the_tree(monkeypatch):
    # every label is parsed before any chunk grows, with the message of
    # the --stat parser the oracle and the CLI share
    grown = []
    monkeypatch.setattr(montecarlo, "_grow_chunk", lambda *args: grown.append(args))
    n = 10
    for label in ("degree:0", f"degree:{n + 1}", "degree:-3", "bogus"):
        with pytest.raises(ValueError) as refused:
            parse_statistic(label, n)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            grow_forest(n, 4, Kernel.GAP, 0, stats=(label,))
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            grow_forest(n, 4, Kernel.DEGREE, 0, stats=("zagreb", label))
    with pytest.raises(ValueError, match="at least one --stat label"):
        grow_forest(n, 4, Kernel.GAP, 0, stats=())
    with pytest.raises(ValueError, match="a tuple of --stat labels, not the string 'zagreb'"):
        grow_forest(n, 4, Kernel.GAP, 0, stats="zagreb")
    with pytest.raises(ValueError, match="defined for the degree-proportional kernel"):
        grow_forest(n, 4, Kernel.GAP, 0, stats=("martingale",))
    assert grown == []


@pytest.mark.parametrize("kernel", list(Kernel))
def test_forest_label_subsets_keep_the_stream(kernel):
    # the draws never depend on the labels: each label alone gives the
    # bytes it gives among all of them, and root-degree is degree:1
    labels = ["zagreb", "cubic", "zagreb2", "degree:1", "root-degree", "degree:7"]
    if kernel is Kernel.DEGREE:
        labels.append("martingale")
    together = grow_forest(50, 300, kernel, seed=9, stats=tuple(labels), chunk_size=70).extra
    for label in labels:
        alone = grow_forest(50, 300, kernel, seed=9, stats=(label,), chunk_size=70).extra
        keys = [label, "martingale_max_diff", "martingale_bound_ok"] if label == "martingale" else [label]
        assert list(alone) == keys
        for key in keys:
            assert alone[key].dtype == together[key].dtype and alone[key].tobytes() == together[key].tobytes()
    assert together["root-degree"].tobytes() == together["degree:1"].tobytes()


@pytest.mark.parametrize(
    "field,value",
    [("n", 1), ("replicates", 0), ("chunk_size", 0), ("chunk_size", -1), ("statistic", "bogus")],
)
def test_simulation_config_validates(field, value):
    kwargs = {"n": 10, "replicates": 10, field: value}
    with pytest.raises(ValueError, match=field):
        SimulationConfig(**kwargs)


def test_run_experiment_refuses_a_non_integer_degree_label():
    with pytest.raises(ValueError, match="--stat 'degree:abc': expected degree:J with an integer J"):
        run_experiment(SimulationConfig(n=10, replicates=10, statistic="degree:abc"))


def test_simulation_config_caps_chunk_slots():
    # a chunk's node slots are indexed in int32
    with pytest.raises(ValueError, match="chunk_size"):
        SimulationConfig(n=2**20, replicates=2**11, chunk_size=2**11)
    SimulationConfig(n=2**20, replicates=2**11 - 1, chunk_size=2**20)  # only 2**11 - 1 rows are grown


@pytest.mark.parametrize("kernel,largest", [(Kernel.DEGREE, 2**30 + 2), (Kernel.GAP, 2**30 + 1)])
def test_simulation_config_caps_the_slot_range(kernel, largest):
    # the slot draw forms (2**32 - 1) * r in int64; only configs are
    # built here, so no tree of this size grows
    assert (2**32 - 1) * kernel.total_weight(largest - 1) <= np.iinfo(np.int64).max
    assert (2**32 - 1) * kernel.total_weight(largest) > np.iinfo(np.int64).max
    SimulationConfig(n=largest, replicates=1, kernel=kernel)
    with pytest.raises(ValueError, match=f"n must be at most {largest} under the {kernel.value} kernel"):
        SimulationConfig(n=largest + 1, replicates=1, kernel=kernel)


def test_jarque_bera_normal_sample():
    rng = np.random.default_rng(100)
    rejected = 0
    for _ in range(20):
        rejected += summarize(rng.standard_normal(100_000))["jb_pvalue"] < 0.001
    assert rejected == 0


def test_jarque_bera_exponential_sample():
    rng = np.random.default_rng(101)
    assert summarize(rng.exponential(size=10_000))["jb_pvalue"] < 1e-6


def test_jarque_bera_location_invariance():
    rng = np.random.default_rng(102)
    x = rng.standard_normal(5000)
    s1 = summarize(x)["jb_statistic"]
    s2 = summarize(x + 1000.0)["jb_statistic"]
    assert s1 == pytest.approx(s2, rel=1e-6)


def test_jarque_bera_guards():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        summarize([5.0] * 100)


def test_kde_two_point_sample_symmetric_bimodal():
    grid, density = kde([0.0] * 50 + [1.0] * 50, grid_size=201)
    mid = len(grid) // 2
    assert grid[mid] == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(density, density[::-1], atol=1e-12)
    assert density[mid] < density.max()


def test_kde_integrates_to_one():
    rng = np.random.default_rng(103)
    grid, density = kde(rng.standard_normal(2000), grid_size=512)
    integral = np.trapezoid(density, grid)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_kde_guards():
    with pytest.raises(ValueError):
        kde([1.0])
    with pytest.raises(ValueError):
        kde([2.0, 2.0, 2.0])


def test_run_experiment_outputs():
    config = SimulationConfig(n=50, replicates=400, kernel=Kernel.DEGREE, seed=21, statistic="zagreb")
    sample, summary = run_experiment(config)
    assert sample.shape == (400,) and sample.dtype == np.int64
    # the sample is the Z of the forest grown with the config's seed and chunking
    forest = grow_forest(50, 400, Kernel.DEGREE, seed=21, stats=("zagreb",), chunk_size=config.resolved_chunk())
    assert np.array_equal(sample, forest.extra["zagreb"])
    assert summary == summarize(sample)
    assert summary["count"] == 400


def test_run_experiment_byte_reproducible():
    config = SimulationConfig(n=40, replicates=300, kernel=Kernel.GAP, seed=77, statistic="root-degree")
    (a, summary_a), (b, summary_b) = run_experiment(config), run_experiment(config)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert summary_a == summary_b


def test_run_experiment_degree_statistic():
    sample, summary = run_experiment(
        SimulationConfig(n=3, replicates=50_000, kernel=Kernel.GAP, seed=31, statistic="degree:2")
    )
    assert sample.size == summary["count"] == 50_000
    assert _within_se(summary["mean"], 4 / 3, summary["variance"], summary["count"])


def test_summarize_fields():
    s = summarize(np.arange(100, dtype=float))
    assert list(s) == [
        "count", "mean", "variance", "skewness", "excess_kurtosis",
        "jb_statistic", "jb_pvalue", "minimum", "maximum", "normality_test",
    ]
    assert s["count"] == 100
    assert s["minimum"] == 0.0 and s["maximum"] == 99.0
    assert s["mean"] == pytest.approx(49.5)


def test_martingale_diagnostics_moderate_scale():
    report = martingale_diagnostics(
        SimulationConfig(n=3000, replicates=1500, seed=8, statistic="martingale")
    )
    assert report["increment_bound_satisfied"]
    assert abs(report["mean_M"]) < 5 * report["mean_M_stderr"]
    # variance approaches 64 - 8 pi^2/3 slowly; just sanity-band it here
    assert 0.5 * M_SECOND_MOMENT_LIMIT < report["var_M"] < 1.5 * M_SECOND_MOMENT_LIMIT


def test_martingale_diagnostics_refuses_the_gap_kernel():
    config = SimulationConfig(n=50, replicates=20, kernel=Kernel.GAP, statistic="martingale")
    message = "the martingale transform is defined for the degree-proportional kernel"
    with pytest.raises(ValueError, match=message):
        run_experiment(config)
    with pytest.raises(ValueError, match=message):
        martingale_diagnostics(config)


def test_sample_mean_tracks_exact_zagreb_mean():
    n = 500
    z = grow_forest(n, 4000, Kernel.DEGREE, seed=55, stats=("zagreb",)).extra["zagreb"]
    exact = float(zagreb_mean(n))
    assert _within_se(z.mean(), exact, z.var(ddof=1), z.size)


def test_cubic_index_does_not_concentrate():
    # Y_n/n^{3/2} keeps a random limit, carried by the first labels'
    # degrees, while Z_n/(n log n) -> 2 is a weak law; a CV is
    # scale-free, so the samples need no normalising
    def cv(sample):
        sample = sample.astype(float)
        return sample.std(ddof=1) / sample.mean()

    small = grow_forest(1000, 4000, Kernel.DEGREE, seed=7, stats=("zagreb", "cubic")).extra
    large = grow_forest(10_000, 1000, Kernel.DEGREE, seed=7, stats=("zagreb", "cubic")).extra
    # CV(Y) read 0.69-0.77 at 10^3 and 0.64-0.80 at 10^4 over seeds 0-19
    assert cv(small["cubic"]) >= 0.55 and cv(large["cubic"]) >= 0.55
    assert cv(large["zagreb"]) < cv(small["zagreb"])
