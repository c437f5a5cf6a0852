"""Replicated tree simulation at scale, with reproducible seeding.

Replicates are grown as numpy arrays (one row per tree), in chunks of
at most ``_CHUNK_ELEMENT_BUDGET`` node slots.  A chunk has no loop over
insertion steps: the bag sampler of Batagelj & Brandes draws every
attachment slot at once and resolves the parents by pointer jumping,
each round keeping its still-pending entries by index (numpy's
boolean-mask indexing branches on every entry, several times slower
when about half are pending, as in the first rounds).  One parent
array then gives the degrees, Z, Y, the degree of any node and the
whole martingale path M_m, but only what the requested labels of
``tree.STATISTICS`` name.  Each chunk draws
from its own stream spawned deterministically from the master seed, so
the chunk size sets the stream: it is part of the resolved
configuration recorded in the run manifest, and results are
byte-reproducible given (seed, config).  Chunks are grown concurrently,
one thread per usable core up to ``_MAX_WORKERS`` (numpy releases the
GIL in the draw, the gathers, the sort and the reductions), and merged
in chunk order, so the worker count never changes a byte.  At most
``_MAX_WORKERS`` chunks, 500,000 node slots, are in flight at once,
whatever the core count.  Each worker thread builds every chunk it
grows in the same two buffers, allocated once per ``grow_forest`` call,
so the pages of one chunk are not handed back and faulted in again by
the next; the martingale path works through a chunk in small blocks of
rows for the same reason.  The module computes and returns; it writes
no file (the ``port`` command line writes every output).

Normality is assessed with the Jarque-Bera moment test (exactly
specified, decisive at the observed skewness) rather than Shapiro-Wilk,
whose tabulated coefficients have limited documented validity at large
sample sizes; reports note the substitution.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .tree import Kernel, parse_statistic
from .zagreb import M_SECOND_MOMENT_LIMIT, _cpu_count, martingale_diff_bound

__all__ = [
    "SimulationConfig",
    "ForestResult",
    "grow_forest",
    "run_experiment",
    "summarize",
    "kde",
    "martingale_diagnostics",
]

# bound-check tolerance: the bound is exact, the trace is float
_BOUND_EPS = 1e-9
# per-chunk budget of node slots, replicates x n; a chunk keeps about
# 24 bytes per slot alive at its peak (23.9 by tracemalloc on 10000 x 12
# and 5000 x 25 chunks, the two reused buffers and the draw's 64-bit
# words included), so it holds about 3 MB and the most that grow in
# parallel about 12 MB
_CHUNK_ELEMENT_BUDGET = 125_000
# most slots one node draws from: the slot draw forms (2**32 - 1) * r in int64
_MAX_SLOT_RANGE = 2**31
# most node slots in one block of rows of the martingale path (at least
# one row); each of its temporaries, 8 bytes a slot, then stays under
# glibc's 128 kB mmap threshold for rows of up to 16,384 nodes
_PATH_BLOCK_SLOTS = 8192
# most chunks grown at once, whatever the core count
_MAX_WORKERS = 4
# fewest observations the Jarque-Bera summary takes
_JB_MIN_COUNT = 8
# largest Z whose square fits in int64
_ZAGREB2_MAX_Z = math.isqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    replicates: int
    kernel: Kernel = Kernel.DEGREE
    seed: int = 0
    statistic: str = "zagreb"  # a label of tree.parse_statistic
    chunk_size: int | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.kernel.total_weight(self.n - 1) > _MAX_SLOT_RANGE:  # node n's count of slots
            limit = (_MAX_SLOT_RANGE - self.kernel.root_gaps) // 2 + 2
            raise ValueError(
                f"n must be at most {limit} under the {self.kernel.value} kernel, got {self.n}: "
                "node n draws from more than 2**31 slots, and the slot draw's int64 product would wrap"
            )
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        parse_statistic(self.statistic, self.n)
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be None or >= 1, got {self.chunk_size}")
        rows = min(self.resolved_chunk(), self.replicates)
        if rows * self.n >= 2**31:  # the sampler indexes a chunk's nodes in int32
            raise ValueError(f"chunk_size * n must stay below 2**31 node slots, got {rows} * {self.n}")

    def resolved_chunk(self) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, min(self.replicates, _CHUNK_ELEMENT_BUDGET // self.n))


@dataclass
class ForestResult:
    """Per-replicate samples from a batch of grown trees: ``extra`` maps
    each requested ``--stat`` label to its sample."""

    extra: dict


def _slot_bounds(n, kernel):
    """The bag sampler's draw bounds for nodes m = 3..n: the first slot
    (the root's extra gaps come first), each node's count of slots r,
    the total weight of the tree it joins (uint32), and the Lemire
    rejection thresholds (2**32 - r) % r (uint32).  A tree of fewer
    nodes uses the leading entries."""
    first_slot = -kernel.root_gaps
    ranges = np.arange(kernel.total_weight(2), kernel.total_weight(n), 2, dtype=np.uint32)
    thresholds = np.negative(ranges)  # 2**32 - r: a uint32 negation wraps
    thresholds %= ranges
    return first_slot, ranges, thresholds


def _bounded_draw(rng, low, ranges, thresholds, out, scratch):
    """Write ``rng.integers(low, low + ranges, size=out.shape,
    dtype=np.int32)`` into the int64 array ``out``, value for value and
    leaving ``rng`` in the same state, in whole-array steps.  ``low`` is
    a scalar or a column of per-row lows.

    numpy draws entry i of column c from the next uint32 x as the high
    half of x * r_c, unless the low half falls below the threshold
    (2**32 - r_c) % r_c; it then discards x and tries the next uint32
    (Lemire, ACM TOMACS 29(1), 2019).  Here every entry takes one uint32
    up front; each rare rejection shifts that entry and all later ones
    onto the next uint32 of the stream, in place.

    The bulk of that uint32 stream comes from 64-bit words, a third
    cheaper per value with the copy into one array: each word gives its
    low half first, as PCG64's next uint32 does.  A half the generator
    still carries comes first, and the last one or two entries come
    from numpy's uint32 draw itself, so the values and the generator
    state, its stale carried half included, are numpy's.  ``scratch`` is
    a uint32 array of ``out``'s shape that holds the low halves.  Every
    r must lie in [2, ``_MAX_SLOT_RANGE``]: numpy draws nothing for
    r = 1, and a larger r wraps the int64 product (``SimulationConfig``
    refuses the n that needs one).
    """
    cols = ranges.size
    raw = np.empty(out.shape, dtype=np.uint32)  # one next_uint32 per entry, in order
    flat = raw.reshape(-1)
    head = min(rng.bit_generator.state["has_uint32"], flat.size)  # a carried half is the stream's first value
    words = max(0, (flat.size - head - 1) // 2)  # the last one or two values go through next_uint32, as numpy's do
    stop = head + 2 * words
    flat[:head] = rng.integers(0, 2**32, size=head, dtype=np.uint32)
    flat[head:stop] = rng.integers(0, 2**64, size=words, dtype=np.uint64).astype("<u8", copy=False).view("<u4")
    flat[stop:] = rng.integers(0, 2**32, size=flat.size - stop, dtype=np.uint32)
    row = col = 0  # entries before (row, col) are final
    while True:
        np.multiply(raw[row:], ranges, out=scratch[row:])  # the low halves, mod 2**32
        rejected = np.flatnonzero(scratch[row:] < thresholds)
        rejected = rejected[rejected >= col]
        if not rejected.size:
            break
        start = row * cols + int(rejected[0])
        flat[start:-1] = flat[start + 1 :]
        flat[-1] = rng.integers(0, 2**32, dtype=np.uint32)
        row, col = divmod(start, cols)
    np.multiply(raw, ranges, out=out, dtype=np.int64)
    out >>= 32
    out += low
    return out


def _draw_parents(n, reps, bounds, rng, slots, draws):
    """Parents of nodes 2..n in ``reps`` trees, drawn with no loop over nodes.

    Node labels live in a (reps, n) grid, node k of row r at flat index
    r * n + k - 1.  The grid is built in place in the leading reps * n
    entries of ``slots``, a flat int32 buffer that the caller reuses
    from chunk to chunk; ``draws`` is a flat int64 buffer of at least
    reps * (n - 2) entries that holds the drawn slots and is free again
    on return.  ``bounds`` is the ``_slot_bounds`` of the kernel, for n
    nodes or more.  Returns an int32 (reps, n - 1) view of ``slots``
    whose column m - 2 holds the flat index of node m's parent.

    This is the bag sampler of Batagelj & Brandes (Phys. Rev. E 71,
    036113, 2005).  Under the degree kernel the tree on m - 1 nodes has
    2(m - 2) edge ends: slot 2k + 1 holds node k + 2 and slot 2k holds
    its parent.  The gap kernel puts the root's extra gap in front, read
    here as slot -1.  Node m >= 3 draws a slot q uniformly.  An odd slot
    names node (q >> 1) + 2 (the root for q = -1); an even slot inherits
    the parent of the earlier node (q >> 1) + 2.  All slots are drawn at
    once, by ``_bounded_draw``: numpy's own bounded draw done in
    whole-array steps, so the slots are those of ``rng.integers``.  Then
    every pending node copies its target's current entry, which halves
    the remaining chains, until none is pending.  Each round keeps the
    still-pending entries by index (``compress``), not by a boolean
    mask: numpy's mask indexing branches on every entry, which costs
    several times as much per entry when about half are still pending,
    as in the first rounds.
    """
    first_slot, ranges, thresholds = bounds
    ref = slots[: reps * n].reshape(reps, n)
    draws = draws[: reps * (n - 2)].reshape(reps, n - 2)
    row_start = np.arange(0, reps * n, n)[:, None]
    # each row's slots are drawn 2 * (row_start + 1) up: the parity stays and
    # q >> 1 is already the flat index of node (q >> 1) + 2 of that row.  The
    # grid's node columns hold the low halves until the targets overwrite them
    low = 2 * row_start + (first_slot + 2)
    q = _bounded_draw(rng, low, ranges[: n - 2], thresholds[: n - 2], draws, ref[:, 2:].view(np.uint32))
    ref[:, :2] = row_start  # node 2 hangs off the root; the root's entry is never read
    target = np.right_shift(q, 1, out=ref[:, 2:])
    q &= 1
    q -= 1
    target ^= q  # even slot: ~target marks the entry pending
    flat = ref.reshape(-1)
    pending = np.flatnonzero(flat < 0)
    while pending.size:
        got = flat.take(np.invert(flat.take(pending)))  # fancy indexing converts int32 indices slowly
        flat[pending] = got
        pending = pending.compress(got < 0)  # by index: a boolean-mask index branches per entry
    return ref[:, 1:]


def _earlier_siblings(keys):
    """For each node of a flat int64 parent array ``keys``, the number
    of earlier nodes with the same parent, found by one sort of
    (parent, node) keys.  The sort and the counts reuse ``keys``, which
    is returned holding the counts."""
    size = keys.size
    shift = size.bit_length()
    rank = np.arange(size, dtype=np.int64)
    keys <<= shift
    keys |= rank
    keys.sort()
    node = keys & ((1 << shift) - 1)
    keys >>= shift  # each node's parent, grouped
    group_start = np.multiply(rank, np.concatenate(([True], keys[1:] != keys[:-1])), out=keys)
    np.maximum.accumulate(group_start, out=group_start)
    rank -= group_start
    keys[node] = rank
    return keys


def _martingale_constants(n):
    """The martingale path's per-call constants, for m = 2..n: the
    scale 2/(m - 1), the offset 4 H_{m-1}, and each increment's bound
    plus the check's tolerance (m = 3..n)."""
    m = np.arange(2, n + 1)
    h = np.cumsum(1.0 / (m - 1))  # H_{m-1}
    return 2.0 / (m - 1), 4.0 * h, martingale_diff_bound(m[1:]) + _BOUND_EPS


def _martingale_path(parents, keys, constants):
    """Final M_n, largest |M_m - M_{m-1}| and the increment-bound flag
    of each row, from the parents of ``_draw_parents`` (degree kernel),
    their flat int64 copy ``keys`` (overwritten) and the
    ``_martingale_constants`` of the tree size.

    Node m raises Z by 2d + 2, where d is its parent's degree just
    before m arrives: the parent's earlier children, plus one for the
    edge to its own parent unless it is the root.  Each row's path is
    its own, so the rows go through in blocks of at most
    ``_PATH_BLOCK_SLOTS`` node slots: the temporaries of one block are
    small enough for the allocator to hand the same memory to the next.
    """
    scale, offset, limit = constants
    reps, width = parents.shape
    keys = keys.reshape(parents.shape)
    m_final, max_diff = np.empty(reps), np.empty(reps)
    bound_ok = np.empty(reps, dtype=bool)
    rows = max(1, _PATH_BLOCK_SLOTS // width)
    for start in range(0, reps, rows):
        block = slice(start, start + rows)
        z_path = _earlier_siblings(keys[block].reshape(-1)).reshape(-1, width)
        z_path += parents[block] != parents[block, :1]  # node 2's parent is the root
        z_path *= 2
        z_path += 2
        np.cumsum(z_path, axis=1, out=z_path)  # Z_m for m = 2..n
        m_path = scale * z_path
        m_path -= offset
        m_final[block] = m_path[:, -1]
        diff = np.diff(m_path, axis=1)  # m = 3..n
        np.abs(diff, out=diff)
        max_diff[block] = diff.max(axis=1, initial=0.0)
        bound_ok[block] = (diff <= limit).all(axis=1)
    return m_final, max_diff, bound_ok


def _grow_chunk(n, reps, bounds, rng, stats, martingale, slots, keys):
    """One chunk's ``ForestResult.extra``, with Z still under
    ``zagreb2``; ``stats`` maps each label to its ``parse_statistic``
    pair.  ``bounds`` is the ``_slot_bounds`` of the kernel and n, and
    ``martingale`` holds the ``_martingale_constants`` of n when the
    path is wanted.  ``slots`` (int32) and ``keys`` (int64) are the
    worker's reused buffers, of at least reps * n and reps * (n - 1)
    entries; ``keys`` holds the drawn slots before the parents.  No
    returned array is a view of them.  It runs on a worker thread, so
    it calls no public function of the package."""
    parents = _draw_parents(n, reps, bounds, rng, slots, keys)
    keys = keys[: parents.size]
    np.copyto(keys.reshape(parents.shape), parents)  # int64 is intp on 64-bit hosts: bincount makes no copy
    names = {name for name, _ in stats.values()}
    samples = {}
    if names - {"martingale"}:  # every other statistic reads the degrees
        deg = np.bincount(keys, minlength=reps * n).reshape(reps, n)
        deg[:, 1:] += 1  # the edge to the parent; the root, node 1, has none
        z = np.einsum("ij,ij->i", deg, deg) if names & {"zagreb", "zagreb2"} else None
        for label, (name, node) in stats.items():
            if name == "degree":
                samples[label] = deg[:, node - 1].copy()
            elif name == "cubic":
                samples[label] = np.einsum("ij,ij,ij->i", deg, deg, deg)
            elif name in ("zagreb", "zagreb2"):
                samples[label] = z
        del deg  # not needed by the path; free it before the sort
    if martingale is not None:
        path = _martingale_path(parents, keys, martingale)
        samples.update(zip(("martingale", "martingale_max_diff", "martingale_bound_ok"), path))
    return samples


def _zagreb2(z):
    """Z**2 of a Z sample, refused where a square would wrap in int64."""
    if z.max() > _ZAGREB2_MAX_Z:
        raise ValueError(f"zagreb2 overflows int64 for Z > {_ZAGREB2_MAX_Z}; largest Z is {z.max()}")
    return z**2


def grow_forest(
    n: int,
    replicates: int,
    kernel: Kernel,
    seed: int,
    *,
    stats,
    chunk_size: int | None = None,
) -> ForestResult:
    """Grow ``replicates`` independent trees of size n, vectorized.

    ``stats`` is a non-empty tuple of ``--stat`` labels of
    ``tree.parse_statistic``, parsed before any tree grows; ``extra``
    maps each to its sample, and ``martingale`` (degree kernel only)
    adds ``martingale_max_diff`` and ``martingale_bound_ok``.  Only
    what the labels need is computed: no degrees for ``martingale``
    alone, Y only for ``cubic``, the path only for ``martingale``.  The
    draws never depend on the labels.  Chunk streams are spawned from
    SeedSequence(seed), so the output is deterministic for fixed
    (n, replicates, kernel, seed, chunk_size).
    Chunks grow on up to ``_MAX_WORKERS`` threads and are merged in
    chunk order, so the number of cores never changes the output.
    """
    chunk_size = SimulationConfig(n=n, replicates=replicates, kernel=kernel, chunk_size=chunk_size).resolved_chunk()
    if isinstance(stats, str):  # iterating it would parse each character
        raise ValueError(f"stats must be a tuple of --stat labels, not the string {stats!r}")
    if not stats:
        raise ValueError("grow_forest needs at least one --stat label in stats")
    stats = {label: parse_statistic(label, n) for label in stats}
    if "martingale" in stats and kernel is not Kernel.DEGREE:
        raise ValueError("the martingale transform is defined for the degree-proportional kernel")
    bounds = _slot_bounds(n, kernel)  # shared read-only by the workers
    martingale = _martingale_constants(n) if "martingale" in stats else None
    n_chunks = (replicates + chunk_size - 1) // chunk_size
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    rows = min(chunk_size, replicates)
    worker = threading.local()  # each thread's chunk buffers, dropped with this call

    def grow(i):
        reps = min(chunk_size, replicates - i * chunk_size)
        rng = np.random.Generator(np.random.PCG64(streams[i]))
        if not hasattr(worker, "slots"):
            worker.slots = np.empty(rows * n, dtype=np.int32)
            worker.keys = np.empty(rows * (n - 1), dtype=np.int64)
        return _grow_chunk(n, reps, bounds, rng, stats, martingale, worker.slots, worker.keys)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(n_chunks, _cpu_count(), _MAX_WORKERS)) as pool:
        parts = list(pool.map(grow, range(n_chunks)))  # in chunk order
    extra = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
    if "zagreb2" in extra:
        extra["zagreb2"] = _zagreb2(extra["zagreb2"])
    return ForestResult(extra)


def summarize(sample) -> dict:
    """Moments of the sample and its Jarque-Bera normality test:
    JB = (k/6)(S^2 + K^2/4) with sample skewness S and excess kurtosis
    K, centred once; the chi-square(2) tail is exp(-JB/2).  The keys, in
    order: count, mean, variance, skewness, excess_kurtosis,
    jb_statistic, jb_pvalue, minimum, maximum, normality_test."""
    x = np.asarray(sample, dtype=float)
    if x.size < _JB_MIN_COUNT:
        raise ValueError(f"summarize needs at least {_JB_MIN_COUNT} observations, got {x.size}")
    centered = x - x.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise ValueError("the Jarque-Bera test is undefined for a zero-variance sample")
    skew = float(np.mean(centered**3) / m2**1.5)
    kurt = float(np.mean(centered**4) / m2**2 - 3.0)
    jb = x.size / 6.0 * (skew * skew + kurt * kurt / 4.0)
    return {
        "count": x.size,
        "mean": float(x.mean()),
        "variance": float(np.var(x, ddof=1)),
        "skewness": skew,
        "excess_kurtosis": kurt,
        "jb_statistic": jb,
        "jb_pvalue": math.exp(-jb / 2.0),
        "minimum": float(x.min()),
        "maximum": float(x.max()),
        "normality_test": "jarque-bera (moment-based substitute for Shapiro-Wilk)",
    }


def kde(sample, grid_size: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density with the Silverman plug-in bandwidth
    0.9 min(sd, IQR/1.34) k^{-1/5}, on an equispaced grid spanning
    mean +/- 4 sd."""
    x = np.asarray(sample, dtype=float)
    if x.size < 2:
        raise ValueError(f"kde needs at least 2 observations, got {x.size}")
    sd = float(np.std(x, ddof=1))
    if sd == 0.0:
        raise ValueError("kde is undefined for a zero-variance sample")
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    bw = 0.9 * spread * x.size ** (-0.2)
    mean = float(x.mean())
    grid = np.linspace(mean - 4.0 * sd, mean + 4.0 * sd, grid_size)
    norm = 1.0 / (x.size * bw * math.sqrt(2.0 * math.pi))
    density = np.empty(grid_size)
    for i, g in enumerate(grid):
        u = (g - x) / bw
        density[i] = norm * np.exp(-0.5 * u * u).sum()
    return grid, density


def run_experiment(config: SimulationConfig) -> tuple[np.ndarray, dict]:
    """Grow the configured forest; return the statistic's sample, one
    value per replicate, and its summary."""
    if config.replicates < _JB_MIN_COUNT:  # refused before any tree grows
        raise ValueError(f"--reps must be >= {_JB_MIN_COUNT} for the Jarque-Bera summary, got {config.replicates}")
    forest = grow_forest(
        config.n, config.replicates, config.kernel, config.seed,
        stats=(config.statistic,), chunk_size=config.resolved_chunk(),
    )
    values = forest.extra[config.statistic]
    if values.min() == values.max():  # e.g. the newest node is always a leaf
        raise ValueError(
            f"the statistic {config.statistic!r} is {values[0]} in all {values.size} replicates at n = {config.n}: "
            "a constant sample has no skewness, kurtosis or Jarque-Bera test"
        )
    return values, summarize(values)


def martingale_diagnostics(config: SimulationConfig) -> dict:
    """Replicated martingale report: mean/variance of M_n against the
    64 - 8 pi^2/3 target and the per-step increment bound check."""
    if config.statistic != "martingale":
        raise ValueError("martingale_diagnostics requires statistic='martingale'")
    result = grow_forest(
        config.n, config.replicates, config.kernel, config.seed,
        stats=("martingale",), chunk_size=config.resolved_chunk(),
    )
    m_final = result.extra["martingale"]
    max_diff = result.extra["martingale_max_diff"]
    bound_ok = result.extra["martingale_bound_ok"]
    mean = float(m_final.mean())
    var = float(np.var(m_final, ddof=1))
    se = math.sqrt(var / m_final.size)
    return {
        "n": config.n,
        "replicates": config.replicates,
        "mean_M": mean,
        "mean_M_stderr": se,
        "var_M": var,
        "var_M_target": M_SECOND_MOMENT_LIMIT,
        "max_abs_increment": float(max_diff.max()),
        "increment_bound_satisfied": bool(bound_ok.all()),
    }
