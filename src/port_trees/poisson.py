"""Continuous-time (Poissonized) degree process of a fixed node.

Each insertion gap carries an independent unit-rate exponential clock.
The gap count W(t) of the watched node is a pure-birth (Yule) process
started at 1: the other gaps never influence its dynamics, so W at
elapsed time dt is geometric on {1, 2, ...} with success probability
e^{-dt}.  ``simulate_yule`` samples that marginal directly;
``simulate_gap_tree`` validates the reduction against the full gap
dynamics, growing whole trees with the forest sampler.  As dt grows,
W e^{-dt} tends to the unit-mean exponential; ``scaled_limit_distance``
gives its exact Kolmogorov distance to that limit.
"""

from __future__ import annotations

import math

import numpy as np

from .montecarlo import SimulationConfig, _draw_parents, _slot_bounds
from .tree import Kernel

__all__ = [
    "mgf_w",
    "moments_w",
    "scaled_limit_distance",
    "simulate_yule",
    "simulate_gap_tree",
]

NODE_CAP = 10_000_000  # largest tree, j + K nodes, that simulate_gap_tree grows
DT_MAX = 40.0  # beyond it numpy's geometric sampler saturates at 2^63 - 1


def _check_horizon(dt: float) -> None:
    if not 0 <= dt <= DT_MAX:  # NaN too
        raise ValueError(f"elapsed time must be in [0, {DT_MAX}], got dt={dt}")


def mgf_w(u: float, dt: float) -> float:
    """Moment generating function of W at elapsed time dt:
    e^{u-dt} / (1 - (1 - e^{-dt}) e^u), for u inside the convergence
    region u < -ln(1 - e^{-dt}), and dt in [0, DT_MAX]."""
    _check_horizon(dt)
    if dt > 0 and u >= -math.log1p(-math.exp(-dt)):
        raise ValueError(f"u={u} outside the MGF convergence region for dt={dt}")
    scaled = math.exp(u - dt)  # the denominator 1 - (1 - e^{-dt}) e^u, without cancelling to 0
    return scaled / (scaled - math.expm1(u))


def moments_w(dt: float) -> tuple[float, float, float]:
    """(mean, second moment, variance) of W at elapsed time dt:
    e^{dt}, 2e^{2dt} - e^{dt}, e^{2dt} - e^{dt}, for dt in [0, DT_MAX]."""
    _check_horizon(dt)
    e = math.exp(dt)
    return e, 2.0 * e * e - e, e * e - e


def scaled_limit_distance(dt: float) -> float:
    """Kolmogorov distance of W e^{-dt} to the unit-mean exponential, for
    dt in [0, DT_MAX]: exactly 1 - exp(-p) with p = e^{-dt}.

    p W lives on the lattice p, 2p, ...; the gap between the two laws is
    largest just before the first jump, where P(p W < p) = 0, and since
    1 - p <= e^{-p} no later jump is larger.
    """
    _check_horizon(dt)
    return -math.expm1(-math.exp(-dt))


def simulate_yule(dt: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample W at elapsed time dt via its geometric marginal on {1,2,...}.

    dt is limited to [0, DT_MAX]: at DT_MAX a draw reaches numpy's
    int64 ceiling with probability exp(-2^63 e^{-40}), about 1e-17.
    """
    _check_horizon(dt)
    return rng.geometric(math.exp(-dt), size=size).astype(np.int64)


def simulate_gap_tree(j: int, dt: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Sample W at elapsed time dt from the whole tree's gap dynamics.

    After k events the tree grown from node j's birth holds
    2(k + j - 1/2) gaps, each ringing at unit rate, so the event count
    K is a linear birth process, K ~ NegBin(j - 1/2, e^{-2dt}) (Kendall,
    Ann. Math. Statist. 19, 1948), independent of which gaps ring.  The
    ringing gaps form the gap-kernel tree, so W is the degree of node j
    at n = j + K: one plus its children among nodes j+1 ... j+K.  The
    replicates are sorted by K, so each chunk of trees grows only as far
    as its own largest K.  The chunks draw from ``rng`` in turn, so they
    grow one after another.  The geometric law of W is never assumed.
    """
    if j < 2:
        raise ValueError(f"simulate_gap_tree requires j >= 2, got {j}")
    if j > NODE_CAP:  # the tree holds node j before any event
        raise ValueError(f"j={j} is past the cap of {NODE_CAP} nodes")
    if not dt >= 0:  # NaN too
        raise ValueError(f"elapsed time must be >= 0, got {dt}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    try:
        k = rng.negative_binomial(j - 0.5, math.exp(-2.0 * dt), size)
        top = j + int(k.max())
    except ValueError:  # e^{-2dt} underflows, or K is beyond numpy's sampler
        top = math.inf
    if top > NODE_CAP:
        raise ValueError(f"dt={dt} grows the tree past the cap of {NODE_CAP} nodes")
    rows = SimulationConfig(n=top, replicates=size, kernel=Kernel.GAP).resolved_chunk()
    order = np.argsort(k, kind="stable")
    w = np.ones(size, dtype=np.int64)
    bounds = _slot_bounds(top, Kernel.GAP)  # each chunk uses the leading entries
    slots = np.empty(rows * top, dtype=np.int32)  # every chunk's node grid, in turn
    draws = np.empty(rows * (top - 2), dtype=np.int64)  # and its drawn slots
    for start in range(0, size, rows):
        chunk = order[start : start + rows]
        events = k[chunk]
        n = j + int(events[-1])
        children = _draw_parents(n, chunk.size, bounds, rng, slots, draws)[:, j - 1 :]  # parents of nodes j+1 ... n
        node_j = np.arange(j - 1, chunk.size * n, n)[:, None]  # flat index of node j in each row
        born = np.arange(n - j) < events[:, None]
        w[chunk] += ((children == node_j) & born).sum(axis=1)
    return w
