"""Exact ground truth by a DP over degree multisets.

Under either kernel a node's attachment weight depends on its degree
only (``tree.Kernel`` gives the weights), so all attachment histories
that reach the same degree multiset have the same future.  The DP
merges them: each state holds the summed integer weight of its
histories, with the root and the watched node kept apart from the other
nodes, and one step adds one node.  The law of any statistic of the
degrees is read from the final states and divided once by the history
count, so it comes out in exact rational arithmetic, equal to the law
over every history.  No trees are materialized.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .special import harmonic
from .tree import Kernel, parse_statistic

__all__ = ["enumerate_statistic", "oracle_moment", "history_count"]

DEFAULT_CAP = 9


def history_count(n: int, kernel: Kernel) -> int:
    """Number of weighted attachment histories of an n-node tree: the
    product of the total weights that nodes 3..n join."""
    return math.prod(kernel.total_weight(m) for m in range(2, n))


def oracle_moment(law: dict, order: int):
    """Moment sum(value^order * prob) of a finite law {value: prob}: exact
    for a law of Fractions (the oracle's, or the degree DP's exact mode)."""
    if order < 1:
        raise ValueError(f"moment order must be >= 1, got {order}")
    return sum(v**order * p for v, p in law.items())


def _attach(others: tuple, d: int, leaf: bool) -> tuple:
    """The sorted (degree, count) pairs ``others`` with one node of degree
    d raised to d + 1 (none when d = 0) and, if ``leaf``, one more node of
    degree 1."""
    counts = dict(others)
    if d:
        counts[d] -= 1
        counts[d + 1] = counts.get(d + 1, 0) + 1
    if leaf:
        counts[1] = counts.get(1, 0) + 1
    return tuple(sorted((degree, count) for degree, count in counts.items() if count))


def enumerate_statistic(n: int, kernel: Kernel, statistic: str) -> dict:
    """Exact law {value: Fraction} of ``statistic`` over all n-node
    attachment histories, ascending in value.

    ``statistic`` is a label of ``tree.parse_statistic``, the one that
    ``port simulate`` takes: ``zagreb``, ``cubic``, ``zagreb2``,
    ``martingale`` or ``degree:J`` (the root is ``degree:1``).  The cap
    n <= DEFAULT_CAP = 9 is the reach of the checks built on the oracle
    (``verify`` tests its ``--n-max`` against it); at n = 9 the DP holds
    at most 118 states.
    """
    if n < 2:
        raise ValueError(f"enumeration requires n >= 2, got {n}")
    if n > DEFAULT_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {DEFAULT_CAP}")
    name, j = parse_statistic(statistic, n)

    # (root degree, node j's degree, sorted (degree, count) pairs of the
    # other nodes) -> summed integer weight of the histories that reach it.
    # Node j >= 2 is kept apart from its birth; its degree is 0 before
    # then, and always when no such node is watched.
    states = {(1, 1, ()) if j == 2 else (1, 0, ((1, 1),)): 1}
    root_gaps = kernel.root_gaps
    for m in range(2, n):  # node m+1 joins each m-node state
        born = m + 1 == j
        grown: dict = {}
        for (root, mine, others), weight in states.items():
            kept = 1 if born else mine  # node j's degree unless it is the parent
            rest = _attach(others, 0, not born)
            moves = [(root + root_gaps, (root + 1, kept, rest))]
            if mine:
                moves.append((mine, (root, mine + 1, rest)))
            moves += [(count * d, (root, kept, _attach(others, d, not born))) for d, count in others]
            for w, state in moves:
                grown[state] = grown.get(state, 0) + weight * w
        states = grown

    accum: dict = {}
    for (root, mine, others), weight in states.items():
        if name == "degree":
            value = root if j == 1 else mine
        else:  # Z or Y, with no node watched; zagreb2 and martingale are images of Z's law below
            power = 3 if name == "cubic" else 2
            value = root**power + sum(count * d**power for d, count in others)
        accum[value] = accum.get(value, 0) + weight
    # both maps of Z are injective and increasing, so the sorted law keeps its order
    if name == "zagreb2":
        accum = {z * z: weight for z, weight in accum.items()}
    elif name == "martingale":  # M_n = 2/(n-1) Z_n - 4 H_{n-1}
        h = harmonic(n - 1)
        accum = {Fraction(2 * z, n - 1) - 4 * h: weight for z, weight in accum.items()}
    total = history_count(n, kernel)
    return {value: Fraction(weight, total) for value, weight in sorted(accum.items())}
