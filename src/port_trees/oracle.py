"""Brute-force ground truth by exhaustive history enumeration.

Every attachment history of a small tree is visited once by a DFS over
parent choices.  Branch weights are the integer attachment weights, so
each leaf carries an exact integer weight and the law of any statistic
comes out in exact rational arithmetic.  The statistic is evaluated
incrementally along the DFS path (push/pop degree updates); no trees are
materialized.
"""

from __future__ import annotations

from fractions import Fraction

from .special import harmonic
from .tree import Kernel, parse_statistic

__all__ = ["enumerate_statistic", "oracle_moment", "history_count"]

DEFAULT_CAP = 9


def history_count(n: int, kernel: Kernel) -> int:
    """Number of weighted attachment histories of an n-node tree."""
    total = 1
    for m in range(2, n):
        total *= (2 * m - 1) if kernel is Kernel.GAP else 2 * (m - 1)
    return total


def oracle_moment(law: dict, order: int):
    """Moment sum(value^order * prob) of a finite law {value: prob}: exact
    for a law of Fractions (the oracle's, or the degree DP's exact mode)."""
    if order < 1:
        raise ValueError(f"moment order must be >= 1, got {order}")
    return sum(v**order * p for v, p in law.items())


def enumerate_statistic(n: int, kernel: Kernel, statistic: str) -> dict:
    """Exact law {value: Fraction} of ``statistic`` over all n-node
    attachment histories, ascending in value.

    ``statistic`` is a label of ``tree.parse_statistic``, the one that
    ``port simulate`` takes: ``zagreb``, ``cubic``, ``zagreb2``,
    ``martingale`` or ``degree:J`` (the root is ``degree:1``).  The cap
    n <= DEFAULT_CAP = 9 keeps the history count near 2 million.
    """
    if n < 2:
        raise ValueError(f"enumeration requires n >= 2, got {n}")
    if n > DEFAULT_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {DEFAULT_CAP}")
    name, j = parse_statistic(statistic, n)

    gap = kernel is Kernel.GAP
    degree = [0] * (n + 1)
    degree[1] = 1
    degree[2] = 1
    accum: dict = {}
    # state carried along the DFS: degrees, zagreb, cubic
    state = {"zagreb": 2, "cubic": 2}

    def record(weight: int) -> None:
        if name == "degree":
            value = degree[j]
        elif name == "cubic":
            value = state["cubic"]
        else:  # zagreb, and zagreb2 / martingale as images of its law below
            value = state["zagreb"]
        accum[value] = accum.get(value, 0) + weight

    def dfs(m: int, weight: int) -> None:
        # insert node m+1 into the current m-node tree
        if m == n:
            record(weight)
            return
        for v in range(1, m + 1):
            w = degree[v] + 1 if (gap and v == 1) else degree[v]
            d_old = degree[v]
            degree[v] += 1
            degree[m + 1] = 1
            state["zagreb"] += 2 * d_old + 2
            state["cubic"] += 3 * d_old * d_old + 3 * d_old + 2
            dfs(m + 1, weight * w)
            state["cubic"] -= 3 * d_old * d_old + 3 * d_old + 2
            state["zagreb"] -= 2 * d_old + 2
            degree[m + 1] = 0
            degree[v] = d_old

    dfs(2, 1)
    # both maps of Z are injective and increasing, so the sorted law keeps its order
    if name == "zagreb2":
        accum = {z * z: weight for z, weight in accum.items()}
    elif name == "martingale":  # M_n = 2/(n-1) Z_n - 4 H_{n-1}
        h = harmonic(n - 1)
        accum = {Fraction(2 * z, n - 1) - 4 * h: weight for z, weight in accum.items()}
    total = history_count(n, kernel)
    return {value: Fraction(weight, total) for value, weight in sorted(accum.items())}
