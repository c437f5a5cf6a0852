import glob
import multiprocessing
import os
import signal
from fractions import Fraction

import pytest

from port_trees import zagreb
from port_trees.special import harmonic
from port_trees.tree import Kernel, parse_statistic


def _live_children() -> list[int]:
    """Pids of this process's children that have not exited: every child
    where procfs lists them, else the ``multiprocessing`` workers."""
    workers = multiprocessing.active_children()  # also reaps the workers that have exited
    if not os.path.isdir("/proc/self/task"):
        return [worker.pid for worker in workers]
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as fh:
                pids.update(int(pid) for pid in fh.read().split())
        except FileNotFoundError:  # the thread ended
            pass
    return sorted(pid for pid in pids if _running(pid))


def _running(pid: int) -> bool:
    """Whether the child ``pid`` is alive: not reaped and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a live child process, after killing it so
    that the tests after it start clean."""
    yield
    left = _live_children()
    if not left:
        return
    for worker in multiprocessing.active_children():
        worker.kill()
        worker.join()
    for pid in _live_children():
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    pytest.fail(f"the test left {len(left)} live child process(es): pids {left}")


@pytest.fixture
def table_cores(monkeypatch):
    """``table_cores(k)`` makes the exact Zagreb table see k usable cores,
    where more than one forks the square-divisor worker, and returns the
    list of the table's calls to ``_piped_square_divisors`` in this test,
    one per forked worker."""
    piped, spy = [], zagreb._piped_square_divisors
    monkeypatch.setattr(zagreb, "_piped_square_divisors", lambda *args: piped.append(args) or spy(*args))

    def set_cores(cores: int) -> list:
        monkeypatch.setattr(zagreb, "_cpu_count", lambda: cores)
        return piped

    return set_cores


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


def _dfs_weights(n: int, kernel: Kernel, statistic: str) -> dict:
    """{value: summed integer weight} of ``statistic`` over every
    attachment history, each visited once by a DFS over parent choices.
    Branch weights are the integer attachment weights, written out here
    apart from ``tree.Kernel``, and the statistic is updated along the
    DFS path (push/pop degree updates)."""
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
    return accum


def _enumerate_by_dfs(n: int, kernel: Kernel, statistic: str) -> dict:
    """The law of ``oracle.enumerate_statistic`` from the DFS's weights,
    divided by their own sum, not by ``oracle.history_count``."""
    weights = _dfs_weights(n, kernel, statistic)
    total = sum(weights.values())
    return {value: Fraction(weight, total) for value, weight in sorted(weights.items())}


@pytest.fixture(scope="session")
def dfs_weights():
    """The DFS's summed integer weight of each value of a statistic; its
    total is the weight of every attachment history."""
    return _dfs_weights


@pytest.fixture(scope="session")
def enumerate_by_dfs():
    """The brute-force reference for the oracle's degree-multiset DP: the
    law of a statistic over every attachment history, one DFS leaf each."""
    return _enumerate_by_dfs
