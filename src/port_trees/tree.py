"""The two attachment kernels of a plane-oriented recursive tree.

A newcomer attaches to an existing node with probability proportional
to that node's weight.  Under both kernels a node's weight is its
degree; the kernels differ only at the root:

* ``Kernel.GAP`` -- gap-oriented attachment: a node with outdegree k
  carries k+1 insertion gaps.  That is the degree of every node but the
  root, which has no parent edge and so one gap beyond its degree.
* ``Kernel.DEGREE`` -- attachment proportional to raw degree.  The very
  first insertion (m=1 -> 2) is forced to the root, matching the unique
  two-node tree.

``Kernel`` is the one place that states these weights: ``root_gaps`` is
the root's weight beyond its degree, and ``total_weight(m)`` the summed
weight of an m-node tree, so a newcomer picks node v of an m-node tree
with probability weight(v)/total_weight(m).  The oracle, the forest
sampler and the degree DP all read them from here.

The module also holds the one vocabulary of tree statistics that the
exact enumeration and the forest sampler share: the label table
``STATISTICS`` and its parser ``parse_statistic``.  The degree of node
J is ``degree:J``, and the root is node 1.
"""

from __future__ import annotations

import enum


class Kernel(enum.Enum):
    GAP = "gap"
    DEGREE = "degree"

    @classmethod
    def parse(cls, name: str) -> "Kernel":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown kernel {name!r}; expected 'gap' or 'degree'") from None

    @property
    def root_gaps(self) -> int:
        """The root's weight beyond its degree: its extra gap, 1 under
        ``GAP`` and 0 under ``DEGREE``."""
        return 1 if self is Kernel.GAP else 0

    def total_weight(self, m: int) -> int:
        """The summed weight of an m-node tree: the 2(m - 1) ends of its
        edges, plus the root's extra gaps."""
        return 2 * (m - 1) + self.root_gaps


# each fixed label as (statistic, node); the node is None unless the
# statistic is a degree.  ``degree:J`` (1 <= J <= n) is parsed apart.
STATISTICS = {
    "zagreb": ("zagreb", None),
    "cubic": ("cubic", None),
    "zagreb2": ("zagreb2", None),
    "root-degree": ("degree", 1),
    "martingale": ("martingale", None),
}


def parse_statistic(label: str, n: int) -> tuple[str, int | None]:
    """A ``--stat`` label of an n-node tree as (statistic, node):
    ``degree:J`` is ("degree", J) for 1 <= J <= n, with J in canonical
    ASCII digits, and each label of ``STATISTICS`` is its entry there."""
    if label in STATISTICS:
        return STATISTICS[label]
    name, _, node = label.partition(":")
    if name != "degree":
        raise ValueError(f"--stat {label!r}: unknown statistic; expected {', '.join(STATISTICS)} or degree:J")
    # one spelling per node, so one statistic is recorded under one label
    if not (node.isascii() and node.isdigit()) or (node[0] == "0" and node != "0"):
        raise ValueError(
            f"--stat {label!r}: expected degree:J with an integer J written in ASCII digits, "
            "with no sign, space or leading zero"
        )
    j = int(node)
    if not 1 <= j <= n:
        raise ValueError(f"--stat {label!r}: node J must satisfy 1 <= J <= n = {n}")
    return "degree", j
