"""The two attachment kernels of a plane-oriented recursive tree.

A newcomer attaches to an existing node with probability proportional
to that node's weight under one of two kernels:

* ``Kernel.GAP`` -- gap-oriented attachment: a node with outdegree k
  carries k+1 insertion gaps, so node v is chosen with probability
  (outdegree(v)+1)/(2m-1) in an m-node tree.
* ``Kernel.DEGREE`` -- attachment proportional to raw degree,
  probability degree(v)/(2(m-1)) in an m-node tree (m >= 2).  The very
  first insertion (m=1 -> 2) is forced to the root, matching the unique
  two-node tree.

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
