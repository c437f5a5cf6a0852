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

