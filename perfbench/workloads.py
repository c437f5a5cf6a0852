"""The benchmark's workloads: fixed lists of ``port`` commands.

Each command is the argument list of one README-style ``port`` call and
the output check that judges it.  ``{seed}`` in a Monte Carlo command is
replaced by a seed derived from the benchmark's ``--seed``; the exact
commands take no seed, so their inputs (and outputs) are the same for
every benchmark seed.  Why each workload exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    args: str
    check: Callable  # check(out_dir, counters) -> list of error strings

    @property
    def subcommand(self) -> str:
        return self.args.split()[0]

    def argv(self, out_dir: str, seed: int) -> list[str]:
        argv = self.args.format(seed=seed).split()
        if self.subcommand != "verify":
            argv += ["--out", out_dir]
        return argv


WORKLOADS = {
    # few replicates, deep trees: per-step interpreter overhead
    "mc-deep": [
        Command("simulate --n 20000 --reps 200 --stat zagreb --seed {seed}", checks.zagreb_sample(20000, 200)),
        Command("simulate --n 10000 --reps 200 --stat martingale --seed {seed}", checks.martingale_sample(200)),
        # many short event runs: the total event count, and so the work, varies little with the seed
        Command("poisson --mode tree --j 2 --dt 3 --reps 600 --seed {seed}", checks.poisson_sample(3.0, 600)),
    ],
    # many replicates, shallow trees: wide gathers, statistics, KDE, big sample files
    "mc-wide": [
        Command(
            "simulate --n 10000 --reps 600 --stat zagreb --kde 256 --seed {seed}",
            checks.zagreb_sample(10000, 600, kde_grid=256),
        ),
        Command(
            "simulate --n 5000 --reps 1500 --kernel gap --stat degree:10 --seed {seed}",
            checks.degree_sample(5000, 10, 1500),
        ),
        Command("normality-report --n 5000 --reps 1500 --seed {seed}", checks.normality_report(5000, 1500)),
        Command("poisson --dt 5 --reps 100000 --seed {seed}", checks.poisson_sample(5.0, 100000)),
    ],
    # exact analytics: Fraction recurrences, float DPs, exact routes, DFS oracle
    "exact": [
        Command("zagreb-moments --n-max 2000 --rational", checks.zagreb_series(2000, rational=True, digest="series-2000-rational")),
        # default mode is rational up to n = 10^4; fails at this size (see README.md)
        Command("zagreb-moments --n-max 3000", checks.zagreb_series(3000, rational=True)),
        Command("zagreb-moments --n-max 50000", checks.zagreb_series(50000, rational=False)),
        Command("exact-pmf --n 1000 --j 2", checks.pmf(1000, 2)),
        Command("exact-pmf --n 1000 --j 1", checks.pmf(1000, 1)),
        Command("exact-pmf --n 200 --j 2 --rational", checks.pmf(200, 2, rational=True, digest="pmf-200-2-rational")),
        Command("exact-pmf --n 100 --j 3 --method closed", checks.pmf(100, 3)),
        Command("exact-pmf --n 150 --j 3 --method hypergeom", checks.pmf(150, 3)),
        Command("oracle --n 9 --kernel degree --stat zagreb", checks.oracle_law(9, "degree", "zagreb", digest="oracle-9-degree-zagreb")),
        Command(
            "oracle --n 9 --kernel degree --stat martingale",
            checks.oracle_law(9, "degree", "martingale", digest="oracle-9-degree-martingale"),
        ),
        Command("oracle --n 9 --kernel gap --stat degree:3", checks.oracle_law(9, "gap", "degree:3", digest="oracle-9-gap-degree3")),
        Command("verify --suite oracle --n-max 8", checks.verify_passed()),
        Command("verify --suite routes --n-max 20", checks.verify_passed()),
    ],
}


def command_seed(seed: int, index: int) -> int:
    """Seed handed to the index-th command of a run with benchmark seed ``seed``."""
    return 1000 * seed + index
