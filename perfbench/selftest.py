"""Self-test of the benchmark's output checks.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

Runs a few real commands once, confirms their outputs pass, then
corrupts one output at a time -- one flipped digit in an exact output,
or a Monte Carlo sample shifted by 10 standard errors with its summary
rewritten to match -- and confirms that the benchmark's own accounting
counts exactly that command as failed in ``ops_failed_frac``.  Exits 0
when every corruption is caught.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import numpy as np

import checks
import run
from workloads import Command

COMMANDS = [
    Command("oracle --n 9 --kernel gap --stat degree:3", checks.oracle_law(9, "gap", "degree:3", digest="oracle-9-gap-degree3")),
    Command("zagreb-moments --n-max 2000 --rational", checks.zagreb_series(2000, rational=True, digest="series-2000-rational")),
    Command("exact-pmf --n 1000 --j 2", checks.pmf(1000, 2)),
    Command("simulate --n 3000 --reps 400 --stat zagreb --seed {seed}", checks.zagreb_sample(3000, 400)),
    Command("poisson --dt 5 --reps 100000 --seed {seed}", checks.poisson_sample(5.0, 100000)),
]


def flip_digit(path: str, line_index: int, column: int = 0) -> None:
    """Change one digit of the given CSV line (or JSON line) in place."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    line = lines[line_index]
    cells = line.split(",")
    cell = cells[column] if len(cells) > column else line
    position = next(i for i, ch in enumerate(cell) if ch.isdigit() and ch not in "0")
    digit = cell[position]
    cells[column] = cell[:position] + str((int(digit) % 9) + 1) + cell[position + 1 :]
    lines[line_index] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def shift_sample(out_dir: str, standard_errors: float) -> None:
    """Shift every sample value by the given number of standard errors
    (rounded up to whole units) and make summary.json agree."""
    path = os.path.join(out_dir, "sample.csv")
    sample = np.loadtxt(path, dtype=np.int64)
    se = float(np.std(sample, ddof=1)) / math.sqrt(sample.size)
    shifted = sample + int(math.ceil(standard_errors * se))
    with open(path, "w") as fh:
        fh.writelines(f"{v}\n" for v in shifted)
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path) as fh:
        summary = json.load(fh)
    summary["mean"] = float(shifted.mean())
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)


def oracle_json_line(path: str) -> int:
    with open(path) as fh:
        return next(i for i, line in enumerate(fh) if "/" in line and ":" in line)


CORRUPTIONS = [
    # (command index, description, corrupt(out_dir))
    (0, "flipped digit in an oracle probability", lambda d: flip_digit(os.path.join(d, "oracle.json"), oracle_json_line(os.path.join(d, "oracle.json")))),
    (1, "flipped digit in a rational E[Z_n]", lambda d: flip_digit(os.path.join(d, "series.csv"), 1500, column=1)),
    (1, "flipped digit in a rational E[Y_n] (digest only)", lambda d: flip_digit(os.path.join(d, "series.csv"), 1500, column=2)),
    (2, "flipped digit in a float probability", lambda d: flip_digit(os.path.join(d, "pmf.csv"), 40, column=1)),
    (3, "Zagreb sample shifted by 10 SE", lambda d: shift_sample(d, 10.0)),
    (4, "Yule sample shifted by 10 SE", lambda d: shift_sample(d, 10.0)),
]


def ops_failed_frac(runner, result, argvs) -> tuple[float, list]:
    result = dict(result, mode="plain", failures=runner.check(result, argvs))
    return 1.0 - run.end_to_end([result], [result["setup_s"]])["ops_ok_frac"], result["failures"]


def main() -> int:
    root = os.getcwd()
    runner = run.Runner(root, "selftest", COMMANDS, seed=1, seconds=0, trace=False)
    clean_dir = os.path.join(runner.work_dir, "clean")
    argvs = runner.argvs(clean_dir)
    result = runner.spawn("plain", argvs)
    ok = True
    clean, _ = ops_failed_frac(runner, result, argvs)
    print(f"{'PASS' if clean == 0 else 'FAIL'} clean outputs: ops_failed_frac = {clean:.4f}")
    ok &= clean == 0
    expected = 1.0 / len(COMMANDS)
    for index, description, corrupt in CORRUPTIONS:
        case_dir = os.path.join(runner.work_dir, "case")
        shutil.rmtree(case_dir, ignore_errors=True)
        shutil.copytree(clean_dir, case_dir)
        case_argvs = runner.argvs(case_dir)
        corrupt(case_argvs[index][1])
        frac, failures = ops_failed_frac(runner, result, case_argvs)
        caught = math.isclose(frac, expected)
        ok &= caught
        print(f"{'PASS' if caught else 'FAIL'} {description}: ops_failed_frac = {frac:.4f} (expected {expected:.4f})")
        for failure in failures:
            print(f"     {failure['detail'][:160]}")
    shutil.rmtree(runner.work_dir)
    print("selftest:", "all corruptions counted" if ok else "some corruption was NOT counted")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
