"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json   (with src/ on PYTHONPATH)

SPEC holds the command argument lists, their output directories, the
mode (``setup``, ``plain`` or ``traced``) and the result path.  The
child imports the CLI and builds its parser first, and reports the
monotonic clock at that point so the parent can compute set-up time
from the moment it spawned the child.  It then runs every command in
order through ``port_trees.cli.main``, capturing each command's stdout
and stderr in its output directory, and writes a JSON result.  Before
the first command and after each command it times a fixed reference
loop (``reference``), so the parent can tell how fast the shared host
ran while each command ran.
"""

import sys
import time

from port_trees import cli

cli.build_parser()
READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402


def reference() -> float:
    """Seconds taken by a fixed mix of the workloads' kinds of work: a
    bare interpreter loop, small numpy operations in a Python loop, and
    big-integer Fraction sums.  It uses nothing of the package."""
    began = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    index = np.arange(256) * 7919 % 256
    acc = np.zeros(256)
    for i in range(5_000):
        acc += index[(index + i) % 256]
    harmonic = Fraction(0)
    for k in range(1, 4_000):
        harmonic += Fraction(1, k)
    return time.perf_counter() - began


def run(spec: dict) -> dict:
    result = {"ready": READY}
    if spec["mode"] == "setup":
        return result
    traced = spec["mode"] == "traced"
    # the plain pass wraps only grow_forest, once per call, to read the
    # martingale increment-bound flags its result carries
    recorder = spans.Recorder(timed=traced, only=("montecarlo.grow_forest",))
    recorder.install()
    commands = []
    references = [reference()]
    for index, (argv, out_dir) in enumerate(spec["commands"]):
        recorder.start_command(index)
        os.makedirs(out_dir, exist_ok=True)
        error = None
        began = time.perf_counter()
        with open(os.path.join(out_dir, "stdout.txt"), "w") as out, open(
            os.path.join(out_dir, "stderr.txt"), "w"
        ) as err, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is one failed command, not a failed benchmark
                rc, error = 1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - began
        references.append(reference())
        commands.append({
            "rc": rc, "error": error, "seconds": seconds, "counters": recorder.counters[index],
            "reference_s": (references[-2] + references[-1]) / 2,
        })
    result["wall_s"] = sum(command["seconds"] for command in commands)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["commands"] = commands
    if traced:
        with open(spec["spans_path"], "w") as fh:
            json.dump({"columns": ["command", "name", "parent", "start", "end"], "spans": recorder.spans}, fh)
    import numpy
    import scipy

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    return result


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
