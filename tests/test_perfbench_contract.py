"""The benchmark's contract with the package.

``perfbench/child.py`` installs a ``spans.Recorder`` over the package and
runs ``port`` commands through ``cli.main``.  Its observers bind each
spanned function's arguments by name (``n``, ``replicates``,
``chunk_size``, ``kernel``, ...) and read its return value
(``extra["martingale_bound_ok"]``, ``times``), so renaming an argument or
a result field breaks every benchmark command although the package's own
tests pass.  This test installs both recorders the benchmark uses, in a
fresh interpreter, and runs one small command of each command shape in
``perfbench/workloads.py``, and one per exact degree route, through
them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REPS = 20

_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import spans
from port_trees import cli

out, reps = sys.argv[2], sys.argv[4]
if sys.argv[3] == "timed":
    recorder = spans.Recorder(timed=True)
else:
    recorder = spans.Recorder(timed=False, only=("montecarlo.grow_forest",))
recorder.install()
commands = [
    f"simulate --n 50 --reps {reps} --stat martingale --seed 1 --out {out}/simulate",
    f"simulate --n 50 --reps {reps} --kernel gap --stat degree:3 --seed 1 --out {out}/simulate-degree",
    f"simulate --n 50 --reps {reps} --stat zagreb --kde 16 --seed 1 --out {out}/simulate-kde",
    f"normality-report --n 50 --reps {reps} --seed 1 --out {out}/normality",
    f"poisson --mode tree --j 2 --dt 0.5 --reps {reps} --seed 1 --out {out}/poisson",
    f"poisson --dt 1 --reps {reps} --seed 1 --out {out}/yule",
    f"exact-pmf --n 30 --j 2 --out {out}/pmf",
    f"exact-pmf --n 30 --j 3 --method hypergeom --out {out}/hypergeom",
    f"exact-pmf --n 30 --j 3 --method closed --out {out}/closed",
    f"exact-moments --n 50 --j 2 --out {out}/moments",
    f"oracle --n 5 --kernel degree --stat zagreb --out {out}/oracle",
    f"oracle --n 5 --kernel degree --stat martingale --out {out}/oracle-martingale",
    f"zagreb-moments --n-max 30 --out {out}/zagreb",
    f"zagreb-moments --n-max 30 --rational --out {out}/zagreb-rational",
    "verify --suite oracle --n-max 4",
    "verify --suite routes --n-max 6",
]
results = []
for index, command in enumerate(commands):
    recorder.start_command(index)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(command.split())
    results.append({"command": command, "rc": rc, "counters": recorder.counters[index]})
print(json.dumps({"results": results, "spans": len(recorder.spans)}))
"""


@pytest.mark.parametrize("mode", ["plain", "timed"])
def test_recorder_installs_and_every_subcommand_runs(tmp_path, mode):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ as it is
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"), str(tmp_path), mode, str(REPS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    for result in report["results"]:
        assert result["rc"] == 0, result["command"]
    counters = report["results"][0]["counters"]
    assert counters["montecarlo.grow_forest.bound_checked"] == REPS
    assert counters["montecarlo.grow_forest.bound_violations"] == 0
    if mode == "plain":  # only the sampler's martingale path checks the increment bound
        checked = [r["command"] for r in report["results"] if "montecarlo.grow_forest.bound_checked" in r["counters"]]
        assert checked == [report["results"][0]["command"]]
    assert (report["spans"] > 0) == (mode == "timed")
