"""The port-trees benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc-deep --seed 1 --seconds 30 --trace 0

Runs the workload's ``port`` command list in fresh single-threaded
interpreters, one list per pass, as many passes as fit in ``--seconds``,
and checks every command's output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates plain and traced passes and reports
the per-layer metrics.  A metric table goes to stdout first; the last
line is one JSON object.  Results, the environment and each traced pass's
spans are written under .perfbench_runs/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# a run must end within 180 s; leave room for checks and reporting
CHILD_DEADLINE_S = 165.0
SETUP_SAMPLES = 3
# nominal time of child.reference(); each command's wall time is scaled
# by REFERENCE_S / (the reference time measured around that command)
REFERENCE_S = 0.1

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "ratio"}


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failed command)."""


# spanned public functions whose calls, busy_s and self_s are reported
KEY_FUNCTIONS = (
    "cli.main",
    "montecarlo.grow_forest", "montecarlo.run_experiment", "montecarlo.summarize", "montecarlo.kde",
    "poisson.simulate_poissonized_tree", "poisson.simulate_yule",
    "zagreb.moment_series", "zagreb.zagreb_mean", "zagreb.zagreb_second_moment", "zagreb.martingale_diff_bound",
    "degree.degree_pmf_recurrence", "degree.root_pmf_recurrence", "degree.degree_pmf_closed",
    "degree.degree_pmf_hypergeom",
    "special.harmonic", "special.hypergeometric_pfq",
    "oracle.enumerate_statistic", "oracle.oracle_moment",
)
WORK_COUNTERS = {
    "montecarlo.grow_forest.insertions": "count",
    "montecarlo.grow_forest.steps": "count",
    "montecarlo.grow_forest.ns_per_insertion": "ns",
    "montecarlo.grow_forest.bytes_computed": "bytes",
    "montecarlo.grow_forest.peak_chunk_bytes_computed": "bytes",
    "poisson.simulate_poissonized_tree.events": "count",
    "poisson.simulate_poissonized_tree.ns_per_event": "ns",
    "zagreb.moment_series.steps": "count",
    "degree.degree_pmf_recurrence.dp_states": "count",
    "degree.root_pmf_recurrence.dp_states": "count",
    "oracle.enumerate_statistic.histories": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in KEY_FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.self_s": "s"})
    for layer in spans.LAYERS:
        units.update({f"{layer}.busy_s": "s", f"{layer}.self_s": "s"})
    return {**units, **WORK_COUNTERS}


def environment(root: str, versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {**versions, "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(), "commit": commit}


class Runner:
    def __init__(self, root: str, name: str, commands, seed: int, seconds: float, trace: bool):
        self.root = root
        self.commands = commands
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = os.path.join(root, ".perfbench_runs", f"{name}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"
        self.started = time.monotonic()
        self.spawned = 0

    def spawn(self, mode: str, commands=()) -> dict:
        """Run child.py once; return its result with ``setup_s`` added."""
        self.spawned += 1
        tag = f"{self.spawned:03d}-{mode}"
        spec = {
            "mode": mode,
            "commands": list(commands),
            "result_path": os.path.join(self.work_dir, f"{tag}-result.json"),
            "spans_path": os.path.join(self.work_dir, f"{tag}-spans.json"),
        }
        spec_path = os.path.join(self.work_dir, f"{tag}-spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        timeout = CHILD_DEADLINE_S - (time.monotonic() - self.started)
        with open(os.path.join(self.work_dir, f"{tag}-stderr.txt"), "w") as err:
            spawned_at = time.monotonic()
            child = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                code = child.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                raise BenchmarkError(f"pass {tag} did not finish before the {CHILD_DEADLINE_S:.0f} s deadline")
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if code != 0:
            with open(err.name) as fh:
                raise BenchmarkError(f"pass {tag} exited {code}:\n{fh.read()[-2000:]}")
        with open(spec["result_path"]) as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawned_at
        if "wall_s" in result:
            result["wall_norm_s"] = sum(c["seconds"] * REFERENCE_S / c["reference_s"] for c in result["commands"])
        result["spans_path"] = spec["spans_path"]
        return result

    def argvs(self, pass_dir: str) -> list:
        """(argument list, output directory) of each command of one pass."""
        argvs = []
        for index, command in enumerate(self.commands):
            out_dir = os.path.join(pass_dir, f"{index:02d}-{command.subcommand}")
            argvs.append((command.argv(out_dir, workloads.command_seed(self.seed, index)), out_dir))
        return argvs

    def run_pass(self, mode: str) -> dict:
        """One pass over the command list, its outputs checked and removed."""
        pass_dir = os.path.join(self.work_dir, f"pass{self.spawned + 1:03d}")
        argvs = self.argvs(pass_dir)
        result = self.spawn(mode, argvs)
        result["mode"] = mode
        result["failures"] = self.check(result, argvs)
        result["bytes_written"] = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(pass_dir) for f in files
        )
        shutil.rmtree(pass_dir)
        return result

    def check(self, result: dict, argvs) -> list:
        failures = []
        for command, (argv, out_dir), outcome in zip(self.commands, argvs, result["commands"]):
            if outcome["rc"] != 0 or outcome["error"]:
                with open(os.path.join(out_dir, "stderr.txt")) as fh:
                    lines = fh.read().strip().splitlines()
                detail = outcome["error"] or (lines[-1] if lines else "")
                failures.append({"command": command.args, "kind": "exit", "detail": f"rc={outcome['rc']} {detail}"})
                continue
            try:
                errors = command.check(out_dir, outcome["counters"])
            except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if errors:
                failures.append({"command": command.args, "kind": "wrong-output", "detail": "; ".join(errors)})
        return failures

    def remaining(self) -> float:
        return self.seconds - (time.monotonic() - self.started)

    def measure(self) -> dict:
        modes = ["plain", "traced"] if self.trace else ["plain"]
        passes = []
        while True:
            mode = modes[len(passes) % len(modes)]
            begun = time.monotonic()
            passes.append(self.run_pass(mode))
            last = time.monotonic() - begun
            if len(passes) >= len(modes) and self.remaining() < last:
                break
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.spawn("setup")["setup_s"])
        return {"passes": passes, "setups": setups}


def end_to_end(passes, setups) -> dict:
    """``wall_norm_s`` is the median over the plain passes of each pass's
    wall time at the reference speed.  The shared host's speed drifts by
    up to 2x over tens of seconds; the reference loop timed around each
    command drifts with it, so the scaled time stays steady between runs."""
    plain = [p for p in passes if p["mode"] == "plain"]
    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {
        "wall_norm_s": statistics.median(p["wall_norm_s"] for p in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024.0 for p in plain),
        "ops_ok_frac": 1.0 - failed / attempted,
    }


def counter_totals(result: dict) -> dict:
    """A pass's work counters merged over its commands."""
    totals: dict = {}
    for outcome in result["commands"]:
        spans.merge(totals, outcome["counters"])
    return totals


def counters_repeat(passes) -> bool:
    """Whether every counter reads the same in every pass that records it."""
    seen: dict = {}
    for p in passes:
        for key, value in counter_totals(p).items():
            if seen.setdefault(key, value) != value:
                return False
    return True


def pass_layers(result: dict) -> dict:
    """Per-layer metrics of one traced pass, from its spans file and counters."""
    with open(result["spans_path"]) as fh:
        metrics = spans.aggregate(json.load(fh)["spans"])
    metrics.update(counter_totals(result))
    metrics["cli.bytes_written"] = result["bytes_written"]
    for name, work in (("montecarlo.grow_forest", "insertions"), ("poisson.simulate_poissonized_tree", "events")):
        count = metrics.get(f"{name}.{work}", 0)
        metrics[f"{name}.ns_per_{work[:-1]}"] = 1e9 * metrics.get(f"{name}.busy_s", 0.0) / count if count else 0.0
    return metrics


def per_layer(passes, names) -> dict:
    """Medians over the traced passes of every per-layer metric, and the
    tracing overhead: the median over adjacent (plain, traced) pass pairs
    of (traced - plain) / plain wall time at the reference speed."""
    traced = [pass_layers(p) for p in passes if p["mode"] == "traced"]
    values = {name: statistics.median_low(m.get(name, 0) for m in traced) for name in names}
    pairs = zip(passes[0::2], passes[1::2])  # passes alternate plain, traced
    values["trace.overhead_frac"] = statistics.median(
        (t["wall_norm_s"] - p["wall_norm_s"]) / p["wall_norm_s"] for p, t in pairs
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "port_trees", "cli.py")):
        print("perfbench: no src/port_trees here; run from the root of a port-trees checkout", file=sys.stderr)
        return 1
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    runner = Runner(root, args.workload, workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        measured = runner.measure()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    passes, setups = measured["passes"], measured["setups"]
    attempted = sum(len(p["commands"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    correct = counters_repeat(passes) and not any(f["kind"] == "wrong-output" for f in failures)
    if args.trace:
        units = per_layer_units()
        values = per_layer(passes, units)
    else:
        units = END_TO_END_UNITS
        values = end_to_end(passes, setups)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(root, passes[-1]["versions"]),
        "passes": [
            {**{k: p[k] for k in ("mode", "wall_s", "wall_norm_s", "setup_s", "maxrss_kb", "failures")},
             "command_s": [c["seconds"] for c in p["commands"]],
             "reference_s": [c["reference_s"] for c in p["commands"]]}
            for p in passes
        ],
        "setups_s": setups,
        "metrics": values,
    }
    with open(os.path.join(runner.work_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    for failure in failures:
        print(f"FAILED [{failure['kind']}] port {failure['command']}: {failure['detail'][:300]}")
    env = record["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}, commit {env['commit']}")
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, {attempted} commands, {len(failures)} failed")
    if not args.trace:
        plain_wall = statistics.median(p["wall_s"] for p in passes)
        print(f"  {'wall_s':40s} {plain_wall:>16.6g} s (unscaled; host speed varies, so not bounded)")
        print(f"  {'ops_failed_frac':40s} {len(failures) / attempted:>16.6g} ratio")
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
