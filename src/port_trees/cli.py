"""Command-line front end.

One executable, ``port``, with one subcommand per capability; one table
of options, ``build_parser``, that declares each flag's type, default
and required-ness once; and one writer, ``_output``, for every output
file (the library only computes).  A run with ``--out`` also drops a
``run-manifest.json`` holding the resolved options, the seed among them,
and the package version -- enough to reproduce the outputs byte for
byte.  ``main`` writes it last, so only a run that succeeded has one.

A config file (simple ``key = value`` lines, ``#`` comments) can supply
defaults via ``--config``: keys are option names (``n_max`` or
``n-max``), values are parsed with the flag's type, other keys are
ignored, and explicit flags always win.  The seed comes only from the
flag or config file, never from the environment.

The sampling commands import ``montecarlo``, ``poisson`` and numpy
inside their own functions, so a command that builds no array starts
without numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .degree import degree_mean, degree_pmf_closed, degree_pmf_hypergeom, degree_pmf_recurrence, degree_variance
from .oracle import DEFAULT_CAP, enumerate_statistic, history_count, oracle_moment
from .tree import Kernel
from .zagreb import martingale_diff_bound, moment_rows, zagreb_mean, zagreb_second_moment

SCHEMA_VERSION = 1
_REQUIRED = object()  # default of a required option; main names the option if it stays unset
# values per write of sample.csv: one join per block is about twice as
# fast as a write per value, and only one block's strings are alive
_SAMPLE_BLOCK = 8192


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _Config(argparse.Action):
    """``--config FILE``, parsed before the subcommand: a key naming a flag
    sets its default, which argparse parses as it would the flag's value."""

    def __init__(self, commands, **kwargs):
        super().__init__(**kwargs)
        self.commands = commands  # [(subparser, its flags' dests)]

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            config = _load_config(path)
        except (OSError, ValueError) as exc:
            raise argparse.ArgumentError(self, str(exc)) from None
        for sub, dests in self.commands:
            sub.set_defaults(**{dest: value for dest, value in config.items() if dest in dests})
        setattr(namespace, self.dest, path)


class _Switch(argparse.Action):
    """A flag that takes no value; a config file sets it with ``true`` or
    ``false``, which argparse parses by ``type`` as any other flag's value."""

    def __init__(self, **kwargs):
        super().__init__(nargs=0, default=False, type=_true_or_false, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)


def _directory(path: str) -> str:
    if not path:
        raise argparse.ArgumentTypeError("expected a directory name, got ''")
    return path


def _true_or_false(value: str) -> bool:
    if value not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")
    return value == "true"


def _format(value: str) -> str:  # not ``choices``, which argparse skips for config values
    if value not in ("csv", "json"):
        raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from 'csv', 'json')")
    return value


def _num(x):
    """Serialize a number: rationals (a Fraction or a (numerator,
    denominator) pair) as 'p/q' strings, floats shortest."""
    if type(x) is float:  # the common case, tested before any ABC isinstance
        return repr(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, tuple):
        return f"{x[0]}/{x[1]}"
    return str(x)


def _load_config(path: str) -> dict:
    config = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key = value): {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            config[key.replace("-", "_")] = value
    return config


@contextlib.contextmanager
def _output(out_dir: str | None, name: str):
    """The file ``name`` under ``out_dir`` (created if needed), or stdout:
    the one place the package creates a directory or a file."""
    if out_dir is None:
        yield sys.stdout
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        yield fh


def _emit_json(payload: dict, out_dir: str | None, name: str) -> None:
    with _output(out_dir, name) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _emit_rows(header, rows, fmt: str, out_dir: str | None, stem: str) -> None:
    """Write rows as CSV or JSON to ``out_dir/stem.fmt`` or stdout.

    Rows are written one at a time in either format, so ``rows`` may be a
    generator and the whole table is never held as text.  The JSON text is
    the same as ``json.dumps(payload, indent=2)`` of the whole table.
    """
    if fmt == "json":
        head = json.dumps({"schema_version": SCHEMA_VERSION, "columns": list(header)}, indent=2)
        with _output(out_dir, f"{stem}.json") as fh:
            fh.write(head[:-2] + ',\n  "rows": [')  # reopen the object after "columns"
            first = "\n    "  # written before the first row, ",\n    " before each later one
            sep = first
            for row in rows:
                fh.write(sep + json.dumps(list(row), indent=2).replace("\n", "\n    "))
                sep = ",\n    "
            fh.write("]\n}\n" if sep == first else "\n  ]\n}\n")  # no rows: json.dumps prints []
        return
    with _output(out_dir, f"{stem}.csv") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def _emit_sample(out_dir: str, sample, summary: dict) -> None:
    """``sample.csv``, one value per line of the numpy array ``sample``
    (``tolist`` prints ints as ints and floats by ``repr``), and
    ``summary.json``."""
    with _output(out_dir, "sample.csv") as fh:
        for start in range(0, sample.size, _SAMPLE_BLOCK):
            fh.write("\n".join(map(str, sample[start : start + _SAMPLE_BLOCK].tolist())) + "\n")
    _emit_json({"schema_version": SCHEMA_VERSION, **summary}, out_dir, "summary.json")


def _write_manifest(out_dir: str, subcommand: str, resolved: dict) -> None:
    manifest = {  # keys in sorted order, as in the resolved options
        "resolved": dict(sorted(resolved.items())),
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "version": __version__,
    }
    _emit_json(manifest, out_dir, "run-manifest.json")


def _cmd_exact_pmf(args) -> int:
    routes = {"closed": degree_pmf_closed, "recurrence": degree_pmf_recurrence, "hypergeom": degree_pmf_hypergeom}
    if args.method not in routes:
        raise SystemExit(f"unknown method {args.method!r}")
    if args.rational and args.method != "recurrence":
        raise SystemExit("--rational is only available with the recurrence method")
    law = degree_pmf_recurrence(args.n, args.j, exact=True) if args.rational else routes[args.method](args.n, args.j)
    _emit_rows(("d", "probability"), [(d, _num(p)) for d, p in law.items()], args.format, args.out, "pmf")
    return 0


def _cmd_exact_moments(args) -> int:
    n, j = args.n, args.j
    rows = [(n, j, _num(degree_mean(n, j)), _num(degree_variance(n, j)))]
    _emit_rows(("n", "j", "mean", "variance"), rows, args.format, args.out, "moments")
    return 0


def _cmd_zagreb_moments(args) -> int:
    if args.n_max < 1:
        raise SystemExit(f"zagreb-moments requires --n-max >= 1, got {args.n_max}")
    rows = (
        (n, _num(mz), _num(my), _num(sz), _num(vz))
        for n, mz, my, sz, vz in moment_rows(args.n_max, exact=args.rational or None)
    )
    _emit_rows(("n", "mean_Z", "mean_Y", "second_Z", "var_Z"), rows, args.format, args.out, "series")
    return 0


def _cmd_oracle(args) -> int:
    kernel = Kernel.parse(args.kernel)
    law = enumerate_statistic(args.n, kernel, args.stat)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "kernel": kernel.value,
        "statistic": args.stat,
        "history_count": history_count(args.n, kernel),
        "law": {_num(v): _num(p) for v, p in law.items()},
        "mean": _num(oracle_moment(law, 1)),
        "second_moment": _num(oracle_moment(law, 2)),
    }
    _emit_json(payload, args.out, "oracle.json")
    return 0


def _simulate(sim, out_dir: str, kde_grid: int):
    """Run the experiment of the ``SimulationConfig`` ``sim``; write its
    sample, summary and, if ``kde_grid``, KDE; return the summary."""
    from .montecarlo import kde, run_experiment

    sample, summary = run_experiment(sim)
    _emit_sample(out_dir, sample, summary)
    if kde_grid:
        grid, density = kde(sample, kde_grid)
        _emit_rows(("x", "density"), zip(grid.tolist(), density.tolist()), "csv", out_dir, "kde")
    return summary


def _cmd_simulate(args) -> int:
    if args.kde < 0:
        raise SystemExit(f"--kde must be >= 0 (0 disables the KDE), got {args.kde}")
    from .montecarlo import SimulationConfig

    sim = SimulationConfig(
        n=args.n, replicates=args.reps, kernel=Kernel.parse(args.kernel), seed=args.seed, statistic=args.stat
    )
    summary = _simulate(sim, args.out, args.kde)
    args.chunk_size = sim.resolved_chunk()
    print(f"simulate: n={args.n} reps={args.reps} stat={args.stat} mean={summary['mean']:.6g} -> {args.out}")
    return 0


def _cmd_poisson(args) -> int:
    j, dt, reps, mode = args.j, args.dt, args.reps, args.mode
    if mode not in ("yule", "tree"):
        raise SystemExit(f"unknown mode {mode!r}")
    if reps < 2:  # the summary holds a sample variance
        raise SystemExit(f"--reps must be >= 2, got {reps}")
    if dt < 0:
        raise SystemExit(f"--dt must be >= 0, got {dt}")
    if mode == "tree" and j < 2:
        raise SystemExit(f"--j must be >= 2 in tree mode, got {j}")
    import numpy as np

    from .poisson import moments_w, simulate_gap_tree, simulate_yule

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
    sample = simulate_yule(dt, rng, size=reps) if mode == "yule" else simulate_gap_tree(j, dt, rng, reps)
    mean_t, _, var_t = moments_w(dt)
    summary = {
        "mode": mode,
        "j": j,
        "dt": dt,
        "count": int(sample.size),
        "mean": float(sample.mean()),
        "variance": float(np.var(sample, ddof=1)),
        "theoretical_mean": mean_t,
        "theoretical_variance": var_t,
    }
    _emit_sample(args.out, sample, summary)
    print(f"poisson: mode={mode} dt={dt} mean={summary['mean']:.6g} (theory {mean_t:.6g}) -> {args.out}")
    return 0


def _cmd_normality_report(args) -> int:
    from .montecarlo import SimulationConfig

    n, reps = args.n, args.reps
    sim = SimulationConfig(n=n, replicates=reps, kernel=Kernel.DEGREE, seed=args.seed, statistic="zagreb")
    summary = _simulate(sim, args.out, 256)  # refuses --reps < 8 first, so a refused run gets no warning
    if reps < 100:
        print("warning: fewer than 100 replicates; the normality test is underpowered", file=sys.stderr)
    args.chunk_size = sim.resolved_chunk()
    verdict = "normality rejected" if summary["jb_pvalue"] < 1e-3 else "normality not rejected"
    report = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "replicates": reps,
        "skewness": summary["skewness"],
        "excess_kurtosis": summary["excess_kurtosis"],
        "jb_statistic": summary["jb_statistic"],
        "jb_pvalue": summary["jb_pvalue"],
        "test": summary["normality_test"],
        "verdict": verdict,
    }
    _emit_json(report, args.out, "report.json")
    print(f"normality-report: n={n} reps={reps} skewness={summary['skewness']:.4f} "
          f"jb_p={summary['jb_pvalue']:.3g} verdict: {verdict}")
    return 0


def _verify_oracle(n_max: int) -> list[tuple[str, bool]]:
    checks = []
    for n in range(2, n_max + 1):
        for j in range(1, n + 1):
            ok = enumerate_statistic(n, Kernel.GAP, f"degree:{j}") == degree_pmf_recurrence(n, j, exact=True)
            checks.append((f"oracle-vs-recurrence n={n} j={j}", ok))
    for n in range(2, n_max + 1):
        law = enumerate_statistic(n, Kernel.DEGREE, "zagreb")
        ok = oracle_moment(law, 1) == zagreb_mean(n) and oracle_moment(law, 2) == zagreb_second_moment(n)
        checks.append((f"oracle-vs-zagreb-moments n={n}", ok))
    return checks


def _verify_routes(n_max: int) -> list[tuple[str, bool]]:
    checks = []
    for n in range(2, n_max + 1):
        for j in range(1, n + 1):
            # every closed route divides once, so it must equal the exact law rounded to float
            rounded = {d: float(p) for d, p in degree_pmf_recurrence(n, j, exact=True).items()}
            ok = degree_pmf_closed(n, j) == rounded == degree_pmf_hypergeom(n, j)
            checks.append((f"route-equivalence n={n} j={j}", ok))
    return checks


def _verify_normalization(n: int) -> list[tuple[str, bool]]:
    checks = []
    for j in (2, max(2, n // 2), n):
        total = sum(degree_pmf_recurrence(n, j).values())
        checks.append((f"normalization n={n} j={j}", abs(total - 1.0) <= 1e-10))
    total = sum(degree_pmf_recurrence(n, 1).values())
    checks.append((f"normalization n={n} root", abs(total - 1.0) <= 1e-10))
    for j in (1, 2, n // 2, n):
        # the DP's coefficients are nonnegative and each entry takes at most three roundings
        # per step; the closed route divides once, so it is the exact law correctly rounded
        law, closed = degree_pmf_recurrence(n, j), degree_pmf_closed(n, j)
        bound = 3 * (n - j + 1) * 2.0**-53
        ok = list(law) == list(closed) and all(abs(law[d] - p) <= bound * p for d, p in closed.items())
        checks.append((f"recurrence-rounding n={n} j={j}", ok))
    return checks


def _verify_martingale() -> list[tuple[str, bool]]:
    from .montecarlo import SimulationConfig, martingale_diagnostics

    report = martingale_diagnostics(
        SimulationConfig(n=2000, replicates=400, kernel=Kernel.DEGREE, seed=7, statistic="martingale")
    )
    checks = [("martingale-increment-bound", report["increment_bound_satisfied"])]
    se = report["mean_M_stderr"]
    checks.append(("martingale-mean-zero", abs(report["mean_M"]) < 5 * se))
    checks.append(("martingale-bound-decreasing", martingale_diff_bound(3) > martingale_diff_bound(10) > 6.0))
    return checks


def _cmd_verify(args) -> int:
    suite, n_max = args.suite, args.n_max
    suites = {
        "oracle": lambda: _verify_oracle(n_max),
        "routes": lambda: _verify_routes(max(n_max, 12)),
        "normalization": lambda: _verify_normalization(200),
        "martingale": _verify_martingale,
    }
    if suite != "all" and suite not in suites:
        raise SystemExit(f"unknown suite {suite!r}; expected all, {', '.join(suites)}")
    if n_max < 2:
        raise SystemExit(f"verify requires --n-max >= 2, got {n_max}")
    if suite in ("all", "oracle") and n_max > DEFAULT_CAP:
        raise SystemExit(f"n={n_max} exceeds the enumeration cap {DEFAULT_CAP}")
    checks = [check for name, run in suites.items() if suite in ("all", name) for check in run()]
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"verify: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return 2 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="port", description=__doc__)
    commands = []
    parser.add_argument("--config", action=_Config, commands=commands, help="key = value defaults file")
    sub = parser.add_subparsers(dest="subcommand")

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for dest, kw in flags.items():
            p.add_argument(f"--{dest.replace('_', '-')}", dest=dest, **kw)
        commands.append((p, set(flags)))

    count = {"type": int, "default": _REQUIRED}
    required = {"default": _REQUIRED}
    seed = {"type": int, "default": 0}
    out = {"type": _directory}
    required_out = {**out, **required}
    fmt = {"type": _format, "default": "csv", "metavar": "{csv,json}"}
    switch = {"action": _Switch}
    add("exact-pmf", _cmd_exact_pmf, n=count, j=count, method={"default": "recurrence"}, out=out, format=fmt,
        rational=switch)
    add("exact-moments", _cmd_exact_moments, n=count, j=count, out=out, format=fmt)
    add("zagreb-moments", _cmd_zagreb_moments, n_max=count, out=out, format=fmt, rational=switch)
    add("oracle", _cmd_oracle, n=count, kernel={"default": "gap"}, stat=required, out=out)
    add("simulate", _cmd_simulate, n=count, reps=count, kernel={"default": "degree"}, stat={"default": "zagreb"},
        seed=seed, out=required_out, kde={"type": int, "default": 0})
    add("poisson", _cmd_poisson, j={"type": int, "default": 2}, dt={"type": float, "default": _REQUIRED}, reps=count,
        mode={"default": "yule"}, seed=seed, out=required_out)
    add("normality-report", _cmd_normality_report, n=count, reps=count, seed=seed, out=required_out)
    add("verify", _cmd_verify, suite={"default": "all"}, n_max={"type": int, "default": 6})
    return parser


def main(argv=None) -> int:
    # exact rationals print as p/q strings far beyond the default digit limit
    if hasattr(sys, "set_int_max_str_digits"):  # the limit exists only where this does
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fn", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        missing = [dest for dest, value in vars(args).items() if value is _REQUIRED]
        if missing:
            raise SystemExit(f"missing required option --{missing[0].replace('_', '-')}")
        code = args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"port: error: {exc.code}", file=sys.stderr)
            return 1
        raise
    except ValueError as exc:
        print(f"port: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout early, as ``| head`` does
        # point stdout at devnull, so the flush at exit meets no broken pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    if code == 0 and getattr(args, "out", None):
        resolved = {k: v for k, v in vars(args).items() if k not in ("fn", "config", "subcommand", "out")}
        _write_manifest(args.out, args.subcommand, resolved)
    return code


if __name__ == "__main__":
    sys.exit(main())
