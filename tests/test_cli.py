import ast
import hashlib
import importlib
import json
import math
import multiprocessing
import os
import pkgutil
import signal
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import port_trees
from port_trees import cli, montecarlo
from port_trees.cli import main
from port_trees.poisson import simulate_yule


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# every exact command but the float degree DP and the degree moments
_NUMPY_FREE_COMMANDS = [
    "zagreb-moments --n-max 300 --rational",
    "zagreb-moments --n-max 10001",  # float rows, past RATIONAL_CAP
    "exact-pmf --n 60 --j 2 --rational",
    "exact-pmf --n 60 --j 3 --method closed",
    "exact-pmf --n 60 --j 3 --method hypergeom",
    "exact-moments --n 1000000000 --j 2",
    "exact-moments --n 60 --j 3",
    "oracle --n 7 --kernel degree --stat zagreb",
    "verify --suite oracle --n-max 5",
    "verify --suite routes --n-max 5",
]
_REPORT_MODULES = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy"))

import port_trees.cli

report = [["import port_trees.cli", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        report.append([argv, port_trees.cli.main(argv.split()), loaded()])
from port_trees import grow_forest, simulate_yule

report.append([f"{grow_forest.__module__} {simulate_yule.__module__}", 0, []])
print(json.dumps(report))
"""


def test_cli_imports_no_scipy():
    # numpy is the only runtime dependency, and only the commands that build
    # an array load it; scipy is a test-only reference
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_MODULES, json.dumps(_NUMPY_FREE_COMMANDS)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import port_trees.cli", 0, []],
        *([argv, 0, []] for argv in _NUMPY_FREE_COMMANDS),
        ["port_trees.montecarlo port_trees.poisson", 0, []],  # the package serves them on first use
    ]


def test_exact_pmf_root(capsys):
    code, out, _ = run(capsys, "exact-pmf", "--n", "4", "--j", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,probability"
    assert lines[1:] == ["1,0.2", "2,0.4", "3,0.4"]
    # a float subclass prints as its value, not as repr's np.float64(0.1)
    assert cli._num(np.float64(0.1)) == "0.1"


def test_exact_pmf_rational(capsys):
    code, out, _ = run(capsys, "exact-pmf", "--n", "4", "--j", "2", "--rational")
    assert code == 0
    assert out.strip().split("\n")[1:] == ["1,8/15", "2,1/3", "3,2/15"]


def test_exact_pmf_root_closed_route_is_root_pmf(capsys):
    # both routes print the root's closed form, which divides once per degree: the exact law rounded
    expected = [f"{d},{float(p)!r}" for d, p in cli.degree_pmf_recurrence(60, 1, exact=True).items()]
    for method in ("closed", "hypergeom"):
        code, out, _ = run(capsys, "exact-pmf", "--n", "60", "--j", "1", "--method", method)
        assert code == 0
        assert out.strip().split("\n")[1:] == expected


def test_exact_pmf_methods_agree(capsys):
    results = []
    for method in ("closed", "recurrence", "hypergeom"):
        code, out, _ = run(capsys, "exact-pmf", "--n", "6", "--j", "3", "--method", method)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        results.append({int(d): float(p) for d, p in rows})
    for d in results[0]:
        assert results[0][d] == pytest.approx(results[1][d], abs=1e-10)
        assert results[2][d] == pytest.approx(results[1][d], abs=1e-10)


@pytest.mark.parametrize(
    "argv,digest",
    [
        ("--n 60 --j 2 --rational", "0d396a01e1606f95ac48a99bc4343a2f6d7f36446d5fda0cae3bfc6cb6e68870"),
        ("--n 60 --j 1 --rational", "1e0175d67c012bbe613ff131750ca73e138e9a8ea85ab25f0e69ea2622ba0564"),
        ("--n 80 --j 3 --method hypergeom", "11dc48973d9d6917c2905705fa868117d8e5038f86d300b01731155aa58fb951"),
        ("--n 80 --j 3 --method closed", "11dc48973d9d6917c2905705fa868117d8e5038f86d300b01731155aa58fb951"),
    ],
)
def test_exact_pmf_bytes_are_pinned(capsys, tmp_path, argv, digest):
    # SHA-256 of pmf.csv: the exact routes must keep every printed digit
    code, _, _ = run(capsys, "exact-pmf", *argv.split(), "--out", str(tmp_path))
    assert code == 0
    assert hashlib.sha256((tmp_path / "pmf.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("cores", [1, 2])
def test_exact_zagreb_table_bytes_are_pinned(capsys, tmp_path, table_cores, cores):
    # SHA-256 of series.csv, the benchmark's series-2000-rational digest; two
    # usable cores fork the square-divisor worker, one keeps it in process
    piped = table_cores(cores)
    code, _, err = run(capsys, "zagreb-moments", "--n-max", "2000", "--rational", "--out", str(tmp_path))
    assert code == 0, err
    assert len(piped) == (cores > 1 and "fork" in multiprocessing.get_all_start_methods())
    digest = hashlib.sha256((tmp_path / "series.csv").read_bytes()).hexdigest()
    assert digest == "af8ec452d3a94440cd6d0caa5ccbad9f621756a623da2287309317a65fbeff61"


def test_exact_zagreb_table_past_2000_is_pinned(capsys, tmp_path):
    # SHA-256 of the 3000-row series.csv, on every usable core: its rows
    # 2001-3000 cross lcm growth at 2003 and 2048 and Lh growth at 2049 and 2050
    code, _, err = run(capsys, "zagreb-moments", "--n-max", "3000", "--out", str(tmp_path))
    assert code == 0, err
    digest = hashlib.sha256((tmp_path / "series.csv").read_bytes()).hexdigest()
    assert digest == "e27bbed8858a9567d18de766815d661b105650505959ebce658329ea53787505"


@pytest.mark.parametrize(
    "argv,digest",
    [
        # 5 chunks of 62 rows, grown on up to 4 threads
        (
            "simulate --n 2000 --reps 300 --stat martingale --seed 3",
            "4cf0e4d2cf5cdaaca809ce0dbd8e7f5bb7da8dc13d9762822a97db8b03c23146",
        ),
        # the largest tree has 400 nodes, so 2 chunks of up to 312 trees
        (
            "poisson --mode tree --j 2 --dt 2 --reps 500 --seed 3",
            "ee0072e5b349bbb4f0c6c338785380c715922dd48fec5cd0aa757c35d605d6ff",
        ),
    ],
)
def test_monte_carlo_stream_is_pinned(capsys, tmp_path, argv, digest):
    # SHA-256 of sample.csv: the chunk budget and the chunk streams set
    # every sampled value, and a change to either must be deliberate
    code, _, _ = run(capsys, *argv.split(), "--out", str(tmp_path))
    assert code == 0
    assert hashlib.sha256((tmp_path / "sample.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digests",
    [
        (
            "simulate --n 200 --reps 50 --stat zagreb --kde 16 --seed 5",
            {"summary.json": "33abd79c606ae9e37f20b8cfed93dd8a8fc958e8e958adf6820a455fc6f9c8f0"},
        ),
        (
            "normality-report --n 300 --reps 60 --seed 4",
            {
                "summary.json": "07e4a567f7488b64610f6241757b399109f658949c2b4ea3c5bb41a4a3123a9f",
                "report.json": "e6af3e198b41867245f5882a9e7cefabffce086a4a7caeedf0130f21818a42fe",
            },
        ),
        (
            "exact-pmf --n 40 --j 2 --rational --format json",
            {"pmf.json": "c63271abe853932bce4efd84970cb6eedf2ce1aa5a69cf4fc4bed32b6e7e85f2"},
        ),
        (
            "exact-moments --n 1000 --j 7 --format json",
            {"moments.json": "1d316d2baed8bb5e7c4e0910e3352740d98a23f20e3f96c3b286808c23ca6bb4"},
        ),
        (
            "zagreb-moments --n-max 300 --rational --format json",
            {"series.json": "96df6a21daadd5e46f278d5feedea2e87afd632faa12a0ca321627ff7117686b"},
        ),
    ],
)
def test_json_outputs_are_pinned(capsys, tmp_path, argv, digests):
    # SHA-256 of each JSON file: key order, number formatting and every
    # value; the sampled ones hold on the numpy that pinned sample.csv
    code, _, err = run(capsys, *argv.split(), "--out", str(tmp_path))
    assert code == 0, err
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests} == digests


def test_exact_pmf_json_round_trip(capsys):
    code, out, _ = run(capsys, "exact-pmf", "--n", "5", "--j", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["d", "probability"]
    assert len(payload["rows"]) == 4


def test_json_rows_stream_as_one_json_dumps(capsys):
    # rows are written one at a time; the text must stay that of one json.dumps
    for rows in ([], [(1, "0/1", 2.5, -1e-300)], [(d, f"{d}/7", d / 7, None) for d in range(1, 4)]):
        cli._emit_rows(("a", "b", "c", "d"), iter(rows), "json", None, "t")
        whole = {"schema_version": cli.SCHEMA_VERSION, "columns": ["a", "b", "c", "d"], "rows": [list(r) for r in rows]}
        assert capsys.readouterr().out == json.dumps(whole, indent=2) + "\n"


def test_exact_moments(capsys):
    code, out, _ = run(capsys, "exact-moments", "--n", "3", "--j", "2")
    assert code == 0
    _, row = out.strip().split("\n")
    n, j, mean, var = row.split(",")
    assert float(mean) == pytest.approx(4 / 3, rel=1e-10)
    assert float(var) == pytest.approx(2 / 9, abs=1e-10)


def test_zagreb_moments_rational(capsys, zagreb_recurrence):
    code, out, _ = run(capsys, "zagreb-moments", "--n-max", "4", "--rational")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "n,mean_Z,mean_Y,second_Z,var_Z"
    assert rows[4] == "4,11/1,24/1,122/1,1/1"
    # every cell of a longer table, in both formats, against the coupled recurrence
    expected = [
        [n, *(f"{x.numerator}/{x.denominator}" for x in (ez, ey, ez2, ez2 - ez * ez))]
        for n, (ez, ey, ez2) in enumerate(zagreb_recurrence[:300], start=1)
    ]
    code, out, _ = run(capsys, "zagreb-moments", "--n-max", "300", "--rational")
    assert code == 0
    assert out.strip().split("\n")[1:] == [",".join(map(str, row)) for row in expected]
    code, out, _ = run(capsys, "zagreb-moments", "--n-max", "300", "--rational", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["n", "mean_Z", "mean_Y", "second_Z", "var_Z"]
    assert payload["rows"] == expected


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "4", "--kernel", "degree", "--stat", "zagreb")
    assert code == 0
    payload = json.loads(out)
    assert payload["law"] == {"10": "1/2", "12": "1/2"}
    assert payload["mean"] == "11/1"
    assert payload["history_count"] == 8


def test_oracle_degree_stat(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "4", "--kernel", "gap", "--stat", "degree:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["law"] == {"1": "8/15", "2": "1/3", "3": "2/15"}


@pytest.mark.parametrize("kernel", ["gap", "degree"])
def test_simulate_root_degree_is_degree_1(capsys, tmp_path, kernel):
    dirs = [tmp_path / "root", tmp_path / "node1"]
    for label, out_dir in zip(("root-degree", "degree:1"), dirs):
        code, _, err = run(
            capsys, "simulate", "--n", "60", "--reps", "300", "--kernel", kernel, "--stat", label,
            "--seed", "4", "--out", str(out_dir),
        )
        assert code == 0, err
    for name in ("sample.csv", "summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_simulate_writes_manifest_and_outputs(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _, _ = run(
        capsys, "simulate", "--n", "50", "--reps", "400", "--stat", "zagreb",
        "--seed", "5", "--kde", "64", "--out", str(out_dir),
    )
    assert code == 0
    manifest = json.loads((out_dir / "run-manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["resolved"]["seed"] == 5
    sample = [int(line) for line in (out_dir / "sample.csv").read_text().splitlines()]
    assert len(sample) == 400
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["count"] == 400
    assert summary["mean"] == pytest.approx(sum(sample) / 400, rel=1e-12)
    kde_lines = (out_dir / "kde.csv").read_text().splitlines()
    assert kde_lines[0] == "x,density"
    assert len(kde_lines) == 65


def _experiment_sample(statistic):
    return montecarlo.run_experiment(montecarlo.SimulationConfig(n=60, replicates=50, seed=9, statistic=statistic))[0]


@pytest.mark.parametrize(
    "argv,expected,parse",
    [
        (["simulate", "--n", "60", "--reps", "50", "--stat", "cubic"], lambda: _experiment_sample("cubic"), int),
        (
            ["simulate", "--n", "60", "--reps", "50", "--stat", "martingale"],
            lambda: _experiment_sample("martingale"),
            float,
        ),
        (
            ["poisson", "--dt", "1.5", "--reps", "300"],
            lambda: simulate_yule(1.5, np.random.Generator(np.random.PCG64(np.random.SeedSequence(9))), size=300),
            int,
        ),
        (  # more values than two of the writer's blocks
            ["poisson", "--dt", "1.5", "--reps", "20000"],
            lambda: simulate_yule(1.5, np.random.Generator(np.random.PCG64(np.random.SeedSequence(9))), size=20000),
            int,
        ),
    ],
    ids=["simulate-cubic", "simulate-martingale", "poisson", "poisson-blocks"],
)
def test_sample_csv_round_trips(capsys, tmp_path, argv, expected, parse):
    # every value reads back exactly: ints as ints, floats with no tolerance
    code, _, err = run(capsys, *argv, "--seed", "9", "--out", str(tmp_path))
    assert code == 0, err
    values = expected().tolist()
    assert all(isinstance(v, parse) for v in values)
    text = (tmp_path / "sample.csv").read_text()
    assert text.count("\n") == len(values)  # one line per value, each ended
    assert [parse(line) for line in text.splitlines()] == values


def _file_writers(source: str) -> list[str]:
    """The top-level definition around each os.makedirs / os.mkdir call
    and each open() whose mode is not read-only."""
    owners = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            if func == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                writes = any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt")) for m in modes)
            else:
                writes = func in ("os.makedirs", "os.mkdir")
            if writes:
                owners.append(getattr(top, "name", "<module>"))
    return owners


def test_only_cli_output_writes_files():
    package = Path(cli.__file__).parent
    writers = {
        f"{path.stem}.{owner}" for path in sorted(package.glob("*.py")) for owner in _file_writers(path.read_text())
    }
    assert writers == {"cli._output"}


def test_every_exported_name_resolves():
    # a module's __all__, or its public names where it has none, is its API;
    # a stale entry would raise AttributeError in any tool that walks it
    modules = [importlib.import_module(f"port_trees.{info.name}") for info in pkgutil.iter_modules(port_trees.__path__)]
    exported = {}
    for module in modules:
        for name in getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]:
            exported.setdefault(name, getattr(module, name))
    # and every name the package itself exports, loaded or served on first use, is one of those
    for name in [*vars(port_trees), *port_trees._SAMPLING]:
        obj = getattr(port_trees, name)
        if not name.startswith("_") and not isinstance(obj, types.ModuleType):
            assert exported.get(name) is obj, name
    with pytest.raises(AttributeError, match="module 'port_trees' has no attribute 'no_such_name'"):
        port_trees.no_such_name


def test_simulate_byte_reproducible(capsys, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run(
            capsys, "simulate", "--n", "25", "--reps", "200", "--stat", "cubic",
            "--seed", "17", "--out", str(d),
        )
        assert code == 0
    assert (dirs[0] / "sample.csv").read_bytes() == (dirs[1] / "sample.csv").read_bytes()


def test_poisson_subcommand(capsys, tmp_path):
    out_dir = tmp_path / "poi"
    code, _, _ = run(
        capsys, "poisson", "--dt", "2", "--reps", "5000", "--seed", "3", "--out", str(out_dir)
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["count"] == 5000
    se = (summary["theoretical_variance"] / 5000) ** 0.5
    assert abs(summary["mean"] - summary["theoretical_mean"]) < 5 * se


def test_poisson_tree_mode(capsys, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out_dir in dirs:
        code, _, _ = run(
            capsys, "poisson", "--j", "2", "--dt", "1", "--reps", "500", "--mode", "tree",
            "--seed", "3", "--out", str(out_dir),
        )
        assert code == 0
    assert (dirs[0] / "sample.csv").read_text().count("\n") == 500
    assert (dirs[0] / "sample.csv").read_bytes() == (dirs[1] / "sample.csv").read_bytes()


def test_normality_report(capsys, tmp_path):
    out_dir = tmp_path / "norm"
    code, out, err = run(
        capsys, "normality-report", "--n", "200", "--reps", "400", "--seed", "1",
        "--out", str(out_dir),
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["verdict"] in ("normality rejected", "normality not rejected")
    assert "jarque" in report["test"]
    assert (out_dir / "kde.csv").exists()


def test_normality_report_underpowered_warning(capsys, tmp_path):
    code, _, err = run(
        capsys, "normality-report", "--n", "50", "--reps", "10", "--seed", "1",
        "--out", str(tmp_path / "tiny"),
    )
    assert code == 0
    assert "underpowered" in err
    # a run refused for too few replicates prints only its error
    code, _, err = run(
        capsys, "normality-report", "--n", "50", "--reps", "5", "--seed", "1",
        "--out", str(tmp_path / "refused"),
    )
    assert code == 1
    assert "--reps must be >= 8" in err
    assert "underpowered" not in err


def test_config_file_defaults(capsys, tmp_path):
    config = tmp_path / "defaults.cfg"
    config.write_text("n = 4\nj = 1  # root\n")
    code, out, _ = run(capsys, "--config", str(config), "exact-pmf")
    assert code == 0
    assert out.strip().split("\n")[1:] == ["1,0.2", "2,0.4", "3,0.4"]
    # explicit flag wins over the config file
    code, out, _ = run(capsys, "--config", str(config), "exact-pmf", "--j", "2")
    assert code == 0
    d, p = out.strip().split("\n")[1].split(",")
    assert d == "1" and float(p) == pytest.approx(8 / 15, rel=1e-12)


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--n-max", "5")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_routes_checks_every_node_exactly(capsys, monkeypatch):
    # one check per (n, j), 1 <= j <= n <= 12; each compares whole laws
    # with ==, so one entry one ulp off the exact law's float fails it
    code, out, _ = run(capsys, "verify", "--suite", "routes", "--n-max", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "PASS route-equivalence n=2 j=1"
    assert lines[-2:] == ["PASS route-equivalence n=12 j=12", "verify: 77/77 checks passed"]

    def nudged(route):
        def law(n, j):
            probs = route(n, j)
            d = max(probs)
            return {**probs, d: math.nextafter(probs[d], 2.0)}

        return law

    for name in ("degree_pmf_closed", "degree_pmf_hypergeom"):
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, nudged(getattr(cli, name)))
            code, out, _ = run(capsys, "verify", "--suite", "routes", "--n-max", "5")
        assert code == 2
        assert "verify: 0/77 checks passed" in out


def test_verify_all_is_the_ci_entry_point(capsys):
    # 42 oracle, 77 route, 8 normalization and 3 martingale checks
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "verify: 130/130 checks passed"
    for check in ("oracle-vs-recurrence n=8 j=8", "route-equivalence n=12 j=1", "normalization n=200 root",
                  "recurrence-rounding n=200 j=100", "martingale-mean-zero"):
        assert f"PASS {check}" in lines


def test_verify_normalization_bounds_the_float_dp_against_the_closed_law(capsys, monkeypatch):
    # a relative error of 1e-12 is past the 3(n - j + 1) 2^-53 rounding bound at every j checked,
    # yet it leaves each law summing to 1 within the 1e-10 normalization tolerance
    route = cli.degree_pmf_recurrence
    monkeypatch.setattr(cli, "degree_pmf_recurrence", lambda n, j: {d: p * (1 + 1e-12) for d, p in route(n, j).items()})
    code, out, _ = run(capsys, "verify", "--suite", "normalization")
    assert code == 2
    lines = out.strip().split("\n")
    assert [line for line in lines if "recurrence-rounding" in line] == [
        f"FAIL recurrence-rounding n=200 j={j}" for j in (1, 2, 100, 200)
    ]
    assert lines[-1] == "verify: 4/8 checks passed"


@pytest.mark.parametrize(
    "suite,n_max,message",
    [
        ("oracle", "1", "--n-max >= 2, got 1"),
        ("routes", "-5", "--n-max >= 2, got -5"),
        ("nope", "5", "unknown suite 'nope'"),
        ("oracle", "10", "n=10 exceeds the enumeration cap 9"),
    ],
)
def test_verify_rejects_bad_input(capsys, monkeypatch, suite, n_max, message):
    calls = []
    monkeypatch.setattr(cli, "enumerate_statistic", lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", n_max)
    assert code == 1
    assert message in err
    assert out == ""
    assert calls == []  # rejected before any check ran


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_zagreb_moments_rejects_an_empty_table(capsys, tmp_path, n_max):
    code, out, err = run(capsys, "zagreb-moments", "--n-max", n_max, "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == f"port: error: zagreb-moments requires --n-max >= 1, got {n_max}\n"
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_usage_errors_exit_1(capsys):
    assert main(["exact-pmf"]) == 1  # missing required options
    assert main(["exact-pmf", "--n", "5", "--j", "2", "--method", "nope"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    assert main([]) == 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the worker is forked")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zagreb_moments_bytes_do_not_depend_on_the_worker(capsys, tmp_path, table_cores, fmt):
    # two usable cores fork the square-divisor worker, one keeps it in process
    outputs, forks = [], []
    for cores in (1, 2):
        piped = table_cores(cores)
        out_dir = tmp_path / str(cores)
        argv = ["zagreb-moments", "--n-max", "600", "--format", fmt]
        stdout = run(capsys, *argv)
        written = run(capsys, *argv, "--out", str(out_dir))
        files = {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}
        outputs.append((stdout, written, files))
        forks.append(len(piped))
    assert forks == [0, 2]  # one worker per table, and none on one core
    assert outputs[0] == outputs[1]
    assert outputs[0][0][0] == 0 and outputs[0][2][f"series.{fmt}"] == outputs[0][0][1].encode()


def test_zagreb_moments_beyond_the_digit_limit(capsys, tmp_path):
    # exact E[Z^2] at n = 1500 has thousands of digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "zagreb-moments", "--n-max", "1500", "--rational")
        assert code == 0, err
        code, _, err = run(capsys, "zagreb-moments", "--n-max", "1500", "--rational", "--out", str(tmp_path))
        assert code == 0, err
    finally:
        sys.set_int_max_str_digits(limit)
    rows = out.strip().split("\n")
    assert len(rows) == 1501
    assert max(len(cell) for cell in rows[-1].split(",")) > 640
    assert (tmp_path / "series.csv").read_text() == out


@pytest.mark.parametrize(
    "bad,message",
    [
        ({"--kde": "-5"}, "port: error: --kde must be >= 0"),
        ({"--reps": "0"}, "port: error: replicates must be >= 1"),
        ({"--n": "1"}, "port: error: n must be >= 2"),
        ({"--stat": "degree:abc"}, "port: error: --stat 'degree:abc': expected degree:J with an integer J"),
        # point masses: the newest node is always a leaf, and every tree of 2 or 3 nodes is a path
        (
            {"--n": "6", "--stat": "degree:6"},
            "port: error: the statistic 'degree:6' is 1 in all 50 replicates at n = 6: a constant sample has no",
        ),
        ({"--n": "2"}, "port: error: the statistic 'zagreb' is 2 in all 50 replicates at n = 2"),
        ({"--n": "3", "--stat": "zagreb"}, "port: error: the statistic 'zagreb' is 6 in all 50 replicates at n = 3"),
        # too few replicates for the Jarque-Bera summary: refused before any tree grows
        ({"--n": "500000", "--reps": "7"}, "port: error: --reps must be >= 8 for the Jarque-Bera summary, got 7"),
    ],
    ids=[f"bad{i}" for i in range(8)],
)
def test_simulate_rejects_bad_config_before_writing(capsys, tmp_path, monkeypatch, bad, message):
    grown, grow_forest = [], montecarlo.grow_forest
    monkeypatch.setattr(montecarlo, "grow_forest", lambda *args, **kw: grown.append(args) or grow_forest(*args, **kw))
    out_dir = tmp_path / "run"
    flags = {"--n": "30", "--reps": "50", "--seed": "1", "--out": str(out_dir), **bad}
    code, _, err = run(capsys, "simulate", *[item for pair in flags.items() for item in pair])
    assert code == 1
    assert message in err
    assert not out_dir.exists()
    assert bool(grown) == ("in all 50 replicates" in message)  # only a constant sample needs the forest


def test_simulate_zagreb2_refuses_int64_overflow(capsys, tmp_path, monkeypatch):
    # each chunk's Z is one above the int64 square root; grow_forest squares the merged sample
    def huge_chunk(n, reps, bounds, rng, stats, *buffers):
        return {label: np.full(reps, 3_037_000_500, dtype=np.int64) for label in stats}

    monkeypatch.setattr(montecarlo, "_grow_chunk", huge_chunk)
    out_dir = tmp_path / "run"
    code, _, err = run(capsys, "simulate", "--n", "30", "--reps", "20", "--stat", "zagreb2", "--out", str(out_dir))
    assert code == 1
    assert "zagreb2 overflows int64" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "bad,message",
    [
        ({"--reps": "0"}, "port: error: --"),
        ({"--reps": "1"}, "port: error: --"),
        ({"--reps": "-3"}, "port: error: --"),
        ({"--dt": "-1"}, "port: error: --"),
        ({"--mode": "tree", "--j": "1"}, "port: error: --"),
        # the tree would outgrow the node cap: refused before any parent is drawn
        ({"--mode": "tree", "--j": "2", "--dt": "9", "--reps": "2"}, "port: error: dt=9.0 grows the tree past the cap"),
        # Yule mode beyond DT_MAX: numpy's sampler rejects, saturates or overflows the moments
        ({"--dt": "nan"}, "port: error: elapsed time must be in [0, 40.0], got dt=nan"),
        ({"--dt": "inf"}, "port: error: elapsed time must be in [0, 40.0], got dt=inf"),
        ({"--dt": "50"}, "port: error: elapsed time must be in [0, 40.0], got dt=50.0"),
        ({"--dt": "710"}, "port: error: elapsed time must be in [0, 40.0], got dt=710.0"),
        # node j itself is past the cap, whatever dt
        ({"--mode": "tree", "--j": "100000000"}, "port: error: j=100000000 is past the cap of 10000000 nodes"),
    ],
    ids=[f"bad{i}" for i in range(11)],
)
def test_poisson_rejects_bad_input_before_writing(capsys, tmp_path, bad, message):
    out_dir = tmp_path / "poi"
    flags = {"--dt": "1", "--reps": "20", "--seed": "1", "--out": str(out_dir), **bad}
    code, _, err = run(capsys, "poisson", *[item for pair in flags.items() for item in pair])
    assert code == 1
    assert message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("method", ["closed", "recurrence", "hypergeom"])
@pytest.mark.parametrize("n,j", [(5, 9), (1, 1), (5, 0)])
def test_exact_pmf_rejects_bad_n_j_for_every_method(capsys, tmp_path, method, n, j):
    code, out, err = run(capsys, "exact-pmf", "--n", str(n), "--j", str(j), "--method", method)
    assert code == 1
    assert out == ""
    assert "port: error: need" in err
    code, _, _ = run(
        capsys, "exact-pmf", "--n", str(n), "--j", str(j), "--method", method, "--out", str(tmp_path / "pmf")
    )
    assert code == 1
    assert not (tmp_path / "pmf").exists()


def test_failed_simulation_leaves_no_manifest(capsys, tmp_path):
    # three replicates are too few for the Jarque-Bera summary
    out_dir = tmp_path / "run"
    code, _, err = run(capsys, "simulate", "--n", "30", "--reps", "3", "--out", str(out_dir))
    assert code == 1
    assert not (out_dir / "run-manifest.json").exists()


@pytest.mark.parametrize(
    "argv,resolved",
    [
        (
            ["exact-pmf", "--n", "6", "--j", "2"],
            {"n": 6, "j": 2, "method": "recurrence", "rational": False, "format": "csv"},
        ),
        (["exact-moments", "--n", "6", "--j", "2"], {"n": 6, "j": 2, "format": "csv"}),
        (["zagreb-moments", "--n-max", "6"], {"n_max": 6, "rational": False, "format": "csv"}),
        (["oracle", "--n", "4", "--stat", "zagreb"], {"n": 4, "kernel": "gap", "stat": "zagreb"}),
        (
            ["simulate", "--n", "20", "--reps", "20", "--kde", "8"],
            {"n": 20, "reps": 20, "kernel": "degree", "stat": "zagreb", "seed": 0, "kde": 8, "chunk_size": 20},
        ),
        (["poisson", "--dt", "1", "--reps", "20"], {"j": 2, "dt": 1.0, "reps": 20, "mode": "yule", "seed": 0}),
        (["normality-report", "--n", "20", "--reps", "100"], {"n": 20, "reps": 100, "seed": 0, "chunk_size": 100}),
        # config values are recorded typed, as the flags' would be; the unknown key is not recorded
        (["--config", "{config}", "zagreb-moments"], {"n_max": 7, "rational": True, "format": "csv"}),
    ],
    ids=[
        "exact-pmf", "exact-moments", "zagreb-moments", "oracle", "simulate", "poisson", "normality-report",
        "zagreb-moments-config",
    ],
)
def test_manifest_is_written_last(capsys, tmp_path, tmp_path_factory, monkeypatch, argv, resolved):
    config = tmp_path_factory.mktemp("config") / "port.cfg"
    config.write_text("n_max = 7\nrational = true\nunknown = 1\n")
    argv = [arg.format(config=config) for arg in argv]
    present = []
    write_manifest = cli._write_manifest

    def spy(out_dir, subcommand, resolved):
        present.append(sorted(os.listdir(out_dir)))
        write_manifest(out_dir, subcommand, resolved)

    monkeypatch.setattr(cli, "_write_manifest", spy)
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    assert present and present[-1] and "run-manifest.json" not in present[-1]
    assert sorted(os.listdir(tmp_path)) == sorted(present[-1] + ["run-manifest.json"])
    assert json.loads((tmp_path / "run-manifest.json").read_text())["resolved"] == resolved


def exit_code(argv):
    """main's exit status, whether it returns it or argparse raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "text,message",
    [
        (None, "No such file or directory"),
        ("n = 5\nj 2\n", "bad config line (expected key = value): 'j 2'"),
    ],
    ids=["missing-file", "bad-line"],
)
def test_config_file_errors_exit_1(capsys, tmp_path, text, message):
    config = tmp_path / "port.cfg"
    if text is not None:
        config.write_text(text)
    out_dir = tmp_path / "pmf"
    assert exit_code(["--config", str(config), "exact-pmf", "--n", "5", "--j", "2", "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "port: error: argument --config: " in err
    assert message in err
    assert not out_dir.exists()


def test_config_switch_false_is_off_and_a_flag_overrides_it(capsys, tmp_path):
    config = tmp_path / "port.cfg"
    config.write_text("rational = false\n")
    code, out, _ = run(capsys, "--config", str(config), "exact-pmf", "--n", "4", "--j", "2")
    assert code == 0
    assert out.strip().split("\n")[1:] == ["1,0.5333333333333333", "2,0.33333333333333337", "3,0.13333333333333333"]
    code, out, _ = run(capsys, "--config", str(config), "exact-pmf", "--n", "4", "--j", "2", "--rational")
    assert code == 0
    assert out.strip().split("\n")[1:] == ["1,8/15", "2,1/3", "3,2/15"]


@pytest.mark.parametrize(
    "config_text,flags,message",
    [
        (None, ["--n", "abc", "--j", "2"], "argument --n: invalid int value: 'abc'"),
        ("n = abc\n", ["--j", "2"], "argument --n: invalid int value: 'abc'"),
        # argparse checks ``choices`` only on the command line; --format's type checks config values too
        ("format = xml\n", ["--n", "5", "--j", "2"], "argument --format: invalid choice: 'xml'"),
        # a switch's config value is true or false, nothing else
        ("rational = True\n", ["--n", "4", "--j", "2"], "argument --rational: expected true or false, got 'True'"),
        ("rational = yes\n", ["--n", "4", "--j", "2"], "argument --rational: expected true or false, got 'yes'"),
    ],
    ids=["flag", "config", "config-format", "config-switch-True", "config-switch-yes"],
)
def test_bad_option_value_names_the_option(capsys, tmp_path, config_text, flags, message):
    argv = ["exact-pmf", *flags, "--out", str(tmp_path / "pmf")]
    if config_text is not None:
        (tmp_path / "port.cfg").write_text(config_text)
        argv = ["--config", str(tmp_path / "port.cfg"), *argv]
    assert exit_code(argv) == 1
    captured = capsys.readouterr()
    assert f"port exact-pmf: error: {message}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "pmf").exists()


_NOT_CANONICAL = "expected degree:J with an integer J written in ASCII digits, with no sign, space or leading zero"
# each bad --stat label, and the one error line that simulate and oracle both print for it
_BAD_STAT_LABELS = {
    "degree": f"--stat 'degree': {_NOT_CANONICAL}",
    "degree:0": "--stat 'degree:0': node J must satisfy 1 <= J <= n = 5",
    "degree:6": "--stat 'degree:6': node J must satisfy 1 <= J <= n = 5",
    "degree:abc": f"--stat 'degree:abc': {_NOT_CANONICAL}",
    # int() reads each of these as 3; only the canonical spelling names node 3
    "degree: +3": f"--stat 'degree: +3': {_NOT_CANONICAL}",
    "degree:03": f"--stat 'degree:03': {_NOT_CANONICAL}",
    "degree:\u0663": f"--stat 'degree:\u0663': {_NOT_CANONICAL}",
    "bogus": "--stat 'bogus': unknown statistic; expected zagreb, cubic, zagreb2, root-degree, martingale or degree:J",
}
_SUBCOMMANDS_TAKING_STAT = {"simulate": ["simulate", "--n", "5", "--reps", "20"], "oracle": ["oracle", "--n", "5"]}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--config", "{missing}", "exact-pmf", "--n", "5", "--j", "2"], None),
        (["--config", "{bad}", "exact-pmf", "--n", "5", "--j", "2"], None),
        (["exact-pmf", "--n", "abc", "--j", "2"], None),
        (["exact-pmf", "--j", "2"], None),
        (["no-such-command"], None),
        (["exact-pmf", "--n", "5", "--j", "2", "--out", ""], None),
        (["simulate", "--n", "30", "--reps", "50", "--out", ""], None),
        (["oracle", "--n", "5", "--stat", "degree:abc"], None),
        (["zagreb-moments", "--n-max", "0"], None),
    ]
    + [
        ([*head, "--stat", label, "--out", "{out}"], f"port: error: {message}")
        for label, message in _BAD_STAT_LABELS.items()
        for head in _SUBCOMMANDS_TAKING_STAT.values()
    ],
    ids=[
        "missing-config", "bad-config-line", "bad-value", "missing-option", "unknown-subcommand",
        "empty-out-exact-pmf", "empty-out-simulate", "bad-stat-label", "empty-table",
    ]
    + [f"stat-{label}-{sub}" for label in _BAD_STAT_LABELS for sub in _SUBCOMMANDS_TAKING_STAT],
)
def test_usage_errors_exit_1_without_traceback(tmp_path, argv, message):
    # a subprocess sees what main() in process cannot: a traceback escaping to the interpreter
    (tmp_path / "bad.cfg").write_text("n 5\n")
    out_dir = tmp_path / "out"
    argv = [arg.format(missing=tmp_path / "missing.cfg", bad=tmp_path / "bad.cfg", out=out_dir) for arg in argv]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "port_trees.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    if message is not None:
        assert proc.stderr.splitlines() == [message]
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", ["zagreb-moments --n-max 2000", "exact-pmf --n 600 --j 2 --rational"])
def test_a_reader_that_closes_stdout_early_fails_the_run_cleanly(argv):
    # as ``port ... | head -1`` does: both outputs are far larger than a pipe holds
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "port_trees.cli", *argv.split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)  # stderr closes when every process holding it, a worker too, has ended
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err
    with pytest.raises(ProcessLookupError):  # no process of the run's session is left, the worker included
        os.killpg(proc.pid, 0)
