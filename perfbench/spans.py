"""Span recording around the package's layers, from outside the package.

``Recorder.install`` replaces each public function of the measured
modules, wherever a loaded module of the package has bound it (its
defining module and every ``from .x import f`` in a calling module), with a
wrapper that records one span per call: name, parent span, command
index, start and end.  Work counters are computed from call arguments
and return values only, by the ``OBSERVERS`` below.

``aggregate`` turns the span list into per-function and per-module
calls, busy time and self time.  Self time is a span's duration minus
the durations of its direct child spans; busy time counts only the
outermost span of a function (or module) on any call chain.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

PACKAGE = "port_trees"
# ``tree`` is left out: no CLI path reaches ``Tree`` (see README.md)
LAYERS = ("cli", "zagreb", "degree", "special", "oracle", "montecarlo", "poisson")


def _grow_forest(args, result):
    from port_trees.montecarlo import SimulationConfig

    n, reps = args["n"], args["replicates"]
    chunk = args["chunk_size"] or SimulationConfig(n=n, replicates=reps).resolved_chunk()
    first_step = 2 if args["kernel"].value == "gap" else 3  # the degree kernel forces the first insertion
    element_bytes = 4 * (3 * n + 1)  # int32 bag (2n) + degrees (n + 1) per replicate
    counters = {
        "insertions": reps * (n - 1),
        "steps": math.ceil(reps / chunk) * (n - first_step + 1),
        "bytes_computed": reps * element_bytes,
        "peak_chunk_bytes_computed": min(chunk, reps) * element_bytes,
    }
    if "martingale_bound_ok" in result.extra:
        ok = result.extra["martingale_bound_ok"]
        counters["bound_checked"] = int(ok.size)
        counters["bound_violations"] = int(ok.size - ok.sum())
    return counters


# name -> counters(bound arguments, return value)
OBSERVERS = {
    "montecarlo.grow_forest": _grow_forest,
    "poisson.simulate_poissonized_tree": lambda a, r: {"events": int(r.times.size)},
    "zagreb.moment_series": lambda a, r: {"steps": max(0, a["n_max"] - 2)},
    "degree.degree_pmf_recurrence": lambda a, r: {"dp_states": (a["n"] - a["j"]) * (a["n"] - a["j"] + 1) // 2},
    "degree.root_pmf_recurrence": lambda a, r: {"dp_states": (a["n"] - 2) * (a["n"] - 1) // 2},
    "oracle.enumerate_statistic": lambda a, r: {"histories": math.factorial(a["n"] - 1)},
}


def merge(totals: dict, counters: dict) -> dict:
    """Add counters into totals; ``peak_*`` counters keep their maximum."""
    for key, value in counters.items():
        peak = key.rsplit(".", 1)[-1].startswith("peak_")
        totals[key] = max(totals.get(key, 0), value) if peak else totals.get(key, 0) + value
    return totals


def public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Recorder:
    """Wraps layer functions; with ``timed=False`` it only runs the
    observers of the functions named in ``only`` (no spans)."""

    def __init__(self, timed: bool = True, only: tuple = ()):
        self.timed = timed
        self.only = only
        self.command = -1
        self.spans: list = []  # [command, name, parent index, start, end]
        self.counters: list = []  # per command: {name.counter: value}
        self._stack: list = []

    def start_command(self, index: int) -> None:
        self.command = index
        self.counters.append({})

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module):
                qualified = f"{layer}.{name}"
                if self.timed or qualified in self.only:
                    wrapped[id(fn)] = self._wrap(qualified, fn)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])

    def _observe(self, qualified, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        counters = OBSERVERS[qualified](bound.arguments, result)
        merge(self.counters[-1], {f"{qualified}.{key}": value for key, value in counters.items()})

    def _wrap(self, qualified, fn):
        observer = OBSERVERS.get(qualified)
        spans, stack, timed = self.spans, self._stack, self.timed
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if timed:
                index = len(spans)
                span = [self.command, qualified, stack[-1] if stack else -1, 0.0, 0.0]
                spans.append(span)
                stack.append(index)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[4] = clock()
                    span[3] = start
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            if observer:
                self._observe(qualified, fn, args, kwargs, result)
            return result

        return wrapper


def aggregate(spans) -> dict:
    """Per-function and per-module calls, busy_s and self_s from a span list."""
    metrics: dict = {}
    ancestors: list = []  # per span: names and modules on its ancestor chain
    self_time = [span[4] - span[3] for span in spans]
    for index, (_, name, parent, start, end) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= end - start
            chain = ancestors[parent] | {spans[parent][1], "module:" + spans[parent][1].split(".")[0]}
        else:
            chain = frozenset()
        ancestors.append(chain)
    for index, (_, name, parent, start, end) in enumerate(spans):
        module = name.split(".")[0]
        duration = end - start
        for key, outermost in ((name, name not in ancestors[index]), (module, "module:" + module not in ancestors[index])):
            entry = metrics.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            if outermost:
                entry["busy_s"] += duration
            entry["self_s"] += self_time[index]
        metrics[name]["calls"] += 1
    flat = {}
    for key, entry in metrics.items():
        for stat, value in entry.items():
            if "." in key or stat != "calls":
                flat[f"{key}.{stat}"] = value
    return flat
