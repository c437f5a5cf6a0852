"""Exact analytics and Monte Carlo simulation for plane-oriented
recursive trees: degree-profile laws, Zagreb-index moments, martingale
diagnostics, and the Poissonized degree process.

The exact modules load with the package.  The two that build numpy
arrays, ``montecarlo`` and ``poisson``, load on the first use of one of
their names here, so ``import port_trees`` does not import numpy."""

__version__ = "0.1.0"

from .tree import Kernel
from .degree import (
    Regime,
    degree_mean,
    degree_moments_asymptotic,
    degree_pmf_closed,
    degree_pmf_hypergeom,
    degree_pmf_recurrence,
    degree_variance,
)
from .zagreb import (
    M_SECOND_MOMENT_LIMIT,
    VAR_Z_COEFFICIENT,
    Y_WEAK_LIMIT,
    Z_WEAK_LIMIT,
    cubic_mean,
    martingale_diff_bound,
    moment_rows,
    zagreb_mean,
    zagreb_second_moment,
)
from .oracle import enumerate_statistic, history_count, oracle_moment

# name -> the module that defines it, imported on first access (PEP 562)
_SAMPLING = {
    **dict.fromkeys(
        ("SimulationConfig", "grow_forest", "kde", "martingale_diagnostics", "run_experiment", "summarize"),
        "montecarlo",
    ),
    **dict.fromkeys(("mgf_w", "moments_w", "scaled_limit_distance", "simulate_gap_tree", "simulate_yule"), "poisson"),
}


def __getattr__(name):
    if name not in _SAMPLING:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{_SAMPLING[name]}", __name__), name)
