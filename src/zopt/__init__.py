"""Derivative-free optimization via Gaussian-smoothed two-point estimates.

The package has three layers:

  oracle / problems / sets   sampling, test objectives, feasible sets
  solvers / bounds           iteration schemes, closed-form gap bounds
  harness / cli              config-driven multi-run experiments

zopt.analysis, the Monte Carlo checks and the box reference optimum, is
the one module that imports scipy.  `import zopt` does not load it: its
names below resolve on first use, and the harness and the CLI import it
only when a box run or verify starts.

Everything is reproducible from explicit seeds via counter-based substreams
(zopt.rng); see the README for the experiment workflow.
"""

import importlib

from .bounds import (
    BoundInputs,
    constrained_gap_bound,
    oracle_variance_candidate,
    unconstrained_gap_bound,
)
from .harness import (
    AggregateSeries,
    ExperimentConfig,
    aggregate,
    checkpoint_grid,
    load_config,
    read_series_csv,
    run_experiment,
    write_series_csv,
)
from .oracle import (
    EvaluationError,
    MonteCarloEstimate,
    OracleConfig,
    estimate_smoothed_gradient,
    oracle_eval,
    sample_directions,
)
from .problems import LeastSquaresObjective, TestProblem, make_least_squares
from .sets import Ball, Box, FeasibleSet, WholeSpace, gradient_map, set_from_spec
from .solvers import (
    DivergenceError,
    RunBlock,
    RunRecord,
    SolverConfig,
    projected_random_search,
    random_search,
    suggest_params,
    theorem_step_size,
)

# zopt.analysis's names, resolved by __getattr__ on first use
_ANALYSIS_NAMES = (
    "CheckResult",
    "InequalityReport",
    "check_proximal_pl",
    "constrained_opt_value",
    "prox_quantity",
    "verify_oracle_inequalities",
)

__all__ = [
    # the submodules, which `from zopt import *` gave before there was an __all__
    "analysis", "bounds", "harness", "oracle", "problems", "rng", "sets", "solvers", "svgplot",
    *_ANALYSIS_NAMES,
    "BoundInputs", "constrained_gap_bound", "oracle_variance_candidate", "unconstrained_gap_bound",
    "AggregateSeries", "ExperimentConfig", "aggregate", "checkpoint_grid", "load_config",
    "read_series_csv", "run_experiment", "write_series_csv",
    "EvaluationError", "MonteCarloEstimate", "OracleConfig", "estimate_smoothed_gradient",
    "oracle_eval", "sample_directions",
    "LeastSquaresObjective", "TestProblem", "make_least_squares",
    "Ball", "Box", "FeasibleSet", "WholeSpace", "gradient_map", "set_from_spec",
    "DivergenceError", "RunBlock", "RunRecord", "SolverConfig", "projected_random_search",
    "random_search", "suggest_params", "theorem_step_size",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "analysis" or name in _ANALYSIS_NAMES:
        analysis = importlib.import_module(".analysis", __name__)
        return analysis if name == "analysis" else getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
