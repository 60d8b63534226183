"""Derivative-free optimization via Gaussian-smoothed two-point estimates.

The package has three layers:

  oracle / problems / sets   sampling, test objectives, feasible sets
  solvers / analysis         iteration schemes, gap bounds, verification
  harness / cli              config-driven multi-run experiments

Everything is reproducible from explicit seeds via counter-based substreams
(zopt.rng); see the README for the experiment workflow.
"""

from .analysis import (
    BoundInputs,
    CheckResult,
    InequalityReport,
    check_proximal_pl,
    constrained_gap_bound,
    constrained_opt_value,
    oracle_variance_candidate,
    prox_quantity,
    unconstrained_gap_bound,
    verify_oracle_inequalities,
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

__version__ = "0.1.0"
