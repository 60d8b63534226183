"""One table of the library's count and real arguments and the values each refuses.

Every count argument goes through rng._check_count and every real argument
through rng._check_real, so a bad value ends in one ValueError that names the
argument and the value, before any work: a float is never truncated to a
count, and a real is never infinite or NaN.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from zopt.analysis import (
    BoundInputs,
    check_proximal_pl,
    constrained_gap_bound,
    oracle_variance_candidate,
    probe_deviation,
    prox_quantity,
    unconstrained_gap_bound,
    verify_oracle_inequalities,
)
from zopt.harness import ExperimentConfig, checkpoint_grid, run_experiment
from zopt.oracle import OracleConfig, estimate_smoothed_gradient, sample_directions
from zopt.problems import make_least_squares
from zopt.sets import Box, WholeSpace, gradient_map
from zopt.solvers import SolverConfig, suggest_params, theorem_step_size

PROBLEM = make_least_squares(3, 6, 0.1, 5)
BOX = Box(-0.5, 0.5, dim=6)
CFG = OracleConfig(mu=1e-3, seed=1)
X = np.full(6, 0.1)
INPUTS = BoundInputs(
    n=6, lip_const=2.0, pl_const=1.0, mu=1e-3, initial_gap=1.0, d_x=1.0, sigma_seq=np.zeros(11)
)
EXPERIMENT = ExperimentConfig(
    scenario="unconstrained", m=2, n=3, noise_std=0.1, problem_seed=0, num_iters=3,
    record_stride=1, num_runs=2, run_seed_base=1, x0_seed=1, mu=1e-3,
)


def _experiment(jobs, num_runs):
    return run_experiment(dataclasses.replace(EXPERIMENT, num_runs=num_runs), jobs)


def _bound_inputs(**fields):
    return BoundInputs(**fields, sigma_seq=np.zeros(11))


def _quadratic(x):
    return float(x @ x)


POSITIVE, NONNEGATIVE = "positive", "nonnegative"

# entry point -> (callable, valid keyword arguments, the checked ones: the
# lowest count, or whether the real is positive or nonnegative); the names
# in OPTIONAL may also be None
ENTRIES = {
    "sample_directions": (
        sample_directions, dict(cfg=CFG, dim=3, counter=0, num=2), {"dim": 1, "num": 1}
    ),
    "estimate_smoothed_gradient": (
        estimate_smoothed_gradient,
        dict(f=_quadratic, x=np.zeros(2), cfg=CFG, num_samples=4),
        {"num_samples": 2},
    ),
    "OracleConfig": (OracleConfig, dict(mu=0.1), {"mu": POSITIVE}),
    "WholeSpace": (WholeSpace, dict(dim=2), {"dim": 1}),
    "Box": (Box, dict(lower=-1.0, upper=1.0, dim=2), {"dim": 1}),
    "gradient_map": (gradient_map, dict(feasible_set=BOX, x=X, g=X, h=0.1), {"h": POSITIVE}),
    "make_least_squares": (
        make_least_squares,
        dict(m=2, n=3, noise_std=0.1, seed=0),
        {"m": 1, "n": 1, "noise_std": NONNEGATIVE},
    ),
    "SolverConfig": (
        SolverConfig,
        dict(oracle=CFG, step_size=0.1, num_iters=3, record_stride=1),
        {"step_size": POSITIVE, "num_iters": 0, "record_stride": 1},
    ),
    **{
        f"theorem_step_size-{mode}": (
            partial(theorem_step_size, mode), dict(n=3, lip_const=2.0),
            {"n": 1, "lip_const": POSITIVE},
        )
        for mode in ("unconstrained", "constrained")
    },
    "suggest_params-unconstrained": (
        partial(suggest_params, "unconstrained"),
        dict(eps=0.1, n=3, lip_const=2.0, pl_const=1.0),
        {"eps": POSITIVE, "n": 1, "lip_const": POSITIVE, "pl_const": POSITIVE},
    ),
    "suggest_params-constrained": (
        partial(suggest_params, "constrained"),
        dict(eps=0.1, n=3, lip_const=2.0, pl_const=1.0, d_x=1.0),
        {"eps": POSITIVE, "n": 1, "lip_const": POSITIVE, "pl_const": POSITIVE, "d_x": POSITIVE},
    ),
    "checkpoint_grid": (checkpoint_grid, dict(num_iters=5), {"num_iters": 0}),
    "run_experiment": (_experiment, dict(jobs=1, num_runs=2), {"jobs": 1, "num_runs": 1}),
    "BoundInputs": (
        _bound_inputs,
        dict(n=6, lip_const=2.0, pl_const=1.0, mu=1e-3, initial_gap=1.0, d_x=1.0),
        {"n": 1, "lip_const": POSITIVE, "pl_const": POSITIVE, "mu": POSITIVE,
         "initial_gap": NONNEGATIVE, "d_x": POSITIVE},
    ),
    **{
        bound.__name__: (
            bound, dict(inputs=INPUTS, num_iters=10, step_size=0.1),
            {"num_iters": 0, "step_size": POSITIVE},
        )
        for bound in (unconstrained_gap_bound, constrained_gap_bound)
    },
    "oracle_variance_candidate": (
        oracle_variance_candidate,
        dict(mu=1e-3, n=3, lip_const=2.0, grad_norm=1.0),
        {"mu": POSITIVE, "n": 1, "lip_const": POSITIVE, "grad_norm": NONNEGATIVE},
    ),
    "prox_quantity": (
        prox_quantity, dict(feasible_set=BOX, x=X, a=2.0, vec=np.ones(6)), {"a": POSITIVE}
    ),
    "check_proximal_pl": (
        check_proximal_pl,
        dict(problem=PROBLEM, feasible_set=BOX, num_points=4, seed=0),
        {"num_points": 1},
    ),
    "probe_deviation": (
        probe_deviation,
        dict(problem=PROBLEM, feasible_set=BOX, cfg=CFG, x=X, num_samples=4, counter=0),
        {"num_samples": 2},
    ),
    "verify_oracle_inequalities": (
        verify_oracle_inequalities,
        dict(problem=PROBLEM, feasible_set=BOX, cfg=CFG, num_probes=3, num_samples=4,
             num_mc_points=1),
        {"num_probes": 1, "num_mc_points": 0, "num_samples": 2},
    ),
}
OPTIONAL = {("Box", "dim"), ("BoundInputs", "d_x")} | {
    (bound, "step_size") for bound in ("unconstrained_gap_bound", "constrained_gap_bound")
}


def _bad_values(entry, name, rule):
    if rule == POSITIVE:
        bad = [0.0, -1.0, math.nan, math.inf, "1.5", None]
    elif rule == NONNEGATIVE:
        bad = [-1.0, math.nan, math.inf, "1.5", None]
    else:
        bad = [2.5, rule - 1, "3", None]
    return [value for value in bad if value is not None or (entry, name) not in OPTIONAL]


ROWS = [
    pytest.param(entry, name, value, id=f"{entry}-{name}-{value!r}")
    for entry, (_, _, checked) in ENTRIES.items()
    for name, rule in checked.items()
    for value in _bad_values(entry, name, rule)
]


@pytest.mark.parametrize("entry, name, value", ROWS)
def test_bad_argument_is_one_value_error_naming_it(entry, name, value):
    call, valid, _ = ENTRIES[entry]
    with pytest.raises(ValueError) as err:
        call(**{**valid, name: value})
    assert str(err.value).startswith(f"{name} must be ")
    assert str(err.value).endswith(f", got {value!r}")


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_scalars_in_range_are_accepted(entry):
    call, valid, checked = ENTRIES[entry]
    numpy_valid = {
        name: (np.float64 if isinstance(rule, str) else np.int64)(valid[name])
        for name, rule in checked.items()
    }
    call(**{**valid, **numpy_valid})
