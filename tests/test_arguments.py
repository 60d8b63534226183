"""One table of the library's count and real arguments and the values each refuses.

Every count argument goes through rng._check_count and every real argument
through rng._check_real, so a bad value ends in one ValueError that names the
argument and the value, before any work: a float or a bool is never a
count, a count is at most 2**53, and a real is never a bool, infinite or NaN.
Two smaller tables follow: valid arguments whose closed form overflows, and
out= buffers of the wrong kind; each also ends in one ValueError.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from zopt.analysis import (
    check_proximal_pl,
    probe_deviation,
    prox_quantity,
    verify_oracle_inequalities,
)
from zopt.bounds import (
    BoundInputs,
    constrained_gap_bound,
    oracle_variance_candidate,
    unconstrained_gap_bound,
)
from zopt.harness import ExperimentConfig, checkpoint_grid, run_experiment
from zopt.oracle import OracleConfig, estimate_smoothed_gradient, oracle_eval, sample_directions
from zopt.problems import make_least_squares
from zopt.rng import SubstreamSampler
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


# values refused by one entry point only: a count past the largest float
# once overflowed converting to float in the closed-form formulas
EXTREMES = [
    (entry, "n", 10**400) for entry in (
        "theorem_step_size-unconstrained", "theorem_step_size-constrained",
        "oracle_variance_candidate", "BoundInputs",
    )
]


def _bad_values(entry, name, rule):
    if rule == POSITIVE:
        bad = [0.0, -1.0, math.nan, math.inf, True, "1.5", None]
    elif rule == NONNEGATIVE:
        bad = [-1.0, math.nan, math.inf, True, "1.5", None]
    else:
        bad = [2.5, rule - 1, 2**53 + 1, True, "3", None]
    bad += [value for e, n, value in EXTREMES if (e, n) == (entry, name)]
    return [value for value in bad if value is not None or (entry, name) not in OPTIONAL]


def _label(value):
    return "10**400" if value == 10**400 else repr(value)


ROWS = [
    pytest.param(entry, name, value, id=f"{entry}-{name}-{_label(value)}")
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


@pytest.mark.parametrize("bound", [unconstrained_gap_bound, constrained_gap_bound])
def test_explicit_step_size_needs_no_analyzed_step(bound):
    # at lip_const=5e-324 the analyzed step is inf and refused, but a bound
    # given its own step never uses it
    inputs = dataclasses.replace(INPUTS, lip_const=5e-324)
    message = "^n=6, lip_const=5e-324 give no positive finite step size$"
    with pytest.raises(ValueError, match=message):
        bound(inputs, 10)
    assert math.isfinite(bound(inputs, 10, step_size=0.1))


# closed forms whose float ** overflows (or whose result is not finite, or
# not positive where it must be): one ValueError naming the inputs, as
# suggest_params gives; a lip_const at either end of the float range gives
# an analyzed step of 0 or inf
OVERFLOWS = {
    "theorem_step_size-unconstrained-lip_const": partial(
        theorem_step_size, "unconstrained", 3, 1e308
    ),
    "theorem_step_size-constrained-lip_const": partial(
        theorem_step_size, "constrained", 3, 5e-324
    ),
    "oracle_variance_candidate-mu": partial(oracle_variance_candidate, 1e200, 3, 2.0, 1.0),
    "oracle_variance_candidate-grad_norm": partial(
        oracle_variance_candidate, 1e-3, 3, 2.0, 1e200
    ),
    "unconstrained_gap_bound-mu": partial(
        unconstrained_gap_bound,
        BoundInputs(n=3, lip_const=2.0, pl_const=1.0, mu=1e200, initial_gap=1.0), 5,
    ),
    "constrained_gap_bound-lip_const": partial(
        constrained_gap_bound, dataclasses.replace(INPUTS, lip_const=1e200), 5
    ),
    "unconstrained_gap_bound-pl_const_times_step": partial(
        unconstrained_gap_bound, dataclasses.replace(INPUTS, pl_const=1e-200), 5, 1e-200
    ),
}


@pytest.mark.parametrize("call", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_overflowing_closed_form_is_one_value_error(call):
    with pytest.raises(ValueError, match=" give no (positive )?finite ") as err:
        call()
    assert "\n" not in str(err.value)


READ_ONLY = np.zeros((2, 3))
READ_ONLY.flags.writeable = False
ROWS_9 = np.ones((9, 6))  # rows 0-3 are the directions u below, row 8 a point x
DRAW_OUT = partial(SubstreamSampler(1).standard_normal, 0)

# out= buffers each refused with one ValueError before anything is written
OUTS = {
    "standard_normal-shape": partial(DRAW_OUT, (2, 3), out=np.empty((3, 2))),
    "standard_normal-dtype": partial(DRAW_OUT, out=np.empty((2, 3), dtype=np.float32)),
    "standard_normal-fortran_order": partial(DRAW_OUT, out=np.empty((3, 2)).T),
    "standard_normal-strided": partial(DRAW_OUT, out=np.empty((2, 6))[:, ::2]),
    "standard_normal-read_only": partial(DRAW_OUT, out=READ_ONLY),
    "standard_normal-list": partial(DRAW_OUT, out=[[0.0] * 3] * 2),
    # oracle_eval's shape, dtype and order rows are in test_oracle.py
    "oracle_eval-aliases_u": partial(
        oracle_eval, PROBLEM.objective, X, ROWS_9[:4], CFG, out=ROWS_9[2:6]
    ),
    "oracle_eval-aliases_x": partial(
        oracle_eval, PROBLEM.objective, ROWS_9[8], ROWS_9[:4], CFG, out=ROWS_9[5:9]
    ),
}


@pytest.mark.parametrize("call", OUTS.values(), ids=OUTS.keys())
def test_bad_out_is_one_value_error(call):
    out = call.keywords["out"]
    before = np.asarray(out).tobytes()
    with pytest.raises(ValueError, match="out") as err:
        call()
    assert "\n" not in str(err.value)
    assert np.asarray(out).tobytes() == before
