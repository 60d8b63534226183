"""Iteration schemes driven by the two-point oracle.

random_search performs the plain update x <- x - h * g with a fresh Gaussian
direction each step; projected_random_search projects each trial point back
onto a convex feasible set.  A run of N iterations visits x_0 .. x_N, spends
two objective evaluations per iteration plus one final evaluation to record
f(x_N), and is bit-reproducible from (seed, config, problem): iteration k
always draws from substream k of the oracle seed.  Runs that differ only in
their seeds can be advanced together as one block; each comes out bit for
bit as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .oracle import EvaluationError, OracleConfig, _eval_rows, oracle_eval, sample_directions
from .rng import SubstreamSampler, _check_count, _check_real, _closed_form
from .sets import FeasibleSet

__all__ = [
    "SolverConfig",
    "RunRecord",
    "RunBlock",
    "DivergenceError",
    "random_search",
    "projected_random_search",
    "suggest_params",
    "theorem_step_size",
]

# Abort threshold for runaway trajectories, relative to max(1, f(x0)).
DIVERGENCE_FACTOR = 1e12


class DivergenceError(RuntimeError):
    """A run produced a non-finite or runaway objective value."""

    def __init__(self, iteration: int, point_norm: float, detail: str):
        super().__init__(
            f"run aborted at iteration {iteration} (point norm {point_norm:.6g}): "
            f"{detail}"
        )
        self.iteration = iteration
        self.point_norm = point_norm
        self.detail = detail

    def __reduce__(self):
        # the default rebuilds from the message alone, which __init__ rejects
        return type(self), (self.iteration, self.point_norm, self.detail)


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Oracle settings plus a constant step size and iteration budget.

    record_stride thins stored iterate vectors (values f(x_k) are always
    kept densely; a full iterate trajectory at n = 1000, N = 200000 would
    be 1.6 GB per run).
    """

    oracle: OracleConfig
    step_size: float
    num_iters: int
    record_stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "step_size", _check_real(self.step_size, "step_size"))
        for name, low in (("num_iters", 0), ("record_stride", 1)):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, low))


@dataclass(eq=False)
class RunRecord:
    """Trajectory summary of one run: what the loop measured.

    values holds f(x_k) for every k = 0..num_iters.  Iterate vectors are
    stored only at stride points plus the endpoint x_N.  Everything else is
    derived from these fields on access.
    """

    config: SolverConfig
    values: np.ndarray
    iterates: np.ndarray
    best_k: int
    best_point: np.ndarray
    feasibility_violations: int = 0

    @property
    def seed(self) -> int:
        return self.config.oracle.seed

    @property
    def num_iters(self) -> int:
        return self.values.size - 1

    @property
    def best_values(self) -> np.ndarray:
        """Running minimum of values, exact since a non-finite value aborts a run."""
        return np.minimum.accumulate(self.values)

    @property
    def best_value(self) -> float:
        return float(self.values[self.best_k])

    @property
    def iterate_ks(self) -> np.ndarray:
        """Iteration index of each stored iterate: the stride grid plus N."""
        ks = np.arange(0, self.num_iters + 1, self.config.record_stride, dtype=np.int64)
        return ks if ks[-1] == self.num_iters else np.append(ks, self.num_iters)

    @property
    def final_point(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def eval_count(self) -> int:
        return 2 * self.num_iters + 1


@dataclass(eq=False)
class RunBlock:
    """Runs advanced together: per run, in config order, its RunRecord or
    the DivergenceError that ended it."""

    num_iters: int
    outcomes: list[RunRecord | DivergenceError]


def _same_but_seed(a: SolverConfig, b: SolverConfig) -> bool:
    return (a.step_size, a.num_iters, a.record_stride, a.oracle.mu) == (
        b.step_size, b.num_iters, b.record_stride, b.oracle.mu
    )


def _run(
    f: Callable,
    x0: np.ndarray,
    cfgs: Sequence[SolverConfig],
    feasible_set: FeasibleSet | None,
    on_iterate: Callable[[int, np.ndarray], None] | None,
) -> list[RunRecord | DivergenceError]:
    """Advance one run per config from x0 in lockstep, as one (R, n) state.

    The configs differ only in their oracle seeds.  Each iteration evaluates
    f on the stack, draws one direction per run from that run's substream,
    and calls oracle_eval once on the paired rows; every kernel is
    row-exact, so each run is bit for bit the run it would be alone.  A run
    that diverges leaves the stack and the others go on.  on_iterate gets
    (k, X) as random_search describes.
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError("x0 must be a vector")
    n = x.size
    cfg = cfgs[0]
    if not all(_same_but_seed(cfg, other) for other in cfgs[1:]):
        raise ValueError("the runs of a block must differ only in their oracle seeds")
    if feasible_set is not None:
        if feasible_set.dim != n:
            raise ValueError(
                f"x0 has dimension {n}, feasible set has {feasible_set.dim}"
            )
        if not feasible_set.contains(x):
            raise ValueError("x0 is infeasible")

    num_runs = len(cfgs)
    num_iters = cfg.num_iters
    h = cfg.step_size
    stride = cfg.record_stride
    oracle_cfg = cfg.oracle
    draws = [(c.oracle, SubstreamSampler(c.oracle.seed)) for c in cfgs]

    # per-run state is indexed by run; X, fx and the like by row, and
    # live[j] is the run of row j.  No state array is written in place, so
    # a run's best point is kept as the state it is a row of, and copied
    # out at the end.
    values = np.empty((num_runs, num_iters + 1))
    iterates = np.empty((num_runs, num_iters // stride + 1 + (num_iters % stride > 0), n))
    best_value = [math.inf] * num_runs
    best_k = [0] * num_runs
    best_at: list = [None] * num_runs
    guard = [math.inf] * num_runs
    violations = [0] * num_runs
    outcomes: list = [None] * num_runs
    live = list(range(num_runs))
    stored = 0

    def retire(k: int, failed: dict, X, *stacks):
        """End the failed rows' runs at iteration k, each with a DivergenceError
        from its row's detail text or EvaluationError (kept as the cause);
        X and the stacks without those rows."""
        nonlocal live
        for j, detail in failed.items():
            error = DivergenceError(k, float(np.linalg.norm(X[j])), str(detail))
            if isinstance(detail, EvaluationError):
                error.__cause__ = detail
            outcomes[live[j]] = error
        keep = [j for j in range(len(live)) if j not in failed]
        live = [live[j] for j in keep]
        return [a[keep] for a in (X, *stacks)]

    X = np.repeat(x[None, :], num_runs, axis=0)
    for k in range(num_iters + 1):
        fx = _eval_rows(f, X)
        failed = {}
        for j, (i, value) in enumerate(zip(live, fx.tolist())):
            if not math.isfinite(value):
                failed[j] = f"f(x) = {value}"
                continue
            if k == 0:
                guard[i] = DIVERGENCE_FACTOR * max(1.0, abs(value))
            elif value > guard[i]:
                failed[j] = f"f(x) = {value:.6g} exceeds guard {guard[i]:.6g}"
                continue
            values[i, k] = value
            if value < best_value[i]:
                best_value[i] = value
                best_k[i] = k
                best_at[i] = (X, j)
        if failed:
            X, fx = retire(k, failed, X, fx)
            if not live:
                break
        if k % stride == 0 or k == num_iters:
            iterates[live, stored] = X
            stored += 1
        if feasible_set is not None:
            for j, inside in enumerate(feasible_set.contains(X).tolist()):
                if not inside:
                    violations[live[j]] += 1
        if on_iterate is not None:
            if len(live) < num_runs:
                block = np.full((num_runs, n), math.nan)
                block[live] = X
                on_iterate(k, block)
            else:
                on_iterate(k, X)
        if k == num_iters:
            break
        U = []
        for i in live:
            oracle, sampler = draws[i]
            U.append(sample_directions(oracle, n, k, 1, sampler=sampler))
        U = np.concatenate(U) if len(U) > 1 else U[0]
        while live:
            try:
                X = X - h * oracle_eval(f, X, U, oracle_cfg, fx=fx)
                break
            except EvaluationError as exc:
                X, U, fx = retire(k, {exc.row: exc}, X, U, fx)
        if not live:
            break
        if feasible_set is not None:
            X = feasible_set.project(X)

    for i, run_cfg in enumerate(cfgs):
        if outcomes[i] is None:
            outcomes[i] = RunRecord(
                config=run_cfg,
                values=values[i],
                iterates=iterates[i],
                best_k=best_k[i],
                best_point=best_at[i][0][best_at[i][1]].copy(),
                feasibility_violations=violations[i],
            )
    return outcomes


def _solve(f, x0, cfg, feasible_set, on_iterate):
    """One run for a SolverConfig (raising DivergenceError), a RunBlock for a
    sequence of them."""
    if isinstance(cfg, SolverConfig):
        hook = None if on_iterate is None else (lambda k, X: on_iterate(k, X[0]))
        (outcome,) = _run(f, x0, [cfg], feasible_set, hook)
        if isinstance(outcome, DivergenceError):
            raise outcome
        return outcome
    cfgs = list(cfg)
    if not cfgs:
        raise ValueError("a block needs at least one run")
    return RunBlock(cfgs[0].num_iters, _run(f, x0, cfgs, feasible_set, on_iterate))


def random_search(
    f: Callable,
    x0: np.ndarray,
    cfg: SolverConfig | Sequence[SolverConfig],
    on_iterate: Callable[[int, np.ndarray], None] | None = None,
) -> RunRecord | RunBlock:
    """Run the unconstrained scheme: x_{k+1} = x_k - h * g_k.

    on_iterate, when given, is called with (k, x_k) for every k = 0..N; it
    must not mutate its argument.  Raises DivergenceError on non-finite or
    runaway values.  Given a sequence of configs that differ only in their
    oracle seeds, it advances those runs together, each bit for bit as it
    would run alone, and returns a RunBlock; a run that diverges ends only
    itself.  on_iterate then gets (k, X), X holding one row per run in
    config order, and the row of a run that has diverged is NaN.
    """
    return _solve(f, x0, cfg, None, on_iterate)


def projected_random_search(
    f: Callable,
    feasible_set: FeasibleSet,
    x0: np.ndarray,
    cfg: SolverConfig | Sequence[SolverConfig],
    on_iterate: Callable[[int, np.ndarray], None] | None = None,
) -> RunRecord | RunBlock:
    """Run the projected scheme: x_{k+1} = project(x_k - h * g_k).

    Requires a feasible x0; every visited iterate is feasible.  The update
    equals x_k - h * s_k for the projected-step direction s_k given by
    sets.gradient_map with the same g_k.  A sequence of configs gives a
    RunBlock, as for random_search.
    """
    return _solve(f, x0, cfg, feasible_set, on_iterate)


def theorem_step_size(mode: str, n: int, lip_const: float) -> float:
    """Step size assumed by the gap bounds in zopt.bounds.

    unconstrained: 1 / (4 (n + 4) lip_const); constrained: 1 / lip_const.
    A lip_const whose step would be 0 or inf raises ValueError.
    """
    if mode not in ("unconstrained", "constrained"):
        raise ValueError(f"mode must be 'unconstrained' or 'constrained', got {mode!r}")
    n = _check_count(n, "n", 1)
    lip_const = _check_real(lip_const, "lip_const")
    return _closed_form(
        "step size",
        lambda: 1.0 / (4.0 * (n + 4) * lip_const if mode == "unconstrained" else lip_const),
        _positive=True, n=n, lip_const=lip_const,
    )


def suggest_params(
    mode: str,
    eps: float,
    n: int,
    lip_const: float,
    pl_const: float,
    d_x: float | None = None,
) -> tuple[float, int]:
    """Smoothing parameter and iteration count targeting a gap of eps.

    unconstrained: mu = sqrt(pl_const * eps) / (n^(3/2) * lip_const) and
    N = ceil(n * lip_const / (pl_const * eps)); constrained: mu =
    pl_const * eps / (d_x * lip_const^2 * (n + 3)^(3/2)) and N =
    ceil(lip_const / (pl_const * eps)).  The scalings carry unspecified
    leading constants; they are fixed at 1 here, so treat the output as a
    calibrated starting point rather than a certificate.  Raises ValueError
    unless the inputs and mu are positive and finite and N is finite.
    """
    if mode not in ("unconstrained", "constrained"):
        raise ValueError(f"mode must be 'unconstrained' or 'constrained', got {mode!r}")
    eps = _check_real(eps, "eps")
    n = _check_count(n, "n", 1)
    lip_const = _check_real(lip_const, "lip_const")
    pl_const = _check_real(pl_const, "pl_const")
    inputs = dict(eps=eps, n=n, lip_const=lip_const, pl_const=pl_const)
    if mode == "unconstrained":
        mu_formula = lambda: math.sqrt(pl_const * eps) / (n**1.5 * lip_const)
        iters_formula = lambda: n * lip_const / (pl_const * eps)
    else:
        inputs["d_x"] = d_x = _check_real(d_x, "d_x")
        mu_formula = lambda: pl_const * eps / (d_x * lip_const**2 * (n + 3) ** 1.5)
        iters_formula = lambda: lip_const / (pl_const * eps)
    mu = _closed_form("mu", mu_formula, _positive=True, **inputs)
    num_iters = _closed_form("iteration count", iters_formula, **inputs)
    return mu, math.ceil(num_iters)
