"""Iteration schemes driven by the two-point oracle.

random_search performs the plain update x <- x - h * g with a fresh Gaussian
direction each step; projected_random_search projects each trial point back
onto a convex feasible set.  A run of N iterations visits x_0 .. x_N, spends
two objective evaluations per iteration plus one final evaluation to record
f(x_N), and is bit-reproducible from (seed, config, problem): iteration k
always draws from substream k of the oracle seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .oracle import EvaluationError, OracleConfig, oracle_eval, sample_directions
from .rng import SubstreamSampler
from .sets import FeasibleSet

__all__ = [
    "SolverConfig",
    "RunRecord",
    "DivergenceError",
    "random_search",
    "projected_random_search",
    "best_iterate",
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


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Oracle settings plus a constant step size and iteration budget.

    record_stride thins stored iterate vectors (values f(x_k) are always
    kept densely; a full iterate trajectory at n = 1000, N = 200000 would
    be 1.6 GB per run).  lip_const is optional and only used to warn when a
    constrained run uses a step size above 1 / lip_const.
    """

    oracle: OracleConfig
    step_size: float
    num_iters: int
    record_stride: int = 1
    lip_const: float | None = None

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if self.num_iters < 0:
            raise ValueError(f"num_iters must be nonnegative, got {self.num_iters}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")


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


def _run(
    f: Callable,
    x0: np.ndarray,
    cfg: SolverConfig,
    feasible_set: FeasibleSet | None,
    on_iterate: Callable[[int, np.ndarray], None] | None,
) -> RunRecord:
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError("x0 must be a vector")
    n = x.size
    if feasible_set is not None:
        if feasible_set.dim != n:
            raise ValueError(
                f"x0 has dimension {n}, feasible set has {feasible_set.dim}"
            )
        if not feasible_set.contains(x):
            raise ValueError("x0 is infeasible")
        if cfg.lip_const is not None and cfg.step_size > 1.0 / cfg.lip_const:
            warnings.warn(
                f"step size {cfg.step_size:.3g} exceeds 1/lip_const "
                f"{1.0 / cfg.lip_const:.3g}; the projected scheme's guarantees "
                "assume steps at or below it",
                stacklevel=3,
            )

    oracle_cfg = cfg.oracle
    num_iters = cfg.num_iters
    h = cfg.step_size
    sampler = SubstreamSampler(oracle_cfg.seed)

    values = np.empty(num_iters + 1)
    iterates: list[np.ndarray] = []
    best_value = math.inf
    best_k = 0
    best_point = x.copy()
    violations = 0
    guard = math.inf

    for k in range(num_iters + 1):
        fx = float(f(x))
        if not math.isfinite(fx):
            raise DivergenceError(k, float(np.linalg.norm(x)), f"f(x) = {fx}")
        if k == 0:
            guard = DIVERGENCE_FACTOR * max(1.0, abs(fx))
        elif fx > guard:
            raise DivergenceError(
                k, float(np.linalg.norm(x)), f"f(x) = {fx:.6g} exceeds guard {guard:.6g}"
            )
        values[k] = fx
        if fx < best_value:
            best_value = fx
            best_k = k
            best_point = x.copy()
        if k % cfg.record_stride == 0 or k == num_iters:
            iterates.append(x.copy())
        if feasible_set is not None and not feasible_set.contains(x):
            violations += 1
        if on_iterate is not None:
            on_iterate(k, x)
        if k == num_iters:
            break
        u = sample_directions(oracle_cfg, n, k, 1, sampler=sampler)[0]
        try:
            g = oracle_eval(f, x, u, oracle_cfg, fx=fx)
        except EvaluationError as exc:
            raise DivergenceError(k, float(np.linalg.norm(x)), str(exc)) from exc
        x = x - h * g
        if feasible_set is not None:
            x = feasible_set.project(x)

    return RunRecord(
        config=cfg,
        values=values,
        iterates=np.array(iterates),
        best_k=best_k,
        best_point=best_point,
        feasibility_violations=violations,
    )


def random_search(
    f: Callable,
    x0: np.ndarray,
    cfg: SolverConfig,
    on_iterate: Callable[[int, np.ndarray], None] | None = None,
) -> RunRecord:
    """Run the unconstrained scheme: x_{k+1} = x_k - h * g_k.

    on_iterate, when given, is called with (k, x_k) for every k = 0..N; it
    must not mutate its argument.  Raises DivergenceError on non-finite or
    runaway values.
    """
    return _run(f, x0, cfg, None, on_iterate)


def projected_random_search(
    f: Callable,
    feasible_set: FeasibleSet,
    x0: np.ndarray,
    cfg: SolverConfig,
    on_iterate: Callable[[int, np.ndarray], None] | None = None,
) -> RunRecord:
    """Run the projected scheme: x_{k+1} = project(x_k - h * g_k).

    Requires a feasible x0; every visited iterate is feasible.  The update
    equals x_k - h * s_k for the projected-step direction s_k given by
    sets.gradient_map with the same g_k.
    """
    return _run(f, x0, cfg, feasible_set, on_iterate)


def best_iterate(record: RunRecord) -> tuple[int, np.ndarray, float]:
    """Earliest recorded iterate attaining the minimum value.

    Ties break to the smallest k; tracking is done online during the run,
    so the returned point is exact even when iterate storage is thinned.
    """
    return record.best_k, record.best_point.copy(), record.best_value


def theorem_step_size(mode: str, n: int, lip_const: float) -> float:
    """Step size assumed by the gap bounds in zopt.analysis.

    unconstrained: 1 / (4 (n + 4) lip_const); constrained: 1 / lip_const.
    """
    if not lip_const > 0:
        raise ValueError(f"lip_const must be positive, got {lip_const}")
    if mode == "unconstrained":
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        return 1.0 / (4.0 * (n + 4) * lip_const)
    if mode == "constrained":
        return 1.0 / lip_const
    raise ValueError(f"mode must be 'unconstrained' or 'constrained', got {mode!r}")


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
    unless the inputs, mu and N are all positive and finite.
    """
    if not all(0 < v < math.inf for v in (eps, n, lip_const, pl_const)):
        raise ValueError("eps, n, lip_const, and pl_const must all be positive and finite")
    try:
        if mode == "unconstrained":
            mu = math.sqrt(pl_const * eps) / (n**1.5 * lip_const)
            num_iters = n * lip_const / (pl_const * eps)
        elif mode == "constrained":
            if d_x is None or not math.isfinite(d_x) or d_x <= 0:
                raise ValueError("constrained mode requires a finite positive d_x")
            mu = pl_const * eps / (d_x * lip_const**2 * (n + 3) ** 1.5)
            num_iters = lip_const / (pl_const * eps)
        else:
            raise ValueError(f"mode must be 'unconstrained' or 'constrained', got {mode!r}")
    except OverflowError:
        # float ** and int-to-float conversions raise where other float
        # arithmetic gives inf
        mu = num_iters = math.inf
    if not (0 < mu < math.inf and num_iters < math.inf):
        raise ValueError(
            f"eps={eps!r}, n={n}, lip_const={lip_const!r}, pl_const={pl_const!r} "
            f"give no positive finite mu and finite iteration count"
        )
    return mu, math.ceil(num_iters)
