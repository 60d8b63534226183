"""Gaussian direction sampling and two-point gradient estimation.

Directions u are drawn from the standard normal N(0, I); sampling replaces
the smoothing integral, so the Gaussian normalizer is never evaluated.  The
two-point estimate

    g = ((f(x + mu * u) - f(x)) / mu) * u

uses exactly two function evaluations and is an unbiased estimate of the
gradient of the smoothed objective f_mu(x) = E[f(x + mu * u)].  oracle_eval
is its only implementation: one direction (n,) gives one estimate, a (k, n)
block gives k estimates as rows from one shared f(x), and k points (k, n)
paired with k directions give one estimate per pair, each bit for bit the
estimate of that pair alone (the solvers advance runs this way).

All sampling is counter-based (see zopt.rng): a draw is fully determined by
(config.seed, counter), so concurrent callers stay reproducible as long as
they use disjoint counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import SubstreamSampler, _check_count, _check_real, _check_u64

__all__ = [
    "EvaluationError",
    "OracleConfig",
    "MonteCarloEstimate",
    "sample_directions",
    "oracle_eval",
    "estimate_smoothed_gradient",
]


class EvaluationError(RuntimeError):
    """The objective returned a non-finite value; row is its row in a stack.

    failures holds one error per non-finite value of the call, in row
    order, this one first.  From oracle_eval's paired form,
    estimate holds the estimate rows of the pairs that did not fail, in
    order; else it is None.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row
        self.failures = [self]
        self.estimate: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class OracleConfig:
    """Smoothing scale and RNG root seed.

    mu is the smoothing parameter (in units of x).  All arithmetic is
    float64: mu can be as small as 1e-10, which a 32-bit difference
    quotient would underflow.
    """

    mu: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mu", _check_real(self.mu, "mu"))
        object.__setattr__(self, "seed", _check_u64(self.seed, "seed"))


@dataclass(frozen=True, eq=False)
class MonteCarloEstimate:
    """Sample mean with per-coordinate standard error of the mean."""

    value: float | np.ndarray
    stderr: float | np.ndarray
    num_samples: int


def sample_directions(
    cfg: OracleConfig,
    dim: int,
    counter: int,
    num: int,
    sampler: SubstreamSampler | None = None,
) -> np.ndarray:
    """Draw `num` standard normal directions as a (num, dim) array.

    The block is read sequentially from substream `counter` of cfg.seed
    through `sampler`, a SubstreamSampler rooted at cfg.seed (a fresh one
    when None); a reused sampler continues where its previous call stopped
    when that call had the same counter.
    """
    shape = (_check_count(num, "num", 1), _check_count(dim, "dim", 1))
    if sampler is None:
        sampler = SubstreamSampler(cfg.seed)
    return sampler.standard_normal(counter, shape)


def _nonfinite(value: float, point: np.ndarray, row: int | None = None) -> EvaluationError:
    return EvaluationError(
        f"objective returned {value} at a point with norm {np.linalg.norm(point):.6g}", row
    )


def _eval_rows(f: Callable, points: np.ndarray) -> np.ndarray:
    """f at each row of a (k, n) stack, each value bit-equal to f(row).

    An objective with a true rows_exact attribute takes the stack in one
    call; any other is called once per row.  Values are not checked.
    """
    if getattr(f, "rows_exact", False):
        return f(points)
    return np.array([float(f(p)) for p in points], dtype=float)


# from this many values on, one array test beats a per-row test on Python
# floats; ns per call, per-row vs array (2 cores, numpy 2.4.6, Python 3.11):
# 1 row 242 vs 1490, 13: 587 vs 1374, 32: 1059 vs 1436, 48: 1590 vs 1527, 128: 4040 vs 1466
_ARRAY_TEST_ROWS = 48


def _stack_error(values: np.ndarray, points: np.ndarray) -> EvaluationError | None:
    """None when every value of a stack is finite, else the EvaluationError
    of its first non-finite row, whose failures has one per such row."""
    few = len(values) < _ARRAY_TEST_ROWS
    if all(map(math.isfinite, values.tolist())) if few else np.isfinite(values).all():
        return None
    rows = np.flatnonzero(~np.isfinite(values)).tolist()
    failures = [_nonfinite(values[row], points[row], row) for row in rows]
    failures[0].failures = failures
    return failures[0]


def _values(f: Callable, points: np.ndarray, batch: bool = False) -> float | np.ndarray:
    """f at one point (n,) as a float, or at each row of a (k, n) stack.

    A stack goes to f.batch when batch is true and f has one; otherwise each
    value is bit-equal to f(row).  A non-finite value raises an
    EvaluationError whose row is its row in the stack (None for a point).
    """
    if points.ndim == 1:
        value = float(f(points))
        if not math.isfinite(value):
            raise _nonfinite(value, points)
        return value
    f_batch = getattr(f, "batch", None) if batch else None
    values = _eval_rows(f, points) if f_batch is None else np.asarray(f_batch(points), dtype=float)
    error = _stack_error(values, points)
    if error is not None:
        raise error
    return values


def _check_out(out: np.ndarray, x: np.ndarray, u: np.ndarray) -> None:
    if x.ndim != 1 or u.ndim != 2:
        raise ValueError("out is for one point x and a (k, n) block of directions u")
    # a C-contiguous float64 buffer meets f.batch as a fresh array would
    ok = isinstance(out, np.ndarray) and out.dtype == np.float64 and out.flags.c_contiguous
    if not ok or out.shape != u.shape:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {u.shape}")
    # u is read again for the estimate after out holds the shifted points
    if np.shares_memory(out, x) or np.shares_memory(out, u):
        raise ValueError("out must not share memory with x or u")


def oracle_eval(
    f: Callable,
    x: np.ndarray,
    u: np.ndarray,
    cfg: OracleConfig,
    fx: float | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Two-point gradient estimate ((f(x + mu u) - f(x)) / mu) * u.

    u is one direction (n,) or a (k, n) block of k directions, whose rows
    share one f(x) and whose shifted points go to f.batch when f has one
    (so a row may differ from a single call in the last bits).  With x a
    (k, n) stack of points and u a (k, n) stack of directions, row i is the
    estimate at x[i] along u[i], bit for bit its own single call; fx is then
    the (k,) values at the points, and a non-finite value at a shifted
    point raises an EvaluationError whose row is the first failing pair,
    with every failing pair in its failures and the other pairs' estimate
    rows, each as in its own call, in its estimate: no pair is evaluated
    twice.  Pass fx to reuse an already paid evaluation at x.

    out, for one x and a (k, n) block u only, is a C-contiguous float64
    (k, n) buffer that shares no memory with x or u: it holds the shifted
    points while f evaluates them, then the estimate, which is returned in
    it with the bits of the call without out.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    paired = x.ndim == 2 and u.shape == x.shape
    if not (paired or x.ndim == 1 and u.ndim in (1, 2) and u.shape[-1] == x.size):
        raise ValueError(f"shape mismatch: x {x.shape} vs u {u.shape}")
    if x.shape[-1] == 0:
        raise ValueError("dimension must be positive, got 0")
    if out is not None:
        _check_out(out, x, u)
    if fx is None:
        fx = _values(f, x)
    # x + mu u and the estimate are each written into out when it is given
    # (its shifted points are spent before the estimate overwrites them)
    shifted = np.add(x, np.multiply(cfg.mu, u, out=out), out=out)
    error = None
    if paired:
        values = _eval_rows(f, shifted)
        error = _stack_error(values, shifted)
        if error is not None:
            keep = np.ones(len(values), dtype=bool)
            keep[[e.row for e in error.failures]] = False
            values, fx, u = values[keep], np.asarray(fx)[keep], u[keep]
    else:
        values = _values(f, shifted, batch=x.ndim < u.ndim)
    coef = (values - fx) / cfg.mu
    estimate = np.multiply(coef if u.ndim == 1 else coef[:, None], u, out=out)
    if error is not None:
        error.estimate = estimate
        raise error
    return estimate


def _mean_and_stderr(samples: np.ndarray) -> tuple:
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    return mean, stderr


def estimate_smoothed_gradient(
    f: Callable,
    x: np.ndarray,
    cfg: OracleConfig,
    num_samples: int,
    counter: int = 0,
) -> MonteCarloEstimate:
    """Monte Carlo mean of the two-point estimate, per-coordinate stderr.

    Converges to the gradient of f_mu at x; for quadratics that gradient
    equals the exact gradient of f.
    """
    num_samples = _check_count(num_samples, "num_samples", 2)  # for a standard error
    x = np.asarray(x, dtype=float)
    g = oracle_eval(f, x, sample_directions(cfg, x.size, counter, num_samples), cfg)
    return MonteCarloEstimate(*_mean_and_stderr(g), num_samples)
