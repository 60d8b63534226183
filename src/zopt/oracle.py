"""Gaussian direction sampling and two-point gradient estimation.

Directions u are drawn from N(0, B^-1) for a symmetric positive definite
matrix B (identity by default); the Gaussian weight uses the B-weighted
quadratic form, so its normalizer never needs to be evaluated, sampling
replaces the integral.  The two-point estimate

    g = ((f(x + mu * u) - f(x)) / mu) * B u

uses exactly two function evaluations and is an unbiased estimate of the
gradient of the smoothed objective f_mu(x) = E[f(x + mu * u)].  oracle_eval
is its only implementation: one direction (n,) gives one estimate, a (k, n)
block gives k estimates as rows from one shared f(x).

All sampling is counter-based (see zopt.rng): a draw is fully determined by
(config.seed, counter), so concurrent callers stay reproducible as long as
they use disjoint counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import SubstreamSampler, _check_seed, substream

__all__ = [
    "EvaluationError",
    "OracleConfig",
    "MonteCarloEstimate",
    "sample_direction",
    "sample_directions",
    "oracle_eval",
    "estimate_smoothed_value",
    "estimate_smoothed_gradient",
]


class EvaluationError(RuntimeError):
    """The objective returned a non-finite value."""


@dataclass(frozen=True, eq=False)
class OracleConfig:
    """Smoothing scale, direction covariance, and RNG root seed.

    mu is the smoothing parameter (in units of x).  b_matrix is B itself;
    None means identity.  Directions are sampled with covariance B^-1 via
    the Cholesky factor of B, so a non-SPD matrix fails at construction
    rather than at sample time.  All arithmetic is float64: mu can be as
    small as 1e-10, which a 32-bit difference quotient would underflow.
    """

    mu: float
    b_matrix: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        _check_seed(self.seed)
        if self.b_matrix is None:
            object.__setattr__(self, "_sample_transform", None)
            return
        b = np.array(self.b_matrix, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"b_matrix must be square, got shape {b.shape}")
        if not np.allclose(b, b.T, rtol=1e-12, atol=1e-12):
            raise ValueError("b_matrix must be symmetric")
        try:
            chol = np.linalg.cholesky(b)
        except np.linalg.LinAlgError as exc:
            raise ValueError("b_matrix must be positive definite") from exc
        object.__setattr__(self, "b_matrix", b)
        # u = z @ inv(L) has covariance (L L^T)^-1 = B^-1 for standard normal z
        object.__setattr__(self, "_sample_transform", np.linalg.inv(chol))

    @property
    def b_dim(self) -> int | None:
        return None if self.b_matrix is None else self.b_matrix.shape[0]

    def apply_b(self, u: np.ndarray) -> np.ndarray:
        """B u, vectorized over leading axes. Identity B returns the input."""
        if self.b_matrix is None:
            return u
        return u @ self.b_matrix


@dataclass(frozen=True, eq=False)
class MonteCarloEstimate:
    """Sample mean with per-coordinate standard error of the mean."""

    value: float | np.ndarray
    stderr: float | np.ndarray
    num_samples: int


def _check_dim(cfg: OracleConfig, dim: int) -> int:
    dim = int(dim)
    if dim <= 0:
        raise ValueError(f"dimension must be positive, got {dim}")
    if cfg.b_dim is not None and cfg.b_dim != dim:
        raise ValueError(f"b_matrix is {cfg.b_dim}x{cfg.b_dim} but dimension is {dim}")
    return dim


def sample_directions(
    cfg: OracleConfig,
    dim: int,
    counter: int,
    num: int,
    sampler: SubstreamSampler | None = None,
) -> np.ndarray:
    """Draw `num` directions from N(0, B^-1) as a (num, dim) array.

    The block is read sequentially from substream `counter`; passing a
    SubstreamSampler rooted at cfg.seed gives the same draws faster.
    """
    dim = _check_dim(cfg, dim)
    if num <= 0:
        raise ValueError(f"num must be positive, got {num}")
    if sampler is None:
        z = substream(cfg.seed, counter).standard_normal((num, dim))
    else:
        z = sampler.standard_normal(counter, (num, dim))
    transform = getattr(cfg, "_sample_transform")
    if transform is None:
        return z
    return z @ transform


def sample_direction(
    cfg: OracleConfig,
    dim: int,
    counter: int,
    sampler: SubstreamSampler | None = None,
) -> np.ndarray:
    """Draw a single direction, deterministic given (cfg.seed, counter)."""
    return sample_directions(cfg, dim, counter, 1, sampler=sampler)[0]


def _eval_one(f: Callable, x: np.ndarray) -> float:
    value = float(f(x))
    if not np.isfinite(value):
        raise EvaluationError(
            f"objective returned {value} at a point with norm {np.linalg.norm(x):.6g}"
        )
    return value


def _eval_many(f: Callable, points: np.ndarray) -> np.ndarray:
    batch = getattr(f, "batch", None)
    if batch is not None:
        values = np.asarray(batch(points), dtype=float)
    else:
        values = np.array([float(f(p)) for p in points], dtype=float)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise EvaluationError(
            f"objective returned {values[bad]} at a point with norm "
            f"{np.linalg.norm(points[bad]):.6g}"
        )
    return values


def oracle_eval(
    f: Callable,
    x: np.ndarray,
    u: np.ndarray,
    cfg: OracleConfig,
    fx: float | None = None,
) -> np.ndarray:
    """Two-point gradient estimate ((f(x + mu u) - f(x)) / mu) * B u.

    u is one direction (n,) or a (k, n) block of k directions, whose rows
    share one f(x) and whose shifted points go to f.batch when f has one
    (so a row may differ from a single call in the last bits, as may a
    dense B u).  Pass fx to reuse an already paid evaluation at x.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.ndim != 1 or u.ndim not in (1, 2) or u.shape[-1] != x.size:
        raise ValueError(f"shape mismatch: x {x.shape} vs u {u.shape}")
    _check_dim(cfg, x.size)
    if fx is None:
        fx = _eval_one(f, x)
    if u.ndim == 1:
        fxp = _eval_one(f, x + cfg.mu * u)
        return ((fxp - fx) / cfg.mu) * cfg.apply_b(u)
    fxp = _eval_many(f, x + cfg.mu * u)
    return ((fxp - fx) / cfg.mu)[:, None] * cfg.apply_b(u)


def _mean_and_stderr(samples: np.ndarray) -> tuple:
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    return mean, stderr


def estimate_smoothed_value(
    f: Callable,
    x: np.ndarray,
    cfg: OracleConfig,
    num_samples: int,
    counter: int = 0,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of f_mu(x) = E[f(x + mu u)] with standard error."""
    if num_samples < 2:
        raise ValueError("num_samples must be at least 2 for a standard error")
    x = np.asarray(x, dtype=float)
    u = sample_directions(cfg, x.size, counter, num_samples)
    values = _eval_many(f, x[None, :] + cfg.mu * u)
    mean, stderr = _mean_and_stderr(values)
    return MonteCarloEstimate(float(mean), float(stderr), num_samples)


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
    if num_samples < 2:
        raise ValueError("num_samples must be at least 2 for a standard error")
    x = np.asarray(x, dtype=float)
    g = oracle_eval(f, x, sample_directions(cfg, x.size, counter, num_samples), cfg)
    return MonteCarloEstimate(*_mean_and_stderr(g), num_samples)
