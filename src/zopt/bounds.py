"""Closed-form gap bounds and the c11 oracle variance candidate.

The two gap bounds predict the running average of f(x_k) - f* for the
unconstrained and projected schemes at their analyzed step sizes.  The c11
candidate bounds the oracle's second moment; the harness's sigma overlay
evaluates it at every iterate.  Only numpy is needed here, so a run that
overlays a bound loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import _check_count, _check_real, _closed_form
from .solvers import theorem_step_size

__all__ = [
    "BoundInputs",
    "unconstrained_gap_bound",
    "constrained_gap_bound",
    "oracle_variance_candidate",
]


@dataclass(frozen=True, eq=False)
class BoundInputs:
    """Problem constants feeding the gap bounds.

    initial_gap is f(x0) - f*.  d_x and sigma_seq are needed only for the
    constrained bound; sigma_seq[k] bounds the root mean square deviation of
    the oracle from the smoothed gradient at iteration k and must cover
    every iteration index the bound is evaluated at.
    """

    n: int
    lip_const: float
    pl_const: float
    mu: float
    initial_gap: float
    d_x: float | None = None
    sigma_seq: np.ndarray | None = None

    def __post_init__(self):
        _check_count(self.n, "n", 1)
        for name in ("lip_const", "pl_const", "mu"):
            _check_real(getattr(self, name), name)
        _check_real(self.initial_gap, "initial_gap", positive=False)
        if self.d_x is not None:
            _check_real(self.d_x, "d_x")
        if self.sigma_seq is not None:
            object.__setattr__(
                self, "sigma_seq", np.asarray(self.sigma_seq, dtype=float)
            )


def _step(mode: str, inputs: BoundInputs, step_size: float | None) -> float:
    if step_size is None:
        return theorem_step_size(mode, inputs.n, inputs.lip_const)
    return _check_real(step_size, "step_size")


def unconstrained_gap_bound(
    inputs: BoundInputs, num_iters: int, step_size: float | None = None
) -> float:
    """Bound on the running-average gap after num_iters unconstrained steps.

    Exact for the analyzed step 1 / (4 (n + 4) lip_const).  For any other
    step h the leading term is rescaled to 2 * gap / (pl * h * (N + 1)),
    matching the 1 / (l h eps) iteration scaling, and the smoothing terms
    are kept unchanged; treat that variant as a heuristic overlay.
    """
    num_iters = _check_count(num_iters, "num_iters", 0)
    n, lip, pl, mu = inputs.n, inputs.lip_const, inputs.pl_const, inputs.mu
    h = _step("unconstrained", inputs, step_size)
    gap = inputs.initial_gap
    return _closed_form(
        "bound",
        lambda: 2.0 / (pl * h) * (gap / (num_iters + 1) + 3.0 * mu**2 * (n + 4) * lip / 32.0)
        + mu**2 / (4.0 * pl) * lip**2 * (n + 6) ** 3,
        n=n, lip_const=lip, pl_const=pl, mu=mu, initial_gap=gap, step_size=h,
        num_iters=num_iters,
    )


def constrained_gap_bound(
    inputs: BoundInputs, num_iters: int, step_size: float | None = None
) -> float:
    """Bound on the running-average gap after num_iters projected steps.

    Requires a finite diameter and sigma_seq covering indices 0..num_iters.
    Exact for the analyzed step 1 / lip_const; for smaller steps only the
    leading term is rescaled (heuristic, as above).
    """
    num_iters = _check_count(num_iters, "num_iters", 0)
    if inputs.d_x is None:
        raise ValueError("constrained bound requires a d_x")
    if inputs.sigma_seq is None or inputs.sigma_seq.size < num_iters + 1:
        raise ValueError(
            f"sigma_seq must cover indices 0..{num_iters} "
            f"(got {0 if inputs.sigma_seq is None else inputs.sigma_seq.size} entries)"
        )
    n, lip, pl, mu, d_x = (
        inputs.n,
        inputs.lip_const,
        inputs.pl_const,
        inputs.mu,
        inputs.d_x,
    )
    h = _step("constrained", inputs, step_size)
    sigma = inputs.sigma_seq[: num_iters + 1]
    sum_sigma = float(np.sum(sigma))
    sum_sigma_sq = float(np.sum(sigma**2))
    gap = inputs.initial_gap
    return _closed_form(
        "bound",
        lambda: gap / (pl * h * (num_iters + 1))
        + mu * d_x * lip**2 * (n + 3) ** 1.5 / (2.0 * pl)
        + lip * d_x * sum_sigma / (pl * (num_iters + 1))
        + sum_sigma_sq / (pl * (num_iters + 1)),
        n=n, lip_const=lip, pl_const=pl, mu=mu, d_x=d_x, initial_gap=gap, step_size=h,
        num_iters=num_iters, sigma_sum=sum_sigma, sigma_sq_sum=sum_sigma_sq,
    )


def oracle_variance_candidate(mu: float, n: int, lip_const: float, grad_norm: float) -> float:
    """The c11 upper-bound candidate sigma^2 for the oracle's second moment.

    It uses the gradient Lipschitz constant and the gradient norm at the
    probed point: mu^2 L1^2 (n + 6)^3 / 2 + 2 (n + 4) ||grad||^2.
    """
    mu, lip_const = _check_real(mu, "mu"), _check_real(lip_const, "lip_const")
    n = _check_count(n, "n", 1)
    grad_norm = _check_real(grad_norm, "grad_norm", positive=False)
    return _closed_form(
        "sigma^2",
        lambda: _c11_sigma_sq(mu, n, lip_const, grad_norm**2),
        mu=mu, n=n, lip_const=lip_const, grad_norm=grad_norm,
    )


def _c11_sigma_sq(mu: float, n: int, lip_const: float, grad_sq, out=None):
    """The c11 candidate from squared gradient norms (a float or an array),
    unvalidated; into out when given, which may be grad_sq itself."""
    floor = mu**2 * lip_const**2 * (n + 6) ** 3 / 2.0
    return np.add(floor, np.multiply(2.0 * (n + 4), grad_sq, out=out), out=out)
