"""Monte Carlo checks of the oracle inequalities and the box reference optimum.

The functions here quantify the oracle's deviation from the smoothed
gradient and verify, empirically, the inequalities that the gap bounds
(zopt.bounds) rest on.  Deviation checks are restricted to quadratic test
problems, where the smoothed gradient equals the analytic gradient exactly
and no Monte Carlo error enters the reference side.

This is the one module that imports scipy, for the reference minimum over
a box; the harness and the CLI import it only when a box run or verify
starts, so an unconstrained run loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear

from .bounds import oracle_variance_candidate
from .oracle import OracleConfig, _mean_and_stderr, _values, oracle_eval, sample_directions
from .problems import TestProblem
from .rng import SubstreamSampler, _check_count, _check_real, substream
from .sets import Box, FeasibleSet, WholeSpace, gradient_map
from .solvers import theorem_step_size

__all__ = [
    "prox_quantity",
    "constrained_opt_value",
    "DominanceReport",
    "check_proximal_pl",
    "DeviationProbe",
    "probe_deviation",
    "CheckResult",
    "InequalityReport",
    "verify_oracle_inequalities",
]

# Acceptance margin for Monte Carlo inequality checks, in standard errors.
# Under a normal approximation the false-failure rate per check is < 1e-6.
MC_SIGMAS = 5.0

# Rows per block of the verification loops: the samples of one Monte Carlo
# point, and the probes of the inequality check and of the dominance
# sampler.  Sized so that a block's arrays fit a 2 MB L2 cache at n = 100,
# whatever the number of samples or probes: about 1.3 MB for a block of
# samples (directions, estimates, scratch) and 1.1 MB for a block of probes
# (about eleven (block, n) temporaries).  Blocks of 4096 and 1024 held
# 21 MB more peak resident memory on the verify_n100 benchmark workload and
# were slower in an in-process scan.  SAMPLE_BLOCK // 2 must stay above
# the gemm kernel switch described at _blocks.
SAMPLE_BLOCK = 512
PROBE_BLOCK = 128


def _blocks(num: int, size: int):
    """(lo, hi) bounds of ceil(num / size) consecutive, near-equal blocks.

    Near-equal rather than full blocks and a remainder: no block is shorter
    than size // 2 unless num is.  OpenBLAS computes a small gemm with
    another kernel whose bits differ (at (m, n) = (20, 100) below 61 rows),
    so a short remainder would change the bits of a batched f.
    """
    count = -(-num // size)
    edges = [num * b // count for b in range(count + 1)]
    return zip(edges, edges[1:])


def _einsum_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, n) arrays by einsum, not BLAS."""
    return np.einsum("ij,ij->i", a, b)


def prox_quantity(
    feasible_set: FeasibleSet, x: np.ndarray, a: float, vec: np.ndarray
) -> float | np.ndarray:
    """-2a * min over feasible z of (a/2)||z - x||^2 + <vec, z - x>.

    The inner minimum is attained at z* = project(x - vec / a).  Over the
    whole space this equals ||vec||^2, the unconstrained gradient-dominance
    numerator; on a proper subset it is the constrained analogue.  x and
    vec may be (k, n) stacks: the k values are then bit for bit the calls
    on each row, and one infeasible row raises.
    """
    a = _check_real(a, "a")
    x = np.asarray(x, dtype=float)
    vec = np.asarray(vec, dtype=float)
    if not np.all(feasible_set.contains(x)):
        raise ValueError("x must be feasible")
    value = _prox_values(feasible_set, x, a, vec, np.vecdot)
    return float(value) if value.ndim == 0 else value


def _prox_values(
    feasible_set: FeasibleSet,
    x: np.ndarray,
    a: float,
    vec: np.ndarray,
    dot,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """The prox_quantity formula, unchecked; dot reduces the last axis.

    vec may be a stack against one x.  np.vecdot gives each row the bits of
    a single call; probe_deviation passes _einsum_rows, whose bits it pins.
    scratch, an array shaped like vec that shares no memory with x or vec,
    takes the point to project and then z - x in place of new arrays.
    """
    z = feasible_set.project(np.subtract(x, np.divide(vec, a, out=scratch), out=scratch))
    dz = np.subtract(z, x, out=scratch)
    return -2.0 * a * (0.5 * a * dot(dz, dz) + dot(vec, dz))


def constrained_opt_value(problem: TestProblem, feasible_set: FeasibleSet) -> float:
    """Reference minimum of ||A x - b||^2 over the feasible set.

    Boxes are solved with scipy's bounded least squares; the whole space
    falls back to the unconstrained optimum.  Other set kinds have no
    reference solver here.

    The solver's scaled steps lose their meaning on a box far wider than
    the problem: on boxes of width 1e32 it returned values above the
    minimum, and on wider ones its line search could halve a step forever.
    So it runs on the box cut to 1e6 times the problem's scale around the
    box point nearest the unconstrained solution.  f is convex, so a
    solution well inside every cut face is a minimum over the whole box;
    one near a cut face, or a step that overflows, raises ValueError.
    """
    if isinstance(feasible_set, WholeSpace):
        return problem.opt_value
    if not isinstance(feasible_set, Box):
        raise ValueError(f"no reference optimum available for set kind {feasible_set.kind!r}")
    a, b = problem.a_matrix, problem.b_vector
    with np.errstate(over="raise", invalid="raise"):
        try:
            x_ls = np.linalg.lstsq(a, b)[0]
            center = feasible_set.project(x_ls)
            reach = 1e6 * (1.0 + max(np.abs(x_ls).max(), np.abs(center - x_ls).max()))
            lower = np.maximum(feasible_set.lower, center - reach)
            upper = np.minimum(feasible_set.upper, center + reach)
            res = lsq_linear(a, b, bounds=(lower, upper), method="trf", tol=1e-14, max_iter=500)
        except FloatingPointError as exc:
            message = f"no reference optimum on this box: the solver overflows ({exc})"
            raise ValueError(message) from None
    cut = (lower > feasible_set.lower) | (upper < feasible_set.upper)
    if np.any(cut & (np.abs(res.x - center) > 0.5 * reach)):
        raise ValueError("no reference optimum on this box: its minimum is past the solver's reach")
    return float(res.fun @ res.fun)


@dataclass(frozen=True)
class DominanceReport:
    """Sampled constrained gradient-dominance ratios on a feasible set.

    min_ratio is the smallest observed 0.5 * Q(x, lip) / (f(x) - f*); it is
    an empirical stand-in for the constrained dominance constant, which has
    no closed form here.  below_unconstrained counts probes whose ratio
    falls under the unconstrained pl_const: informational on a proper subset
    (the constrained constant may differ), a PL violation over WholeSpace.
    """

    min_ratio: float
    below_unconstrained: int
    evaluated: int
    skipped: int
    opt_value: float
    pl_const_unconstrained: float


def check_proximal_pl(
    problem: TestProblem,
    feasible_set: FeasibleSet,
    num_points: int,
    seed: int,
) -> DominanceReport:
    """Sample 0.5 * Q(x, lip_const) / (f(x) - f*) at random feasible points.

    Over WholeSpace, Q is ||grad f||^2 and this certifies pl_const.  Points
    with a gap under 1e-12 are skipped (the ratio is 0/0); the 1e-9 slack on
    pl_const absorbs rounding.  Points are drawn and evaluated in blocks of
    PROBE_BLOCK, each ratio bit for bit as one point at a time.
    """
    num_points = _check_count(num_points, "num_points", 1)
    f_star = constrained_opt_value(problem, feasible_set)
    gen = substream(seed, 0)
    min_ratio = math.inf
    below = 0
    evaluated = 0
    skipped = 0
    for lo, hi in _blocks(num_points, PROBE_BLOCK):
        x = feasible_set.sample(gen, hi - lo)
        gap = problem.objective(x) - f_star
        near = gap < 1e-12
        skipped += int(np.count_nonzero(near))
        x, gap = x[~near], gap[~near]
        q = prox_quantity(feasible_set, x, problem.lip_const, problem.grad(x))
        ratio = 0.5 * q / gap
        evaluated += ratio.size
        # min over Python floats in point order, as a loop would take it
        min_ratio = min([min_ratio, *ratio.tolist()])
        below += int(np.count_nonzero(ratio < problem.pl_const * (1.0 - 1e-9)))
    return DominanceReport(
        min_ratio=float(min_ratio),
        below_unconstrained=below,
        evaluated=evaluated,
        skipped=skipped,
        opt_value=f_star,
        pl_const_unconstrained=problem.pl_const,
    )


@dataclass(frozen=True, eq=False)
class DeviationProbe:
    """Monte Carlo picture of the oracle at one feasible point.

    xi denotes the deviation g - grad_mu; for the quadratic problems probed
    here grad_mu equals the analytic gradient.  t_mean estimates the
    expectation of the projected decrease functional T(x, lip) and q_value
    is its deterministic counterpart Q(x, lip).
    """

    mean_xi_norm: float
    se_xi_norm: float
    mean_xi_sq: float
    grad_sq: float
    t_mean: float
    t_se: float
    q_value: float


def probe_deviation(
    problem: TestProblem,
    feasible_set: FeasibleSet,
    cfg: OracleConfig,
    x: np.ndarray,
    num_samples: int,
    counter: int,
) -> DeviationProbe:
    """Estimate deviation moments and the projected decrease at one point.

    Requires a quadratic problem so the smoothed gradient is the analytic
    gradient.  The num_samples directions are read on through substream
    `counter` of cfg.seed and share one f(x).  Each block of SAMPLE_BLOCK
    rows is drawn, evaluated and reduced to per-sample values before the
    next one is drawn, so only those values grow with num_samples.  Each
    row is bit for bit as in one draw and one batched oracle_eval call over
    all of them.
    """
    num_samples = _check_count(num_samples, "num_samples", 2)
    x = np.asarray(x, dtype=float)
    n = x.size
    grad = problem.grad(x)
    sampler = SubstreamSampler(cfg.seed)
    fx = _values(problem.objective, x)

    xi_norms, t_values = np.empty(num_samples), np.empty(num_samples)
    # two (block, n) buffers serve every block: the estimates, and the
    # scratch for g - grad and the prox terms; a block's directions are
    # freed once its estimates are in, before the next block is drawn
    rows = max(hi - lo for lo, hi in _blocks(num_samples, SAMPLE_BLOCK))
    g_buf, scratch_buf = np.empty((rows, n)), np.empty((rows, n))
    for lo, hi in _blocks(num_samples, SAMPLE_BLOCK):
        g = oracle_eval(
            problem.objective, x, sample_directions(cfg, n, counter, hi - lo, sampler=sampler),
            cfg, fx=fx, out=g_buf[: hi - lo],
        )
        scratch = scratch_buf[: hi - lo]
        # np.linalg.norm(g - grad, axis=1), operation for operation
        xi = xi_norms[lo:hi]
        d = np.subtract(g, grad, out=scratch)
        np.sqrt(np.add.reduce(np.multiply(d, d, out=d), axis=1, out=xi), out=xi)
        t_values[lo:hi] = _prox_values(
            feasible_set, x, problem.lip_const, g, _einsum_rows, scratch=scratch
        )
    mean_xi, se_xi = map(float, _mean_and_stderr(xi_norms))
    t_mean, t_se = map(float, _mean_and_stderr(t_values))
    return DeviationProbe(
        mean_xi_norm=mean_xi,
        se_xi_norm=se_xi,
        mean_xi_sq=float((xi_norms**2).mean(axis=0)),
        grad_sq=float(grad @ grad),
        t_mean=t_mean,
        t_se=t_se,
        q_value=prox_quantity(feasible_set, x, problem.lip_const, grad),
    )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    trials: int
    violations: int
    margin: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class InequalityReport:
    """Bundle of verification check results with text and CSV renderings."""

    checks: tuple[CheckResult, ...]
    description: str

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_text(self) -> str:
        lines = [self.description]
        for c in self.checks:
            status = "ok" if c.passed else "VIOLATED"
            line = (
                f"  {c.name}: {status} (trials={c.trials}, "
                f"violations={c.violations}, margin={c.margin:.6g})"
            )
            if c.detail:
                line += f" [{c.detail}]"
            lines.append(line)
        return "\n".join(lines)

    def csv_rows(self) -> list[str]:
        rows = ["check,trials,violations,margin"]
        rows += [f"{c.name},{c.trials},{c.violations},{c.margin!r}" for c in self.checks]
        return rows


def verify_oracle_inequalities(
    problem: TestProblem,
    feasible_set: FeasibleSet,
    cfg: OracleConfig,
    num_probes: int = 1000,
    num_samples: int = 10000,
    seed: int = 0,
    num_mc_points: int = 4,
) -> InequalityReport:
    """Empirically verify the inequalities behind the constrained analysis.

    projection_inner_product: per draw, <xi, s - v> <= ||xi||^2, where s and
      v are the projected step directions for the realized estimate and for
      the exact gradient (a consequence of projection nonexpansiveness;
      any violation beyond rounding indicates a bug).
    jensen_ordering: mean ||xi|| <= sqrt(mean ||xi||^2) on every batch.
    deviation_norm_bound: mean ||xi|| <= sigma from the 'c11' variance
      candidate, within MC_SIGMAS standard errors.
    projected_decrease_bound: mean T(x, lip) >= Q(x, lip)
      - mu lip^2 (n+3)^(3/2) d_x - 2 lip d_x mean||xi||, within MC_SIGMAS
      standard errors (sets of finite diameter only).

    Probes are drawn at random feasible points; requires a quadratic
    problem (see probe_deviation).  Probe i takes its direction from
    substream i of cfg.seed; probes are handled in blocks of PROBE_BLOCK,
    each one bit for bit as on its own.
    """
    num_probes = _check_count(num_probes, "num_probes", 1)
    num_mc_points = _check_count(num_mc_points, "num_mc_points", 0)
    if num_mc_points > 0:
        num_samples = _check_count(num_samples, "num_samples", 2)
    n = problem.dim
    lip = problem.lip_const
    h = theorem_step_size("constrained", n, lip)
    gen = substream(seed, 1)
    sampler = SubstreamSampler(cfg.seed)

    worst_ip = math.inf
    ip_violations = 0
    # one (block, n) buffer takes every block's directions, a row per probe
    u_buf = np.empty((max(hi - lo for lo, hi in _blocks(num_probes, PROBE_BLOCK)), n))
    for lo, hi in _blocks(num_probes, PROBE_BLOCK):
        x = feasible_set.sample(gen, hi - lo)
        grad = problem.grad(x)
        u = u_buf[: hi - lo]
        for i, row in enumerate(u, lo):
            sampler.standard_normal(i, out=row)
        g = oracle_eval(problem.objective, x, u, cfg)
        xi = g - grad
        s = gradient_map(feasible_set, x, g, h)
        v = gradient_map(feasible_set, x, grad, h)
        lhs = np.vecdot(xi, s - v)
        rhs = np.vecdot(xi, xi)
        # min over Python floats in probe order, as a loop would take it
        worst_ip = min([worst_ip, *(rhs - lhs).tolist()])
        ip_violations += int(np.count_nonzero(lhs > rhs + 1e-12 * (1.0 + rhs)))
    checks = [
        CheckResult(
            name="projection_inner_product",
            trials=num_probes,
            violations=ip_violations,
            margin=worst_ip,
            detail="min of ||xi||^2 - <xi, s - v>",
        )
    ]

    d_x = feasible_set.diameter()
    jensen, deviation, decrease = [], [], []  # per point: (slack, violated)
    for j in range(num_mc_points):
        x = feasible_set.sample(gen)
        probe = probe_deviation(problem, feasible_set, cfg, x, num_samples, counter=10**6 + j)
        slack = math.sqrt(probe.mean_xi_sq) - probe.mean_xi_norm
        jensen.append((slack, slack < -1e-12))

        sigma = math.sqrt(
            oracle_variance_candidate(cfg.mu, n, lip, math.sqrt(probe.grad_sq))
        )
        violated = probe.mean_xi_norm > sigma + MC_SIGMAS * probe.se_xi_norm
        deviation.append((sigma - probe.mean_xi_norm, violated))

        if math.isfinite(d_x):
            rhs = (
                probe.q_value
                - cfg.mu * lip**2 * (n + 3) ** 1.5 * d_x
                - 2.0 * lip * d_x * probe.mean_xi_norm
            )
            se = probe.t_se + 2.0 * lip * d_x * probe.se_xi_norm
            decrease.append((probe.t_mean - rhs, probe.t_mean < rhs - MC_SIGMAS * se))

    # check name -> (detail, per-point (slack, violated)), in report order
    mc_checks = {
        "jensen_ordering": ("min of sqrt(mean||xi||^2) - mean||xi||", jensen),
        "deviation_norm_bound": ("min of sigma_c11 - mean||xi||", deviation),
    }
    if math.isfinite(d_x):
        mc_checks["projected_decrease_bound"] = ("min of mean T - lower bound", decrease)
    checks += [
        CheckResult(
            name=name,
            trials=num_mc_points,
            violations=sum(violated for _, violated in points),
            # min over Python floats in point order, as a running min takes it
            margin=min([math.inf, *(slack for slack, _ in points)]),
            detail=detail,
        )
        for name, (detail, points) in mc_checks.items()
    ]

    description = (
        f"oracle inequality checks: m={problem.a_matrix.shape[0]}, n={problem.dim}, "
        f"mu={cfg.mu:g}, set={feasible_set.kind}, probes={num_probes}, "
        f"samples={num_samples}, seed={seed}"
    )
    return InequalityReport(checks=tuple(checks), description=description)
