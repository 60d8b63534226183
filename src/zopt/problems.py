"""Black-box objectives and the random least-squares test family.

Solvers only ever see a value oracle (a callable with a dim attribute).
TestProblem additionally carries the analytic gradient and certified
constants, which exist for analysis and verification and are never handed
to a solver.

For f(x) = ||A x - b||^2 the certified constants are

    lip_const = 2 * lambda_max(A^T A)      (gradient Lipschitz constant)
    pl_const  = 2 * lambda_min+(A A^T)     (smallest nonzero eigenvalue)

pl_const is the largest constant for which the gradient-dominance inequality
0.5 * ||grad f(x)||^2 >= pl_const * (f(x) - f*) holds everywhere; the
alternative 2 * sigma_max(A)^2 (reported as pl_const_top) fails it along
rank-deficient directions and is kept for comparison only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .rng import substream

__all__ = [
    "Objective",
    "LeastSquaresObjective",
    "TestProblem",
    "ProblemConstants",
    "problem_constants",
    "make_least_squares",
    "least_squares_from_arrays",
    "PLReport",
    "check_pl",
    "save_problem",
    "load_problem",
]

RANK_TOL = 1e-10
PL_GAP_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Objective:
    """Deterministic black-box map from R^dim to R.

    batch_fn, when provided, evaluates a (k, dim) array of points at once and
    returns k values; estimators use it to avoid Python-level loops.
    """

    dim: int
    fn: Callable[[np.ndarray], float]
    batch_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x: np.ndarray) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self.batch_fn is not None:
            return np.asarray(self.batch_fn(points), dtype=float)
        return np.array([float(self.fn(p)) for p in points], dtype=float)


class LeastSquaresObjective:
    """f(x) = ||A x - b||^2 with vectorized batch evaluation."""

    def __init__(self, a_matrix: np.ndarray, b_vector: np.ndarray):
        self.a_matrix = np.ascontiguousarray(a_matrix, dtype=float)
        self.b_vector = np.ascontiguousarray(b_vector, dtype=float)
        if self.a_matrix.ndim != 2:
            raise ValueError("a_matrix must be 2-D")
        if self.b_vector.shape != (self.a_matrix.shape[0],):
            raise ValueError(
                f"b_vector has shape {self.b_vector.shape}, expected "
                f"({self.a_matrix.shape[0]},)"
            )

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[1]

    def __call__(self, x: np.ndarray) -> float:
        r = self.a_matrix @ np.asarray(x, dtype=float) - self.b_vector
        return float(r @ r)

    def batch(self, points: np.ndarray) -> np.ndarray:
        r = np.asarray(points, dtype=float) @ self.a_matrix.T - self.b_vector
        return np.einsum("ij,ij->i", r, r)


@dataclass(frozen=True, eq=False)
class ProblemConstants:
    """Certified constants of a least-squares objective, from one SVD of A."""

    lip_const: float
    pl_const: float
    pl_const_top: float
    rank: int
    _u: np.ndarray = field(repr=False)

    def opt_value(self, b_vector: np.ndarray) -> float:
        """min_x ||A x - b||^2: squared residual of b off the range of A."""
        b = np.asarray(b_vector, dtype=float)
        coeffs = self._u.T @ b
        residual = b - self._u @ coeffs
        return float(residual @ residual)


def problem_constants(a_matrix: np.ndarray) -> ProblemConstants:
    """Constants of f(x) = ||A x - b||^2 that do not depend on b.

    Singular values below RANK_TOL times the largest are treated as zero.
    Raises for an all-zero matrix, which has no meaningful constants.
    """
    a = np.asarray(a_matrix, dtype=float)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise ValueError("matrix has rank 0, the problem is degenerate")
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    if rank == 0:
        raise ValueError("matrix has rank 0, the problem is degenerate")
    return ProblemConstants(
        lip_const=2.0 * float(s[0]) ** 2,
        pl_const=2.0 * float(s[rank - 1]) ** 2,
        pl_const_top=2.0 * float(s[0]) ** 2,
        rank=rank,
        _u=u[:, :rank],
    )


@dataclass(frozen=True, eq=False)
class TestProblem:
    """Least-squares instance with analytic gradient and certified constants.

    The gradient and the constants are for analysis only; solvers receive
    just the objective.
    """

    __test__ = False  # benchmark fixture, not a pytest case

    objective: LeastSquaresObjective | Objective
    a_matrix: np.ndarray
    b_vector: np.ndarray
    lip_const: float
    pl_const: float
    pl_const_top: float
    opt_value: float
    opt_point_note: str
    seed: int | None = None
    noise_std: float | None = None

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[1]

    @property
    def num_rows(self) -> int:
        return self.a_matrix.shape[0]

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Analytic gradient 2 A^T (A x - b)."""
        x = np.asarray(x, dtype=float)
        return 2.0 * (self.a_matrix.T @ (self.a_matrix @ x - self.b_vector))


def least_squares_from_arrays(
    a_matrix: np.ndarray,
    b_vector: np.ndarray,
    seed: int | None = None,
    noise_std: float | None = None,
) -> TestProblem:
    """Build a TestProblem from explicit A and b."""
    objective = LeastSquaresObjective(a_matrix, b_vector)
    consts = problem_constants(objective.a_matrix)
    rank = consts.rank
    n = objective.dim
    if rank == n:
        note = "unique minimizer (full column rank)"
    else:
        note = f"minimizers form an affine set of dimension {n - rank}"
    return TestProblem(
        objective=objective,
        a_matrix=objective.a_matrix,
        b_vector=objective.b_vector,
        lip_const=consts.lip_const,
        pl_const=consts.pl_const,
        pl_const_top=consts.pl_const_top,
        opt_value=consts.opt_value(objective.b_vector),
        opt_point_note=note,
        seed=seed,
        noise_std=noise_std,
    )


def make_least_squares(
    m: int, n: int, noise_std: float, seed: int
) -> TestProblem:
    """Random instance: A rows i.i.d. standard normal n-vectors, b = A xbar + w.

    xbar is entrywise standard normal and w is entrywise N(0, noise_std^2).
    Deterministic given seed. Requires n >= m.
    """
    if m <= 0 or n <= 0:
        raise ValueError(f"m and n must be positive, got m={m}, n={n}")
    if n < m:
        raise ValueError(f"n must be at least m, got m={m}, n={n}")
    if noise_std < 0:
        raise ValueError(f"noise_std must be nonnegative, got {noise_std}")
    gen = substream(seed, 0)
    a = gen.standard_normal((m, n))
    x_bar = gen.standard_normal(n)
    b = a @ x_bar + noise_std * gen.standard_normal(m)
    return least_squares_from_arrays(a, b, seed=seed, noise_std=noise_std)


@dataclass(frozen=True)
class PLReport:
    """Result of sampling the gradient-dominance ratio at random points."""

    min_ratio: float
    violations: int
    evaluated: int
    skipped: int
    pl_const: float
    pl_const_top: float


def check_pl(problem: TestProblem, num_points: int, seed: int) -> PLReport:
    """Sample 0.5*||grad f||^2 / (f - f*) and count dips below pl_const.

    Points with f(x) - f* below PL_GAP_FLOOR are skipped (they are optimal
    up to noise and the ratio is 0/0).  A violation is a ratio below
    pl_const * (1 - 1e-9); the slack absorbs rounding in the two paths.
    """
    if num_points <= 0:
        raise ValueError("num_points must be positive")
    points = substream(seed, 0).standard_normal((num_points, problem.dim))
    min_ratio = np.inf
    violations = 0
    evaluated = 0
    skipped = 0
    for x in points:
        gap = problem.objective(x) - problem.opt_value
        if gap < PL_GAP_FLOOR:
            skipped += 1
            continue
        g = problem.grad(x)
        ratio = 0.5 * float(g @ g) / gap
        evaluated += 1
        min_ratio = min(min_ratio, ratio)
        if ratio < problem.pl_const * (1.0 - 1e-9):
            violations += 1
    return PLReport(
        min_ratio=float(min_ratio),
        violations=violations,
        evaluated=evaluated,
        skipped=skipped,
        pl_const=problem.pl_const,
        pl_const_top=problem.pl_const_top,
    )


_PROBLEM_MAGIC = "zopt-least-squares-v1"


def save_problem(problem: TestProblem, path) -> None:
    """Write A and b as plain text (row-major, 17 significant digits).

    The format round-trips float64 exactly and is replayable anywhere.
    """
    m, n = problem.a_matrix.shape
    lines = [
        _PROBLEM_MAGIC,
        f"m {m}",
        f"n {n}",
        f"seed {'none' if problem.seed is None else problem.seed}",
        f"noise_std {'none' if problem.noise_std is None else repr(problem.noise_std)}",
        "A",
    ]
    for row in problem.a_matrix:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    lines.append("b")
    lines.append(" ".join(f"{v:.17g}" for v in problem.b_vector))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_problem(path) -> TestProblem:
    """Read a problem written by save_problem; constants are recomputed."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != _PROBLEM_MAGIC:
        raise ValueError(f"{path}: not a {_PROBLEM_MAGIC} file")
    header = dict(line.split(maxsplit=1) for line in lines[1:5])
    m = int(header["m"])
    n = int(header["n"])
    seed = None if header["seed"] == "none" else int(header["seed"])
    noise = None if header["noise_std"] == "none" else float(header["noise_std"])
    if lines[5] != "A":
        raise ValueError(f"{path}: expected matrix marker 'A'")
    a = np.array(
        [[float(v) for v in line.split()] for line in lines[6 : 6 + m]], dtype=float
    )
    if lines[6 + m] != "b":
        raise ValueError(f"{path}: expected vector marker 'b'")
    b = np.array([float(v) for v in lines[7 + m].split()], dtype=float)
    if a.shape != (m, n) or b.shape != (m,):
        raise ValueError(f"{path}: shape mismatch against header")
    return least_squares_from_arrays(a, b, seed=seed, noise_std=noise)
