"""Black-box objectives and the random least-squares test family.

Solvers only ever see a value oracle: an objective is a callable from a
point (n,) to a float.  A true rows_exact attribute says it also takes a
(k, n) stack and returns k values, each bit for bit its own call's; an
optional batch method maps a (k, n) stack to k values, for oracle_eval's
block of directions at one point.  LeastSquaresObjective has both.
TestProblem additionally carries the analytic gradient and certified
constants, which exist for analysis and verification and are never handed
to a solver.

For f(x) = ||A x - b||^2 the certified constants are

    lip_const = 2 * lambda_max(A^T A)      (gradient Lipschitz constant)
    pl_const  = 2 * lambda_min+(A A^T)     (smallest nonzero eigenvalue)

pl_const is the largest constant for which the gradient-dominance inequality
0.5 * ||grad f(x)||^2 >= pl_const * (f(x) - f*) holds everywhere; any larger
one, such as lip_const, fails it along rank-deficient directions.  A
TestProblem derives them from its own objective, so they cannot disagree
with it; analysis.check_proximal_pl over WholeSpace samples the inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import _check_count, _check_real, substream

__all__ = ["LeastSquaresObjective", "TestProblem", "make_least_squares"]

RANK_TOL = 1e-10


class LeastSquaresObjective:
    """f(x) = ||A x - b||^2 with vectorized batch evaluation.

    Called on a (k, n) stack of points it returns the k values, each bit
    for bit its own call's (one gemv and one dot per row, whatever the BLAS
    thread count); rows_exact says so to the solvers.  batch is one gemm,
    faster for many points, but not row-exact, and at n = 1000 its bits
    depend on the BLAS thread count.
    """

    rows_exact = True

    def __init__(self, a_matrix: np.ndarray, b_vector: np.ndarray):
        # read-only copies: TestProblem derives its constants from them
        self.a_matrix = np.array(a_matrix, dtype=float, order="C")
        self.b_vector = np.array(b_vector, dtype=float, order="C")
        self.a_matrix.flags.writeable = self.b_vector.flags.writeable = False
        # b as a (1, m) row for a stack: a one-row stack (a single solver
        # run) then meets it shape for shape, which numpy runs without its
        # slower broadcasting loop
        self._b_row = self.b_vector[None, :]
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

    def __call__(self, x: np.ndarray) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.matvec(self.a_matrix, x) - (self.b_vector if x.ndim == 1 else self._b_row)
        values = np.vecdot(r, r)
        return float(values) if values.ndim == 0 else values

    def batch(self, points: np.ndarray) -> np.ndarray:
        r = np.asarray(points, dtype=float) @ self.a_matrix.T
        r -= self.b_vector
        return np.einsum("ij,ij->i", r, r)


@dataclass(frozen=True, eq=False)
class TestProblem:
    """Least-squares instance with analytic gradient and certified constants.

    lip_const, pl_const and opt_value are derived from the objective by one
    SVD of A (singular values below RANK_TOL times the largest count as
    zero); a_matrix and b_vector are the objective's own arrays.  The
    gradient and the constants are for analysis only; solvers receive just
    the objective.
    """

    __test__ = False  # benchmark fixture, not a pytest case

    objective: LeastSquaresObjective
    lip_const: float = field(init=False)
    pl_const: float = field(init=False)
    opt_value: float = field(init=False)

    def __post_init__(self):
        b = self.objective.b_vector
        u, s, _ = np.linalg.svd(self.objective.a_matrix, full_matrices=False)
        rank = int(np.count_nonzero(s > RANK_TOL * s.max(initial=0.0)))
        if rank == 0:
            raise ValueError("matrix has rank 0, the problem is degenerate")
        u = u[:, :rank]
        residual = b - u @ (u.T @ b)  # of b off the range of A, so min_x f = its square
        object.__setattr__(self, "lip_const", 2.0 * float(s[0]) ** 2)
        object.__setattr__(self, "pl_const", 2.0 * float(s[rank - 1]) ** 2)
        object.__setattr__(self, "opt_value", float(residual @ residual))

    @property
    def a_matrix(self) -> np.ndarray:
        return self.objective.a_matrix

    @property
    def b_vector(self) -> np.ndarray:
        return self.objective.b_vector

    @property
    def dim(self) -> int:
        return self.objective.dim

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Analytic gradient 2 A^T (A x - b); on a (k, n) stack, row-exact."""
        a = self.objective.a_matrix
        x = np.asarray(x, dtype=float)
        b = self.objective.b_vector if x.ndim == 1 else self.objective._b_row
        return 2.0 * np.matvec(a.T, np.matvec(a, x) - b)


def make_least_squares(
    m: int, n: int, noise_std: float, seed: int
) -> TestProblem:
    """Random instance: A rows i.i.d. standard normal n-vectors, b = A xbar + w.

    xbar is entrywise standard normal and w is entrywise N(0, noise_std^2).
    Deterministic given seed. Requires n >= m.
    """
    m, n = _check_count(m, "m", 1), _check_count(n, "n", 1)
    if n < m:
        raise ValueError(f"n must be at least m, got m={m}, n={n}")
    noise_std = _check_real(noise_std, "noise_std", positive=False)
    gen = substream(seed, 0)
    a = gen.standard_normal((m, n))
    x_bar = gen.standard_normal(n)
    b = a @ x_bar + noise_std * gen.standard_normal(m)
    return TestProblem(LeastSquaresObjective(a, b))

