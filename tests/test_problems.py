import numpy as np
import pytest

from zopt.problems import (
    LeastSquaresObjective,
    TestProblem,
    make_least_squares,
)


class TestConstruction:
    def test_generated_instance_matches_definition(self):
        problem = make_least_squares(100, 1000, 0.1, 42)
        assert problem.a_matrix.shape == (100, 1000)
        gen = np.random.default_rng(0)
        for _ in range(5):
            x = gen.standard_normal(1000)
            r = problem.a_matrix @ x - problem.b_vector
            assert problem.objective(x) == pytest.approx(float(r @ r), rel=1e-12)

    def test_generation_is_deterministic(self):
        a = make_least_squares(4, 7, 0.2, 9)
        b = make_least_squares(4, 7, 0.2, 9)
        assert np.array_equal(a.a_matrix, b.a_matrix)
        assert np.array_equal(a.b_vector, b.b_vector)

    def test_scalar_identity_instance(self):
        problem = TestProblem(LeastSquaresObjective(np.array([[1.0]]), np.array([0.0])))
        assert problem.objective(np.array([3.0])) == 9.0
        assert problem.opt_value == 0.0
        assert problem.lip_const == pytest.approx(2.0, rel=1e-12)
        assert problem.pl_const == pytest.approx(2.0, rel=1e-12)

    def test_batch_matches_scalar_eval(self):
        problem = make_least_squares(3, 8, 0.1, 1)
        points = np.random.default_rng(1).standard_normal((11, 8))
        batch = problem.objective.batch(points)
        singles = np.array([problem.objective(p) for p in points])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    @pytest.mark.parametrize("m, n", [(1, 5), (6, 24), (10, 40), (20, 100), (100, 1000)])
    def test_stacked_calls_are_row_exact(self, m, n):
        # a (k, n) stack gives each row's value and gradient bit for bit as
        # its own call, and the single call is the plain BLAS formula
        problem = make_least_squares(m, n, 0.1, 2)
        a, b = problem.a_matrix, problem.b_vector
        points = np.random.default_rng(n).standard_normal((7, n))
        values = problem.objective(points)
        grads = problem.grad(points)
        assert problem.objective.rows_exact
        for x, value, grad in zip(points, values, grads):
            r = a @ x - b
            assert value == problem.objective(x) == float(r @ r)
            assert grad.tobytes() == problem.grad(x).tobytes() == (2.0 * (a.T @ r)).tobytes()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="n must be at least m"):
            make_least_squares(5, 3, 0.1, 0)
        with pytest.raises(ValueError, match="noise_std"):
            make_least_squares(2, 3, -0.5, 0)
        with pytest.raises(ValueError, match="b_vector"):
            LeastSquaresObjective(np.eye(3), np.zeros(2))

    def test_arrays_are_private_read_only_copies(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([1.0, 1.0])
        problem = TestProblem(LeastSquaresObjective(a, b))
        lip, opt = problem.lip_const, problem.opt_value
        a[:] = 7.0
        b[:] = 7.0
        for array in (problem.a_matrix, problem.b_vector, problem.objective.a_matrix):
            assert not np.shares_memory(array, a) and not np.shares_memory(array, b)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        x = np.array([1.0, 0.5])
        assert problem.objective(x) == 0.0 == opt
        rebuilt = TestProblem(LeastSquaresObjective(problem.a_matrix, problem.b_vector))
        assert problem.lip_const == lip == rebuilt.lip_const


def constants_of(a, b):
    return TestProblem(LeastSquaresObjective(a, b))


class TestConstants:
    def test_identity_matrix(self):
        consts = constants_of(np.eye(4), np.array([1.0, 2.0, 0.0, -1.0]))
        assert consts.lip_const == pytest.approx(2.0, rel=1e-12)
        assert consts.pl_const == pytest.approx(2.0, rel=1e-12)
        assert consts.opt_value == pytest.approx(0.0, abs=1e-24)

    def test_diagonal_by_hand(self):
        # A = diag(3, 1): eigenvalues of A^T A are 9 and 1
        consts = constants_of(np.diag([3.0, 1.0]), np.zeros(2))
        assert consts.lip_const == pytest.approx(18.0, rel=1e-12)
        assert consts.pl_const == pytest.approx(2.0, rel=1e-12)

    def test_pl_const_matches_independent_eigendecomposition(self):
        problem = make_least_squares(2, 3, 0.1, 11)
        eigs = np.linalg.eigvalsh(problem.a_matrix @ problem.a_matrix.T)
        smallest_nonzero = float(eigs[eigs > 1e-12 * eigs.max()].min())
        assert problem.pl_const == pytest.approx(2.0 * smallest_nonzero, rel=1e-9)

    def test_opt_value_matches_lstsq_residual_rank_deficient(self):
        gen = np.random.default_rng(8)
        a = np.outer(gen.standard_normal(4), gen.standard_normal(6))
        b = gen.standard_normal(4)
        x_ls, *_ = np.linalg.lstsq(a, b, rcond=None)
        r = a @ x_ls - b
        assert constants_of(a, b).opt_value == pytest.approx(float(r @ r), rel=1e-9)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="rank 0"):
            constants_of(np.zeros((3, 5)), np.zeros(3))

    def test_problem_derives_its_constants_from_its_objective(self):
        a = np.random.default_rng(3).standard_normal((3, 5))
        b = np.arange(3.0)
        problem = TestProblem(LeastSquaresObjective(a, b))
        assert problem.a_matrix is problem.objective.a_matrix
        assert problem.b_vector is problem.objective.b_vector
        with pytest.raises(TypeError):
            TestProblem(problem.objective, lip_const=1.0)


class TestAnalyticGradient:
    def test_matches_central_differences(self):
        problem = make_least_squares(4, 9, 0.1, 3)
        gen = np.random.default_rng(4)
        delta = 1e-4
        for _ in range(100):
            x = gen.standard_normal(9)
            fd = np.empty(9)
            for i in range(9):
                step = np.zeros(9)
                step[i] = delta
                fd[i] = (problem.objective(x + step) - problem.objective(x - step)) / (
                    2 * delta
                )
            g = problem.grad(x)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_descent_inequality(self):
        problem = make_least_squares(5, 8, 0.1, 6)
        gen = np.random.default_rng(5)
        for _ in range(1000):
            x = gen.standard_normal(8)
            y = gen.standard_normal(8)
            lhs = problem.objective(y)
            rhs = (
                problem.objective(x)
                + float(problem.grad(x) @ (y - x))
                + 0.5 * problem.lip_const * float((y - x) @ (y - x))
            )
            assert lhs <= rhs * (1 + 1e-12) + 1e-12

    def test_pl_inequality_brute_force(self):
        problem = make_least_squares(5, 8, 0.1, 7)
        gen = np.random.default_rng(6)
        for _ in range(1000):
            x = gen.standard_normal(8)
            g = problem.grad(x)
            gap = problem.objective(x) - problem.opt_value
            assert 0.5 * float(g @ g) >= problem.pl_const * gap * (1 - 1e-9)

