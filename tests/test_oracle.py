import numpy as np
import pytest

from zopt.oracle import (
    EvaluationError,
    OracleConfig,
    estimate_smoothed_gradient,
    estimate_smoothed_value,
    oracle_eval,
    sample_direction,
    sample_directions,
)
from zopt.problems import Objective, make_least_squares
from zopt.rng import SubstreamSampler, substream


def quadratic_1d(x):
    return float(x[0] ** 2)


class TestConfig:
    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError, match="mu"):
            OracleConfig(mu=0.0)
        with pytest.raises(ValueError, match="mu"):
            OracleConfig(mu=-0.1)

    def test_rejects_non_spd_matrix(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            OracleConfig(mu=1.0, b_matrix=indefinite)

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError, match="symmetric"):
            OracleConfig(mu=1.0, b_matrix=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            OracleConfig(mu=1.0, seed=-1)


class TestSampling:
    def test_identity_covariance(self):
        cfg = OracleConfig(mu=1.0, seed=42)
        u = sample_directions(cfg, 2, counter=0, num=100_000)
        se = 1.0 / np.sqrt(u.shape[0])
        assert np.all(np.abs(u.mean(axis=0)) < 5 * se)
        cov = np.cov(u.T)
        assert np.max(np.abs(cov - np.eye(2))) < 0.05

    def test_general_b_covariance(self):
        # covariance of the sampled directions is the inverse of B
        cfg = OracleConfig(mu=1.0, b_matrix=np.diag([4.0, 1.0]), seed=7)
        u = sample_directions(cfg, 2, counter=3, num=100_000)
        cov = np.cov(u.T)
        assert np.max(np.abs(cov - np.diag([0.25, 1.0]))) < 0.05

    def test_same_counter_is_deterministic(self):
        cfg = OracleConfig(mu=0.1, seed=99)
        a = sample_direction(cfg, 5, counter=11)
        b = sample_direction(cfg, 5, counter=11)
        assert np.array_equal(a, b)

    def test_distinct_counters_differ(self):
        cfg = OracleConfig(mu=0.1, seed=99)
        assert not np.array_equal(
            sample_direction(cfg, 5, counter=0), sample_direction(cfg, 5, counter=1)
        )

    def test_single_draw_heads_batch(self):
        cfg = OracleConfig(mu=0.1, seed=5)
        batch = sample_directions(cfg, 4, counter=2, num=6)
        assert np.array_equal(sample_direction(cfg, 4, counter=2), batch[0])

    def test_fast_sampler_matches_fresh_generator(self):
        sampler = SubstreamSampler(31)
        for counter in (0, 1, 17):
            fresh = substream(31, counter).standard_normal((3, 4))
            fast = sampler.standard_normal(counter, (3, 4))
            assert np.array_equal(fresh, fast)

    def test_dimension_must_match_b(self):
        cfg = OracleConfig(mu=1.0, b_matrix=np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            sample_direction(cfg, 4, counter=0)


class TestOracleEval:
    def test_constant_objective_gives_zero(self):
        cfg = OracleConfig(mu=0.1, seed=0)
        g = oracle_eval(lambda x: 5.0, np.zeros(3), np.array([1.0, -2.0, 0.5]), cfg)
        assert np.array_equal(g, np.zeros(3))

    def test_scalar_quadratic_by_hand(self):
        # ((f(1 + 0.5*2) - f(1)) / 0.5) * 2 = ((4 - 1) / 0.5) * 2 = 12
        cfg = OracleConfig(mu=0.5, seed=0)
        g = oracle_eval(quadratic_1d, np.array([1.0]), np.array([2.0]), cfg)
        assert g[0] == pytest.approx(12.0, rel=1e-12)

    def test_linear_objective_exact_and_mu_free(self):
        gen = np.random.default_rng(3)
        a = gen.standard_normal(6)
        u = gen.standard_normal(6)
        x = gen.standard_normal(6)
        f = lambda p: float(a @ p)
        g_small = oracle_eval(f, x, u, OracleConfig(mu=1e-8, seed=0))
        g_large = oracle_eval(f, x, u, OracleConfig(mu=10.0, seed=0))
        expected = float(a @ u) * u
        np.testing.assert_allclose(g_small, expected, rtol=1e-6)
        np.testing.assert_allclose(g_large, expected, rtol=1e-12)

    def test_reused_fx_spends_one_evaluation(self):
        calls = []

        def f(x):
            calls.append(1)
            return float(x @ x)

        cfg = OracleConfig(mu=0.1, seed=0)
        oracle_eval(f, np.ones(2), np.ones(2), cfg, fx=2.0)
        assert len(calls) == 1

    def test_nonfinite_value_raises(self):
        cfg = OracleConfig(mu=0.1, seed=0)
        with pytest.raises(EvaluationError):
            oracle_eval(lambda x: float("nan"), np.zeros(2), np.ones(2), cfg)


class TestOracleEvalBlock:
    # f has no batch method and B is the identity or diagonal, so every row
    # of a block call does the same float operations as a single call: each
    # entry of B u is then one product in either BLAS path
    N = 6

    @staticmethod
    def f(p):
        return float(np.sum(np.arange(1.0, 7.0) * p**2) + p[0])

    @pytest.mark.parametrize("b_matrix", [None, np.diag(np.arange(1.0, 7.0))])
    @pytest.mark.parametrize("fx", [None, 1.25])
    def test_block_equals_single_calls(self, b_matrix, fx):
        gen = np.random.default_rng(4)
        x = gen.standard_normal(self.N)
        u = gen.standard_normal((9, self.N))
        cfg = OracleConfig(mu=1e-2, b_matrix=b_matrix, seed=0)
        block = oracle_eval(self.f, x, u, cfg, fx=fx)
        singles = np.array([oracle_eval(self.f, x, row, cfg, fx=fx) for row in u])
        assert block.shape == (9, self.N)
        assert np.array_equal(block, singles)

    def test_block_shares_one_evaluation_at_x(self):
        calls = []

        def f(p):
            calls.append(1)
            return float(p @ p)

        oracle_eval(f, np.ones(3), np.ones((5, 3)), OracleConfig(mu=0.1, seed=0))
        assert len(calls) == 1 + 5

    @pytest.mark.parametrize("shape", [(4, N + 1), (2, 4, N), (N + 1,)])
    def test_bad_direction_shape_rejected(self, shape):
        cfg = OracleConfig(mu=0.1, seed=0)
        with pytest.raises(ValueError, match="shape mismatch"):
            oracle_eval(self.f, np.zeros(self.N), np.ones(shape), cfg)

    def test_nonfinite_value_in_block_raises(self):
        def f(p):
            return float("inf") if p[0] > 0.5 else float(p @ p)

        u = np.zeros((3, 2))
        u[1, 0] = 100.0
        with pytest.raises(EvaluationError):
            oracle_eval(f, np.zeros(2), u, OracleConfig(mu=0.1, seed=0))


class TestSmoothedEstimates:
    def test_value_mode_scalar_quadratic(self):
        # smoothing x^2 with scale mu adds exactly mu^2 at the origin
        cfg = OracleConfig(mu=0.1, seed=8)
        est = estimate_smoothed_value(
            Objective(1, quadratic_1d), np.zeros(1), cfg, num_samples=100_000
        )
        assert abs(est.value - 0.01) < 3 * est.stderr

    def test_gradient_mode_linear(self):
        gen = np.random.default_rng(12)
        a = gen.standard_normal(10)
        f = Objective(10, lambda p: float(a @ p), batch_fn=lambda P: P @ a)
        cfg = OracleConfig(mu=0.05, seed=21)
        est = estimate_smoothed_gradient(f, gen.standard_normal(10), cfg, 100_000)
        assert np.all(np.abs(est.value - a) < 3 * est.stderr)

    def test_gradient_mode_quadratic(self):
        problem = make_least_squares(4, 9, 0.1, 17)
        x = np.random.default_rng(2).standard_normal(9)
        cfg = OracleConfig(mu=1e-4, seed=33)
        est = estimate_smoothed_gradient(problem.objective, x, cfg, 100_000)
        assert np.all(np.abs(est.value - problem.grad(x)) < 3 * est.stderr)

    def test_minimum_sample_count(self):
        cfg = OracleConfig(mu=0.1, seed=0)
        with pytest.raises(ValueError, match="num_samples"):
            estimate_smoothed_value(quadratic_1d, np.zeros(1), cfg, num_samples=1)


class TestGeneralCorrelation:
    # exercises the full pipeline with a dense non-identity B: the Bu
    # scaling must exactly compensate the B^-1 direction covariance

    @pytest.fixture()
    def setup(self):
        problem = make_least_squares(3, 5, 0.1, 61)
        x = np.random.default_rng(1).standard_normal(5)
        m = np.random.default_rng(2).standard_normal((5, 5))
        b = m @ m.T + 5 * np.eye(5)
        return problem, x, OracleConfig(mu=0.05, b_matrix=b, seed=3)

    def test_value_mode_matches_analytic_shift(self, setup):
        # smoothing a quadratic adds exactly mu^2 * tr(A B^-1 A^T)
        problem, x, cfg = setup
        est = estimate_smoothed_value(problem.objective, x, cfg, 200_000)
        shift = cfg.mu**2 * np.trace(
            problem.a_matrix @ np.linalg.inv(cfg.b_matrix) @ problem.a_matrix.T
        )
        expected = problem.objective(x) + shift
        assert abs(est.value - expected) < 5 * est.stderr

    def test_gradient_mode_stays_unbiased(self, setup):
        problem, x, cfg = setup
        est = estimate_smoothed_gradient(problem.objective, x, cfg, 200_000)
        assert np.all(np.abs(est.value - problem.grad(x)) < 5 * est.stderr)


class TestEstimatorProperties:
    def test_gradient_mode_agrees_with_value_mode_differences(self):
        # Independent route: central differences of the smoothed value,
        # computed with common directions so the Monte Carlo noise cancels.
        problem = make_least_squares(3, 6, 0.1, 5)
        n = problem.dim
        x = np.random.default_rng(9).standard_normal(n)
        cfg = OracleConfig(mu=0.01, seed=70)
        samples = 100_000
        grad_est = estimate_smoothed_gradient(problem.objective, x, cfg, samples, counter=0)

        u = sample_directions(cfg, n, counter=0, num=samples)
        delta = 1e-3
        for i in range(n):
            step = np.zeros(n)
            step[i] = delta
            plus = problem.objective.batch(x + step + cfg.mu * u)
            minus = problem.objective.batch(x - step + cfg.mu * u)
            quotients = (plus - minus) / (2 * delta)
            fd_mean = quotients.mean()
            fd_se = quotients.std(ddof=1) / np.sqrt(samples)
            tol = 5 * np.hypot(grad_est.stderr[i], fd_se)
            assert abs(grad_est.value[i] - fd_mean) < tol

    def test_second_moment_bound_quadratic(self):
        # E||g||^2 <= 4 (n+4) ||grad||^2 + 3 mu^2 L1^2 (n+4)^3 for quadratics
        problem = make_least_squares(5, 10, 0.1, 23)
        n = problem.dim
        mu = 1e-3
        cfg = OracleConfig(mu=mu, seed=41)
        gen = np.random.default_rng(4)
        for point in range(3):
            x = gen.standard_normal(n)
            u = sample_directions(cfg, n, counter=point, num=100_000)
            fx = problem.objective(x)
            fxp = problem.objective.batch(x[None, :] + mu * u)
            g = ((fxp - fx) / mu)[:, None] * u
            second_moment = float(np.einsum("ij,ij->i", g, g).mean())
            grad_sq = float(problem.grad(x) @ problem.grad(x))
            bound = 4 * (n + 4) * grad_sq + 3 * mu**2 * problem.lip_const**2 * (n + 4) ** 3
            assert second_moment <= bound

    def test_smoothed_gradient_gap_quadratic(self):
        # for quadratics the smoothed gradient equals the gradient, so the
        # Monte Carlo estimate must sit within noise of it and trivially
        # under the smoothing-gap bound
        problem = make_least_squares(3, 7, 0.0, 31)
        x = np.random.default_rng(6).standard_normal(7)
        mu = 1e-2
        cfg = OracleConfig(mu=mu, seed=55)
        est = estimate_smoothed_gradient(problem.objective, x, cfg, 100_000)
        gap = np.linalg.norm(est.value - problem.grad(x))
        assert gap <= 5 * np.linalg.norm(est.stderr)
        bound = 0.5 * mu * problem.lip_const * (7 + 3) ** 1.5
        assert 0.0 <= bound
