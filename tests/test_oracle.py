import numpy as np
import pytest

from zopt.oracle import (
    EvaluationError,
    OracleConfig,
    estimate_smoothed_gradient,
    oracle_eval,
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

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            OracleConfig(mu=1.0, seed=-1)

    def test_rejects_infinite_mu(self):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            OracleConfig(mu=np.inf)

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), "3", True])
    def test_rejects_non_integer_seed(self, seed):
        # int() used to truncate 1.5 to 1 for the draws while the config
        # kept 1.5, so a run reported a seed it did not use; a bool is no
        # seed either, as a numpy bool is not
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            OracleConfig(mu=0.1, seed=seed)

    def test_stores_the_checked_seed(self):
        cfg = OracleConfig(mu=0.1, seed=np.uint64(2**64 - 1))
        assert type(cfg.seed) is int and cfg.seed == 2**64 - 1


class TestSampling:
    def test_identity_covariance(self):
        cfg = OracleConfig(mu=1.0, seed=42)
        u = sample_directions(cfg, 2, counter=0, num=100_000)
        se = 1.0 / np.sqrt(u.shape[0])
        assert np.all(np.abs(u.mean(axis=0)) < 5 * se)
        cov = np.cov(u.T)
        assert np.max(np.abs(cov - np.eye(2))) < 0.05

    def test_same_counter_is_deterministic(self):
        cfg = OracleConfig(mu=0.1, seed=99)
        a = sample_directions(cfg, 5, 11, 1)[0]
        b = sample_directions(cfg, 5, 11, 1)[0]
        assert np.array_equal(a, b)

    def test_distinct_counters_differ(self):
        cfg = OracleConfig(mu=0.1, seed=99)
        assert not np.array_equal(
            sample_directions(cfg, 5, 0, 1)[0], sample_directions(cfg, 5, 1, 1)[0]
        )

    def test_single_draw_heads_batch(self):
        cfg = OracleConfig(mu=0.1, seed=5)
        batch = sample_directions(cfg, 4, counter=2, num=6)
        assert np.array_equal(sample_directions(cfg, 4, 2, 1)[0], batch[0])

    def test_fast_sampler_matches_fresh_generator(self):
        sampler = SubstreamSampler(31)
        for counter in (0, 1, 17):
            fresh = substream(31, counter).standard_normal((3, 4))
            fast = sampler.standard_normal(counter, (3, 4))
            assert np.array_equal(fresh, fast)


class TestCounterRange:
    # the in-place sampler and a fresh substream must agree on every counter
    # in [0, 2**64) and refuse the same counters outside it
    @pytest.mark.parametrize("size", [(5,), (1, 5), (3, 4)])
    def test_sampler_equals_substream_in_any_order(self, size):
        sampler = SubstreamSampler(31)
        for counter in (7, 0, 2**64 - 1, 7, 3, 0, 2**64 - 1):
            fresh = substream(31, counter).standard_normal(size)
            fast = sampler.standard_normal(counter, size)
            assert fast.shape == size
            assert np.array_equal(fresh, fast)

    @pytest.mark.parametrize("counter", [2.9, 2.0, np.float32(1.0)])
    def test_non_integer_counter_rejected_on_both_paths(self, counter):
        # substream(7, 2.9) used to read substream 2
        with pytest.raises(ValueError, match="counter"):
            substream(7, counter)
        with pytest.raises(ValueError, match="counter"):
            SubstreamSampler(7).standard_normal(counter, 4)
        assert np.array_equal(
            substream(7, np.int32(2)).standard_normal(4), substream(7, 2).standard_normal(4)
        )

    def test_end_counters_are_distinct_streams(self):
        sampler = SubstreamSampler(31)
        assert not np.array_equal(
            sampler.standard_normal(0, 4), sampler.standard_normal(2**64 - 1, 4)
        )

    @pytest.mark.parametrize("counter", [-1, 2**64])
    def test_out_of_range_counter_rejected_on_both_paths(self, counter):
        with pytest.raises(ValueError, match="counter"):
            substream(31, counter)
        sampler = SubstreamSampler(31)
        with pytest.raises(ValueError, match="counter"):
            sampler.standard_normal(counter, 4)
        # a refused counter leaves the sampler usable and exact
        assert np.array_equal(
            sampler.standard_normal(2, 4), substream(31, 2).standard_normal(4)
        )


class TestSubstreamReader:
    # probe_deviation reads its directions block by block through one
    # SubstreamSampler called on one counter; the stacked blocks must be the
    # bits of one sample_directions call ("identity" names the direction
    # covariance, kept in the ids from when a diagonal one was a second case)
    @pytest.mark.parametrize(
        "sizes",
        [[1] * 9, [1, 3, 7, 2, 1], [40, 1, 17]],
        ids=["identity-rows", "identity-uneven", "identity-long"],
    )
    def test_blocks_equal_one_call(self, sizes):
        cfg = OracleConfig(mu=1.0, seed=23)
        sampler = SubstreamSampler(23)
        blocks = [sample_directions(cfg, 6, 2**63 + 5, k, sampler=sampler) for k in sizes]
        assert [len(b) for b in blocks] == sizes
        whole = sample_directions(cfg, 6, 2**63 + 5, sum(sizes))
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_out_takes_the_bits_of_a_new_array(self):
        # a block drawn into a buffer, and rows drawn one substream each
        # into the rows of one buffer, as the probe check draws them
        out = np.full((5, 6), np.nan)
        assert SubstreamSampler(23).standard_normal(9, out=out) is out
        assert out.tobytes() == substream(23, 9).standard_normal((5, 6)).tobytes()
        sampler = SubstreamSampler(23)
        for counter, row in enumerate(out, 40):
            sampler.standard_normal(counter, out=row)
        expected = [substream(23, counter).standard_normal(6) for counter in range(40, 45)]
        assert out.tobytes() == np.concatenate(expected).tobytes()

    def test_repeated_counter_reads_on(self):
        sampler = SubstreamSampler(23)
        draws = [sampler.standard_normal(5, 3) for _ in range(3)]
        assert np.concatenate(draws).tobytes() == substream(23, 5).standard_normal(9).tobytes()

    def test_other_counter_between_resets(self):
        sampler = SubstreamSampler(23)
        first = sampler.standard_normal(5, 3)
        other = sampler.standard_normal(6, 3)
        again = sampler.standard_normal(5, 3)
        assert first.tobytes() == again.tobytes() == substream(23, 5).standard_normal(3).tobytes()
        assert other.tobytes() == substream(23, 6).standard_normal(3).tobytes()

    @pytest.mark.parametrize("counter", [-1, 2**64])
    def test_out_of_range_counter_rejected(self, counter):
        # a refused counter draws nothing and does not become the previous
        # one: it is refused again, and the sampler reads on where it stopped
        sampler = SubstreamSampler(23)
        first = sampler.standard_normal(5, 3)
        for _ in range(2):
            with pytest.raises(ValueError, match="counter"):
                sampler.standard_normal(counter, 3)
        rest = sampler.standard_normal(5, 2)
        assert np.array_equal(np.concatenate([first, rest]), substream(23, 5).standard_normal(5))


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
    # f has no batch method, so every row of a block call does the same
    # float operations as a single call
    N = 6

    @staticmethod
    def f(p):
        return float(np.sum(np.arange(1.0, p.size + 1.0) * p**2) + p[0])

    # the "-None" in each id is the (identity) direction covariance, kept
    # from when a diagonal one was a second case; a one-row block and a
    # one-dimensional point are the edge shapes of the block form
    @pytest.mark.parametrize(
        "fx, k, n",
        [
            pytest.param(fx, k, n, id=f"{fx}-None{suffix}")
            for k, n, suffix in [(9, N, ""), (1, N, "-k1"), (9, 1, "-n1")]
            for fx in (None, 1.25)
        ],
    )
    def test_block_equals_single_calls(self, fx, k, n):
        gen = np.random.default_rng(4)
        x = gen.standard_normal(n)
        u = gen.standard_normal((k, n))
        cfg = OracleConfig(mu=1e-2, seed=0)
        block = oracle_eval(self.f, x, u, cfg, fx=fx)
        singles = np.array([oracle_eval(self.f, x, row, cfg, fx=fx) for row in u])
        assert block.shape == (k, n)
        assert block.tobytes() == singles.tobytes()

    def test_block_shares_one_evaluation_at_x(self):
        calls = []

        def f(p):
            calls.append(1)
            return float(p @ p)

        oracle_eval(f, np.ones(3), np.ones((5, 3)), OracleConfig(mu=0.1, seed=0))
        assert len(calls) == 1 + 5

    @pytest.mark.parametrize("x_shape, u_shape", [((0,), (0,)), ((0,), (3, 0)), ((3, 0), (3, 0))])
    def test_zero_dimension_rejected(self, x_shape, u_shape):
        cfg = OracleConfig(mu=0.1, seed=0)
        with pytest.raises(ValueError, match="dimension must be positive"):
            oracle_eval(self.f, np.zeros(x_shape), np.zeros(u_shape), cfg)

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


class TestOracleEvalOut:
    # out= writes the shifted points and then the estimate into one buffer;
    # the result must keep every bit of the call that allocates
    @staticmethod
    def _case():
        problem = make_least_squares(10, 40, 0.1, 6)
        gen = np.random.default_rng(11)
        cfg = OracleConfig(mu=1e-3, seed=0)
        return problem, cfg, gen.standard_normal(40), gen.standard_normal((70, 40))

    # the "-False" in each id says no dense covariance, kept from when one
    # was a second case
    @pytest.mark.parametrize("has_batch", [True, False], ids=lambda b: f"{b}-False")
    def test_equals_allocating_call(self, has_batch):
        problem, cfg, x, u = self._case()
        f = problem.objective if has_batch else (lambda p: problem.objective(p))
        assert hasattr(f, "batch") is has_batch
        expected = oracle_eval(f, x, u, cfg, fx=2.5)
        out = np.full_like(u, np.nan)
        got = oracle_eval(f, x, u, cfg, fx=2.5, out=out)
        assert got is out
        assert got.tobytes() == expected.tobytes()

    def test_f_sees_the_shifted_points_in_out(self):
        problem, cfg, x, u = self._case()
        out = np.empty_like(u)
        seen = []

        class Recording:
            def __call__(self, p):
                return problem.objective(p)

            def batch(self, points):
                seen.append((points is out, points.copy()))
                return problem.objective.batch(points)

        oracle_eval(Recording(), x, u, cfg, out=out)
        assert seen[0][0]
        assert seen[0][1].tobytes() == (x + cfg.mu * u).tobytes()

    def test_bad_out_rejected(self):
        problem, cfg, x, u = self._case()
        f = problem.objective
        xu = np.vstack([x, u])  # x as row 0 of one array with the directions
        for out, message in [
            (np.empty((69, 40)), "shape"),
            (np.empty((70, 41)), "shape"),
            (np.empty((70, 40), dtype=np.float32), "float64"),
            (np.empty((40, 70)).T, "C-contiguous"),
            (u, "share memory"),
        ]:
            with pytest.raises(ValueError, match=message):
                oracle_eval(f, x, u, cfg, out=out)
        with pytest.raises(ValueError, match="share memory"):
            oracle_eval(f, xu[0], u, cfg, out=xu[:70])
        with pytest.raises(ValueError, match="share memory"):
            oracle_eval(f, x, xu[1:], cfg, out=xu[:70])

    def test_out_only_for_one_point_and_a_block(self):
        problem, cfg, x, u = self._case()
        f = problem.objective
        with pytest.raises(ValueError, match="one point x"):
            oracle_eval(f, x, u[0], cfg, out=np.empty(40))
        with pytest.raises(ValueError, match="one point x"):
            oracle_eval(f, u + 1.0, u, cfg, out=np.empty_like(u))


class TestOracleEvalPaired:
    # k points paired with k directions: row i is the single call at x[i]
    # along u[i], bit for bit, for a row-exact objective and any other
    # callable, also for one pair (k = 1) and one-dimensional points.  The
    # third "-False" in each id says no dense covariance, kept from when one
    # was a second case.
    @pytest.mark.parametrize(
        "given_fx, generic, k, n",
        [
            pytest.param(given_fx, generic, k, n, id=f"{given_fx}-{generic}-False{suffix}")
            for k, n, suffix in [(5, 40, ""), (1, 40, "-k1"), (5, 1, "-n1")]
            for given_fx in (False, True)
            for generic in (False, True)
        ],
    )
    def test_rows_equal_single_calls(self, given_fx, generic, k, n):
        problem = make_least_squares(min(10, n), n, 0.1, 6)
        f = Objective(n, problem.objective) if generic else problem.objective
        gen = np.random.default_rng(9)
        cfg = OracleConfig(mu=1e-3, seed=0)
        x = gen.standard_normal((k, n))
        u = gen.standard_normal((k, n))
        fx = problem.objective(x) if given_fx else None
        paired = oracle_eval(f, x, u, cfg, fx=fx)
        singles = [
            oracle_eval(f, xi, ui, cfg, fx=None if fx is None else float(fi))
            for xi, ui, fi in zip(x, u, problem.objective(x))
        ]
        assert paired.tobytes() == np.array(singles).tobytes()

    def test_nonfinite_value_names_its_row(self):
        def f(p):
            return float("nan") if p[0] > 5 else float(p @ p)

        x = np.zeros((4, 2))
        u = np.zeros((4, 2))
        u[2, 0] = u[3, 0] = 100.0
        with pytest.raises(EvaluationError, match="objective returned nan") as err:
            oracle_eval(f, x, u, OracleConfig(mu=0.1, seed=0), fx=np.zeros(4))
        assert err.value.row == 2

    def test_mismatched_stacks_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            oracle_eval(quadratic_1d, np.zeros((3, 1)), np.ones((2, 1)), OracleConfig(mu=0.1))


class TestSmoothedEstimates:
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
            estimate_smoothed_gradient(quadratic_1d, np.zeros(1), cfg, num_samples=1)


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
