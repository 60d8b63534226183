import math
import tracemalloc

import numpy as np
import pytest

from zopt import analysis
from zopt.analysis import (
    PROBE_BLOCK,
    SAMPLE_BLOCK,
    check_proximal_pl,
    constrained_opt_value,
    probe_deviation,
    prox_quantity,
    verify_oracle_inequalities,
)
from zopt.bounds import (
    BoundInputs,
    constrained_gap_bound,
    oracle_variance_candidate,
    unconstrained_gap_bound,
)
from zopt.oracle import OracleConfig, _mean_and_stderr, oracle_eval, sample_directions
from zopt.problems import LeastSquaresObjective, TestProblem, make_least_squares
from zopt.rng import SubstreamSampler, substream
from zopt.sets import Ball, Box, WholeSpace, gradient_map


class TestUnconstrainedBound:
    def test_hand_computed_value(self):
        # n=2, lip=2, pl=1, mu=0.1, gap=1, N=9: 96*(0.1 + 0.01125) + 5.12
        inputs = BoundInputs(n=2, lip_const=2.0, pl_const=1.0, mu=0.1, initial_gap=1.0)
        assert unconstrained_gap_bound(inputs, 9) == pytest.approx(15.8, rel=1e-12)

    def test_vanishes_with_small_mu_and_large_n(self):
        inputs = BoundInputs(n=3, lip_const=2.0, pl_const=1.0, mu=1e-12, initial_gap=1.0)
        assert unconstrained_gap_bound(inputs, 10**9) < 1e-6

    def test_monotone_in_iterations_and_mu(self):
        inputs = BoundInputs(n=5, lip_const=3.0, pl_const=1.2, mu=0.01, initial_gap=2.0)
        values = [unconstrained_gap_bound(inputs, k) for k in (0, 1, 5, 50, 500, 5000)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        over_mu = [
            unconstrained_gap_bound(
                BoundInputs(n=5, lip_const=3.0, pl_const=1.2, mu=mu, initial_gap=2.0), 50
            )
            for mu in (1e-6, 1e-4, 1e-2, 1.0)
        ]
        assert all(a <= b for a, b in zip(over_mu, over_mu[1:]))

    def test_general_step_rescales_leading_term(self):
        inputs = BoundInputs(n=2, lip_const=2.0, pl_const=1.0, mu=1e-8, initial_gap=1.0)
        analyzed_step = 1.0 / (4 * (2 + 4) * 2.0)
        analyzed = unconstrained_gap_bound(inputs, 9)
        assert unconstrained_gap_bound(inputs, 9, step_size=analyzed_step) == analyzed
        halved_step = unconstrained_gap_bound(inputs, 9, step_size=analyzed_step / 2)
        assert halved_step == pytest.approx(2 * analyzed, rel=1e-6)


class TestConstrainedBound:
    def test_hand_computed_value(self):
        # n=1, lip=2, pl=2, mu=1e-3, d_x=1, gap=1, sigma=0.1, N=99:
        # 0.01 + 0.008 + 0.1 + 0.005 = 0.123
        inputs = BoundInputs(
            n=1,
            lip_const=2.0,
            pl_const=2.0,
            mu=1e-3,
            initial_gap=1.0,
            d_x=1.0,
            sigma_seq=np.full(100, 0.1),
        )
        assert constrained_gap_bound(inputs, 99) == pytest.approx(0.123, rel=1e-12)

    def test_constant_sigma_floor_is_iteration_free(self):
        # with zero gap the sigma terms settle at lip*d_x*sigma/pl + sigma^2/pl
        sigma = 0.3
        lip, pl, d_x = 2.5, 1.5, 2.0
        mu_term = 1e-5 * d_x * lip**2 * (4 + 3) ** 1.5 / (2 * pl)
        floor = lip * d_x * sigma / pl + sigma**2 / pl
        for n_iters in (9, 99, 999):
            inputs = BoundInputs(
                n=4,
                lip_const=lip,
                pl_const=pl,
                mu=1e-5,
                initial_gap=0.0,
                d_x=d_x,
                sigma_seq=np.full(n_iters + 1, sigma),
            )
            value = constrained_gap_bound(inputs, n_iters)
            assert value - mu_term == pytest.approx(floor, rel=1e-12)

    def test_zero_sigma_zero_gap_leaves_only_smoothing_term(self):
        inputs = BoundInputs(
            n=2,
            lip_const=1.0,
            pl_const=1.0,
            mu=1e-9,
            initial_gap=0.0,
            d_x=1.0,
            sigma_seq=np.zeros(10**6 + 1),
        )
        assert constrained_gap_bound(inputs, 10**6) == pytest.approx(
            1e-9 * 5**1.5 / 2, rel=1e-9
        )

    def test_requires_finite_diameter_and_sigma(self):
        base = dict(n=2, lip_const=1.0, pl_const=1.0, mu=0.1, initial_gap=1.0)
        with pytest.raises(ValueError, match="d_x"):
            constrained_gap_bound(BoundInputs(**base), 5)
        with pytest.raises(ValueError, match="sigma_seq"):
            constrained_gap_bound(
                BoundInputs(**base, d_x=1.0, sigma_seq=np.zeros(3)), 5
            )

    def test_monotone_in_iterations_and_mu(self):
        def inputs(mu):
            return BoundInputs(
                n=4,
                lip_const=3.0,
                pl_const=1.1,
                mu=mu,
                initial_gap=2.0,
                d_x=1.5,
                sigma_seq=np.full(10_001, 0.2),
            )

        over_n = [constrained_gap_bound(inputs(0.01), k) for k in (0, 1, 10, 100, 10_000)]
        assert all(a > b for a, b in zip(over_n, over_n[1:]))
        over_mu = [
            constrained_gap_bound(inputs(mu), 100) for mu in (1e-6, 1e-4, 1e-2, 1.0)
        ]
        assert all(a < b for a, b in zip(over_mu, over_mu[1:]))


class TestVarianceCandidates:
    def test_c11_hand_value(self):
        # 1e-6*4*512/2 + 2*6*1 = 0.001024 + 12
        value = oracle_variance_candidate(1e-3, 2, 2.0, grad_norm=1.0)
        assert value == pytest.approx(12.001024, rel=1e-12)

    def test_c11_vanishes_at_stationary_point(self):
        value = oracle_variance_candidate(1e-12, 3, 2.0, grad_norm=0.0)
        assert value < 1e-18

    def test_c11_requires_grad_norm(self):
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="grad_norm"):
                oracle_variance_candidate(0.1, 3, 2.0, grad_norm=bad)
        with pytest.raises(TypeError, match="grad_norm"):
            oracle_variance_candidate(0.1, 3, 2.0)


class TestProxQuantity:
    def test_whole_space_reduces_to_squared_norm(self):
        gen = np.random.default_rng(0)
        ws = WholeSpace(8)
        for _ in range(1000):
            x = gen.standard_normal(8)
            vec = gen.standard_normal(8)
            a = gen.uniform(0.5, 2.0)
            value = prox_quantity(ws, x, a, vec)
            expected = float(vec @ vec)
            assert abs(value - expected) <= 1e-12 * expected

    def test_zero_vector_gives_zero(self):
        box = Box(-0.5, 0.5, dim=3)
        assert prox_quantity(box, np.zeros(3), 2.0, np.zeros(3)) == 0.0

    def test_box_value_by_hand(self):
        # z* = clamp(0.4 + 3) = 0.5, value = -2 * (0.005 - 0.3) = 0.59
        box = Box(-0.5, 0.5, dim=1)
        value = prox_quantity(box, np.array([0.4]), 1.0, np.array([-3.0]))
        assert value == pytest.approx(0.59, rel=1e-12)

    def test_requires_feasible_point(self):
        box = Box(-0.5, 0.5, dim=2)
        with pytest.raises(ValueError, match="feasible"):
            prox_quantity(box, np.array([1.0, 0.0]), 1.0, np.ones(2))


class TestReferenceOptimum:
    def test_whole_space_matches_unconstrained(self):
        problem = make_least_squares(3, 7, 0.1, 5)
        assert constrained_opt_value(problem, WholeSpace(7)) == problem.opt_value

    def test_box_optimum_lower_bounds_feasible_values(self):
        problem = make_least_squares(4, 10, 0.1, 6)
        box = Box(-0.5, 0.5, dim=10)
        f_star = constrained_opt_value(problem, box)
        gen = np.random.default_rng(1)
        for _ in range(500):
            assert problem.objective(box.sample(gen)) >= f_star - 1e-9

    @pytest.mark.parametrize(
        "seed, lower, upper", [(2, -1.0, 1e200), (1, -1e200, 1e-300), (2, 1.0, 1e32)]
    )
    def test_wide_box_optimum_matches_an_active_set_solve(self, seed, lower, upper):
        # on the whole box the interior-point solver returned 0.189 for the
        # first (the minimum is about 1e-31), never returned on the second,
        # and returned 23.9 for the third (the minimum is 21.1)
        from scipy.optimize import lsq_linear

        problem = make_least_squares(2, 4, 0.1, seed)
        box = Box(lower, upper, dim=4)
        active_set = lsq_linear(
            problem.a_matrix, problem.b_vector, bounds=(box.lower, box.upper), method="bvls"
        )
        expected = float(active_set.fun @ active_set.fun)
        assert constrained_opt_value(problem, box) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_box_whose_minimum_lies_beyond_the_reach_is_refused(self):
        # f = (x1 + 1e-7 x2 - 1)^2 reaches 0 only at x2 near 1e8, past the cut
        # at about 1e7 around the box point nearest the unconstrained solution
        problem = TestProblem(LeastSquaresObjective(np.array([[1.0, 1e-7]]), np.array([1.0])))
        lower = np.array([-10.0, 0.0])
        with pytest.raises(ValueError, match="its minimum is past the solver's reach"):
            constrained_opt_value(problem, Box(lower, np.array([-9.0, 1e20])))
        # within the reach the minimum sits on the box's own face x2 = 1e6
        box = Box(lower, np.array([-9.0, 1e6]))
        assert constrained_opt_value(problem, box) == pytest.approx(9.9**2, rel=1e-12)

    def test_box_whose_solve_overflows_is_refused(self):
        problem = make_least_squares(2, 3, 0.1, 0)
        with pytest.raises(ValueError, match="the solver overflows"):
            constrained_opt_value(problem, Box(1e200, 1e300, dim=3))

    def test_unsupported_kind_rejected(self):
        from zopt.sets import Ball

        problem = make_least_squares(2, 4, 0.1, 7)
        with pytest.raises(ValueError, match="no reference optimum"):
            constrained_opt_value(problem, Ball(np.zeros(4), 1.0))


class TestProximalPLSampling:
    def test_box_ratios_are_positive(self):
        problem = make_least_squares(4, 12, 0.1, 8)
        box = Box(-0.5, 0.5, dim=12)
        report = check_proximal_pl(problem, box, num_points=500, seed=3)
        assert report.evaluated > 0
        assert report.min_ratio > 0
        assert report.opt_value >= 0

    def test_whole_space_recovers_unconstrained_ratio(self):
        problem = make_least_squares(3, 6, 0.1, 9)
        report = check_proximal_pl(problem, WholeSpace(6), num_points=500, seed=4)
        assert report.below_unconstrained == 0
        assert report.min_ratio >= problem.pl_const * (1 - 1e-9)

    def test_scalar_quadratic_ratio_exact(self):
        problem = TestProblem(LeastSquaresObjective(np.array([[1.0]]), np.array([0.0])))
        report = check_proximal_pl(problem, WholeSpace(1), num_points=200, seed=0)
        assert report.below_unconstrained == 0
        assert report.min_ratio == pytest.approx(2.0, rel=1e-12)

    def test_random_instance_no_violations(self):
        problem = make_least_squares(6, 15, 0.1, 12)
        report = check_proximal_pl(problem, WholeSpace(15), num_points=1000, seed=1)
        assert report.below_unconstrained == 0
        assert report.evaluated == 1000
        assert report.min_ratio >= problem.pl_const * (1 - 1e-9)

    def test_near_constant_objective_all_points_skipped(self):
        # f(x) = 1e-14 x^2 stays under the 1e-12 gap floor for |x| < 10
        problem = TestProblem(LeastSquaresObjective(np.array([[1e-7]]), np.array([0.0])))
        report = check_proximal_pl(problem, WholeSpace(1), num_points=50, seed=2)
        assert report.skipped == 50
        assert report.evaluated == 0
        assert report.below_unconstrained == 0


class TestDeviationChecks:
    def test_probe_preserves_exact_gradient_reference(self):
        problem = make_least_squares(4, 9, 0.1, 10)
        box = Box(-0.5, 0.5, dim=9)
        x = box.project(np.random.default_rng(2).standard_normal(9))
        probe = probe_deviation(
            problem, box, OracleConfig(mu=1e-3, seed=11), x, 20_000, counter=0
        )
        # unbiasedness: mean deviation cannot be large relative to its spread
        assert probe.mean_xi_sq > 0
        assert probe.q_value >= 0

    @pytest.mark.parametrize("mu", [1e-4, 0.3, 3.0])
    def test_second_moment_matches_its_closed_form_on_a_quadratic(self, mu):
        # For f = ||A x - b||^2 the estimate is g = (grad.u + (mu/2) u'Hu) u
        # with H = 2 A'A, and Gaussian moments give exactly
        # E||g - grad||^2 = (n + 1)||grad||^2 + (mu^2/4)(n + 4)((tr H)^2 + 2 tr H^2).
        # A standard error near 1% of it tells (n + 1) from (n + 2).
        problem = make_least_squares(5, 20, 0.1, 3)
        n = problem.dim
        x = np.random.default_rng(4).standard_normal(n)
        cfg = OracleConfig(mu=mu, seed=21)
        grad = problem.grad(x)
        h = 2.0 * problem.a_matrix.T @ problem.a_matrix
        smoothing = np.trace(h) ** 2 + 2.0 * np.trace(h @ h)
        exact = (n + 1) * (grad @ grad) + mu**2 / 4.0 * (n + 4) * smoothing
        num = 50_000
        probe = probe_deviation(problem, WholeSpace(n), cfg, x, num, counter=0)
        _, se = _whole_batch_probe(problem, WholeSpace(n), cfg, x, num, counter=0)["xi_sq"]
        assert se < 0.02 * exact
        assert abs(probe.mean_xi_sq - exact) <= analysis.MC_SIGMAS * se

    def test_report_runs_clean_on_box(self):
        problem = make_least_squares(5, 20, 0.1, 12)
        box = Box(-0.5, 0.5, dim=20)
        report = verify_oracle_inequalities(
            problem,
            box,
            OracleConfig(mu=1e-3, seed=13),
            num_probes=300,
            num_samples=4000,
            seed=13,
        )
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert names == {
            "projection_inner_product",
            "jensen_ordering",
            "deviation_norm_bound",
            "projected_decrease_bound",
        }

    def test_whole_space_drops_decrease_check(self):
        problem = make_least_squares(3, 8, 0.1, 14)
        report = verify_oracle_inequalities(
            problem,
            WholeSpace(8),
            OracleConfig(mu=1e-3, seed=15),
            num_probes=100,
            num_samples=2000,
            seed=15,
        )
        assert report.all_passed
        assert "projected_decrease_bound" not in {c.name for c in report.checks}

    def test_zero_deviation_equality_case(self):
        # when the estimate equals the gradient the paired step directions
        # coincide and the inner-product bound holds with equality 0 <= 0
        from zopt.sets import gradient_map

        box = Box(-0.5, 0.5, dim=1)
        x = np.array([0.4])
        grad = np.array([-3.0])
        s = gradient_map(box, x, grad, 0.1)
        v = gradient_map(box, x, grad, 0.1)
        xi = grad - grad
        assert float(xi @ (s - v)) == 0.0 <= float(xi @ xi)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({"num_probes": 0}, "num_probes must be an integer >= 1, got 0"),
            ({"num_probes": -3}, "num_probes must be an integer >= 1, got -3"),
            ({"num_mc_points": -1}, "num_mc_points must be an integer >= 0, got -1"),
            ({"num_samples": 1}, "num_samples must be an integer >= 2, got 1"),
        ],
    )
    def test_rejects_bad_counts_before_any_work(self, counts, message, monkeypatch):
        monkeypatch.setattr(analysis, "substream", None)  # any work would fail here
        with pytest.raises(ValueError, match=message):
            verify_oracle_inequalities(
                make_least_squares(3, 8, 0.1, 16), Box(-0.5, 0.5, dim=8),
                OracleConfig(mu=1e-3, seed=17), **{"num_probes": 5, **counts},
            )

    def test_no_mc_points_needs_no_samples(self):
        report = verify_oracle_inequalities(
            make_least_squares(3, 8, 0.1, 16), Box(-0.5, 0.5, dim=8),
            OracleConfig(mu=1e-3, seed=17), num_probes=5, num_samples=0, num_mc_points=0,
        )
        assert [(c.name, c.trials) for c in report.checks][1:] == [
            ("jensen_ordering", 0), ("deviation_norm_bound", 0), ("projected_decrease_bound", 0),
        ]

    def test_probe_memory_grows_only_by_per_sample_values(self):
        # the directions are drawn per block and freed; only the per-sample
        # value vectors (three filled in the loop, xi^2 and one reduction
        # temporary, 8 bytes each) may grow with num_samples, not the 8 n
        # bytes of a sample's direction
        n = 100
        problem = make_least_squares(5, n, 0.1, 3)
        box = Box(-0.5, 0.5, dim=n)
        cfg = OracleConfig(mu=1e-3, seed=4)
        x = box.sample(np.random.default_rng(6))
        peaks = []
        tracemalloc.start()
        try:
            for blocks in (4, 16):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                probe_deviation(problem, box, cfg, x, blocks * SAMPLE_BLOCK, counter=7)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        extra_samples = 12 * SAMPLE_BLOCK
        assert peaks[1] - peaks[0] <= extra_samples * 5 * 8 + 256 * 1024

    def test_csv_rows_shape(self):
        problem = make_least_squares(3, 8, 0.1, 16)
        report = verify_oracle_inequalities(
            problem,
            Box(-0.5, 0.5, dim=8),
            OracleConfig(mu=1e-3, seed=17),
            num_probes=50,
            num_samples=500,
            seed=17,
        )
        rows = report.csv_rows()
        assert rows[0] == "check,trials,violations,margin"
        assert len(rows) == len(report.checks) + 1
        assert "ok" in report.as_text()


class TestPinnedAnalysisBits:
    # Outputs of the analysis path on one fixed instance, pinned to the bit
    # like tests/data/pinned_desk.csv: any change to the estimator's
    # arithmetic or its order shows up here, not only in the benchmark.
    problem = make_least_squares(5, 20, 0.1, 0)
    box = Box(-0.5, 0.5, dim=20)
    cfg = OracleConfig(mu=1e-3, seed=0)

    def test_verify_csv_rows(self):
        report = verify_oracle_inequalities(
            self.problem, self.box, self.cfg, num_probes=200, num_samples=2000, seed=0
        )
        assert report.csv_rows() == [
            "check,trials,violations,margin",
            "projection_inner_product,200,0,5166.413092402612",
            "jensen_ordering,4,0,96.66148521182072",
            "deviation_norm_bound,4,0,358.0225202557904",
            "projected_decrease_bound,4,0,281234.92689704854",
        ]

    def test_probe_deviation_fields(self):
        x = self.box.project(np.random.default_rng(1).standard_normal(20))
        probe = probe_deviation(self.problem, self.box, self.cfg, x, 2000, counter=5)
        scalars = {
            "mean_xi_norm": 426.1826224814961,
            "se_xi_norm": 7.178424603890744,
            "mean_xi_sq": 284639.6575128997,
            "grad_sq": 13385.139816935596,
            "t_mean": 65469.862560324145,
            "t_se": 1563.8472001734283,
            "q_value": 6769.747517980855,
        }
        # the probe holds exactly the numbers verify_oracle_inequalities reads
        assert set(vars(probe)) == set(scalars)
        for name, value in scalars.items():
            assert type(getattr(probe, name)) is float, name
            assert getattr(probe, name) == value, name


def _einsum_rows(a, b):
    return np.einsum("ij,ij->i", a, b)


def _whole_batch_probe(problem, feasible_set, cfg, x, num_samples, counter):
    """Reference sample statistics of probe_deviation from one oracle_eval
    call over all the directions."""
    grad = problem.grad(x)
    g = oracle_eval(problem.objective, x, sample_directions(cfg, x.size, counter, num_samples), cfg)
    xi_norms = np.linalg.norm(g - grad, axis=1)
    a = problem.lip_const
    dz = feasible_set.project(x[None, :] - g / a) - x[None, :]
    t_values = -2.0 * a * (0.5 * a * _einsum_rows(dz, dz) + _einsum_rows(g, dz))
    stats = {}
    for name, samples in (("xi_norm", xi_norms), ("xi_sq", xi_norms**2), ("t", t_values)):
        stats[name] = tuple(map(float, _mean_and_stderr(samples)))
    return stats


def _per_probe_inner_product(problem, feasible_set, cfg, num_probes, seed):
    """The projection inner-product check one probe at a time; also the
    generator, to continue its draws."""
    n = problem.dim
    h = 1.0 / problem.lip_const
    gen = substream(seed, 1)
    sampler = SubstreamSampler(cfg.seed)
    worst, violations = math.inf, 0
    for i in range(num_probes):
        x = feasible_set.sample(gen)
        grad = problem.grad(x)
        u = sample_directions(cfg, n, i, 1, sampler=sampler)[0]
        g = oracle_eval(problem.objective, x, u, cfg)
        xi = g - grad
        s = gradient_map(feasible_set, x, g, h)
        lhs = float(xi @ (s - gradient_map(feasible_set, x, grad, h)))
        rhs = float(xi @ xi)
        worst = min(worst, rhs - lhs)
        violations += lhs > rhs + 1e-12 * (1.0 + rhs)
    return worst, violations, gen


def _per_point_dominance(problem, feasible_set, f_star, num_points, seed):
    gen = substream(seed, 0)
    min_ratio, below, evaluated, skipped = math.inf, 0, 0, 0
    for _ in range(num_points):
        x = feasible_set.sample(gen)
        gap = problem.objective(x) - f_star
        if gap < 1e-12:
            skipped += 1
            continue
        a, vec = problem.lip_const, problem.grad(x)
        dz = feasible_set.project(x - vec / a) - x
        ratio = 0.5 * (-2.0 * a * (0.5 * a * float(dz @ dz) + float(vec @ dz))) / gap
        evaluated += 1
        min_ratio = min(min_ratio, ratio)
        below += ratio < problem.pl_const * (1.0 - 1e-9)
    return min_ratio, below, evaluated, skipped


class TestBlockBoundaries:
    # The verification loops work on blocks of rows; each output must keep
    # the bits of the whole-batch or per-point computation it replaced, at
    # sizes that leave a partial block.

    # Both sample counts leave blocks of different lengths, so the reused
    # (block, n) buffers are sliced.  A box keeps its ids of "m-n" alone.
    # The "False" after the sample count marks standard normal directions
    # (no covariance matrix); it keeps the ids of the cases from when a dense
    # covariance was a second case.
    @pytest.mark.parametrize(
        "m, n, kind",
        [
            pytest.param(m, n, kind, id=f"{m}-{n}" + ("" if kind == "box" else f"-{kind}"))
            for kind in ("box", "ball", "whole_space")
            for m, n in ((5, 20), (20, 100))
        ],
    )
    @pytest.mark.parametrize(
        "num_samples", [5 * SAMPLE_BLOCK // 2, 2 * SAMPLE_BLOCK + 10], ids=lambda k: f"{k}-False"
    )
    def test_probe_deviation_equals_whole_batch(self, m, n, kind, num_samples):
        problem = make_least_squares(m, n, 0.1, 3)
        feasible_set = {
            "box": Box(-0.5, 0.5, dim=n),
            "ball": Ball(np.full(n, 0.1), 0.5),
            "whole_space": WholeSpace(n),
        }[kind]
        cfg = OracleConfig(mu=1e-3, seed=4)
        x = feasible_set.sample(np.random.default_rng(6))
        probe = probe_deviation(problem, feasible_set, cfg, x, num_samples, counter=7)
        stats = _whole_batch_probe(problem, feasible_set, cfg, x, num_samples, 7)
        assert (probe.mean_xi_norm, probe.se_xi_norm) == stats["xi_norm"]
        assert probe.mean_xi_sq == stats["xi_sq"][0]
        assert (probe.t_mean, probe.t_se) == stats["t"]

    # Small sets keep most projections active: a probe whose two steps both
    # stay feasible has a slack of exactly 0, which would mask the others.
    # Over WholeSpace the margin is 0; the Monte Carlo point still checks
    # where the probes left the generator.
    @pytest.mark.parametrize(
        "feasible_set",
        [Box(-0.05, 0.05, dim=12), Ball(np.full(12, 0.1), 0.05), WholeSpace(12)],
        ids=["box", "ball", "whole_space"],
    )
    def test_probe_check_equals_per_probe_loop(self, feasible_set):
        problem = make_least_squares(4, 12, 0.1, 8)
        cfg = OracleConfig(mu=1e-3, seed=9)
        num_probes = 5 * PROBE_BLOCK // 2
        report = verify_oracle_inequalities(
            problem, feasible_set, cfg, num_probes=num_probes, num_samples=50, seed=10,
            num_mc_points=1,
        )
        worst, violations, gen = _per_probe_inner_product(
            problem, feasible_set, cfg, num_probes, 10
        )
        check = report.checks[0]
        assert (check.trials, check.violations, check.margin) == (num_probes, violations, worst)
        assert (check.margin != 0) is not isinstance(feasible_set, WholeSpace)
        # the Monte Carlo point is drawn after the probes from the same generator
        probe = probe_deviation(
            problem, feasible_set, cfg, feasible_set.sample(gen), 50, counter=10**6
        )
        assert report.checks[1].margin == math.sqrt(probe.mean_xi_sq) - probe.mean_xi_norm

    @pytest.mark.parametrize(
        "feasible_set",
        [Box(-0.5, 0.5, dim=12), Ball(np.full(12, 0.1), 0.8), WholeSpace(12)],
        ids=["box", "ball", "whole_space"],
    )
    def test_dominance_sampler_equals_per_point_loop(self, feasible_set, monkeypatch):
        problem = make_least_squares(4, 12, 0.1, 11)
        if isinstance(feasible_set, Ball):
            # no reference optimum on a ball; the unconstrained one bounds it below
            monkeypatch.setattr(analysis, "constrained_opt_value", lambda p, s: p.opt_value)
        num_points = 5 * PROBE_BLOCK // 2
        report = check_proximal_pl(problem, feasible_set, num_points, seed=12)
        expected = _per_point_dominance(problem, feasible_set, report.opt_value, num_points, 12)
        got = (report.min_ratio, report.below_unconstrained, report.evaluated, report.skipped)
        assert got == expected

    def test_dominance_sampler_with_skipped_points_in_every_block(self):
        # f = 1e-12 x^2 has a gap under 1e-12 for |x| < 1: about two thirds
        # of the standard normal points are skipped, the rest evaluated
        problem = TestProblem(LeastSquaresObjective(np.array([[1e-6]]), np.array([0.0])))
        num_points = 5 * PROBE_BLOCK // 2
        report = check_proximal_pl(problem, WholeSpace(1), num_points, seed=13)
        expected = _per_point_dominance(problem, WholeSpace(1), report.opt_value, num_points, 13)
        assert 0 < report.skipped < num_points
        got = (report.min_ratio, report.below_unconstrained, report.evaluated, report.skipped)
        assert got == expected

    # The block sizes were chosen by measurement for the cache; the bits
    # must not depend on them.  128 samples split 1000 into blocks of 125,
    # above the 61 rows below which OpenBLAS switches gemm kernels.
    @pytest.mark.parametrize("m, n", [(5, 20), (20, 100)])
    def test_checks_do_not_depend_on_the_block_sizes(self, m, n, monkeypatch):
        problem = make_least_squares(m, n, 0.1, 15)
        box = Box(-0.5, 0.5, dim=n)
        cfg = OracleConfig(mu=1e-3, seed=16)
        results = []
        for size in (128, 4096):
            monkeypatch.setattr(analysis, "SAMPLE_BLOCK", size)
            monkeypatch.setattr(analysis, "PROBE_BLOCK", size)
            report = verify_oracle_inequalities(
                problem, box, cfg, num_probes=300, num_samples=1000, seed=17, num_mc_points=2
            )
            results.append((report.csv_rows(), check_proximal_pl(problem, box, 300, seed=17)))
        assert results[0] == results[1]

    def test_working_set_stays_cache_sized(self):
        # What the checks hold at n = 100 beyond the per-sample value vectors
        # (40 bytes a sample, as above) is their blocks: 1.8 MB when this was
        # written, four (512, 100) arrays of samples.  The bound leaves room
        # for allocator and numpy-version drift; blocks of 4096 samples and
        # 1024 probes held 11 MB here.
        problem = make_least_squares(20, 100, 0.1, 3)
        box = Box(-0.5, 0.5, dim=100)
        cfg = OracleConfig(mu=1e-3, seed=4)
        num_samples = 5000
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            verify_oracle_inequalities(
                problem, box, cfg, num_probes=1000, num_samples=num_samples, num_mc_points=1
            )
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak - 40 * num_samples < 2.5e6

    def test_stacked_prox_quantity_is_row_by_row(self):
        box = Box(-0.5, 0.5, dim=6)
        gen = np.random.default_rng(14)
        x = box.sample(gen, 40)
        vec = 3.0 * gen.standard_normal((40, 6))
        values = prox_quantity(box, x, 2.0, vec)
        assert values.shape == (40,)
        assert values.tolist() == [prox_quantity(box, xi, 2.0, vi) for xi, vi in zip(x, vec)]
        x[17, 2] = 0.7
        with pytest.raises(ValueError, match="feasible"):
            prox_quantity(box, x, 2.0, vec)


class TestBoundInputsValidation:
    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            BoundInputs(n=0, lip_const=1.0, pl_const=1.0, mu=0.1, initial_gap=1.0)
        with pytest.raises(ValueError):
            BoundInputs(n=2, lip_const=1.0, pl_const=1.0, mu=0.1, initial_gap=-1.0)
