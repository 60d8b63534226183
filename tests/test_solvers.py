import dataclasses
import math
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from zopt.oracle import EvaluationError, OracleConfig, oracle_eval, sample_directions
from zopt.problems import LeastSquaresObjective, Objective, TestProblem, make_least_squares
from zopt.sets import Ball, Box, gradient_map
from zopt.solvers import (
    DivergenceError,
    RunBlock,
    RunRecord,
    SolverConfig,
    projected_random_search,
    random_search,
    suggest_params,
    theorem_step_size,
)


def scalar_problem():
    return TestProblem(LeastSquaresObjective(np.array([[1.0]]), np.array([0.0])))


def config(mu=1e-6, seed=123, step=0.025, iters=2000, stride=100):
    return SolverConfig(
        oracle=OracleConfig(mu=mu, seed=seed),
        step_size=step,
        num_iters=iters,
        record_stride=stride,
    )


class TestUnconstrainedRun:
    def test_constant_objective_never_moves(self):
        f = Objective(3, lambda x: 7.5)
        record = random_search(f, np.array([1.0, -2.0, 0.5]), config(iters=50, stride=1))
        for x in record.iterates:
            np.testing.assert_array_equal(x, [1.0, -2.0, 0.5])
        assert np.all(record.values == 7.5)

    def test_scalar_quadratic_seeded_regression(self):
        # analyzed step for n=1, lip=2 is 1/(4*5*2) = 0.025
        problem = scalar_problem()
        record = random_search(problem.objective, np.array([1.0]), config())
        value = record.best_value
        assert value <= 1e-3
        assert record.best_k == 698
        assert value == pytest.approx(1.76326399707493e-21, rel=1e-9)

    def test_runs_are_bit_deterministic(self):
        problem = make_least_squares(3, 8, 0.1, 4)
        x0 = np.random.default_rng(1).standard_normal(8)
        cfg = config(mu=1e-5, seed=77, step=1e-3, iters=300, stride=50)
        a = random_search(problem.objective, x0, cfg)
        b = random_search(problem.objective, x0, cfg)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.iterates, b.iterates)
        assert np.array_equal(a.final_point, b.final_point)

    def test_evaluation_accounting(self):
        calls = []
        problem = scalar_problem()

        def counted(x):
            calls.append(1)
            return problem.objective(x)

        f = Objective(1, counted)
        n_iters = 40
        record = random_search(f, np.array([1.0]), config(iters=n_iters, stride=10))
        assert record.eval_count == 2 * n_iters + 1
        assert len(calls) == record.eval_count

    def test_best_values_nonincreasing(self):
        problem = make_least_squares(4, 9, 0.1, 8)
        x0 = np.random.default_rng(2).standard_normal(9)
        record = random_search(
            problem.objective, x0, config(mu=1e-5, seed=3, step=1e-3, iters=400)
        )
        assert np.all(np.diff(record.best_values) <= 0)
        assert record.best_value == record.values.min()
        assert record.best_k == int(np.argmin(record.values))

    def test_divergence_guard_reports_iteration(self):
        problem = scalar_problem()
        oversized = config(mu=1e-3, seed=5, step=1e9, iters=500, stride=100)
        with pytest.raises(DivergenceError) as err:
            random_search(problem.objective, np.array([1.0]), oversized)
        assert err.value.iteration > 0
        assert err.value.point_norm > 0

    def test_nonfinite_objective_aborts(self):
        f = Objective(1, lambda x: math.nan)
        with pytest.raises(DivergenceError):
            random_search(f, np.array([0.0]), config(iters=5))


class TestProjectedRun:
    def test_matches_unconstrained_when_projection_inactive(self):
        problem = make_least_squares(3, 6, 0.1, 10)
        x0 = np.random.default_rng(3).standard_normal(6)
        cfg = config(mu=1e-5, seed=9, step=1e-3, iters=300, stride=25)
        huge_box = Box(-1e6, 1e6, dim=6)
        plain = random_search(problem.objective, x0, cfg)
        projected = projected_random_search(problem.objective, huge_box, x0, cfg)
        assert np.array_equal(plain.values, projected.values)
        assert np.array_equal(plain.final_point, projected.final_point)

    def test_all_iterates_feasible(self):
        problem = make_least_squares(4, 12, 0.1, 11)
        box = Box(-0.5, 0.5, dim=12)
        x0 = box.project(np.random.default_rng(4).standard_normal(12))
        cfg = config(
            mu=1e-7, seed=13, step=1.0 / problem.lip_const, iters=500, stride=1
        )
        record = projected_random_search(problem.objective, box, x0, cfg)
        assert record.feasibility_violations == 0
        for x in record.iterates:
            assert box.contains(x)

    def test_update_identity_with_gradient_map(self):
        # x_{k+1} must equal x_k - h * s_k where s_k uses the same estimate
        problem = make_least_squares(3, 5, 0.1, 14)
        box = Box(-0.5, 0.5, dim=5)
        x0 = box.project(np.random.default_rng(5).standard_normal(5))
        h = 1.0 / problem.lip_const
        cfg = config(mu=1e-6, seed=21, step=h, iters=60, stride=1)
        record = projected_random_search(problem.objective, box, x0, cfg)
        for idx in range(len(record.iterate_ks) - 1):
            k = int(record.iterate_ks[idx])
            x_k = record.iterates[idx]
            x_next = record.iterates[idx + 1]
            u = sample_directions(cfg.oracle, 5, k, 1)[0]
            g = oracle_eval(problem.objective, x_k, u, cfg.oracle)
            s = gradient_map(box, x_k, g, h)
            drift = np.linalg.norm(x_next - (x_k - h * s))
            assert drift <= 1e-10 * (1 + np.linalg.norm(x_k))

    def test_infeasible_start_rejected(self):
        problem = make_least_squares(2, 4, 0.1, 15)
        box = Box(-0.5, 0.5, dim=4)
        with pytest.raises(ValueError, match="infeasible"):
            projected_random_search(
                problem.objective, box, np.full(4, 2.0), config(iters=10)
            )

    def test_decrease_in_expectation_across_seeds(self):
        problem = make_least_squares(5, 20, 0.1, 18)
        h = theorem_step_size("unconstrained", 20, problem.lip_const)
        x0 = np.random.default_rng(6).standard_normal(20)
        finals = []
        starts = []
        for seed in range(25):
            cfg = config(mu=1e-6, seed=seed, step=h, iters=300, stride=300)
            record = random_search(problem.objective, x0, cfg)
            starts.append(record.values[0])
            finals.append(record.values[-1])
        assert np.mean(finals) < np.mean(starts)


def reference_run(f, x0, cfg, feasible_set=None, grad=None):
    """One run of the scheme on 1-D arrays, written out plainly: f(x), a
    direction from substream k, the single-direction oracle_eval, the step
    and the projection.  Raises DivergenceError like the solvers."""
    x = np.array(x0, dtype=float)
    values, iterates, grad_sq = [], [], []
    best_k, best_point, violations, guard = 0, x.copy(), 0, math.inf
    for k in range(cfg.num_iters + 1):
        fx = float(f(x))
        if not math.isfinite(fx):
            raise DivergenceError(k, float(np.linalg.norm(x)), f"f(x) = {fx}")
        if k == 0:
            guard = 1e12 * max(1.0, abs(fx))
        elif fx > guard:
            raise DivergenceError(
                k, float(np.linalg.norm(x)), f"f(x) = {fx:.6g} exceeds guard {guard:.6g}"
            )
        values.append(fx)
        if fx < values[best_k]:
            best_k, best_point = k, x.copy()
        if k % cfg.record_stride == 0 or k == cfg.num_iters:
            iterates.append(x.copy())
        if feasible_set is not None and not feasible_set.contains(x):
            violations += 1
        if grad is not None:
            g = grad(x)
            grad_sq.append(g @ g)
        if k == cfg.num_iters:
            break
        u = sample_directions(cfg.oracle, x.size, k, 1)[0]
        try:
            g = oracle_eval(f, x, u, cfg.oracle, fx=fx)
        except EvaluationError as exc:
            raise DivergenceError(k, float(np.linalg.norm(x)), str(exc)) from exc
        x = x - cfg.step_size * g
        if feasible_set is not None:
            x = feasible_set.project(x)
    return values, iterates, best_k, best_point, violations, grad_sq


def block_configs(size, seed=300, **kwargs):
    return [config(seed=seed + i, **kwargs) for i in range(size)]


def diverging_block():
    """A block of three runs that all diverge (module level, for a pool)."""
    cfgs = block_configs(3, mu=1e-3, step=1e9, iters=500)
    return random_search(scalar_problem().objective, np.array([1.0]), cfgs)


def run_block(f, x0, cfgs, feasible_set=None, on_iterate=None):
    if feasible_set is None:
        return random_search(f, x0, cfgs, on_iterate=on_iterate)
    return projected_random_search(f, feasible_set, x0, cfgs, on_iterate=on_iterate)


def assert_record_is(record, reference):
    values, iterates, best_k, best_point, violations, _ = reference
    assert record.values.tobytes() == np.array(values).tobytes()
    assert record.iterates.tobytes() == np.array(iterates).tobytes()
    assert record.best_k == best_k
    assert record.best_point.tobytes() == best_point.tobytes()
    assert record.feasibility_violations == violations


class TestBlocks:
    # Runs advanced together as one (R, n) block must each come out byte for
    # byte as the run computed alone on 1-D arrays.
    CASES = ["unconstrained", "box_with_hook", "ball", "generic_objective"]

    @staticmethod
    def setup(case):
        problem = make_least_squares(6, 24, 0.1, 41)
        x0 = np.random.default_rng(7).standard_normal(24)
        f, feasible, grad = problem.objective, None, None
        step = theorem_step_size("unconstrained", 24, problem.lip_const)
        if case == "box_with_hook":
            feasible, grad = Box(-0.5, 0.5, dim=24), problem.grad
            step = 1.0 / problem.lip_const
        elif case == "ball":
            feasible = Ball(np.zeros(24), 1.0)
            step = 1.0 / problem.lip_const
        elif case == "generic_objective":
            f = Objective(24, problem.objective)
        if feasible is not None:
            x0 = feasible.project(x0)
        return problem, f, x0, feasible, grad, step

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_block_runs_equal_runs_alone(self, size, case):
        problem, f, x0, feasible, grad, step = self.setup(case)
        cfgs = [
            SolverConfig(
                oracle=OracleConfig(mu=1e-6, seed=500 + i),
                step_size=step,
                num_iters=150,
                record_stride=40,
            )
            for i in range(size)
        ]
        grad_sq = np.full((151, size), np.nan)

        def hook(k, X):
            G = grad(X)
            grad_sq[k] = np.vecdot(G, G)

        block = run_block(f, x0, cfgs, feasible, hook if grad is not None else None)
        assert isinstance(block, RunBlock) and block.num_iters == 150
        assert len(block.outcomes) == size
        for i, (cfg, record) in enumerate(zip(cfgs, block.outcomes)):
            reference = reference_run(f, x0, cfg, feasible, grad)
            assert_record_is(record, reference)
            if grad is not None:
                assert grad_sq[:, i].tobytes() == np.array(reference[5]).tobytes()

    def test_generic_objective_called_2n_plus_1_times_per_run(self):
        calls = []
        problem = make_least_squares(3, 8, 0.1, 4)

        def counted(x):
            calls.append(1)
            return problem.objective(x)

        block = random_search(
            Objective(8, counted), np.ones(8), block_configs(3, mu=1e-5, step=1e-3, iters=40)
        )
        assert len(calls) == 3 * (2 * 40 + 1)
        assert all(record.eval_count == 81 for record in block.outcomes)

    @staticmethod
    def wall(mu):
        # f is infinite beyond x[0] = t, with t just below the largest x[0]
        # that any run's plain trajectory reaches (iterates and, for a large
        # mu, the shifted points): exactly that run diverges, partway
        problem = make_least_squares(6, 24, 0.1, 41)
        x0 = np.random.default_rng(7).standard_normal(24)
        cfgs = block_configs(
            5, mu=mu, step=theorem_step_size("unconstrained", 24, problem.lip_const),
            iters=200, stride=50,
        )
        reach = []
        for cfg in cfgs:
            seen = []
            reference_run(lambda x: seen.append(x[0]) or problem.objective(x), x0, cfg)
            reach.append(max(seen))
        top, second = sorted(reach)[-1], sorted(reach)[-2]
        assert top - second > 1e-3
        threshold = (top + second) / 2
        f = Objective(24, lambda x: math.inf if x[0] > threshold else problem.objective(x))
        return f, x0, cfgs, reach.index(top)

    @pytest.mark.parametrize(
        "mu, where", [(1e-6, "f(x) = inf"), (0.5, "objective returned inf")]
    )
    def test_a_run_that_diverges_ends_only_itself(self, mu, where):
        f, x0, cfgs, diverged = self.wall(mu)
        block = random_search(f, x0, cfgs)
        for i, (cfg, outcome) in enumerate(zip(cfgs, block.outcomes)):
            if i != diverged:
                assert_record_is(outcome, reference_run(f, x0, cfg))
                continue
            with pytest.raises(DivergenceError) as alone:
                random_search(f, x0, cfg)
            assert isinstance(outcome, DivergenceError)
            assert 0 < outcome.iteration < 200
            assert (outcome.iteration, outcome.point_norm, str(outcome)) == (
                alone.value.iteration, alone.value.point_norm, str(alone.value)
            )
            assert where in str(outcome)

    def test_every_run_of_a_block_may_diverge(self):
        problem = scalar_problem()
        cfgs = block_configs(3, mu=1e-3, step=1e9, iters=500)
        block = random_search(problem.objective, np.array([1.0]), cfgs)
        for cfg, outcome in zip(cfgs, block.outcomes):
            with pytest.raises(DivergenceError) as alone:
                random_search(problem.objective, np.array([1.0]), cfg)
            assert str(outcome) == str(alone.value)

    def test_a_diverged_run_survives_pickling(self):
        # a pool worker hands its block back pickled; the default exception
        # pickle rebuilt a DivergenceError from its message alone and failed
        error = pickle.loads(pickle.dumps(DivergenceError(3, 1.5, "f(x) = nan")))
        assert (error.iteration, error.point_norm, error.detail) == (3, 1.5, "f(x) = nan")
        assert str(error) == "run aborted at iteration 3 (point norm 1.5): f(x) = nan"
        with ProcessPoolExecutor(max_workers=1) as pool:
            block = pool.submit(diverging_block).result(timeout=60)
        for outcome, local in zip(block.outcomes, diverging_block().outcomes):
            assert isinstance(outcome, DivergenceError)
            assert (outcome.iteration, outcome.point_norm, str(outcome)) == (
                local.iteration, local.point_norm, str(local)
            )

    def test_hook_gets_a_nan_row_once_a_run_has_diverged(self):
        f, x0, cfgs, diverged = self.wall(1e-6)
        states = []
        block = random_search(f, x0, cfgs, on_iterate=lambda k, X: states.append(X.copy()))
        stop = block.outcomes[diverged].iteration  # f(x_stop) was infinite
        assert len(states) == 201
        for i in range(len(cfgs)):
            rows = np.array([X[i] for X in states])
            if i == diverged:
                assert not np.isnan(rows[:stop]).any() and np.isnan(rows[stop:]).all()
            else:
                assert rows[::50].tobytes() == block.outcomes[i].iterates.tobytes()

    def test_configs_must_differ_only_in_seed(self):
        problem = scalar_problem()
        cfgs = [config(seed=1), config(seed=2, step=0.01)]
        with pytest.raises(ValueError, match="only in their oracle seeds"):
            random_search(problem.objective, np.array([1.0]), cfgs)


class TestBestIterate:
    # a real run tracks its best iterate online; ties break to the earliest k

    def test_tie_breaks_to_earliest(self):
        # f(x) = max(x^2, 1/4) from x0 = 1: the run descends onto the plateau,
        # where every later value ties at 1/4 and the estimate vanishes
        f = Objective(1, lambda x: max(float(x[0] ** 2), 0.25))
        record = random_search(f, np.array([1.0]), config(iters=400, stride=1))
        k = record.best_k
        assert 0 < k < 400
        assert np.all(record.values[:k] > 0.25) and np.all(record.values[k:] == 0.25)
        assert record.best_value == 0.25
        assert record.best_point.tobytes() == record.iterates[k].tobytes()

    def test_single_entry(self):
        problem = scalar_problem()
        record = random_search(problem.objective, np.array([2.0]), config(iters=0, stride=1))
        assert (record.best_k, record.best_value) == (0, 4.0)
        assert np.array_equal(record.best_point, [2.0])

    def test_constant_values(self):
        record = random_search(Objective(1, lambda x: 2.0), np.array([0.5]), config(iters=20))
        assert (record.best_k, record.best_value) == (0, 2.0)
        assert np.array_equal(record.best_point, [0.5])


class TestDerivedFields:
    def test_constructor_takes_only_measured_fields(self):
        names = [f.name for f in dataclasses.fields(RunRecord)]
        assert names == [
            "config",
            "values",
            "iterates",
            "best_k",
            "best_point",
            "feasibility_violations",
        ]

    def test_derived_fields_match_the_loop(self):
        # N = 130 is off the stride grid, so x_N is stored as an extra iterate
        problem = make_least_squares(3, 8, 0.1, 4)
        x0 = np.random.default_rng(1).standard_normal(8)
        cfg = config(mu=1e-5, seed=77, step=1e-3, iters=130, stride=50)
        visited = []
        record = random_search(
            problem.objective, x0, cfg, on_iterate=lambda k, x: visited.append(x.copy())
        )
        assert record.seed == 77
        assert record.num_iters == 130
        assert record.eval_count == 261
        assert record.iterate_ks.tolist() == [0, 50, 100, 130]
        for k, x in zip(record.iterate_ks, record.iterates):
            assert np.array_equal(x, visited[k])
        assert np.array_equal(record.final_point, visited[-1])
        running = []
        for value in record.values:
            running.append(min(running[-1], value) if running else value)
        assert np.array_equal(record.best_values, running)

    def test_endpoint_on_the_stride_grid_is_stored_once(self):
        problem = scalar_problem()
        record = random_search(problem.objective, np.array([1.0]), config(iters=100, stride=50))
        assert record.iterate_ks.tolist() == [0, 50, 100]
        assert len(record.iterates) == 3


class TestParameterSelection:
    def test_halving_eps_doubles_iterations(self):
        for mode, dx in (("unconstrained", None), ("constrained", 1.0)):
            _, n1 = suggest_params(mode, 0.02, 10, 4.0, 1.5, d_x=dx)
            _, n2 = suggest_params(mode, 0.01, 10, 4.0, 1.5, d_x=dx)
            assert n2 == pytest.approx(2 * n1, abs=1)

    def test_constrained_values_by_hand(self):
        # mu = 2*0.01 / (1 * 4 * 8) = 6.25e-4, N = ceil(2 / 0.02) = 100
        mu, n_iters = suggest_params("constrained", 0.01, 1, 2.0, 2.0, d_x=1.0)
        assert mu == pytest.approx(6.25e-4, rel=1e-12)
        assert n_iters == 100

    def test_large_instance_calibration(self):
        # loose factor-of-10 agreement with the m=100, n=1000 calibration
        # point mu = 1e-7, N = 200000 at a target gap of 0.01
        problem = make_least_squares(100, 1000, 0.1, 42)
        mu, n_iters = suggest_params(
            "unconstrained", 0.01, 1000, problem.lip_const, problem.pl_const
        )
        assert 1e-8 <= mu <= 1e-6
        assert 2e4 <= n_iters <= 2e6

    def test_constrained_requires_diameter(self):
        with pytest.raises(ValueError, match="d_x"):
            suggest_params("constrained", 0.1, 5, 2.0, 1.0)
        with pytest.raises(ValueError, match="d_x"):
            suggest_params("constrained", 0.1, 5, 2.0, 1.0, d_x=math.inf)

    def test_theorem_steps(self):
        assert theorem_step_size("unconstrained", 1, 2.0) == pytest.approx(0.025)
        assert theorem_step_size("constrained", 1, 2.0) == pytest.approx(0.5)
        with pytest.raises(ValueError, match="mode"):
            theorem_step_size("other", 1, 2.0)


class TestRecordSerialization:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="step_size"):
            SolverConfig(oracle=OracleConfig(mu=0.1), step_size=0.0, num_iters=1)
        with pytest.raises(ValueError, match="num_iters"):
            SolverConfig(oracle=OracleConfig(mu=0.1), step_size=0.1, num_iters=-1)
        with pytest.raises(ValueError, match="record_stride"):
            SolverConfig(
                oracle=OracleConfig(mu=0.1), step_size=0.1, num_iters=1, record_stride=0
            )

    @pytest.mark.parametrize(
        "field, value",
        [("num_iters", 10.0), ("record_stride", 2.5), ("step_size", math.inf),
         ("step_size", math.nan)],
    )
    def test_config_rejects_what_the_run_cannot_use(self, field, value):
        # each failed later inside the run, or diverged at iteration 1
        kwargs = {"step_size": 0.1, "num_iters": 10, "record_stride": 1, field: value}
        with pytest.raises(ValueError, match=field):
            SolverConfig(oracle=OracleConfig(mu=0.1), **kwargs)

    def test_config_accepts_numpy_integers(self):
        cfg = SolverConfig(
            oracle=OracleConfig(mu=0.1), step_size=0.1, num_iters=np.int64(3),
            record_stride=np.uint8(2),
        )
        assert random_search(scalar_problem().objective, np.array([1.0]), cfg).num_iters == 3
