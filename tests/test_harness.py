import math

import numpy as np
import pytest

from zopt import harness
from zopt.analysis import BoundInputs
from zopt.harness import (
    AggregateSeries,
    ConfigError,
    ExperimentConfig,
    FullRunRequired,
    aggregate,
    apply_seed_override,
    checkpoint_grid,
    load_config,
    read_series_csv,
    run_experiment,
    write_series_csv,
)
from zopt.oracle import OracleConfig
from zopt.problems import make_least_squares
from zopt.solvers import SolverConfig, random_search

GOOD_CONFIG = """\
[experiment]
scenario = unconstrained
num_runs = 3
run_seed_base = 100
x0_seed = 9

[problem]
m = 3
n = 8
noise_std = 0.1
problem_seed = 7

[solver]
mu = 1e-5
step_size = theorem
num_iters = 200
record_stride = 50

[outputs]
csv_path = out.csv
bound_overlay = true
"""


def small_config(**overrides):
    base = dict(
        scenario="unconstrained",
        m=3,
        n=8,
        noise_std=0.1,
        problem_seed=7,
        num_iters=200,
        record_stride=50,
        num_runs=3,
        run_seed_base=100,
        x0_seed=9,
        mu=1e-5,
        eps=None,
        step_size=None,
        set_spec=None,
        csv_path=None,
        svg_path=None,
        bound_overlay=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_records(num_runs=2, num_iters=80, seed_base=40):
    problem = make_least_squares(3, 8, 0.1, 7)
    x0 = np.random.default_rng(9).standard_normal(8)
    records = []
    for i in range(num_runs):
        cfg = SolverConfig(
            oracle=OracleConfig(mu=1e-5, seed=seed_base + i),
            step_size=1e-3,
            num_iters=num_iters,
            record_stride=20,
        )
        records.append(random_search(problem.objective, x0, cfg))
    return problem, records


class TestCheckpointGrid:
    def test_endpoints_and_ordering(self):
        ks = checkpoint_grid(20000)
        assert ks[0] == 0
        assert ks[-1] == 20000
        assert np.all(np.diff(ks) > 0)

    def test_degenerate(self):
        assert checkpoint_grid(0).tolist() == [0]
        assert checkpoint_grid(1).tolist() == [0, 1]


class TestAggregate:
    def test_identical_records_have_zero_std(self):
        problem, _ = tiny_records()
        cfg = SolverConfig(
            oracle=OracleConfig(mu=1e-5, seed=1), step_size=1e-3, num_iters=50
        )
        x0 = np.zeros(8)
        records = [
            random_search(problem.objective, x0, cfg),
            random_search(problem.objective, x0, cfg),
        ]
        series = aggregate(records)
        assert np.all(series.std_f == 0.0)

    def test_mean_and_sample_std_convention(self):
        # values {1, 3} at a checkpoint: mean 2, std sqrt(2) with divisor R-1
        _, records = tiny_records(num_runs=2, num_iters=0)
        records[0].values[:] = 1.0
        records[0].best_values[:] = 1.0
        records[1].values[:] = 3.0
        records[1].best_values[:] = 3.0
        series = aggregate(records)
        assert series.mean_f[0] == 2.0
        assert series.std_f[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_running_average_gap_by_hand(self):
        _, records = tiny_records(num_runs=1, num_iters=1)
        records[0].values[:] = [4.0, 2.0]
        records[0].best_values[:] = [4.0, 2.0]
        series = aggregate(records, f_star=1.0)
        np.testing.assert_allclose(series.running_avg_gap, [3.0, 2.0], rtol=1e-12)
        assert np.all(series.running_avg_gap_se == 0.0)

    def test_mismatched_grids_rejected(self):
        _, r1 = tiny_records(num_runs=1, num_iters=10)
        _, r2 = tiny_records(num_runs=1, num_iters=20)
        with pytest.raises(ValueError, match="checkpoint grid"):
            aggregate(r1 + r2)

    def test_bound_column_requires_inputs(self):
        _, records = tiny_records()
        series = aggregate(records, f_star=0.0)
        assert series.bound_rhs is None
        inputs = BoundInputs(n=8, lip_const=2.0, pl_const=1.0, mu=1e-5, initial_gap=1.0)
        with_bound = aggregate(records, bound_inputs=inputs, f_star=0.0)
        assert with_bound.bound_rhs is not None
        assert len(with_bound.bound_rhs) == len(with_bound.ks)


class TestCsvRoundTrip:
    def test_exact_reconstruction(self, tmp_path):
        _, records = tiny_records()
        inputs = BoundInputs(n=8, lip_const=2.0, pl_const=1.0, mu=1e-5, initial_gap=1.0)
        series = aggregate(records, bound_inputs=inputs, f_star=0.25)
        series.metadata["scenario"] = "unconstrained"
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        loaded = read_series_csv(path)
        assert loaded.same_as(series)

    def test_optional_columns_omitted(self, tmp_path):
        _, records = tiny_records()
        series = aggregate(records)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        header = [
            line for line in path.read_text().splitlines() if not line.startswith("#")
        ][0]
        assert "bound_rhs" not in header
        assert "running_avg_gap" not in header
        loaded = read_series_csv(path)
        assert loaded.same_as(series)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("k,mean\n0,1\n")
        with pytest.raises(ValueError, match="zopt-aggregate"):
            read_series_csv(path)


class TestConfigParsing:
    def test_good_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG)
        cfg = load_config(path)
        assert cfg.scenario == "unconstrained"
        assert cfg.num_runs == 3
        assert cfg.mu == 1e-5
        assert cfg.step_size is None
        assert cfg.csv_path == "out.csv"

    def test_bad_scenario_is_line_anchored(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG.replace("scenario = unconstrained", "scenario = both"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.line == 2
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("mu = 1e-5", "mu = nan", 14),
            ("mu = 1e-5", "mu = -inf", 14),
            ("mu = 1e-5", "mu = auto\neps = nan", 15),
            ("step_size = theorem", "step_size = inf", 15),
            ("noise_std = 0.1", "noise_std = nan", 10),
            ("run_seed_base = 100", f"run_seed_base = {2**64 - 2}", 4),
            ("x0_seed = 9", f"x0_seed = {2**64}", 5),
            ("problem_seed = 7", f"problem_seed = {2**64}", 11),
        ],
    )
    def test_bad_value_is_line_anchored(self, tmp_path, old, new, line):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG.replace(old, new))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.line == line
        assert str(err.value).startswith(f"{path}:{line}: ")

    def test_last_run_seed_may_reach_the_top_of_the_range(self, tmp_path):
        # num_runs = 3 runs use seeds run_seed_base .. run_seed_base + 2
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG.replace("run_seed_base = 100", f"run_seed_base = {2**64 - 3}"))
        assert load_config(path).run_seed_base == 2**64 - 3

    def test_missing_key_reports_section(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG.replace("num_iters = 200\n", ""))
        with pytest.raises(ConfigError, match="num_iters"):
            load_config(path)

    def test_constrained_requires_set(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG.replace("scenario = unconstrained", "scenario = constrained"))
        with pytest.raises(ConfigError, match="requires a \\[set\\] section"):
            load_config(path)

    def test_constrained_rejects_infinite_diameter(self, tmp_path):
        text = GOOD_CONFIG.replace("scenario = unconstrained", "scenario = constrained")
        text += "\n[set]\nkind = whole_space\n"
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="finite-diameter"):
            load_config(path)

    def test_mu_auto_requires_eps(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG.replace("mu = 1e-5", "mu = auto"))
        with pytest.raises(ConfigError, match="eps"):
            load_config(path)
        path.write_text(GOOD_CONFIG.replace("mu = 1e-5", "mu = auto\neps = 0.1"))
        cfg = load_config(path)
        assert cfg.mu is None and cfg.eps == 0.1

    def test_syntax_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment\nscenario = unconstrained\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_seed_override(self):
        cfg = apply_seed_override(small_config(), 5000)
        assert cfg.problem_seed == 5000
        assert cfg.x0_seed == 5001
        assert cfg.run_seed_base == 5002

    @pytest.mark.parametrize("seed", [-5, 2**64 - 1, 2**64 - 4])
    def test_seed_override_out_of_range(self, seed):
        with pytest.raises(ConfigError, match="outside"):
            apply_seed_override(small_config(), seed)

    def test_shipped_configs_parse(self):
        import pathlib

        config_dir = pathlib.Path(__file__).parent.parent / "configs"
        paths = sorted(config_dir.glob("*.cfg"))
        assert len(paths) >= 4
        for path in paths:
            cfg = load_config(path)
            assert cfg.scenario in ("unconstrained", "constrained")


class TestRunExperiment:
    def test_unconstrained_end_to_end(self, tmp_path):
        cfg = small_config(
            csv_path="out.csv", svg_path="out.svg", num_iters=300, num_runs=4
        )
        series = run_experiment(cfg, jobs=1, out_dir=str(tmp_path))
        assert (tmp_path / "out.csv").exists()
        svg = (tmp_path / "out.svg").read_text()
        assert svg.startswith("<svg")
        assert np.all(np.diff(series.mean_best_f) <= 0)
        loaded = read_series_csv(tmp_path / "out.csv")
        assert loaded.same_as(series)

    def test_worker_count_does_not_change_results(self):
        cfg = small_config(num_iters=150, num_runs=4)
        a = run_experiment(cfg, jobs=1)
        b = run_experiment(cfg, jobs=3)
        assert a.same_as(b)

    def test_constrained_end_to_end(self):
        cfg = small_config(
            scenario="constrained",
            m=3,
            n=10,
            mu=1e-7,
            set_spec={"kind": "box", "lower": "-0.5", "upper": "0.5"},
            num_iters=300,
            num_runs=4,
        )
        series = run_experiment(cfg, jobs=1)
        assert series.metadata["feasibility_violations"] == "0"
        assert series.bound_rhs is not None
        assert np.all(
            series.running_avg_gap <= series.bound_rhs + 3 * series.running_avg_gap_se
        )

    def test_degenerate_single_run_zero_iters(self, tmp_path):
        cfg = small_config(num_runs=1, num_iters=0, record_stride=1, csv_path="d.csv")
        series = run_experiment(cfg, out_dir=str(tmp_path))
        assert len(series.ks) == 1
        problem = make_least_squares(3, 8, 0.1, 7)
        from zopt.rng import substream

        x0 = substream(9, 0).standard_normal(8)
        assert series.mean_f[0] == problem.objective(x0)
        assert read_series_csv(tmp_path / "d.csv").same_as(series)

    def test_zero_iters_with_svg_rejected_before_any_run(self, tmp_path, monkeypatch):
        def no_run(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "_execute_run", no_run)
        cfg = small_config(
            num_runs=1, num_iters=0, record_stride=1, csv_path="d.csv", svg_path="d.svg"
        )
        with pytest.raises(ConfigError, match=r"svg_path.*num_iters"):
            run_experiment(cfg, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_full_gate_blocks_large_runs(self):
        cfg = small_config(num_iters=10**7, num_runs=25, n=100, m=3)
        with pytest.raises(FullRunRequired, match="--full"):
            run_experiment(cfg, jobs=1, full=False)

    def test_partial_divergence_keeps_going(self, monkeypatch):
        original = harness._execute_run

        def sabotaged(task):
            if task.index == 1:
                return harness._RunOutcome(task.index, None, None, "synthetic failure")
            return original(task)

        monkeypatch.setattr(harness, "_execute_run", sabotaged)
        cfg = small_config(num_iters=100, num_runs=3)
        series = run_experiment(cfg, jobs=1)
        assert series.num_runs == 2
        assert series.metadata["diverged_runs"] == "1"
        assert series.metadata["completed_runs"] == "2"

    def test_all_diverged_raises(self):
        cfg = small_config(step_size=1e12, num_iters=100, num_runs=2, bound_overlay=False)
        with pytest.raises(RuntimeError, match="every run diverged"):
            run_experiment(cfg, jobs=1)

    def test_auto_mu_resolves_from_eps(self):
        cfg = small_config(mu=None, eps=0.1, num_iters=100, num_runs=2)
        series = run_experiment(cfg, jobs=1)
        problem = make_least_squares(3, 8, 0.1, 7)
        from zopt.solvers import suggest_params

        expected_mu, _ = suggest_params(
            "unconstrained", 0.1, 8, problem.lip_const, problem.pl_const
        )
        assert series.metadata["mu"] == repr(float(expected_mu))
