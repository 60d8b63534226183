import configparser
import hashlib
import importlib.util
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zopt import harness
from zopt.bounds import BoundInputs
from zopt.cli import main
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
from zopt.sets import SET_KEYS, Box, set_from_spec, spec_diameter
from zopt.solvers import (
    DivergenceError,
    RunRecord,
    SolverConfig,
    projected_random_search,
    random_search,
)

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

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


# [set] sections of a kind other than box, refused at their kind line
BALL_WITH_CENTRE = "[set]\nkind = ball\nradius = 1\ncentre = 0.3"
WHOLE_SPACE = "[set]\nkind = whole_space"
# a count just past 2**53, the largest the library's count rule takes
BIG = 2**53 + 1
PAST_53 = f"must be an integer <= 2**53, got {BIG}"
# a box holding a key it does not take, on its last line
BOX_WITH_RADIUS = "[set]\nkind = box\nlower = -1\nupper = 1\nradius = 1"
# [set] sections with one malformed value
BOX_BAD_LOWER = "[set]\nkind = box\nlower = -0.5x\nupper = 0.5"
BOX_SHORT_UPPER = "[set]\nkind = box\nlower = -0.5\nupper = 0.5, 1"


def load_perfbench(name: str, monkeypatch):
    """Import perfbench/<name>.py under the name its siblings import it by."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


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


def same_csv(a, b, tmp_path) -> bool:
    """Whether two series write the same CSV bytes.  The file holds every
    field a series is compared by: ks, the value columns, f_star, num_runs
    and the metadata."""
    paths = tmp_path / "same_csv_a.csv", tmp_path / "same_csv_b.csv"
    for series, path in zip((a, b), paths):
        write_series_csv(series, path)
    return paths[0].read_bytes() == paths[1].read_bytes()


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
        records[1].values[:] = 3.0
        series = aggregate(records)
        assert series.mean_f[0] == 2.0
        assert series.std_f[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_running_average_gap_by_hand(self):
        _, records = tiny_records(num_runs=1, num_iters=1)
        records[0].values[:] = [4.0, 2.0]
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

    @pytest.mark.parametrize("seed_base", [40, 7000])
    def test_checkpoint_reduction_equals_the_dense_one(self, seed_base):
        # aggregate reads each run at the checkpoints only; every column must
        # keep the bits of numpy's reductions over the dense (runs, N + 1)
        # matrices.  numpy's axis-0 mean of the narrow matrix values[:, ks],
        # which is F-ordered, sums in another order and gives other bits.
        problem = make_least_squares(3, 8, 0.1, 7)
        cfgs = [
            SolverConfig(
                oracle=OracleConfig(mu=1e-5, seed=seed_base + i),
                step_size=1e-3,
                num_iters=3000,
                record_stride=500,
            )
            for i in range(25)
        ]
        x0 = np.random.default_rng(9).standard_normal(8)
        records = random_search(problem.objective, x0, cfgs).outcomes
        f_star = problem.opt_value
        series = aggregate(records, f_star=f_star)
        ks = checkpoint_grid(3000)
        values = np.stack([rec.values for rec in records])
        per_run = np.cumsum(values - f_star, axis=1) / np.arange(1, 3002, dtype=float)
        expected = {
            "mean_f": values.mean(axis=0)[ks],
            "std_f": values.std(axis=0, ddof=1)[ks],
            "mean_best_f": np.minimum.accumulate(values, axis=1).mean(axis=0)[ks],
            "running_avg_gap": per_run.mean(axis=0)[ks],
            "running_avg_gap_se": (per_run.std(axis=0, ddof=1) / math.sqrt(25))[ks],
        }
        for name, column in expected.items():
            assert getattr(series, name).tobytes() == column.tobytes(), name
        assert values[:, ks].mean(axis=0).tobytes() != expected["mean_f"].tobytes()

    def test_summaries_must_share_f_star(self):
        problem, records = tiny_records()
        summaries = [harness._summarize_run(rec, 0.0) for rec in records]
        assert aggregate(summaries).running_avg_gap is None
        with pytest.raises(ValueError, match="another f_star"):
            aggregate(summaries, f_star=problem.opt_value)


class NarrowBox(Box):
    """Projects onto [-0.5, 0.5]^n but contains only [-0.4, 0.4]^n, so an
    iterate on the boundary counts as a feasibility violation."""

    def contains(self, x):
        return Box(-0.4, 0.4, dim=self.dim).contains(x)


def failing_call(number, objective):
    """A fresh plain objective whose call `number` (from 0) returns inf."""
    calls = []

    def f(p):
        calls.append(1)
        return math.inf if len(calls) == number + 1 else objective(p)

    return f


class TestCheckpointRecorder:
    # A worker's recorder reads each run at the checkpoints while its block
    # runs; every row must be byte for byte what _summarize_run reads from
    # the same runs' RunRecords.
    PROBLEM = make_least_squares(6, 24, 0.1, 31)

    def compare(self, make_f, cfgs, f_star, feasible=None):
        """The block's outcomes twice, as RunRecords and through the
        recorder (make_f gives each its own objective); the RunRecords."""
        x0 = np.random.default_rng(17).standard_normal(24) * 0.1

        def run(recorder=None):
            if feasible is None:
                return random_search(make_f(), x0, cfgs, _recorder=recorder).outcomes
            return projected_random_search(make_f(), feasible, x0, cfgs, _recorder=recorder).outcomes

        records = run()
        summaries = run(harness._Checkpoints(len(cfgs), cfgs[0].num_iters, f_star))
        for record, summary in zip(records, summaries, strict=True):
            if isinstance(record, DivergenceError):
                assert str(summary) == str(record)
                continue
            expected = harness._summarize_run(record, f_star)
            for name in ("f", "best_f", "gap"):
                assert getattr(summary, name).tobytes() == getattr(expected, name).tobytes(), name
            assert summary.num_iters == expected.num_iters == cfgs[0].num_iters
            assert summary.f_star == f_star
            assert summary.feasibility_violations == expected.feasibility_violations
        return records

    def configs(self, num_iters, step=None, mu=1e-6):
        step = step or harness.theorem_step_size("unconstrained", 24, self.PROBLEM.lip_const)
        return [
            SolverConfig(OracleConfig(mu=mu, seed=700 + i), step, num_iters, record_stride=7)
            for i in range(3)
        ]

    @pytest.mark.parametrize("num_iters", [0, 1, 2, 1007])
    def test_rows_equal_the_dense_reduction(self, num_iters):
        problem = self.PROBLEM
        self.compare(lambda: problem.objective, self.configs(num_iters), problem.opt_value)

    def test_box_with_violations(self):
        problem = self.PROBLEM
        cfgs = self.configs(1007, step=1.0 / problem.lip_const, mu=1e-4)
        records = self.compare(
            lambda: problem.objective, cfgs, problem.opt_value + 0.125, NarrowBox(-0.5, 0.5, dim=24)
        )
        assert all(0 < record.feasibility_violations < 1008 for record in records)

    def test_a_run_that_diverges_midway(self):
        # the block evaluates f(x_k) row by row, then the shifted points: call
        # 6 * 500 + 1 is run 1's f(x_500)
        problem = self.PROBLEM
        records = self.compare(
            lambda: failing_call(6 * 500 + 1, problem.objective), self.configs(1007), 0.5
        )
        assert [type(r) for r in records] == [RunRecord, DivergenceError, RunRecord]
        assert records[1].iteration == 500

    def test_signed_zeros(self):
        # each run's f(x_k) alternates -0.0 and 0.0: a tie in the running
        # minimum takes the later value, and the running sum starts from -0.0
        def make_f():
            calls = []
            return lambda p: calls.append(1) or (-0.0 if len(calls) % 4 < 2 else 0.0)

        records = self.compare(make_f, self.configs(40), 0.0)
        signs = {math.copysign(1.0, v) for r in records for v in r.values.tolist()}
        assert signs == {1.0, -1.0}


class TestCsvRoundTrip:
    def test_exact_reconstruction(self, tmp_path):
        _, records = tiny_records()
        inputs = BoundInputs(n=8, lip_const=2.0, pl_const=1.0, mu=1e-5, initial_gap=1.0)
        series = aggregate(records, bound_inputs=inputs, f_star=0.25)
        series.metadata["scenario"] = "unconstrained"
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        loaded = read_series_csv(path)
        assert same_csv(loaded, series, tmp_path)

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
        assert same_csv(loaded, series, tmp_path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("k,mean\n0,1\n")
        with pytest.raises(ValueError, match="zopt-aggregate"):
            read_series_csv(path)

    def written_lines(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(aggregate(tiny_records()[1]), path)
        return path, path.read_text().splitlines()

    def test_file_ending_before_column_line(self, tmp_path):
        # used to raise a bare IndexError
        path, lines = self.written_lines(tmp_path)
        path.write_text(f"{lines[0]}\n# num_runs = 3\n")
        message = rf"{re.escape(str(path))}: line 3: file ends before the column line"
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    def test_short_data_row(self, tmp_path):
        # used to be read into columns of unequal length
        path, lines = self.written_lines(tmp_path)
        at = lines.index(next(line for line in lines if line.startswith("k,"))) + 2
        lines[at - 1] = lines[at - 1].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        columns = len(lines[at - 2].split(","))
        message = rf"{re.escape(str(path))}: line {at}: {columns - 1} cells, the header has {columns}"
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    def test_bad_num_runs_header(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        at = lines.index("# num_runs = 2") + 1
        lines[at - 1] = "# num_runs = two"
        path.write_text("\n".join(lines) + "\n")
        message = rf"{re.escape(str(path))}: line {at}: num_runs must be an integer, got 'two'"
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("num_runs", "-3", "num_runs must be an integer >= 1, got -3"),
            ("num_runs", "0", "num_runs must be an integer >= 1, got 0"),
            ("num_runs", "2.5", "num_runs must be an integer, got '2.5'"),
            ("num_runs", str(BIG), f"num_runs {PAST_53}"),
            ("k", "-1", "k must be an integer >= 0, got -1"),
        ],
        ids=["num_runs=-3", "num_runs=0", "num_runs=2.5", "num_runs=2**53+1", "k=-1"],
    )
    def test_counts_out_of_range(self, tmp_path, name, value, message):
        # num_runs and k take the library's count rule; these used to read back as given
        path, lines = self.written_lines(tmp_path)
        if name == "k":
            at = lines.index(next(row for row in lines if row.startswith("k,"))) + 2
            lines[at - 1] = value + "," + lines[at - 1].split(",", 1)[1]
        else:
            at = lines.index("# num_runs = 2") + 1
            lines[at - 1] = f"# num_runs = {value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: line {at}: {message}')}$"):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "column, cell, kind",
        [("mean_f", "x", "a number"), ("k", "1.5", "an integer")],
    )
    def test_bad_data_cell(self, tmp_path, column, cell, kind):
        # used to end in float()'s or int()'s own message, naming no file
        path, lines = self.written_lines(tmp_path)
        header = lines.index(next(line for line in lines if line.startswith("k,")))
        at = header + 3
        row = lines[at - 1].split(",")
        row[lines[header].split(",").index(column)] = cell
        lines[at - 1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        message = rf"{re.escape(str(path))}: line {at}: {column} must be {kind}, got '{cell}'"
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    def pinned_lines(self, tmp_path):
        path = tmp_path / "pinned.csv"
        return path, (ROOT / "tests" / "data" / "pinned_desk.csv").read_text().splitlines()

    def test_bad_f_star_header(self, tmp_path):
        # used to end in float()'s own message, naming no file or line
        path, lines = self.pinned_lines(tmp_path)
        at = lines.index(next(line for line in lines if line.startswith("# f_star = "))) + 1
        lines[at - 1] = "# f_star = abc"
        path.write_text("\n".join(lines) + "\n")
        message = rf"^{re.escape(str(path))}: line {at}: f_star must be a number, got 'abc'$"
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    def test_repeated_column(self, tmp_path):
        # used to be read silently: every row's two cells went into one
        # mean_f list, and std_f was None
        path, lines = self.pinned_lines(tmp_path)
        at = lines.index(next(line for line in lines if line.startswith("k,"))) + 1
        lines[at - 1] = lines[at - 1].replace("std_f", "mean_f")
        assert lines[at - 1].startswith("k,mean_f,mean_f,")
        path.write_text("\n".join(lines) + "\n")
        message = rf"^{re.escape(str(path))}: line {at}: the column line repeats mean_f$"
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    def test_column_line_without_k(self, tmp_path):
        # used to raise a bare KeyError: 'k'
        path, lines = self.written_lines(tmp_path)
        at = lines.index(next(line for line in lines if line.startswith("k,"))) + 1
        lines[at - 1] = "step" + lines[at - 1][1:]
        path.write_text("\n".join(lines) + "\n")
        message = rf"{re.escape(str(path))}: line {at}: the column line has no k column"
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("mean_f", "maen_f", "has no mean_f column"),
            ("std_f", None, "has no std_f column"),
            ("bound_rhs", "bound_rsh", "has an unknown column bound_rsh"),
        ],
        ids=["misspelled-mean_f", "missing-std_f", "misspelled-bound_rhs"],
    )
    def test_column_line_names_the_series_columns(self, tmp_path, old, new, message):
        # a misspelled name used to read back as a None column (or be dropped),
        # and write_series_csv then wrote the file without it
        path, lines = self.pinned_lines(tmp_path)
        at = lines.index(next(line for line in lines if line.startswith("k,"))) + 1
        if new is None:
            drop = lines[at - 1].split(",").index(old)
            lines[at - 1 :] = [
                ",".join(c for j, c in enumerate(line.split(",")) if j != drop)
                for line in lines[at - 1 :]
            ]
        else:
            lines[at - 1] = lines[at - 1].replace(old, new)
        path.write_text("\n".join(lines) + "\n")
        message = rf"^{re.escape(f'{path}: line {at}: the column line {message}')}$"
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    def test_non_ascii_byte_is_one_value_error(self, tmp_path):
        # used to raise a bare UnicodeDecodeError naming no file
        path, lines = self.pinned_lines(tmp_path)
        at = lines.index("# scenario = unconstrained")
        lines[at] = "# scenario = unconstrain\u00e9d"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        message = rf"^{re.escape(f'{path}: cannot read series: ')}'ascii' codec can't decode"
        with pytest.raises(ValueError, match=message):
            read_series_csv(path)

    def test_pinned_file_round_trips_byte_for_byte(self, tmp_path):
        pinned = ROOT / "tests" / "data" / "pinned_desk.csv"
        write_series_csv(read_series_csv(pinned), tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == pinned.read_bytes()


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

    @pytest.mark.parametrize(
        "edits, line, message",
        [
            ({"record_stride": "record_strid"}, 17, "unknown key [solver] record_strid"),
            ({"true": "true\n\n[extra]\nfoo = 1"}, 23, "unknown section [extra]"),
            ({"[experiment]": "[DEFAULT]\nm = 5\n[experiment]"}, 1, "unknown section [DEFAULT]"),
            ({"[experiment]": "[Experiment]"}, 1, "unknown section [Experiment]"),
            ({"mu = 1e-5": "mu = 1e-5\neps = 0.1"}, 15, "[solver] eps is only valid with mu"),
            ({"mu = 1e-5": "mu: nan"}, 14, "[solver] mu must be positive and finite, got nan"),
            ({"mu = 1e-5": "MU : nan  # comment"}, 14, "[solver] mu must be positive"),
            (
                {"= unconstrained": "= constrained", "true": f"true\n{BALL_WITH_CENTRE}"},
                23,
                "unknown set kind 'ball'",
            ),
            (
                {"= unconstrained": "= constrained", "true": f"true\n{WHOLE_SPACE}"},
                23,
                "unknown set kind 'whole_space'",
            ),
            (
                {"= unconstrained": "= constrained", "true": f"true\n{BOX_WITH_RADIUS}"},
                26,
                "unknown key [set] radius",
            ),
            (
                {"= unconstrained": "= constrained", "true": f"true\n{BOX_BAD_LOWER}"},
                24,
                "[set] lower must be a number or a list of numbers, got '-0.5x'",
            ),
            (
                {"= unconstrained": "= constrained", "true": f"true\n{BOX_SHORT_UPPER}"},
                25,
                "[set] upper has 2 entries, expected 1 or 8",
            ),
            # each value is judged by the rule of its kind in zopt.rng, under
            # its key's name
            (
                {"num_runs = 3": "num_runs = 0"},
                3,
                "[experiment] num_runs must be an integer >= 1, got 0",
            ),
            (
                {"num_iters = 200": "num_iters = soon"},
                16,
                "[solver] num_iters must be an integer >= 0, got 'soon'",
            ),
            (
                {"noise_std = 0.1": "noise_std = -1"},
                10,
                "[problem] noise_std must be nonnegative and finite, got -1.0",
            ),
            (
                {"problem_seed = 7": f"problem_seed = {2**64}"},
                11,
                f"[problem] problem_seed must be a 64-bit unsigned integer, got {2**64}",
            ),
            (
                {"step_size = theorem": "step_size = fast"},
                15,
                "[solver] step_size must be positive and finite, got 'fast'",
            ),
            # a count past 2**53, the library's count rule, and an empty output
            # path: each used to load, and the run ended in a traceback
            ({"num_runs = 3": f"num_runs = {BIG}"}, 3, f"[experiment] num_runs {PAST_53}"),
            ({"n = 8": f"n = {BIG}"}, 9, f"[problem] n {PAST_53}"),
            ({"num_iters = 200": f"num_iters = {BIG}"}, 16, f"[solver] num_iters {PAST_53}"),
            (
                {"record_stride = 50": f"record_stride = {BIG}"},
                17,
                f"[solver] record_stride {PAST_53}",
            ),
            (
                {"csv_path = out.csv": "csv_path ="},
                20,
                "[outputs] csv_path must be a non-empty path",
            ),
            ({"true": "true\nsvg_path ="}, 22, "[outputs] svg_path must be a non-empty path"),
        ],
    )
    def test_unknown_or_misplaced_entry_is_line_anchored(
        self, tmp_path, capsys, edits, line, message
    ):
        text = GOOD_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.line == line
        assert str(err.value).startswith(f"{path}:{line}: {message}")
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"{err.value}\n"

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
        text += "\n[set]\nkind = box\nlower = -0.5e308\nupper = 0.5e308\n"
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="finite-diameter"):
            load_config(path)

    def test_set_of_any_dimension_loads_without_allocating(self, tmp_path):
        # one n-vector at n = 10**12 would need 8 TB: scalar values are
        # checked as scalars, so loading takes the same memory at any n
        text = GOOD_CONFIG.replace("scenario = unconstrained", "scenario = constrained")
        path = tmp_path / "exp.cfg"
        set_section = "[set]\nkind = box\nlower = -0.5\nupper = 0.5\n"
        path.write_text(text.replace("n = 8", f"n = {10**12}") + "\n" + set_section)
        tracemalloc.start()
        try:
            cfg = load_config(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.n == 10**12
        assert peak < 10**6

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

    @pytest.mark.parametrize(
        "seed, refused",
        [
            (-5, "[problem] problem_seed must be a 64-bit unsigned integer, got -5"),
            (2**64 - 1, f"[experiment] x0_seed must be a 64-bit unsigned integer, got {2**64}"),
            # the 3 runs use seeds v + 2 .. v + 4
            (
                2**64 - 4,
                "[experiment] run_seed_base + num_runs - 1 must be a 64-bit unsigned "
                f"integer, got {2**64}",
            ),
        ],
    )
    def test_seed_override_out_of_range(self, seed, refused):
        with pytest.raises(ConfigError) as err:
            apply_seed_override(small_config(), seed)
        assert str(err.value) == f"seed override {seed}: {refused}"

    def test_shipped_configs_parse(self):
        import pathlib

        config_dir = pathlib.Path(__file__).parent.parent / "configs"
        paths = sorted(config_dir.glob("*.cfg"))
        assert len(paths) >= 4
        for path in paths:
            cfg = load_config(path)
            assert cfg.scenario in ("unconstrained", "constrained")

    def test_benchmark_configs_load(self, tmp_path, monkeypatch):
        # the benchmark writes its own configs; the loader must accept each
        workloads = load_perfbench("workloads", monkeypatch)
        experiments = [w for w in workloads.WORKLOADS.values() if w.kind == "experiment"]
        assert experiments
        for workload in experiments:
            for scale in workload.sizes:
                work = tmp_path / f"{workload.name}-{scale}"
                work.mkdir()
                full, setup = workload.write_configs(work, workloads.DEFAULT_SEED, scale)
                assert load_config(full).num_iters == workload.num_iters(scale)
                assert load_config(setup).num_iters == 0

    def test_benchmark_tracer_hooks_every_layer(self, tmp_path, monkeypatch):
        # the per-layer benchmark wraps zopt callables by name, so a rename or
        # a signature change in src/ must fail here, not only in its smoke test
        workloads = load_perfbench("workloads", monkeypatch)
        monkeypatch.setattr(sys, "path", list(sys.path))  # tracing.py prepends src/
        tracing = load_perfbench("tracing", monkeypatch)
        spec = workloads.WORKLOADS["con_box_n40"]
        full, _ = spec.write_configs(tmp_path, workloads.DEFAULT_SEED, "tiny")
        original = harness._execute_run
        tracer, patches = tracing.Tracer(), tracing.Patches()
        tracing.install(tracer, patches)
        try:
            assert workloads.run_experiment(full, tmp_path / "run", jobs=1) == 0
            assert workloads.run_verify(workloads.DEFAULT_SEED, "tiny", tmp_path)["rc"] == 0
        finally:
            patches.restore()
        assert harness._execute_run is original
        layers = ("oracle.eval", "rng.draw", "sets.contains", "problems.f", "analysis.sigma_hook")
        # the Monte Carlo points' directions must be drawn through the traced
        # analysis.sample_directions, block by block
        for name in (*layers, "rng.draw_batch", "analysis.probe_deviation"):
            assert tracer.calls[name] > 0, name
        # one block at jobs 1: the loop layer counts its iterations once, and
        # the overlay is called once per iteration through the traced keyword
        assert tracer.counts["iters"] == load_config(full).num_iters
        assert tracer.calls["analysis.sigma_hook"] == load_config(full).num_iters + 1

    def test_readme_config_block_names_exactly_the_schema_keys(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        parsed = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
        parsed.read_string(block)
        keys = {(section, key) for section in parsed.sections() for key in parsed[section]}
        set_keys = {("set", key) for key in SET_KEYS}
        assert keys == set(harness.CONFIG_SCHEMA) | set_keys
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert load_config(path).scenario == "constrained"


U64_PAST = f"must be a 64-bit unsigned integer, got {2**64}"
BOX = {"kind": "box", "lower": "-0.5", "upper": "0.5"}


def must_not_be_called(*args, **kwargs):
    raise AssertionError("called after a refusal")


class TestRulesSpanningKeys:
    # A config built in code meets the rules a file meets: run_experiment
    # refuses it with the file's message, before it builds anything
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"eps": 0.1}, "[solver] eps is only valid with mu = auto"),
            ({"mu": None}, "[solver] eps is required when mu = auto"),
            ({"set_spec": BOX}, "[set] is only valid for the constrained scenario"),
            ({"scenario": "constrained"}, "constrained scenario requires a [set] section"),
            ({"m": 9}, "n must be >= m, got m=9, n=8"),
            ({"problem_seed": 2**64}, f"[problem] problem_seed {U64_PAST}"),
            ({"x0_seed": 2**64}, f"[experiment] x0_seed {U64_PAST}"),
            # the two runs use seeds run_seed_base and run_seed_base + 1
            (
                {"run_seed_base": 2**64 - 1},
                f"[experiment] run_seed_base + num_runs - 1 {U64_PAST}",
            ),
            (
                {"run_seed_base": -1},
                "[experiment] run_seed_base must be a 64-bit unsigned integer, got -1",
            ),
            (
                {"scenario": "constrained", "set_spec": {"kind": "ball", "radius": "1"}},
                "unknown set kind 'ball'",
            ),
            (
                {"scenario": "constrained", "set_spec": {**BOX, "lower": "-0.5x"}},
                "[set] lower must be a number or a list of numbers, got '-0.5x'",
            ),
            (
                {"scenario": "constrianed"},
                "[experiment] scenario must be one of unconstrained | constrained, "
                "got 'constrianed'",
            ),
        ],
        ids=[
            "mu-and-eps", "auto-mu-without-eps", "unconstrained-with-set",
            "constrained-without-set", "m-above-n", "problem-seed", "x0-seed",
            "last-run-seed", "first-run-seed", "ball", "bad-bound", "misspelled-scenario",
        ],
    )
    def test_config_built_in_code_is_refused_with_the_file_message(
        self, monkeypatch, fields, message
    ):
        monkeypatch.setattr(harness, "make_least_squares", must_not_be_called)
        monkeypatch.setattr(harness, "_execute_run", must_not_be_called)
        with pytest.raises(ConfigError) as err:
            run_experiment(small_config(num_runs=2, **fields), jobs=1)
        assert str(err.value) == message
        assert err.value.line is None

    @pytest.mark.parametrize("key, value", [("m", None), ("n", "8"), ("n", 8.0)])
    def test_m_and_n_meet_the_instance_rule_before_they_are_compared(
        self, monkeypatch, key, value
    ):
        # make_least_squares's own message, not a TypeError from n < m
        monkeypatch.setattr(harness, "make_least_squares", must_not_be_called)
        with pytest.raises(ValueError, match=f"^{key} must be an integer >= 1, got {value!r}$"):
            run_experiment(small_config(**{key: value}), jobs=1)

    def test_svg_path_without_iterations_is_refused_at_its_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        text = GOOD_CONFIG.replace("num_iters = 200", "num_iters = 0")
        path.write_text(text + "svg_path = out.svg\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        line = len(text.splitlines()) + 1
        assert err.value.line == line
        assert str(err.value) == (
            f"{path}:{line}: [outputs] svg_path needs [solver] num_iters >= 1 "
            "(a log-log chart needs k > 0)"
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 40, 1000])
    def test_spec_and_built_box_agree_on_finiteness_at_the_largest_float(self, n):
        # run_experiment takes the built box's diameter as finite because the
        # spec's is: at the largest uniform width w whose w * sqrt(n) is
        # finite, and at the next float up, both fall back to w * sqrt(n)
        root = math.sqrt(n)
        width = sys.float_info.max / root
        while math.isinf(width * root):
            width = math.nextafter(width, 0.0)
        while math.isfinite(math.nextafter(width, math.inf) * root):
            width = math.nextafter(width, math.inf)
        for w, finite in ((width, True), (math.nextafter(width, math.inf), False)):
            spec = {"kind": "box", "lower": "0", "upper": repr(w)}
            assert math.isfinite(spec_diameter(spec, n)) is finite
            assert math.isfinite(set_from_spec(spec, n).diameter()) is finite


class TestEmptyPathFlags:
    # --csv and --out-dir meet the config's non-empty path rule, before any
    # check or run starts
    def test_verify_csv(self, tmp_path, capsys, monkeypatch):
        from zopt import analysis

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(analysis, "verify_oracle_inequalities", must_not_be_called)
        assert main(["verify", "--probes", "5", "--samples", "50", "--csv", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err == "--csv must be a non-empty path\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_run_out_dir(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(GOOD_CONFIG)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setattr(harness, "make_least_squares", must_not_be_called)
        assert main(["run", "--config", str(cfg), "--out-dir", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err == "--out-dir must be a non-empty path\n"
        assert captured.out == ""
        assert list(work.iterdir()) == []


class TestBenchmarkDigests:
    # The benchmark checks each workload's output against perfbench/digests.json;
    # at the tiny scale that check also runs here, in-process: the 25-run
    # sigma^2 sum of con_box_n40 and the verify margins of verify_n100 among it.
    @pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
    def test_tiny_scale_output_matches_the_recorded_digest(self, tmp_path, monkeypatch, name):
        workloads = load_perfbench("workloads", monkeypatch)
        recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
        spec = workloads.WORKLOADS[name]
        out = tmp_path / "out"
        if spec.kind == "experiment":
            full, _ = spec.write_configs(tmp_path, workloads.DEFAULT_SEED, "tiny")
            assert workloads.run_experiment(full, out, jobs=1) == 0
            output = out / "run.csv"
        else:
            out.mkdir()
            assert workloads.run_verify(workloads.DEFAULT_SEED, "tiny", out)["rc"] == 0
            output = out / "checks.csv"
        digest = hashlib.sha256(output.read_bytes()).hexdigest()
        assert digest == recorded["tiny"][name]


# A valid constrained config; the property test below overrides, deletes or
# splices into it so that most examples get past the syntax check.
FUZZ_BASE = {
    "experiment": {"scenario": "constrained", "num_runs": "3", "run_seed_base": "100"},
    "problem": {"m": "2", "n": "3", "noise_std": "0.1", "problem_seed": "7"},
    "solver": {"mu": "auto", "eps": "0.1", "step_size": "theorem", "num_iters": "20"},
    "set": {"kind": "box", "lower": "-0.5", "upper": "0.5"},
    "outputs": {"csv_path": "out.csv", "bound_overlay": "true"},
}
# every key the loader reads: the schema table and the box's [set] keys
SET_FIELDS = [("set", key) for key in SET_KEYS]
FUZZ_FIELDS = [*harness.CONFIG_SCHEMA, *SET_FIELDS]
# keys the loader must reject: misspellings, keys in the wrong section, and
# sections it does not know (configparser treats [DEFAULT] specially)
SCHEMA_SECTIONS = list(dict.fromkeys(section for section, _ in harness.CONFIG_SCHEMA))
STRAY_FIELDS = [(section, key + "s") for section, key in FUZZ_FIELDS]
STRAY_FIELDS += [(section, key[:-1]) for section, key in FUZZ_FIELDS if len(key) > 1]
STRAY_FIELDS += [
    (SCHEMA_SECTIONS[(SCHEMA_SECTIONS.index(section) + 1) % len(SCHEMA_SECTIONS)], key)
    for section, key in harness.CONFIG_SCHEMA
]
STRAY_FIELDS += [
    (section, "num_iters") for section in ("DEFAULT", "Experiment", "SOLVER", "extra", "sets")
]
# Numbers come only from this list and from small integers: a free-text
# value such as "99999999999" as n would make the set check in load_config
# materialise n-vectors, which is a memory cost, not a parsing property.
AWKWARD_VALUES = [
    "nan", "-nan", "inf", "-inf", "1e999", "auto", "suggest", "theorem", "",
    "-1", "0", "1e-5", "0.5", "-0.5,0.5", "box", "ball", "whole_space",
    "unconstrained", "constrained", "true", "maybe",
    str(2**63), str(2**64 - 1), str(2**64), str(10**30), "9" * 5000,
]
fuzz_values = st.one_of(
    st.sampled_from(AWKWARD_VALUES),
    st.integers(min_value=-3, max_value=40).map(str),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12),
    st.none(),
)


@st.composite
def fuzz_config_text(draw):
    sections = {name: dict(keys) for name, keys in FUZZ_BASE.items()}
    if draw(st.booleans()):
        sections["experiment"]["scenario"] = "unconstrained"
        del sections["set"]
    fields = draw(st.lists(st.sampled_from(FUZZ_FIELDS), max_size=5, unique=True))
    fields += draw(st.lists(st.sampled_from(STRAY_FIELDS), max_size=1))
    for section, key in fields:
        value = draw(fuzz_values)
        if value is None:
            sections.get(section, {}).pop(key, None)
        else:
            sections.setdefault(section, {})[key] = value
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


@st.composite
def spliced_bytes(draw):
    data = draw(fuzz_config_text()).encode("utf-8")
    at = draw(st.integers(min_value=0, max_value=len(data)))
    return data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]


class TestConfigProperty:
    @settings(
        derandomize=True,
        deadline=None,
        max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        data=st.one_of(
            fuzz_config_text().map(lambda text: text.encode("utf-8")),
            spliced_bytes(),
            st.binary(max_size=200),
        )
    )
    def test_any_file_gives_a_config_or_a_config_error(self, tmp_path, data):
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(data)
        try:
            cfg = load_config(path)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)
        # an accepted file holds only keys the loader reads
        parsed = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
        parsed.read_string(data.decode("utf-8"))
        assert not parsed.defaults()
        allowed = {*harness.CONFIG_SCHEMA, *SET_FIELDS}
        fields = {(section, key) for section in parsed.sections() for key in parsed[section]}
        assert fields <= allowed


# Values for a run-level property test: every key of the schema, with reals
# from a fixed list of extremes; tiny sizes keep each run a few milliseconds.
# A count past 2**53, the library's count rule, and an empty output path are
# refused at their line.
EXTREME_REALS = ["1e-300", "1e-8", "1", "1e8", "1e200", "1e300"]
extreme_reals = st.sampled_from(EXTREME_REALS)
seeds = st.integers(min_value=0, max_value=2**64 - 3)
past_count_rule = st.just(BIG)
RUN_VALUES = {
    ("experiment", "scenario"): st.sampled_from(["unconstrained", "constrained"]),
    ("experiment", "num_runs"): st.integers(min_value=1, max_value=3) | past_count_rule,
    ("experiment", "run_seed_base"): seeds,
    ("experiment", "x0_seed"): st.none() | seeds,
    ("problem", "m"): st.integers(min_value=1, max_value=4),
    ("problem", "n"): st.integers(min_value=1, max_value=4) | past_count_rule,
    ("problem", "noise_std"): extreme_reals,
    ("problem", "problem_seed"): seeds,
    ("solver", "mu"): st.just("auto") | extreme_reals,
    ("solver", "eps"): extreme_reals,  # written only with mu = auto
    ("solver", "step_size"): st.just("theorem") | extreme_reals,
    ("solver", "num_iters"): st.integers(min_value=0, max_value=5),
    ("solver", "record_stride"): (
        st.none() | st.integers(min_value=1, max_value=5) | past_count_rule
    ),
    ("outputs", "csv_path"): st.sampled_from([None, "out.csv", ""]),
    ("outputs", "svg_path"): st.sampled_from([None, "out.svg", ""]),
    ("outputs", "bound_overlay"): st.sampled_from(["true", "false"]),
}


@st.composite
def run_config_text(draw):
    """A config of every schema key (an optional key may be left out), plus
    a box [set] with bounds up to +-1e300 when the scenario is constrained."""
    values = {field: draw(RUN_VALUES[field]) for field in harness.CONFIG_SCHEMA}
    values["problem", "m"], values["problem", "n"] = sorted(
        (values["problem", "m"], values["problem", "n"])
    )
    if values["solver", "mu"] != "auto":
        values["solver", "eps"] = None
    sections = {}
    for (section, key), value in values.items():
        if value is not None:
            sections.setdefault(section, {})[key] = value
    if values["experiment", "scenario"] == "constrained":
        lower = draw(st.sampled_from([f"-{v}" for v in EXTREME_REALS] + EXTREME_REALS))
        sections["set"] = {"kind": "box", "lower": lower, "upper": draw(extreme_reals)}
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


class TestRunProperty:
    @settings(
        derandomize=True,
        deadline=None,
        max_examples=150,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=run_config_text())
    def test_every_config_ends_in_a_result_or_one_line(self, tmp_path, capsys, text):
        capsys.readouterr()
        path = tmp_path / "run.cfg"
        path.write_text(text)
        # an exception escaping main would be a traceback on the command line
        rc = main(["run", "--config", str(path), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc in (0, 1, 2)
        assert "Traceback" not in err
        if rc == 2:
            *before, error = err.splitlines()
            assert all(line.startswith("  warning: ") for line in before), err
            assert not error.startswith("  warning: "), err


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
        assert same_csv(loaded, series, tmp_path)

    def test_worker_count_does_not_change_results(self, tmp_path):
        cfg = small_config(num_iters=150, num_runs=4)
        a = run_experiment(cfg, jobs=1)
        b = run_experiment(cfg, jobs=3)
        assert same_csv(a, b, tmp_path)

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

    def test_constrained_overlay_stays_above_its_floor(self):
        # the c11 candidate has sigma^2 >= 2 (n + 4) ||grad||^2, and the
        # unconstrained PL inequality gives ||grad||^2 >= 2 pl (f - f_star),
        # since the unconstrained minimum is at most f_star: the term
        # sum sigma^2 / (pl (N + 1)) alone is at least 4 (n + 4) gap
        n = 8
        box = {"kind": "box", "lower": "-0.5", "upper": "0.5"}
        cfg = small_config(scenario="constrained", set_spec=box, num_iters=500, num_runs=4)
        series = run_experiment(cfg, jobs=1)
        assert series.metadata["n"] == str(n)
        assert np.all(series.bound_rhs >= 4 * (n + 4) * series.running_avg_gap)

    def test_degenerate_single_run_zero_iters(self, tmp_path):
        cfg = small_config(num_runs=1, num_iters=0, record_stride=1, csv_path="d.csv")
        series = run_experiment(cfg, out_dir=str(tmp_path))
        assert len(series.ks) == 1
        problem = make_least_squares(3, 8, 0.1, 7)
        from zopt.rng import substream

        x0 = substream(9, 0).standard_normal(8)
        assert series.mean_f[0] == problem.objective(x0)
        assert same_csv(read_series_csv(tmp_path / "d.csv"), series, tmp_path)

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

    def test_stored_values_gate(self):
        # runs * (iterations + 1) is the size of the sigma overlay's rows, the
        # only per-iteration values a worker stores; the gate counts it for
        # every run, so n = 1 does not make 10**8 iterations cheap
        cfg = small_config(num_iters=10**8, num_runs=1, n=1, m=1)
        assert cfg.num_iters * cfg.num_runs * cfg.n <= harness.FULL_GATE_COST
        with pytest.raises(FullRunRequired, match=r"runs \* \(iterations \+ 1\).*--full"):
            run_experiment(cfg, jobs=1, full=False)

    def test_stored_values_gate_leaves_shipped_and_benchmark_configs_alone(
        self, tmp_path, monkeypatch
    ):
        workloads = load_perfbench("workloads", monkeypatch)
        paths = sorted((ROOT / "configs").glob("*.cfg"))
        for workload in workloads.WORKLOADS.values():
            if workload.kind == "experiment":
                for scale in workload.sizes:
                    work = tmp_path / f"{workload.name}-{scale}"
                    work.mkdir()
                    paths.extend(workload.write_configs(work, workloads.DEFAULT_SEED, scale))
        for path in paths:
            cfg = load_config(path)
            assert cfg.num_runs * (cfg.num_iters + 1) <= harness.FULL_GATE_VALUES, path

    @pytest.mark.parametrize("wall_at", [None, 60], ids=["all-finish", "run-2-diverges"])
    def test_block_size_does_not_change_any_run(self, wall_at):
        # the same seven runs as one block and as seven blocks of one:
        # checkpoint rows and sigma^2 byte for byte, on the projected path
        # with the sigma hook; tests/test_solvers.py::TestBlocks holds each
        # block's RunRecords to a run computed alone.  With wall_at, run 2's
        # own x_60 is a wall, so it really diverges there and the sigma hook
        # sees its NaN row from then on.
        problem = make_least_squares(10, 40, 0.1, 202)
        box = harness.set_from_spec({"kind": "box", "lower": "-0.5", "upper": "0.5"}, 40)
        x0 = box.project(np.random.default_rng(88).standard_normal(40))
        f_star = harness.constrained_opt_value(problem, box)
        solvers = tuple(
            SolverConfig(
                oracle=OracleConfig(mu=1e-4, seed=9000 + i),
                step_size=1.0 / problem.lip_const,
                num_iters=200,
                record_stride=50,
            )
            for i in range(7)
        )
        if wall_at is not None:
            visited = []
            projected_random_search(
                problem.objective, box, x0, solvers[2],
                on_iterate=lambda k, x: visited.append(x.copy()),
            )
            wall, objective = visited[wall_at].tobytes(), problem.objective
            problem = types.SimpleNamespace(
                objective=lambda x: math.inf if x.tobytes() == wall else objective(x),
                grad=problem.grad,
                dim=problem.dim,
                lip_const=problem.lip_const,
            )

        def execute(block):
            task = harness._RunTask(problem, x0, block, box, collect_sigma=True, f_star=f_star)
            return harness._execute_run(task)

        together = execute(solvers)
        num_checkpoints = len(checkpoint_grid(200))
        for i, (solver, summary) in enumerate(zip(solvers, together, strict=True)):
            if wall_at is not None and i == 2:
                assert isinstance(summary, DivergenceError) and summary.iteration == wall_at
                continue
            (alone,) = execute((solver,))
            for name in ("f", "best_f", "gap"):
                assert getattr(summary, name).shape == (num_checkpoints,)
                assert getattr(summary, name).tobytes() == getattr(alone, name).tobytes()
            assert summary.num_iters == alone.num_iters == 200
            assert summary.f_star == alone.f_star == f_star
            assert summary.feasibility_violations == alone.feasibility_violations
            assert summary.sigma_sq.shape == (201,)
            assert summary.sigma_sq.tobytes() == alone.sigma_sq.tobytes()

    def test_hand_off_holds_checkpoint_rows_only(self):
        # a worker hands back its runs' rows at the ~80 checkpoints, not their
        # dense f values, which pickle to 1.6 MB for two runs of 100000
        # iterations
        problem = make_least_squares(6, 24, 0.1, 31)
        solvers = tuple(
            SolverConfig(
                oracle=OracleConfig(mu=1e-6, seed=900 + i),
                step_size=harness.theorem_step_size("unconstrained", 24, problem.lip_const),
                num_iters=100_000,
                record_stride=1000,
            )
            for i in range(2)
        )
        x0 = np.random.default_rng(17).standard_normal(24)
        task = harness._RunTask(
            problem, x0, solvers, None, collect_sigma=False, f_star=problem.opt_value
        )
        result = harness._execute_run(task)
        assert len(pickle.dumps(result)) < 64 * 1024

    def test_worker_memory_does_not_grow_with_num_iters(self):
        # a worker that kept each run's dense f values held 144 KB more for
        # two runs of 10000 iterations than for two of 1000 (tracemalloc
        # makes each iteration about ten times slower, so the runs are short)
        problem = make_least_squares(6, 24, 0.1, 31)
        x0 = np.random.default_rng(17).standard_normal(24)
        peaks = []
        for num_iters in (1000, 10_000):
            solvers = tuple(
                SolverConfig(
                    oracle=OracleConfig(mu=1e-6, seed=900 + i),
                    step_size=harness.theorem_step_size("unconstrained", 24, problem.lip_const),
                    num_iters=num_iters,
                    record_stride=num_iters // 10,
                )
                for i in range(2)
            )
            task = harness._RunTask(
                problem, x0, solvers, None, collect_sigma=False, f_star=problem.opt_value
            )
            tracemalloc.start()
            try:
                harness._execute_run(task)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 16 * 1024, peaks

    def test_partial_divergence_keeps_going(self, monkeypatch):
        # run 1 of 12 diverges.  On the constrained path the sigma overlay
        # must then average the other 11 rows, summed in run order: stacked
        # C-contiguously they are the reference, and over that many rows
        # numpy's axis-0 mean gives other bits on another layout.
        def sabotaged(search):
            def run(*args, **kwargs):
                block = search(*args, **kwargs)
                for i, solver in enumerate(args[-1]):
                    if solver.oracle.seed == 101:  # run 1: run_seed_base is 100
                        block.outcomes[i] = DivergenceError(7, 1.5, "synthetic failure")
                return block

            return run

        original = harness._execute_run
        executed = []

        def recording_execute_run(task):
            outcomes = original(task)
            executed.append(outcomes)
            return outcomes

        sigma_seqs = []

        def recording_aggregate(records, bound_inputs=None, **kwargs):
            sigma_seqs.append(bound_inputs.sigma_seq)
            return aggregate(records, bound_inputs=bound_inputs, **kwargs)

        for name in ("random_search", "projected_random_search"):
            monkeypatch.setattr(harness, name, sabotaged(getattr(harness, name)))
        monkeypatch.setattr(harness, "_execute_run", recording_execute_run)
        monkeypatch.setattr(harness, "aggregate", recording_aggregate)
        for scenario, set_spec in (
            ("unconstrained", None),
            ("constrained", {"kind": "box", "lower": "-0.5", "upper": "0.5"}),
        ):
            executed.clear()
            cfg = small_config(num_iters=100, num_runs=12, scenario=scenario, set_spec=set_spec)
            series = run_experiment(cfg, jobs=1)
            assert series.num_runs == 11
            assert series.metadata["diverged_runs"] == "1"
            assert series.metadata["completed_runs"] == "11"
            assert series.diverged_at == {1: 7}
            (outcomes,) = executed
            # the diverged run comes back as its error alone, with no sigma row
            assert isinstance(outcomes[1], DivergenceError)
            finished = [o for i, o in enumerate(outcomes) if i != 1]
            assert all(isinstance(o, harness._RunSummary) for o in finished)
            if scenario == "unconstrained":
                assert all(o.sigma_sq is None for o in finished)
        finished_rows = [o.sigma_sq for o in finished]
        expected = np.sqrt(np.stack(finished_rows).mean(axis=0))
        assert sigma_seqs[-1].tobytes() == expected.tobytes()

    def test_all_diverged_raises(self):
        cfg = small_config(step_size=1e12, num_iters=100, num_runs=2, bound_overlay=False)
        with pytest.raises(RuntimeError, match="every run diverged"):
            run_experiment(cfg, jobs=1)

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError, match="num_runs must be an integer >= 1, got 0"):
            run_experiment(small_config(num_runs=0), jobs=1)

    def test_programmatic_config_rejects_infinite_diameter(self):
        box = {"kind": "box", "lower": "-1e308", "upper": "1e308"}
        cfg = small_config(scenario="constrained", set_spec=box)
        # a config built in code has no path to name
        message = "^constrained scenario requires a finite-diameter set$"
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg, jobs=1)

    def test_run_time_diameter_error_names_the_config(self):
        cfg = small_config(
            scenario="constrained",
            set_spec={"kind": "box", "lower": "-1e308", "upper": "1e308"},
            source_path="exp.cfg",
        )
        with pytest.raises(ConfigError, match=r"^exp\.cfg: constrained scenario requires"):
            run_experiment(cfg, jobs=1)

    def test_oversized_projected_step_warns(self):
        lip = make_least_squares(3, 8, 0.1, 7).lip_const
        box = {"kind": "box", "lower": "-0.5", "upper": "0.5"}
        kwargs = {"scenario": "constrained", "set_spec": box, "num_iters": 5, "num_runs": 2}
        with pytest.warns(UserWarning, match="step size"):
            run_experiment(small_config(step_size=10.0 / lip, **kwargs), jobs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(small_config(step_size=1.0 / lip, **kwargs), jobs=1)

    def test_auto_mu_without_finite_iteration_count_rejected(self):
        cfg = small_config(mu=None, eps=1e-320)
        with pytest.raises(ConfigError, match=r"mu = auto: .*finite iteration count"):
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


class TestPinnedConstrainedBits:
    # The projected path pinned to the bit, like tests/data/pinned_desk.csv
    # for the unconstrained one: box projection, feasibility check, sigma
    # hook and bound_rhs all reach this CSV.
    def test_box_csv_digest(self, tmp_path):
        cfg = small_config(
            scenario="constrained",
            m=10,
            n=40,
            problem_seed=202,
            num_iters=300,
            record_stride=50,
            num_runs=4,
            run_seed_base=9000,
            x0_seed=88,
            mu=None,
            eps=0.1,
            set_spec={"kind": "box", "lower": "-0.5", "upper": "0.5"},
            csv_path="box.csv",
        )
        for jobs in (1, 2, 8):
            out_dir = tmp_path / f"j{jobs}"
            series = run_experiment(cfg, jobs=jobs, out_dir=str(out_dir))
            assert series.metadata["feasibility_violations"] == "0"
            digest = hashlib.sha256((out_dir / "box.csv").read_bytes()).hexdigest()
            assert digest == "65352adf05fa59d783a6db246a294a4054882c72d00137575722286cbecb3186"


PINNED_BOX_CONFIG = """\
[experiment]
scenario = constrained
num_runs = 4
run_seed_base = 9000
x0_seed = 88

[problem]
m = 10
n = 40
noise_std = 0.1
problem_seed = 202

[solver]
mu = auto
eps = 0.1
step_size = theorem
num_iters = 300
record_stride = 50

[set]
kind = box
lower = -0.5
upper = 0.5

[outputs]
csv_path = box.csv
bound_overlay = true
"""


class TestBlasThreadCount:
    # The bytes must not depend on the BLAS thread count either.  Each child
    # runs `zopt run` on the pinned desk config and on the config of
    # TestPinnedConstrainedBits; only its OPENBLAS_NUM_THREADS differs.  The
    # host this was written on has two cores, so counts above 2 are untested.
    CHILD = (
        "import sys; from zopt.cli import main; "
        "sys.exit(max(main(['run', '--config', c, '--out-dir', sys.argv[1]]) "
        "for c in sys.argv[2:]))"
    )

    def test_pinned_outputs_at_one_and_two_threads(self, tmp_path):
        box_cfg = tmp_path / "box.cfg"
        box_cfg.write_text(PINNED_BOX_CONFIG)
        configs = [str(ROOT / "tests" / "data" / "pinned_desk.cfg"), str(box_cfg)]
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
            )
            out_dir = tmp_path / f"t{threads}"
            proc = subprocess.run(
                [sys.executable, "-c", self.CHILD, str(out_dir), *configs],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = tuple(
                (out_dir / name).read_bytes() for name in ("pinned_desk.csv", "box.csv")
            )
        assert outputs["1"] == outputs["2"]
        desk, box = outputs["1"]
        assert desk == (ROOT / "tests" / "data" / "pinned_desk.csv").read_bytes()
        assert hashlib.sha256(box).hexdigest() == (
            "65352adf05fa59d783a6db246a294a4054882c72d00137575722286cbecb3186"
        )

    # The verify checks stream their samples and probes in blocks; at
    # (m, n) = (20, 100), 10240 samples fill 20 blocks of 512 and 2600
    # probes make 21 blocks of 123 or 124.  The expected text is what one
    # gemm over all the samples of a point and one probe at a time give.
    VERIFY_CHILD = (
        "from zopt import analysis, problems, sets; from zopt.oracle import OracleConfig; "
        "p = problems.make_least_squares(20, 100, 0.1, 0); "
        "box = sets.Box(-0.5, 0.5, dim=100); "
        "r = analysis.verify_oracle_inequalities(p, box, OracleConfig(mu=1e-3, seed=0), "
        "num_probes=2600, num_samples=10240, seed=0); "
        "print(*r.csv_rows(), sep='\\n'); "
        "print(analysis.check_proximal_pl(p, box, num_points=2600, seed=0))"
    )
    VERIFY_EXPECTED = (
        "check,trials,violations,margin\n"
        "projection_inner_product,2600,0,15816.441956508672\n"
        "jensen_ordering,4,0,1249.3500126180443\n"
        "deviation_norm_bound,4,0,4119.991829037606\n"
        "projected_decrease_bound,4,0,53109891.443358116\n"
        "DominanceReport(min_ratio=121.17405133279495, below_unconstrained=0, "
        "evaluated=2600, skipped=0, opt_value=28.017986976513296, "
        "pl_const_unconstrained=74.92665380022684)\n"
    )

    def test_streamed_verify_at_one_and_two_threads(self):
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
            )
            proc = subprocess.run(
                [sys.executable, "-c", self.VERIFY_CHILD],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = proc.stdout
        assert outputs["1"] == outputs["2"] == self.VERIFY_EXPECTED
