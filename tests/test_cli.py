import dataclasses
import errno
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from zopt import analysis, harness
from zopt.cli import main
from zopt.harness import read_series_csv
from zopt.solvers import suggest_params, theorem_step_size

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).parent / "data"

RUN_CONFIG = """\
[experiment]
scenario = unconstrained
num_runs = 2
run_seed_base = 300
x0_seed = 5

[problem]
m = 3
n = 8
noise_std = 0.1
problem_seed = 21

[solver]
mu = 1e-5
step_size = theorem
num_iters = 150
record_stride = 50

[outputs]
csv_path = cli_out.csv
"""
# RUN_CONFIG as a projected run on a box
BOX_RUN_CONFIG = RUN_CONFIG.replace("scenario = unconstrained", "scenario = constrained") + (
    "\n[set]\nkind = box\nlower = -0.5\nupper = 0.5\n"
)
# a count just past 2**53, the largest the library's count rule takes
BIG = 2**53 + 1
# a device on which every write fails with ENOSPC, although opening it works
DEV_FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(not os.path.exists(DEV_FULL), reason="needs /dev/full")
NO_SPACE = os.strerror(errno.ENOSPC)


def _child_env() -> dict:
    """The environment of a child `python -m zopt.cli`, importing this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class TestSuggest:
    def test_matches_library_values(self, capsys):
        rc = main(
            [
                "suggest",
                "--mode",
                "unc",
                "--eps",
                "0.1",
                "--n",
                "50",
                "--lip",
                "4.0",
                "--pl",
                "1.5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        mu, n_iters = suggest_params("unconstrained", 0.1, 50, 4.0, 1.5)
        assert f"mu: {mu:.6g}" in out
        assert f"num_iters: {n_iters}" in out
        assert f"step_size: {theorem_step_size('unconstrained', 50, 4.0):.6g}" in out

    def test_constrained_needs_diameter(self, capsys):
        rc = main(
            ["suggest", "--mode", "con", "--eps", "0.1", "--n", "5", "--lip", "2", "--pl", "1"]
        )
        assert rc == 2
        assert capsys.readouterr().err == "--dx is required with --mode con\n"

    @pytest.mark.parametrize(
        "mode, flag, value",
        [
            ("unc", "--lip", "inf"),
            ("unc", "--lip", "nan"),
            ("unc", "--eps", "1e-320"),
            ("unc", "--pl", "1e-320"),
            pytest.param("unc", "--n", str(10**400), id="unc---n-10**400"),
            ("con", "--lip", "1e200"),
            ("con", "--dx", "1e-320"),
            # a divisor that underflows to 0: pl * eps, then d_x * lip**2
            ("unc", "--pl", "5e-324"),
            ("con", "--pl", "5e-324"),
            ("con", "--lip", "1e-200"),
        ],
    )
    def test_non_finite_inputs_or_results_exit_2(self, capsys, mode, flag, value):
        args = {"--eps": "0.1", "--n": "50", "--lip": "4.0", "--pl": "1.5"}
        if mode == "con":
            args["--dx"] = "1.0"
        args[flag] = value
        rc = main(["suggest", "--mode", mode, *(x for item in args.items() for x in item)])
        captured = capsys.readouterr()
        assert rc == 2
        assert len(captured.err.splitlines()) == 1
        # a count past 2**53 is refused by the count rule before any formula
        assert ("n must be an integer <= 2**53" if flag == "--n" else "finite") in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # n lip / (pl eps) overflows
            (
                "--mode unc --eps 1e-320 --n 50 --lip 4 --pl 1.5",
                "--eps=1e-320, --n=50, --lip=4.0, --pl=1.5 give no finite iteration count",
            ),
            # pl eps / (d_x lip**2 (n + 3)**1.5) underflows to 0
            (
                "--mode con --eps 0.1 --n 5 --lip 1e200 --pl 1 --dx 1",
                "--eps=0.1, --n=5, --lip=1e+200, --pl=1.0, --dx=1.0 give no positive finite mu",
            ),
            # suggest_params accepts these, but 1 / (4 (n + 4) lip) underflows to 0
            (
                "--mode unc --eps 100 --n 1 --lip 1e307 --pl 1",
                "--n=1, --lip=1e+307 give no positive finite step size",
            ),
        ],
        ids=["iteration count", "mu", "step size"],
    )
    def test_closed_form_without_a_value_names_the_flags(self, capsys, argv, message):
        assert main(["suggest", *argv.split()]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""


# the one stderr line of a verify run that ends normally
PHASE_TIMES = re.compile(
    r"verify: inequality checks \d+\.\d{3} s, dominance sampler \d+\.\d{3} s\n"
)


class TestVerify:
    def test_reports_zero_violations(self, capsys, tmp_path):
        csv_path = tmp_path / "checks.csv"
        rc = main(
            ["verify", "--probes", "60", "--samples", "600", "--seed", "3", "--csv", str(csv_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "violations=0" in out
        assert "VIOLATED" not in out
        assert csv_path.read_text().startswith("check,trials,violations,margin")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--probes", "0", "--probes must be an integer >= 1, got 0"),
            ("--probes", "-3", "--probes must be an integer >= 1, got -3"),
            ("--samples", "1", "--samples must be an integer >= 2, got 1"),
            # past 2**53, the library's count rule: each used to end in a traceback
            ("--probes", str(BIG), f"--probes must be an integer <= 2**53, got {BIG}"),
            ("--samples", str(BIG), f"--samples must be an integer <= 2**53, got {BIG}"),
        ],
    )
    def test_bad_counts_exit_2(self, capsys, flag, value, message):
        assert main(["verify", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_bad_seed_exits_2(self, capsys, seed):
        assert main(["verify", "--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"--seed must be a 64-bit unsigned integer, got {seed}\n"
        assert captured.out == ""

    def test_unwritable_csv_exits_2_before_any_check(self, capsys, monkeypatch, tmp_path):
        def no_checks(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(analysis, "verify_oracle_inequalities", no_checks)
        (tmp_path / "file").write_text("")
        for csv_path in (tmp_path / "missing" / "x.csv", tmp_path / "file" / "x.csv"):
            assert main(["verify", "--csv", str(csv_path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"--csv {csv_path}: cannot write: ")
            assert len(captured.err.splitlines()) == 1
            assert captured.out == ""

    def test_samples_that_do_not_fit_in_memory_exit_2(self, capsys):
        # a count the rule takes, whose per-sample vectors cannot be
        # allocated: one line, as for a run that does not fit in memory
        assert main(["verify", "--probes", "5", "--samples", str(10**15)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("verify: the checks do not fit in memory: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @needs_dev_full
    def test_csv_that_cannot_be_written_after_the_checks_exits_2(self, capsys):
        # opening /dev/full works, so the up-front check passes; the write
        # fails once the checks are done, and used to end in a traceback
        assert main(["verify", "--probes", "5", "--samples", "50", "--csv", DEV_FULL]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"--csv {DEV_FULL}: cannot write: {NO_SPACE}\n"
        assert captured.out == ""

    def test_top_seed_is_accepted(self, capsys):
        rc = main(["verify", "--probes", "2", "--samples", "20", "--seed", str(2**64 - 1)])
        assert rc in (0, 1)
        assert PHASE_TIMES.fullmatch(capsys.readouterr().err)

    def test_pinned_stdout_and_csv(self, capsys, tmp_path):
        # one run with a Monte Carlo point of twenty sample blocks, pinned to
        # the bit: its check lines on stdout and its CSV bytes
        csv_path = tmp_path / "checks.csv"
        args = ["verify", "--probes", "2500", "--samples", "10000", "--seed", "7"]
        assert main([*args, "--csv", str(csv_path)]) == 0
        expected = (DATA_DIR / "verify_seed7.txt").read_text(encoding="ascii")
        assert capsys.readouterr().out == expected + f"  wrote csv: {csv_path}\n"
        assert csv_path.read_bytes() == (DATA_DIR / "verify_seed7.csv").read_bytes()

    def test_phase_times_go_to_stderr_only(self, capsys, tmp_path, monkeypatch):
        # two runs differ in their phase times only, and those are not on stdout
        monkeypatch.chdir(tmp_path)
        args = ["verify", "--probes", "30", "--samples", "300", "--seed", "5"]
        runs = []
        for name in ("a.csv", "b.csv"):
            assert main([*args, "--csv", name]) == 0
            captured = capsys.readouterr()
            assert PHASE_TIMES.fullmatch(captured.err)
            runs.append((captured.out.replace(name, "x.csv"), (tmp_path / name).read_bytes()))
        assert runs[0] == runs[1]
        assert "verify:" not in runs[0][0]


class TestImportGraph:
    """Only zopt.analysis imports scipy, and only a box run's parent or its
    names load it: a box run's pool workers start before the reference solve
    imports scipy.  Each case runs in a child, since this session has scipy
    already; the child prints whether scipy was loaded before, the result,
    whether it is loaded after, and per block where it ran and whether scipy
    was loaded there."""

    CHILD = """\
import os
import sys
from pathlib import Path

import zopt
from zopt import cli, harness

PARENT = os.getpid()
execute_run = harness._execute_run


def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)


def checked(task):
    where = "parent" if os.getpid() == PARENT else "worker"
    mark = Path(sys.argv[2], f"block-{task.solvers[0].oracle.seed}")
    mark.write_text(f"{where}:{scipy_loaded()}")
    return execute_run(task)


harness._execute_run = checked
before = scipy_loaded()
if sys.argv[1] == "name":
    result = zopt.verify_oracle_inequalities.__module__
else:
    argv = ["run", "--config", sys.argv[1], "--out-dir", sys.argv[2], "--jobs", sys.argv[3]]
    result = cli.main(argv)
blocks = [p.read_text() for p in sorted(Path(sys.argv[2]).glob("block-*"))]
print(before, result, scipy_loaded(), ",".join(blocks))
"""

    @pytest.mark.parametrize(
        "config, jobs, expected",
        [
            (RUN_CONFIG, "1", "False 0 False parent:False"),
            (BOX_RUN_CONFIG, "1", "False 0 True parent:True"),
            (RUN_CONFIG, "2", "False 0 False worker:False,worker:False"),
            (BOX_RUN_CONFIG, "2", "False 0 True worker:False,worker:False"),
            (None, "1", "False zopt.analysis True "),
        ],
        ids=["unconstrained run", "box run", "unconstrained pool run", "box pool run",
             "analysis name"],
    )
    def test_scipy_loads_only_for_the_box_reference(self, tmp_path, config, jobs, expected):
        cfg = tmp_path / "exp.cfg"
        if config is not None:
            cfg.write_text(config)
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, "name" if config is None else str(cfg),
             str(tmp_path), jobs],
            env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == expected


class TestRun:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(RUN_CONFIG)
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "unconstrained experiment" in out
        series = read_series_csv(tmp_path / "cli_out.csv")
        assert series.num_runs == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_diverged_runs_warn_with_their_iteration(self, tmp_path, capsys, jobs):
        # a step near 1 / lip_const: four of the six runs blow up, two converge
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(
            RUN_CONFIG.replace("num_runs = 2", "num_runs = 6").replace(
                "step_size = theorem", "step_size = 0.0562"
            )
        )
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path), "--jobs", jobs])
        captured = capsys.readouterr()
        assert rc == 0
        assert "runs=2/6" in captured.out
        warning = "  warning: diverged runs: 0 (iteration 92), 1 (iteration 103), "
        warning += "4 (iteration 121), 5 (iteration 73)\n"
        assert captured.err == warning
        csv_text = (tmp_path / "cli_out.csv").read_text()
        assert "# diverged_runs = 0,1,4,5\n" in csv_text
        assert "iteration" not in csv_text

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_oversized_projected_step_warns_once(self, tmp_path, jobs):
        # a child process, so that a warning from a pool worker reaches stderr
        # too; it is one line, not Python's file:line form with a source line
        cfg = tmp_path / "steep_box.cfg"
        cfg.write_text(BOX_RUN_CONFIG.replace("step_size = theorem", "step_size = 1.0"))
        proc = subprocess.run(
            [sys.executable, "-m", "zopt.cli", "run", "--config", str(cfg),
             "--out-dir", str(tmp_path), "--jobs", jobs],
            env=_child_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("  warning: step size 1 exceeds 1/lip_const "), line

    def test_oversized_projected_step_warning_comes_before_the_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        execute_run = harness._execute_run
        seen = []

        def first_sees_the_warning(task):
            seen.append(capsys.readouterr().err)
            return execute_run(task)

        monkeypatch.setattr(harness, "_execute_run", first_sees_the_warning)
        cfg = tmp_path / "steep_box.cfg"
        cfg.write_text(BOX_RUN_CONFIG.replace("step_size = theorem", "step_size = 1.0"))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        (before,) = seen
        assert before.startswith("  warning: step size 1 exceeds 1/lip_const ")
        assert before.count("\n") == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    def test_box_whose_diameter_overflows_exits_2_at_its_set(self, tmp_path, capsys):
        # 0.5e308 is finite in one dimension, but the diameter of 40 such
        # widths is past the largest float, so the built box's diameter is
        # inf: loading refuses the [set], and no numpy overflow warning may
        # be raised on the way
        text = BOX_RUN_CONFIG.replace("n = 8", "n = 40")
        text = text.replace("lower = -0.5", "lower = -0.5e308")
        text = text.replace("upper = 0.5", "upper = 0.5e308")
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        line = text.splitlines().index("[set]") + 1
        message = f"{cfg}:{line}: constrained scenario requires a finite-diameter set\n"
        assert captured.err == message
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    def test_box_whose_squared_widths_overflow_runs(self, tmp_path, capsys):
        # the diameter 2e154 is finite although its square is not; on so wide
        # a box a small step keeps the runs from diverging
        text = BOX_RUN_CONFIG.replace("step_size = theorem", "step_size = 0.001")
        text = text.replace("lower = -0.5", "lower = -1e154")
        text = text.replace("upper = 0.5", "upper = 1e154")
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "wrote csv" in captured.out

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(RUN_CONFIG.encode().replace(b"noise_std", b"noise\xffstd"))
        assert main(["run", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{cfg}: cannot read config: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_invalid_config_exits_2_with_location(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(RUN_CONFIG.replace("num_iters = 150", "num_iters = soon"))
        rc = main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{cfg}:" in err
        assert "num_iters" in err

    def test_misspelled_key_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(
            RUN_CONFIG.replace("mu = 1e-5", "mu = 1e-5\neps = 5")
            .replace("record_stride = 50", "record_strid = 7")
            + "bound_overlays = false\n\n[extra]\nnote = 1\n"
        )
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"{cfg}:18: unknown key [solver] record_strid\n"
        assert captured.out == ""
        assert not (tmp_path / "cli_out.csv").exists()

    def test_cost_gate_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(
            RUN_CONFIG.replace("num_iters = 150", "num_iters = 200000")
            .replace("n = 8", "n = 1000")
            .replace("num_runs = 2", "num_runs = 25")
            .replace("m = 3", "m = 100")
        )
        rc = main(["run", "--config", str(cfg)])
        assert rc == 2
        assert "--full" in capsys.readouterr().err

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(RUN_CONFIG)
        monkeypatch.setenv("ZOPT_SEED", "4242")
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ZOPT_SEED=4242" in out
        series = read_series_csv(tmp_path / "cli_out.csv")
        assert series.metadata["problem_seed"] == "4242"
        assert series.metadata["x0_seed"] == "4243"
        assert series.metadata["run_seed_base"] == "4244"

    def test_bad_seed_env_rejected(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(RUN_CONFIG)
        # the rebase sets run_seed_base = v + 2; the 2 runs use seeds v + 2 and v + 3
        for value in ("not-a-number", "-5", str(2**64 - 1), str(2**64 - 3)):
            monkeypatch.setenv("ZOPT_SEED", value)
            assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2, value
            captured = capsys.readouterr()
            assert len(captured.err.splitlines()) == 1, value
            assert "ZOPT_SEED" in captured.err or value in captured.err, value
        assert not (tmp_path / "cli_out.csv").exists()

    def test_jobs_below_one_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(RUN_CONFIG)
        assert main(["run", "--config", str(cfg), "--jobs", "0"]) == 2
        assert capsys.readouterr().err == "--jobs must be an integer >= 1, got 0\n"

    def test_jobs_past_the_count_rule_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(RUN_CONFIG)
        assert main(["run", "--config", str(cfg), "--jobs", str(BIG)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"--jobs must be an integer <= 2**53, got {BIG}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("scenario", ["constrained", "unconstrained"])
    def test_dimension_too_large_to_allocate_exits_2(self, tmp_path, capsys, scenario):
        # 10**15 float64 entries exceed a 47-bit address space, so the m x n
        # matrix fails to allocate at once; the config loads (scalar box
        # bounds stay scalars), and 0 iterations pass the cost gate
        text = RUN_CONFIG.replace("n = 8", f"n = {10**15}")
        text = text.replace("num_iters = 150", "num_iters = 0")
        if scenario == "constrained":
            text = text.replace("scenario = unconstrained", "scenario = constrained")
            text += "\n[set]\nkind = box\nlower = -0.5\nupper = 0.5\n"
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{cfg}: the experiment does not fit in memory: ")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "cli_out.csv").exists()

    @needs_dev_full
    @pytest.mark.parametrize("key", ["csv_path", "svg_path"])
    def test_output_that_cannot_be_written_exits_2(self, tmp_path, capsys, key):
        # the write fails after every run, and used to end in a traceback
        if key == "csv_path":
            text = RUN_CONFIG.replace("csv_path = cli_out.csv", f"csv_path = {DEV_FULL}")
        else:
            text = RUN_CONFIG + f"svg_path = {DEV_FULL}\n"
        cfg = tmp_path / "full.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"cannot write {DEV_FULL}: {NO_SPACE}\n"
        assert captured.out == ""

    def test_zero_iters_with_svg_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            RUN_CONFIG.replace("num_iters = 150", "num_iters = 0") + "svg_path = cli_out.svg\n"
        )
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "svg_path" in err and "num_iters" in err

    @pytest.mark.parametrize("svg_path", ["cli_out.csv", "./cli_out.csv", "sub/../cli_out.csv"])
    @pytest.mark.parametrize("use_out_dir", [True, False])
    def test_csv_and_svg_naming_one_file_exit_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, svg_path, use_out_dir
    ):
        # the chart used to overwrite the CSV, with exit 0
        def no_runs(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "_execute_run", no_runs)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(RUN_CONFIG + f"svg_path = {svg_path}\n")
        out_dir = tmp_path / "out"
        args = ["run", "--config", str(cfg)]
        if use_out_dir:
            args += ["--out-dir", str(out_dir)]
        else:
            out_dir.mkdir()
            monkeypatch.chdir(out_dir)
        assert main(args) == 2
        captured = capsys.readouterr()
        csv_path = out_dir / "cli_out.csv" if use_out_dir else "cli_out.csv"
        message = f"{cfg}: [outputs] csv_path and svg_path name the same file {csv_path}\n"
        assert captured.err == message
        assert captured.out == ""
        assert list(tmp_path.rglob("cli_out*")) == []

    def test_out_dir_under_a_file_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_runs(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "_execute_run", no_runs)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(RUN_CONFIG)
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot create the directory of {out_dir / 'cli_out.csv'}: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_output_path_naming_a_directory_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_runs(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "_execute_run", no_runs)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(RUN_CONFIG)
        out_dir = tmp_path / "out"
        (out_dir / "cli_out.csv").mkdir(parents=True)
        assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"cannot write {out_dir / 'cli_out.csv'}: it is a directory\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "solver, message",
        [
            ("mu = 1e160", "mu=1e+160, n=3, "),
            ("mu = auto\neps = 1e300", "mu=5.228939685074413e+296, n=3, "),
        ],
    )
    def test_overlay_mu_whose_sigma_floor_overflows_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, solver, message
    ):
        # the c11 floor mu^2 L^2 (n + 6)^3 / 2 used to overflow in the sigma
        # hook, inside a block, with an OverflowError traceback; at --jobs 2
        # the refused config must fork no pool worker either
        def no_runs(task):
            raise AssertionError("a run started")

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started")

        monkeypatch.setattr(harness, "_execute_run", no_runs)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        text = BOX_RUN_CONFIG.replace("m = 3", "m = 2").replace("n = 8", "n = 3")
        cfg = tmp_path / "huge_mu.cfg"
        cfg.write_text(text.replace("mu = 1e-5", solver))
        argv = ["run", "--config", str(cfg), "--out-dir", str(tmp_path), "--jobs", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        prefix = f"{cfg}: [solver] mu is too large for the bound overlay: {message}"
        assert captured.err.startswith(prefix)
        assert captured.err.endswith(" give no finite sigma^2\n")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "config, where", [(RUN_CONFIG, ""), (BOX_RUN_CONFIG, " and x0 in the [set] box")]
    )
    def test_non_finite_initial_value_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, config, where
    ):
        # f(x0) overflows: a fault of the config, which used to end as
        # "every run diverged" with exit 1, after three numpy overflow warnings
        def no_runs(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "_execute_run", no_runs)
        cfg = tmp_path / "loud.cfg"
        cfg.write_text(config.replace("noise_std = 0.1", "noise_std = 1e200"))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        message = f"{cfg}: f(x0) = inf is not finite with [problem] noise_std = 1e+200{where}\n"
        assert captured.err == message
        assert captured.out == ""


# Every numeric flag, the kind of value its rule takes, and a valid command
# line it is put into (suggest in --mode con, so that --dx is valid too).
VALID_ARGS = {
    "run": ["--config", "missing.cfg"],
    "suggest": [
        "--mode", "con", "--eps", "0.1", "--n", "5", "--lip", "2", "--pl", "1", "--dx", "1"
    ],
    "verify": [],
}
NUMERIC_FLAGS = [
    ("run", "--jobs", "count"),
    ("suggest", "--eps", "real"),
    ("suggest", "--n", "count"),
    ("suggest", "--lip", "real"),
    ("suggest", "--pl", "real"),
    ("suggest", "--dx", "real"),
    ("verify", "--probes", "count"),
    ("verify", "--samples", "count"),
    ("verify", "--seed", "seed"),
]
# the values each kind's rule refuses: a count is an integer in [1, 2**53]
# (--samples takes 2 and up), a seed one in [0, 2**64), a real positive and finite
REFUSED = {
    "count": ["0", "-1", str(BIG), str(2**64), "x", "1.5", "inf", "nan"],
    "seed": ["-1", str(2**64), "x", "1.5", "inf", "nan"],
    "real": ["0", "-1", "x", "inf", "nan"],
}


def _shown(kind: str, value: str) -> str:
    """value as a refusal shows it: the number its text reads as, else the text quoted."""
    try:
        return repr((float if kind == "real" else int)(value))
    except ValueError:
        return repr(value)


def _with_flag(command: str, flag: str, value: str) -> list[str]:
    args = list(VALID_ARGS[command])
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    return [command, *args]


def _without_flag(command: str, flag: str) -> list[str]:
    args = list(VALID_ARGS[command])
    at = args.index(flag)
    return [command, *args[:at], *args[at + 2 :]]


# (argv, the one stderr line) for refusals that are not a flag's value
OTHER_REFUSALS = [
    (_without_flag("run", "--config"), "the following arguments are required: --config"),
    *[
        (_without_flag("suggest", flag), f"the following arguments are required: {flag}")
        for flag in ("--mode", "--eps", "--n", "--lip", "--pl")
    ],
    (_without_flag("suggest", "--dx"), "--dx is required with --mode con"),
    (_with_flag("suggest", "--mode", "unc"), "--dx is only valid with --mode con"),
]

# a few of the refusals above, from a whole process, which exits 2
PROCESS_REFUSALS = [
    (_with_flag("run", "--jobs", "x"), "--jobs must be an integer >= 1, got 'x'"),
    (_with_flag("run", "--jobs", "0"), "--jobs must be an integer >= 1, got 0"),
    (_with_flag("verify", "--probes", "1.5"), "--probes must be an integer >= 1, got '1.5'"),
    OTHER_REFUSALS[0],
    OTHER_REFUSALS[-1],
]


class TestRefusals:
    @pytest.mark.parametrize(
        "command, flag, kind, value",
        [
            pytest.param(command, flag, kind, value, id=f"{command}-{flag}-{value}")
            for command, flag, kind in NUMERIC_FLAGS
            for value in REFUSED[kind]
        ],
    )
    def test_refused_flag_value_is_one_line_naming_the_flag(
        self, capsys, command, flag, kind, value
    ):
        assert main(_with_flag(command, flag, value)) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        # the rule's own message, under the flag's name
        assert line.startswith(f"{flag} must be "), line
        assert line.endswith(f", got {_shown(kind, value)}"), line
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message", OTHER_REFUSALS, ids=[" ".join(argv) for argv, _ in OTHER_REFUSALS]
    )
    def test_missing_or_misplaced_flag_is_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message", PROCESS_REFUSALS, ids=[" ".join(argv) for argv, _ in PROCESS_REFUSALS]
    )
    def test_process_exits_2_with_one_line(self, tmp_path, argv, message):
        proc = subprocess.run(
            [sys.executable, "-m", "zopt.cli", *argv],
            env=_child_env(), cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == message + "\n"
        assert proc.stdout == ""


# two runs whose blocks take many seconds each, at --jobs 2
LONG_RUN_CONFIG = RUN_CONFIG.replace("num_iters = 150", "num_iters = 1000000").replace(
    "record_stride = 50", "record_stride = 1000"
)
# zopt's CLI with each pool worker leaving a file in argv[1] once its block starts
MARKED_CLI = """\
import sys
from pathlib import Path

from zopt import cli, harness

execute_run = harness._execute_run


def started(task):
    Path(sys.argv[1], f"block-{task.solvers[0].oracle.seed}").touch()
    return execute_run(task)


harness._execute_run = started
if __name__ == "__main__":
    sys.exit(cli.main(sys.argv[2:]))
"""


def _report_sigint_handler(task):
    """A pool block that fails with the SIGINT handler of its worker."""
    raise RuntimeError(repr(signal.getsignal(signal.SIGINT)))


class TestInterruptions:
    @pytest.mark.parametrize("target", ["parent", "group"])
    def test_sigint_ends_a_pool_run_with_its_workers(self, tmp_path, target):
        # SIGINT to the parent alone, as kill -INT sends it, or to the whole
        # group, as a terminal's Ctrl-C does: each used to wait for both
        # blocks to finish and then print a traceback
        script = tmp_path / "marked_cli.py"
        script.write_text(MARKED_CLI)
        cfg = tmp_path / "long.cfg"
        cfg.write_text(LONG_RUN_CONFIG)
        marks = tmp_path / "marks"
        marks.mkdir()
        argv = ["run", "--config", str(cfg), "--jobs", "2", "--out-dir", str(tmp_path)]
        proc = subprocess.Popen(
            [sys.executable, str(script), str(marks), *argv],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while len(list(marks.iterdir())) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            start = time.monotonic()
            if target == "group":
                os.killpg(proc.pid, signal.SIGINT)
            else:
                os.kill(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
            elapsed = time.monotonic() - start
            # no worker outlives the parent
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert proc.returncode == 130
        assert err == "zopt run: interrupted\n"
        assert out == ""
        assert elapsed < 10
        assert not (tmp_path / "cli_out.csv").exists()

    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_stdout_exits_141_quietly(self, buffered):
        # `zopt verify | head -1` used to end in a BrokenPipeError traceback;
        # a buffered stdout fails at a flush, an unbuffered one at a print
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "zopt.cli", "verify", "--probes", "5", "--samples", "50"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_a_refused_reference_solve_leaves_no_worker(self, tmp_path, monkeypatch):
        # a box run's workers start before the reference solve, so a solve
        # that fails must end them before its error propagates
        before = set(multiprocessing.active_children())
        started = []

        def refuse(problem, feasible_set):
            started.append(set(multiprocessing.active_children()) - before)
            raise harness.ConfigError("refused")

        monkeypatch.setattr(harness, "constrained_opt_value", refuse)
        cfg = tmp_path / "box.cfg"
        cfg.write_text(BOX_RUN_CONFIG)
        config = dataclasses.replace(harness.load_config(cfg), csv_path=None)
        with pytest.raises(harness.ConfigError, match="refused"):
            harness.run_experiment(config, jobs=2)
        assert [len(workers) for workers in started] == [2]
        assert set(multiprocessing.active_children()) == before

    def test_pool_workers_ignore_sigint(self, monkeypatch):
        # only the parent reports an interrupt; a block that fails ends the
        # run with its error
        monkeypatch.setattr(harness, "_execute_run", _report_sigint_handler)
        config = harness.load_config(DATA_DIR / "pinned_desk.cfg")
        config = dataclasses.replace(config, csv_path=None)
        with pytest.raises(RuntimeError, match=f"^{signal.SIG_IGN!r}$"):
            harness.run_experiment(config, jobs=2)
