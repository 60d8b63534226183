import numpy as np
import pytest

from zopt.cli import main
from zopt.harness import read_series_csv
from zopt.solvers import suggest_params, theorem_step_size

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
        assert "d_x" in capsys.readouterr().err


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
            ("--probes", "0", "--probes must be >= 1, got 0"),
            ("--probes", "-3", "--probes must be >= 1, got -3"),
            ("--samples", "1", "--samples must be >= 2, got 1"),
        ],
    )
    def test_bad_counts_exit_2(self, capsys, flag, value, message):
        assert main(["verify", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""


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

    def test_invalid_config_exits_2_with_location(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(RUN_CONFIG.replace("num_iters = 150", "num_iters = soon"))
        rc = main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{cfg}:" in err
        assert "num_iters" in err

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
        assert capsys.readouterr().err == "--jobs must be >= 1, got 0\n"

    def test_zero_iters_with_svg_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            RUN_CONFIG.replace("num_iters = 150", "num_iters = 0") + "svg_path = cli_out.svg\n"
        )
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "svg_path" in err and "num_iters" in err
