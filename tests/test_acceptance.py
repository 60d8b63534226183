"""End-to-end acceptance checks with stated runtime budgets.

Each test prints one pass/fail line (visible under pytest -s); the heavy
multi-run experiments are shared through module-scoped fixtures so their
cost is paid once.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from zopt.analysis import check_proximal_pl, prox_quantity
from zopt.cli import main
from zopt.harness import ExperimentConfig, run_experiment
from zopt.oracle import OracleConfig, estimate_smoothed_gradient, sample_directions
from zopt.problems import Objective, make_least_squares
from zopt.sets import WholeSpace
from zopt.solvers import suggest_params

DATA_DIR = Path(__file__).parent / "data"
JOBS = min(4, os.cpu_count() or 1)


def report(criterion: int, elapsed: float, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\ncriterion {criterion}: {status} ({elapsed:.1f} s) {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def scenario1_desk():
    problem = make_least_squares(20, 100, 0.1, 101)
    mu, _ = suggest_params("unconstrained", 0.1, 100, problem.lip_const, problem.pl_const)
    config = ExperimentConfig(
        scenario="unconstrained",
        m=20,
        n=100,
        noise_std=0.1,
        problem_seed=101,
        num_iters=20000,
        record_stride=1000,
        num_runs=25,
        run_seed_base=5000,
        x0_seed=77,
        mu=mu,
        step_size=None,
        bound_overlay=True,
    )
    start = time.perf_counter()
    series = run_experiment(config, jobs=JOBS)
    return series, time.perf_counter() - start


@pytest.fixture(scope="module")
def scenario2_desk():
    problem = make_least_squares(10, 40, 0.1, 202)
    d_x = math.sqrt(40)
    mu, _ = suggest_params(
        "constrained", 0.1, 40, problem.lip_const, problem.pl_const, d_x=d_x
    )
    config = ExperimentConfig(
        scenario="constrained",
        m=10,
        n=40,
        noise_std=0.1,
        problem_seed=202,
        num_iters=20000,
        record_stride=1000,
        num_runs=25,
        run_seed_base=9000,
        x0_seed=88,
        mu=mu,
        step_size=None,
        set_spec={"kind": "box", "lower": "-0.5", "upper": "0.5"},
        bound_overlay=True,
    )
    start = time.perf_counter()
    series = run_experiment(config, jobs=JOBS)
    return series, time.perf_counter() - start


def test_criterion_1_oracle_unbiasedness():
    start = time.perf_counter()
    gen = np.random.default_rng(2024)
    a = gen.standard_normal(10)
    f = Objective(10, lambda p: float(a @ p), batch_fn=lambda P: P @ a)
    est = estimate_smoothed_gradient(
        f, gen.standard_normal(10), OracleConfig(mu=0.05, seed=7), num_samples=100_000
    )
    off = np.abs(est.value - a) / est.stderr
    elapsed = time.perf_counter() - start
    passed = bool(np.all(off < 5.0)) and elapsed < 5.0
    report(
        1,
        elapsed,
        passed,
        f"linear-objective estimator mean within {off.max():.2f} standard errors "
        "of the true gradient (limit 5) on every coordinate",
    )


def test_criterion_2_second_moment_bound():
    start = time.perf_counter()
    problem = make_least_squares(5, 10, 0.1, 314)
    n = problem.dim
    mu = 1e-3
    cfg = OracleConfig(mu=mu, seed=99)
    gen = np.random.default_rng(11)
    violations = 0
    worst_ratio = 0.0
    for point in range(20):
        x = gen.standard_normal(n)
        u = sample_directions(cfg, n, counter=point, num=100_000)
        fx = problem.objective(x)
        fxp = problem.objective.batch(x[None, :] + mu * u)
        g = ((fxp - fx) / mu)[:, None] * u
        moment = float(np.einsum("ij,ij->i", g, g).mean())
        grad = problem.grad(x)
        bound = (
            4 * (n + 4) * float(grad @ grad)
            + 3 * mu**2 * problem.lip_const**2 * (n + 4) ** 3
        )
        worst_ratio = max(worst_ratio, moment / bound)
        if moment > bound:
            violations += 1
    elapsed = time.perf_counter() - start
    passed = violations == 0 and elapsed < 30.0
    report(
        2,
        elapsed,
        passed,
        f"second-moment bound held at 20/20 points "
        f"(largest moment/bound ratio {worst_ratio:.3f})",
    )


def test_criterion_3_unconstrained_bound_dominance(scenario1_desk):
    series, elapsed = scenario1_desk
    slack = series.bound_rhs + 3 * series.running_avg_gap_se
    holds = series.running_avg_gap <= slack
    passed = bool(np.all(holds)) and elapsed < 120.0
    report(
        3,
        elapsed,
        passed,
        f"running-average gap under the bound at {int(holds.sum())}/{len(holds)} "
        f"checkpoints (min bound/gap ratio "
        f"{float(np.min(series.bound_rhs / series.running_avg_gap)):.2f})",
    )


def test_criterion_4_constrained_bound_dominance(scenario2_desk):
    series, elapsed = scenario2_desk
    slack = series.bound_rhs + 3 * series.running_avg_gap_se
    holds = series.running_avg_gap <= slack
    feasible = series.metadata["feasibility_violations"] == "0"
    passed = bool(np.all(holds)) and feasible and elapsed < 120.0
    report(
        4,
        elapsed,
        passed,
        f"running-average gap under the bound at {int(holds.sum())}/{len(holds)} "
        f"checkpoints, feasibility violations: "
        f"{series.metadata['feasibility_violations']} across 25 x 20000 iterates",
    )


def test_criterion_5_inequality_suite(capsys):
    start = time.perf_counter()
    rc = main(["verify", "--probes", "1000", "--samples", "10000", "--seed", "0"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    inner_ok = "projection_inner_product: ok" in out
    jensen_ok = "jensen_ordering: ok" in out
    passed = rc == 0 and inner_ok and jensen_ok and elapsed < 60.0
    with capsys.disabled():
        report(
            5,
            elapsed,
            passed,
            "verify subcommand reported zero violations for the inner-product "
            "and Jensen checks over 1000 probes",
        )


def test_criterion_6_prox_reduction_to_squared_norm():
    start = time.perf_counter()
    gen = np.random.default_rng(55)
    ws = WholeSpace(12)
    worst = 0.0
    for _ in range(1000):
        x = gen.standard_normal(12)
        vec = gen.standard_normal(12)
        a = gen.uniform(0.5, 2.0)
        value = prox_quantity(ws, x, a, vec)
        expected = float(vec @ vec)
        worst = max(worst, abs(value - expected) / expected)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-12 and elapsed < 1.0
    report(
        6,
        elapsed,
        passed,
        f"whole-space projected quantity equals ||vec||^2 "
        f"(worst relative error {worst:.2e}, limit 1e-12) at 1000 vectors",
    )


def test_criterion_7_pl_certificates():
    start = time.perf_counter()
    total_violations = 0
    for i in range(10):
        m = 3 + i
        n = m + 2 + 3 * i
        problem = make_least_squares(m, n, 0.1, 1000 + i)
        rep = check_proximal_pl(problem, WholeSpace(n), num_points=1000, seed=i)
        total_violations += rep.below_unconstrained
    elapsed = time.perf_counter() - start
    passed = total_violations == 0 and elapsed < 10.0
    report(
        7,
        elapsed,
        passed,
        f"{total_violations} gradient-dominance violations across 10 instances "
        "x 1000 points with the smallest-nonzero-eigenvalue constant",
    )


def test_criterion_8_bit_exact_reproduction(tmp_path):
    start = time.perf_counter()
    reference = (DATA_DIR / "pinned_desk.csv").read_bytes()
    outputs = []
    for jobs, sub in ((1, "j1"), (2, "j2"), (8, "j8")):
        out_dir = tmp_path / sub
        rc = main(
            [
                "run",
                "--config",
                str(DATA_DIR / "pinned_desk.cfg"),
                "--jobs",
                str(jobs),
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        outputs.append((out_dir / "pinned_desk.csv").read_bytes())
    elapsed = time.perf_counter() - start
    passed = all(output == reference for output in outputs)
    report(
        8,
        elapsed,
        passed,
        "pinned config reproduced the stored CSV byte-for-byte with "
        "--jobs 1, 2 and 8",
    )


def test_criterion_9_progress_toward_global_minimum(scenario1_desk):
    series, _ = scenario1_desk
    start = time.perf_counter()
    final_best_gap = float(series.mean_best_f[-1]) - series.f_star
    bound_final = float(series.bound_rhs[-1])
    initial_gap = float(series.running_avg_gap[0])
    elapsed = time.perf_counter() - start
    passed = final_best_gap <= bound_final and bound_final <= 0.5 * initial_gap
    report(
        9,
        elapsed,
        passed,
        f"mean best-iterate gap {final_best_gap:.3g} <= final bound "
        f"{bound_final:.4g}, which is {bound_final / initial_gap:.2f} of the "
        "initial gap (limit 0.5), so the runs demonstrably approach the minimum",
    )
