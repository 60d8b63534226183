"""Opt-in full-scale benchmarks (set ZOPT_FULL=1; tens of minutes of CPU).

These run the large configurations shipped in configs/ in-process and check
the qualitative claims that desk-scale runs cannot: the step-size tradeoff
(a larger step reaches its own plateau sooner but the plateau is higher)
and bound dominance at scale.
"""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zopt.harness import load_config, run_experiment

pytestmark = pytest.mark.skipif(
    os.environ.get("ZOPT_FULL") != "1",
    reason="full-scale benchmark; set ZOPT_FULL=1 to run",
)

JOBS = max(1, os.cpu_count() or 1)

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def shipped(name: str):
    """A shipped config, run without its output files."""
    return replace(load_config(CONFIG_DIR / name), csv_path=None, svg_path=None)


def iterations_to_factor_of_plateau(series, factor=2.0):
    gaps = series.mean_best_f - series.f_star
    plateau = gaps[-1]
    hit = np.flatnonzero(gaps <= factor * plateau)
    return int(series.ks[hit[0]])


@pytest.fixture(scope="module")
def runs():
    theorem = run_experiment(shipped("scenario1_full.cfg"), jobs=JOBS, full=True)
    fast = run_experiment(shipped("scenario1_full_fast_step.cfg"), jobs=JOBS, full=True)
    return theorem, fast


class TestScenario1FullScale:
    def test_best_curves_nonincreasing(self, runs):
        for series in runs:
            assert np.all(np.diff(series.mean_best_f) <= 0)

    def test_bound_dominates_at_analyzed_step(self, runs):
        theorem, _ = runs
        ok = theorem.running_avg_gap <= theorem.bound_rhs + 3 * theorem.running_avg_gap_se
        assert bool(np.all(ok))

    def test_larger_step_reaches_its_plateau_sooner(self, runs):
        theorem, fast = runs
        k_theorem = iterations_to_factor_of_plateau(theorem)
        k_fast = iterations_to_factor_of_plateau(fast)
        print(f"\niterations to 2x own plateau: fast={k_fast}, analyzed={k_theorem}")
        assert k_fast < k_theorem

    def test_larger_step_plateaus_higher(self, runs):
        theorem, fast = runs
        plateau_theorem = float(theorem.mean_best_f[-1]) - theorem.f_star
        plateau_fast = float(fast.mean_best_f[-1]) - fast.f_star
        print(f"\nplateau gaps: fast={plateau_fast:.3g}, analyzed={plateau_theorem:.3g}")
        assert plateau_fast > plateau_theorem


class TestScenario2FullScale:
    def test_constrained_run_stays_feasible_and_settles(self):
        series = run_experiment(shipped("scenario2_full.cfg"), jobs=JOBS, full=True)
        assert series.metadata["feasibility_violations"] == "0"
        assert np.all(np.diff(series.mean_best_f) <= 0)
        # settles into a neighbourhood: the tail is flat relative to the drop
        drop = series.mean_f[0] - series.mean_f[-1]
        tail_move = abs(series.mean_f[-2] - series.mean_f[-1])
        assert drop > 0
        assert tail_move < 0.05 * drop
