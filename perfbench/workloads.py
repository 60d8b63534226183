"""Workload definitions of the zopt benchmark and the inputs they generate.

Every input is derived from one workload seed, rebased the way
`zopt.harness.apply_seed_override` rebases `ZOPT_SEED`: problem_seed = v,
x0_seed = v + 1, run_seed_base = v + 2.  The program only ever sees the
generated config files (experiments) or the generated arguments (verify).

It also holds the one definition of each workload body, `run_experiment`
and `run_verify`, which child.py runs untraced and tracing.py runs traced.
zopt is imported inside them, so importing this module stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Worker processes for every experiment workload: the machine the benchmark
# was defined on has two cores, and the shape stays fixed from run to run.
JOBS = 2

# Seed at which the output digests recorded in digests.json apply.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Experiment:
    """A `zopt run` experiment; sizes per scale are (num_iters, record_stride)."""

    name: str
    scenario: str
    m: int
    n: int
    mu: str
    num_runs: int
    sizes: dict
    box: bool = False

    kind = "experiment"

    def num_iters(self, scale: str) -> int:
        return self.sizes[scale][0]

    def config_text(self, seed: int, scale: str, setup: bool) -> str:
        """Config file text; the set-up variant runs 0 iterations, no chart."""
        num_iters, stride = self.sizes[scale]
        lines = [
            "[experiment]",
            f"scenario = {self.scenario}",
            f"num_runs = {self.num_runs}",
            f"run_seed_base = {seed + 2}",
            f"x0_seed = {seed + 1}",
            "[problem]",
            f"m = {self.m}",
            f"n = {self.n}",
            "noise_std = 0.1",
            f"problem_seed = {seed}",
            "[solver]",
            f"mu = {self.mu}",
        ]
        if self.mu == "auto":
            lines.append("eps = 0.1")
        lines += [
            "step_size = theorem",
            f"num_iters = {0 if setup else num_iters}",
            f"record_stride = {stride}",
        ]
        if self.box:
            lines += ["[set]", "kind = box", "lower = -0.5", "upper = 0.5"]
        lines += ["[outputs]", "csv_path = run.csv", "bound_overlay = true"]
        if not setup:
            # `zopt run` with num_iters = 0 and an svg_path fails in the chart
            # writer (no positive iteration index to plot), so set-up omits it.
            lines.append("svg_path = run.svg")
        return "\n".join(lines) + "\n"

    def write_configs(self, work: Path, seed: int, scale: str) -> tuple[Path, Path]:
        full = work / "full.cfg"
        setup = work / "setup.cfg"
        full.write_text(self.config_text(seed, scale, setup=False), encoding="ascii")
        setup.write_text(self.config_text(seed, scale, setup=True), encoding="ascii")
        return full, setup

    def evals(self, scale: str, completed_runs: int) -> int:
        return (2 * self.num_iters(scale) + 1) * completed_runs


@dataclass(frozen=True)
class Verify:
    """`analysis.verify_oracle_inequalities` plus `analysis.check_proximal_pl`."""

    name: str
    m: int
    n: int
    mu: float
    sizes: dict  # scale -> (num_probes, num_samples)
    num_mc_points: int = 4  # the library default of verify_oracle_inequalities

    kind = "verify"

    def evals(self, scale: str) -> int:
        """Objective evaluations: 2 per probe, fx plus samples per Monte Carlo
        point, and 1 per proximal-PL point (one point per probe)."""
        probes, samples = self.sizes[scale]
        return 2 * probes + self.num_mc_points * (samples + 1) + probes


WORKLOADS = {
    w.name: w
    for w in (
        Experiment(
            name="unc_n1000",
            scenario="unconstrained",
            m=100,
            n=1000,
            mu="1e-7",
            num_runs=8,
            sizes={"full": (6000, 1000), "tiny": (40, 10)},
        ),
        Experiment(
            name="con_box_n40",
            scenario="constrained",
            m=10,
            n=40,
            mu="auto",
            num_runs=25,
            sizes={"full": (3000, 1000), "tiny": (40, 10)},
            box=True,
        ),
        Experiment(
            name="unc_n24_long",
            scenario="unconstrained",
            m=6,
            n=24,
            mu="1e-6",
            num_runs=4,
            sizes={"full": (100000, 10000), "tiny": (400, 100)},
        ),
        Verify(
            name="verify_n100",
            m=20,
            n=100,
            mu=1e-3,
            sizes={"full": (10000, 100000), "tiny": (100, 1000)},
        ),
    )
}


def run_experiment(config: Path, out_dir: Path, jobs: int) -> int:
    """`zopt run` on a generated config; its exit code."""
    from zopt.cli import main

    return main(["run", "--config", str(config), "--jobs", str(jobs), "--out-dir", str(out_dir)])


def run_verify(seed: int, scale: str, out_dir: Path, setup: bool = False) -> dict:
    """The verify workload; set-up stops after problem and set construction.

    Writes the check rows that `zopt verify --csv` writes to checks.csv.
    """
    from zopt import analysis, problems, sets
    from zopt.oracle import OracleConfig

    spec = WORKLOADS["verify_n100"]
    probes, samples = spec.sizes[scale]
    problem = problems.make_least_squares(spec.m, spec.n, 0.1, seed)
    box = sets.Box(-0.5, 0.5, dim=problem.dim)
    cfg = OracleConfig(mu=spec.mu, seed=seed)
    if setup:
        return {"rc": 0}
    report = analysis.verify_oracle_inequalities(
        problem, box, cfg, num_probes=probes, num_samples=samples, seed=seed
    )
    prox = analysis.check_proximal_pl(problem, box, num_points=probes, seed=seed)
    Path(out_dir, "checks.csv").write_text("\n".join(report.csv_rows()) + "\n", encoding="ascii")
    return {
        "rc": 0 if report.all_passed else 1,
        "checks": len(report.checks),
        "violated": sum(not c.passed for c in report.checks),
        "all_passed": report.all_passed,
        "prox_evaluated": prox.evaluated,
    }
