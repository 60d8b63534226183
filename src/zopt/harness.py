"""Config-driven experiments: seeded solver batches, aggregation, bound overlays.

An experiment builds one least-squares instance, launches num_runs solver
runs whose oracle seeds are run_seed_base + i, aggregates f(x_k) across runs
on a geometric checkpoint grid, optionally overlays the matching gap bound,
and writes a CSV (exact, round-trippable) plus an optional SVG chart.

Config files are flat key = value text under [section] headers; see the
README for the full reference.  Everything is deterministic given the
config: the same file produces byte-identical CSV output regardless of the
worker count.
"""

from __future__ import annotations

import configparser
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import (
    BoundInputs,
    constrained_gap_bound,
    constrained_opt_value,
    unconstrained_gap_bound,
)
from .oracle import OracleConfig
from .problems import TestProblem, make_least_squares
from .rng import substream
from .sets import set_from_spec
from .solvers import (
    DivergenceError,
    RunRecord,
    SolverConfig,
    projected_random_search,
    random_search,
    suggest_params,
    theorem_step_size,
)
from .svgplot import write_log_log_chart

__all__ = [
    "ConfigError",
    "FullRunRequired",
    "ExperimentConfig",
    "load_config",
    "apply_seed_override",
    "checkpoint_grid",
    "AggregateSeries",
    "aggregate",
    "write_series_csv",
    "read_series_csv",
    "run_experiment",
]

# iterations * runs * dimension above this requires the --full opt-in
FULL_GATE_COST = 1_000_000_000

_CSV_MAGIC = "# zopt-aggregate-v1"
SEED_ENV_VAR = "ZOPT_SEED"


class ConfigError(ValueError):
    """Invalid experiment configuration, anchored to a file line when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:" if line is None else f"{path}:{line}:"
            prefix += " "
        super().__init__(prefix + message)


class FullRunRequired(RuntimeError):
    """Experiment cost exceeds the default gate; rerun with --full."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    mu is None when the config asked for 'auto' (resolved from eps at run
    time, once the instance constants are known); step_size None means the
    analyzed step for the scenario.
    """

    scenario: str
    m: int
    n: int
    noise_std: float
    problem_seed: int
    num_iters: int
    record_stride: int
    num_runs: int
    run_seed_base: int
    x0_seed: int
    mu: float | None = None
    eps: float | None = None
    step_size: float | None = None
    set_spec: dict | None = None
    csv_path: str | None = None
    svg_path: str | None = None
    bound_overlay: bool = True
    source_path: str | None = None


def _find_line(text: str, section: str, key: str | None) -> int | None:
    """Best-effort line number of a key (or section header) in config text."""
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if key is None and current == section:
                return lineno
            continue
        if key is not None and current == section:
            name = line.split("=", 1)[0].strip().lower() if "=" in line else None
            if name == key:
                return lineno
    return None


class _SectionReader:
    def __init__(self, parser, text, path):
        self.parser = parser
        self.text = text
        self.path = path

    def error(self, section: str, key: str | None, message: str):
        raise ConfigError(message, path=self.path, line=_find_line(self.text, section, key))

    def get(self, section: str, key: str, default=None, required=False) -> str | None:
        if not self.parser.has_option(section, key):
            if required:
                where = "section" if self.parser.has_section(section) else "missing section"
                self.error(
                    section,
                    None,
                    f"[{section}] {key} is required ({where} [{section}])",
                )
            return default
        return self.parser.get(section, key).strip()

    def get_int(self, section: str, key: str, default=None, required=False, minimum=None):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            self.error(section, key, f"[{section}] {key} must be an integer, got {raw!r}")
        if minimum is not None and value < minimum:
            self.error(section, key, f"[{section}] {key} must be >= {minimum}, got {value}")
        return value

    def to_float(self, section: str, key: str, raw: str, expected="a number", positive=False):
        try:
            value = float(raw)
        except ValueError:
            self.error(section, key, f"[{section}] {key} must be {expected}, got {raw!r}")
        if not math.isfinite(value) or (positive and value <= 0):
            kind = "positive and finite" if positive else "finite"
            self.error(section, key, f"[{section}] {key} must be {kind}, got {raw!r}")
        return value

    def get_float(self, section: str, key: str, default=None, required=False, positive=False):
        raw = self.get(section, key, required=required)
        return default if raw is None else self.to_float(section, key, raw, positive=positive)

    def get_bool(self, section: str, key: str, default: bool) -> bool:
        raw = self.get(section, key)
        if raw is None:
            return default
        low = raw.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        self.error(section, key, f"[{section}] {key} must be a boolean, got {raw!r}")


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; errors carry file and line."""
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=path) from exc
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"config syntax error: {exc.message}", path=path, line=line) from exc

    reader = _SectionReader(parser, text, path)

    scenario = (reader.get("experiment", "scenario", required=True) or "").lower()
    if scenario not in ("unconstrained", "constrained"):
        reader.error(
            "experiment",
            "scenario",
            f"scenario must be 'unconstrained' or 'constrained', got {scenario!r}",
        )
    num_runs = reader.get_int("experiment", "num_runs", required=True, minimum=1)
    run_seed_base = reader.get_int("experiment", "run_seed_base", required=True, minimum=0)

    m = reader.get_int("problem", "m", required=True, minimum=1)
    n = reader.get_int("problem", "n", required=True, minimum=1)
    if n < m:
        reader.error("problem", "n", f"n must be >= m, got m={m}, n={n}")
    noise_std = reader.get_float("problem", "noise_std", required=True)
    if noise_std < 0:
        reader.error("problem", "noise_std", "noise_std must be nonnegative")
    problem_seed = reader.get_int("problem", "problem_seed", required=True, minimum=0)
    x0_seed = reader.get_int("experiment", "x0_seed", default=problem_seed + 1, minimum=0)

    mu_raw = reader.get("solver", "mu", required=True)
    mu = None
    eps = None
    if mu_raw.lower() in ("auto", "suggest"):
        eps = reader.get_float("solver", "eps", required=True, positive=True)
    else:
        mu = reader.to_float("solver", "mu", mu_raw, "a number or 'auto'", positive=True)

    step_raw = reader.get("solver", "step_size", required=True)
    step_size = None
    if step_raw.lower() not in ("theorem", "auto"):
        step_size = reader.to_float(
            "solver", "step_size", step_raw, "a number or 'theorem'", positive=True
        )

    num_iters = reader.get_int("solver", "num_iters", required=True, minimum=0)
    record_stride = reader.get_int(
        "solver", "record_stride", default=max(1, num_iters // 200), minimum=1
    )

    set_spec = None
    if scenario == "constrained":
        if not parser.has_section("set"):
            raise ConfigError(
                "constrained scenario requires a [set] section", path=path
            )
        set_spec = {k: v for k, v in parser.items("set")}
    elif parser.has_section("set"):
        reader.error("set", None, "[set] is only valid for the constrained scenario")

    csv_path = reader.get("outputs", "csv_path")
    svg_path = reader.get("outputs", "svg_path")
    bound_overlay = reader.get_bool("outputs", "bound_overlay", default=True)

    cfg = ExperimentConfig(
        scenario=scenario,
        m=m,
        n=n,
        noise_std=noise_std,
        problem_seed=problem_seed,
        num_iters=num_iters,
        record_stride=record_stride,
        num_runs=num_runs,
        run_seed_base=run_seed_base,
        x0_seed=x0_seed,
        mu=mu,
        eps=eps,
        step_size=step_size,
        set_spec=set_spec,
        csv_path=csv_path,
        svg_path=svg_path,
        bound_overlay=bound_overlay,
        source_path=path,
    )
    bad_seed = _seed_range_error(cfg)
    if bad_seed is not None:
        reader.error(*bad_seed)
    if scenario == "constrained" and set_spec is not None:
        try:
            feasible = set_from_spec(set_spec, n)
        except ValueError as exc:
            raise ConfigError(str(exc), path=path, line=_find_line(text, "set", None)) from exc
        if not math.isfinite(feasible.diameter()):
            raise ConfigError(
                "constrained scenario requires a finite-diameter set",
                path=path,
                line=_find_line(text, "set", None),
            )
    return cfg


def _seed_range_error(config: ExperimentConfig) -> tuple[str, str, str] | None:
    """(section, key, message) for the first seed outside [0, 2**64), else None."""
    last_run_seed = config.run_seed_base + config.num_runs - 1
    for section, key, label, value in (
        ("problem", "problem_seed", "problem_seed", config.problem_seed),
        ("experiment", "x0_seed", "x0_seed", config.x0_seed),
        ("experiment", "run_seed_base", "run_seed_base + num_runs - 1", last_run_seed),
    ):
        if not 0 <= value < 2**64:
            return section, key, f"[{section}] {label} = {value} is outside [0, 2**64)"
    return None


def apply_seed_override(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Rebase all seeds on one value (problem, x0, and run seeds)."""
    config = replace(
        config, problem_seed=seed, x0_seed=seed + 1, run_seed_base=seed + 2
    )
    bad_seed = _seed_range_error(config)
    if bad_seed is not None:
        raise ConfigError(f"seed override {seed}: {bad_seed[2]}", path=config.source_path)
    return config


def checkpoint_grid(num_iters: int) -> np.ndarray:
    """Geometric grid of iteration indices (ratio about 1.15) plus endpoints."""
    if num_iters < 0:
        raise ValueError("num_iters must be nonnegative")
    ks = {0, num_iters}
    k = 1
    while k <= num_iters:
        ks.add(k)
        k = max(k + 1, int(round(k * 1.15)))
    return np.array(sorted(ks), dtype=np.int64)


@dataclass(eq=False)
class AggregateSeries:
    """Cross-run statistics on the checkpoint grid.

    running_avg_gap[j] is the mean over runs of the per-run running average
    of f(x_k) - f_star up to checkpoint ks[j] (the quantity the gap bounds
    control); its stderr column quantifies cross-run fluctuation.  Columns
    that need f_star or a bound are None when those inputs are absent.
    """

    ks: np.ndarray
    mean_f: np.ndarray
    std_f: np.ndarray
    mean_best_f: np.ndarray
    running_avg_gap: np.ndarray | None
    running_avg_gap_se: np.ndarray | None
    bound_rhs: np.ndarray | None
    f_star: float | None
    num_runs: int
    metadata: dict = field(default_factory=dict)

    def same_as(self, other: "AggregateSeries") -> bool:
        def eq(a, b):
            if a is None or b is None:
                return a is None and b is None
            return np.array_equal(a, b)

        return (
            eq(self.ks, other.ks)
            and eq(self.mean_f, other.mean_f)
            and eq(self.std_f, other.std_f)
            and eq(self.mean_best_f, other.mean_best_f)
            and eq(self.running_avg_gap, other.running_avg_gap)
            and eq(self.running_avg_gap_se, other.running_avg_gap_se)
            and eq(self.bound_rhs, other.bound_rhs)
            and self.f_star == other.f_star
            and self.num_runs == other.num_runs
            and self.metadata == other.metadata
        )


def aggregate(
    records: list[RunRecord],
    bound_inputs: BoundInputs | None = None,
    f_star: float | None = None,
    step_size: float | None = None,
) -> AggregateSeries:
    """Cross-run mean/std of f(x_k), best-so-far mean, and optional bound.

    All records must share the same iteration count.  Standard deviations
    use the sample convention (divisor R - 1) and are 0 for a single run.
    When bound_inputs carries a diameter the constrained bound is evaluated,
    otherwise the unconstrained one; step_size is forwarded to the bound.
    """
    if not records:
        raise ValueError("no records to aggregate")
    num_iters = records[0].num_iters
    for rec in records[1:]:
        if rec.num_iters != num_iters:
            raise ValueError("records do not share a checkpoint grid")
    ks = checkpoint_grid(num_iters)
    values = np.stack([rec.values for rec in records])
    bests = np.stack([rec.best_values for rec in records])
    n_runs = len(records)

    def col_std(matrix):
        if n_runs == 1:
            return np.zeros(matrix.shape[1])
        return matrix.std(axis=0, ddof=1)

    mean_f = values.mean(axis=0)[ks]
    std_f = col_std(values)[ks]
    mean_best = bests.mean(axis=0)[ks]

    gap = gap_se = None
    if f_star is not None:
        denom = np.arange(1, num_iters + 2, dtype=float)
        per_run = np.cumsum(values - f_star, axis=1) / denom
        gap = per_run.mean(axis=0)[ks]
        gap_se = (col_std(per_run) / math.sqrt(n_runs))[ks]

    bound = None
    if bound_inputs is not None:
        if bound_inputs.d_x is not None:
            bound = np.array(
                [constrained_gap_bound(bound_inputs, int(k), step_size) for k in ks]
            )
        else:
            bound = np.array(
                [unconstrained_gap_bound(bound_inputs, int(k), step_size) for k in ks]
            )

    metadata = {
        "num_iters": str(num_iters),
        "completed_runs": str(n_runs),
    }
    return AggregateSeries(
        ks=ks,
        mean_f=mean_f,
        std_f=std_f,
        mean_best_f=mean_best,
        running_avg_gap=gap,
        running_avg_gap_se=gap_se,
        bound_rhs=bound,
        f_star=f_star,
        num_runs=n_runs,
        metadata=metadata,
    )


def write_series_csv(series: AggregateSeries, path) -> None:
    """Write the series exactly: floats as shortest round-trip decimals."""
    columns = ["k", "mean_f", "std_f", "mean_best_f"]
    if series.running_avg_gap is not None:
        columns += ["running_avg_gap", "running_avg_gap_se"]
    if series.bound_rhs is not None:
        columns.append("bound_rhs")

    lines = [_CSV_MAGIC]
    lines.append(f"# f_star = {'none' if series.f_star is None else repr(series.f_star)}")
    lines.append(f"# num_runs = {series.num_runs}")
    for key in sorted(series.metadata):
        lines.append(f"# {key} = {series.metadata[key]}")
    lines.append(",".join(columns))
    for i, k in enumerate(series.ks):
        row = [str(int(k))]
        row.append(repr(float(series.mean_f[i])))
        row.append(repr(float(series.std_f[i])))
        row.append(repr(float(series.mean_best_f[i])))
        if series.running_avg_gap is not None:
            row.append(repr(float(series.running_avg_gap[i])))
            row.append(repr(float(series.running_avg_gap_se[i])))
        if series.bound_rhs is not None:
            row.append(repr(float(series.bound_rhs[i])))
        lines.append(",".join(row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_series_csv(path) -> AggregateSeries:
    """Read a CSV written by write_series_csv, reproducing it exactly."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != _CSV_MAGIC:
        raise ValueError(f"{path}: not a {_CSV_MAGIC.lstrip('# ')} file")
    metadata = {}
    f_star = None
    num_runs = None
    idx = 1
    while idx < len(lines) and lines[idx].startswith("#"):
        body = lines[idx][1:].strip()
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "f_star":
            f_star = None if value == "none" else float(value)
        elif key == "num_runs":
            num_runs = int(value)
        else:
            metadata[key] = value
        idx += 1
    if num_runs is None:
        raise ValueError(f"{path}: missing num_runs header")
    columns = lines[idx].split(",")
    rows = [line.split(",") for line in lines[idx + 1 :] if line]
    data = {name: [] for name in columns}
    for row in rows:
        for name, cell in zip(columns, row):
            data[name].append(cell)

    def floats(name):
        return np.array([float(v) for v in data[name]]) if name in data else None

    return AggregateSeries(
        ks=np.array([int(v) for v in data["k"]], dtype=np.int64),
        mean_f=floats("mean_f"),
        std_f=floats("std_f"),
        mean_best_f=floats("mean_best_f"),
        running_avg_gap=floats("running_avg_gap"),
        running_avg_gap_se=floats("running_avg_gap_se"),
        bound_rhs=floats("bound_rhs"),
        f_star=f_star,
        num_runs=num_runs,
        metadata=metadata,
    )


@dataclass(frozen=True, eq=False)
class _RunTask:
    index: int
    problem: TestProblem
    x0: np.ndarray
    mu: float
    seed: int
    step_size: float
    num_iters: int
    record_stride: int
    set_spec: dict | None
    collect_sigma: bool


@dataclass(eq=False)
class _RunOutcome:
    index: int
    record: RunRecord | None
    sigma_sq: np.ndarray | None
    error: str | None


def _execute_run(task: _RunTask) -> _RunOutcome:
    problem = task.problem
    solver_cfg = SolverConfig(
        oracle=OracleConfig(mu=task.mu, seed=task.seed),
        step_size=task.step_size,
        num_iters=task.num_iters,
        record_stride=task.record_stride,
        lip_const=problem.lip_const,
    )
    sigma_sq = None
    on_iterate = None
    if task.collect_sigma:
        n = problem.dim
        sigma_sq = np.empty(task.num_iters + 1)
        smoothing_term = task.mu**2 * problem.lip_const**2 * (n + 6) ** 3 / 2.0

        def on_iterate(k, x):
            g = problem.grad(x)
            sigma_sq[k] = smoothing_term + 2.0 * (n + 4) * float(g @ g)

    try:
        if task.set_spec is None:
            record = random_search(problem.objective, task.x0, solver_cfg, on_iterate=on_iterate)
        else:
            feasible = set_from_spec(task.set_spec, problem.dim)
            record = projected_random_search(
                problem.objective, feasible, task.x0, solver_cfg, on_iterate=on_iterate
            )
    except DivergenceError as exc:
        return _RunOutcome(task.index, None, None, str(exc))
    return _RunOutcome(task.index, record, sigma_sq, None)


def resolve_output_path(path: str | None, out_dir: str | None) -> str | None:
    """Join a config-relative output path with --out-dir when given."""
    if path is None:
        return None
    if out_dir is None:
        return path
    return str(Path(out_dir) / path)


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    full: bool = False,
    out_dir: str | None = None,
) -> AggregateSeries:
    """Execute an experiment and write its outputs.

    Runs are dispatched to a process pool when jobs > 1; per-run determinism
    makes the result independent of the worker count.  Diverged runs are
    recorded in the metadata and skipped by the aggregation; if every run
    diverges a RuntimeError is raised.
    """
    if config.num_iters == 0 and config.svg_path is not None:
        message = "[outputs] svg_path needs [solver] num_iters >= 1 (a log-log chart needs k > 0)"
        raise ConfigError(message, path=config.source_path)
    cost = config.num_iters * config.num_runs * config.n
    if cost > FULL_GATE_COST and not full:
        raise FullRunRequired(
            f"experiment cost {cost:.2g} (iterations * runs * dimension) exceeds "
            f"{FULL_GATE_COST:.0e}; pass --full to run it"
        )
    if jobs < 1:
        raise ValueError("jobs must be >= 1")

    problem = make_least_squares(
        config.m, config.n, config.noise_std, config.problem_seed
    )
    lip = problem.lip_const
    pl = problem.pl_const
    n = config.n
    mode = config.scenario

    feasible = None
    d_x = None
    if mode == "constrained":
        feasible = set_from_spec(config.set_spec or {}, n)
        d_x = feasible.diameter()
        if not math.isfinite(d_x):
            raise ConfigError("constrained scenario requires a finite-diameter set")

    mu = config.mu
    if mu is None:
        mu, _ = suggest_params(mode, config.eps, n, lip, pl, d_x=d_x)
    step = config.step_size
    if step is None:
        step = theorem_step_size(mode, n, lip)

    metadata = {
        "scenario": mode,
        "m": str(config.m),
        "n": str(n),
        "noise_std": repr(config.noise_std),
        "problem_seed": str(config.problem_seed),
        "x0_seed": str(config.x0_seed),
        "run_seed_base": str(config.run_seed_base),
        "mu": repr(float(mu)),
        "step_size": repr(float(step)),
        "record_stride": str(config.record_stride),
        "lip_const": repr(lip),
        "pl_const": repr(pl),
        "requested_runs": str(config.num_runs),
    }

    x0 = substream(config.x0_seed, 0).standard_normal(n)
    if feasible is not None:
        x0 = feasible.project(x0)
        metadata["x0_note"] = "standard normal sample projected onto the feasible set"
        metadata["set"] = ";".join(f"{k}={v}" for k, v in sorted(feasible.spec().items()))

    f_star = None
    if mode == "unconstrained":
        f_star = problem.opt_value
    else:
        try:
            f_star = constrained_opt_value(problem, feasible)
        except ValueError:
            if config.bound_overlay:
                raise ConfigError(
                    f"bound overlay needs a reference optimum, which set kind "
                    f"{feasible.kind!r} does not provide"
                )

    collect_sigma = config.bound_overlay and mode == "constrained"
    tasks = [
        _RunTask(
            index=i,
            problem=problem,
            x0=x0,
            mu=float(mu),
            seed=config.run_seed_base + i,
            step_size=float(step),
            num_iters=config.num_iters,
            record_stride=config.record_stride,
            set_spec=config.set_spec,
            collect_sigma=collect_sigma,
        )
        for i in range(config.num_runs)
    ]
    if jobs == 1 or config.num_runs == 1:
        outcomes = [_execute_run(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, config.num_runs)) as pool:
            outcomes = list(pool.map(_execute_run, tasks))
    outcomes.sort(key=lambda o: o.index)

    records = [o.record for o in outcomes if o.record is not None]
    diverged = [(o.index, o.error) for o in outcomes if o.error is not None]
    if not records:
        raise RuntimeError(
            "every run diverged; first failure: " + (diverged[0][1] if diverged else "?")
        )
    metadata["diverged_runs"] = ",".join(str(i) for i, _ in diverged)

    bound_inputs = None
    if config.bound_overlay and f_star is not None:
        gap = max(0.0, float(records[0].values[0]) - f_star)
        if mode == "unconstrained":
            bound_inputs = BoundInputs(
                n=n, lip_const=lip, pl_const=pl, mu=float(mu), initial_gap=gap
            )
        else:
            sigma_rows = np.stack(
                [o.sigma_sq for o in outcomes if o.record is not None]
            )
            # rms across runs upper-bounds both the mean of sigma and the
            # mean of sigma^2 that the expectation form of the bound needs
            sigma_seq = np.sqrt(sigma_rows.mean(axis=0))
            bound_inputs = BoundInputs(
                n=n,
                lip_const=lip,
                pl_const=pl,
                mu=float(mu),
                initial_gap=gap,
                d_x=d_x,
                sigma_seq=sigma_seq,
            )
            metadata["sigma_note"] = (
                "sigma_k from the c11 candidate with analytic gradient norms, "
                "rms across runs"
            )
            metadata["bound_pl_note"] = (
                "constrained bound evaluated with the unconstrained dominance "
                "constant"
            )
        analyzed = theorem_step_size(mode, n, lip)
        if not math.isclose(step, analyzed, rel_tol=1e-9):
            metadata["bound_step_note"] = (
                "step size differs from the analyzed one; leading bound term "
                "rescaled heuristically"
            )

    series = aggregate(records, bound_inputs=bound_inputs, f_star=f_star, step_size=step)
    series.metadata.update(metadata)
    if feasible is not None:
        series.metadata["feasibility_violations"] = str(
            sum(rec.feasibility_violations for rec in records)
        )

    csv_path = resolve_output_path(config.csv_path, out_dir)
    svg_path = resolve_output_path(config.svg_path, out_dir)
    if csv_path is not None:
        Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
        write_series_csv(series, csv_path)
    if svg_path is not None:
        curves = [
            ("mean f(x_k)", series.ks.tolist(), series.mean_f.tolist()),
            ("mean best-so-far", series.ks.tolist(), series.mean_best_f.tolist()),
        ]
        if series.bound_rhs is not None and series.running_avg_gap is not None:
            curves.append(
                ("running-avg gap", series.ks.tolist(), series.running_avg_gap.tolist())
            )
            curves.append(("gap bound", series.ks.tolist(), series.bound_rhs.tolist()))
        Path(svg_path).parent.mkdir(parents=True, exist_ok=True)
        write_log_log_chart(
            svg_path,
            curves,
            title=f"{mode} run: m={config.m}, n={n}, {len(records)} runs",
        )
    return series
