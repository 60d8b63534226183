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
import multiprocessing
import re
import signal
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bounds import (
    BoundInputs,
    _c11_sigma_sq,
    constrained_gap_bound,
    oracle_variance_candidate,
    unconstrained_gap_bound,
)
from .oracle import OracleConfig
from .problems import TestProblem, make_least_squares
from .rng import _check_count, _check_real, _check_u64, substream
from .sets import SET_KEYS, FeasibleSet, set_from_spec, spec_diameter
from .solvers import (
    _MODES,
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
# so do more than runs * (iterations + 1) values, the sigma overlay's rows
# (80 MB here) and a worker's only per-iteration store; an unconstrained run
# stores none, yet is gated alike until ROADMAP item 2 is settled
FULL_GATE_VALUES = 10_000_000

_CSV_MAGIC = "# zopt-aggregate-v1"
# the value columns of AggregateSeries, in file order after k; the first three
# are never None, and a None column is left out of the file
_VALUE_COLUMNS = (
    "mean_f",
    "std_f",
    "mean_best_f",
    "running_avg_gap",
    "running_avg_gap_se",
    "bound_rhs",
)
SEED_ENV_VAR = "ZOPT_SEED"


class ConfigError(ValueError):
    """Invalid experiment configuration, anchored to a file line when known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(message if path is None else f"{where} {message}")


class FullRunRequired(RuntimeError):
    """Experiment cost exceeds the default gate; rerun with --full."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description, validated by load_config or, built in code, by run_experiment.

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


def _from_text(rule, *bound, words: tuple[str, ...] = ()):
    """A parser of a config value's or a flag's text: int, float or the text
    itself, as the rule takes, judged by the rule under the key's or flag's
    name; text that is no number is judged as itself, so the message quotes
    it.  Any of the words (case-insensitive) gives None."""
    convert = {_check_real: float, _path: str}.get(rule, int)

    def parse(raw: str, name: str):
        if raw.lower() in words:
            return None
        try:
            value = convert(raw)
        except ValueError:
            value = raw
        return rule(value, name, *bound)

    return parse


def _path(raw: str, name: str) -> str:
    if not raw:
        raise ValueError(f"{name} must be a non-empty path")
    return raw


def _one_of(name: str, words, got) -> str:
    return f"{name} must be one of {' | '.join(words)}, got {got!r}"


def _word(mapping: dict):
    def parse(raw: str, name: str):
        if raw.lower() not in mapping:
            raise ValueError(_one_of(name, mapping, raw))
        return mapping[raw.lower()]

    return parse


# Every config key: (section, key) -> (parser, default), where key names the
# ExperimentConfig field it sets and a default of ... marks a required key.
# load_config derives the None defaults of x0_seed and record_stride.
CONFIG_SCHEMA = {
    ("experiment", "scenario"): (_word({w: w for w in _MODES}), ...),
    ("experiment", "num_runs"): (_from_text(_check_count, 1), ...),
    ("experiment", "run_seed_base"): (_from_text(_check_u64), ...),
    ("experiment", "x0_seed"): (_from_text(_check_u64), None),
    ("problem", "m"): (_from_text(_check_count, 1), ...),
    ("problem", "n"): (_from_text(_check_count, 1), ...),
    ("problem", "noise_std"): (_from_text(_check_real, False), ...),
    ("problem", "problem_seed"): (_from_text(_check_u64), ...),
    ("solver", "mu"): (_from_text(_check_real, words=("auto", "suggest")), ...),
    ("solver", "eps"): (_from_text(_check_real), None),
    ("solver", "step_size"): (_from_text(_check_real, words=("theorem", "auto")), ...),
    ("solver", "num_iters"): (_from_text(_check_count, 0), ...),
    ("solver", "record_stride"): (_from_text(_check_count, 1), None),
    ("outputs", "csv_path"): (_path, None),
    ("outputs", "svg_path"): (_path, None),
    ("outputs", "bound_overlay"): (
        _word(dict.fromkeys(("true", "yes", "on", "1"), True)
              | dict.fromkeys(("false", "no", "off", "0"), False)),
        True,
    ),
}

# configparser's own line grammar: '#' after whitespace starts a comment,
# section names are case-sensitive, option names are not, '=' or ':' ends one
_INLINE_COMMENT = re.compile(r"(^|\s)#.*")


def _find_line(text: str, section: str, key: str | None) -> int | None:
    """Line number of a [section] header (key None) or of a key inside it."""
    current = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = _INLINE_COMMENT.sub("", raw).strip()
        header = configparser.ConfigParser.SECTCRE.match(line)
        if header:
            current = header.group("header")
            if key is None and current == section:
                return lineno
        elif key is not None and current == section:
            option = configparser.ConfigParser.OPTCRE.match(line)
            if option and option.group("option").strip().lower() == key:
                return lineno
    return None


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; errors carry file and line."""
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", path=path) from exc
    # no section name can be empty, so [DEFAULT] is an ordinary (unknown) one
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), default_section=""
    )
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"config syntax error: {exc.message}", path=path, line=line) from exc

    def fail(section: str, key: str | None, message: str):
        raise ConfigError(message, path=path, line=_find_line(text, section, key))

    if parser.has_section("set"):
        kind = parser["set"].get("kind")
        if kind is None or kind.lower() != "box":
            fail("set", "kind" if kind else None, f"unknown set kind {kind!r}")
    for section in parser.sections():
        allowed = SET_KEYS if section == "set" else {k for s, k in CONFIG_SCHEMA if s == section}
        if not allowed:
            fail(section, None, f"unknown section [{section}]")
        for key in parser[section]:
            if key not in allowed:
                fail(section, key, f"unknown key [{section}] {key}")

    values = {}
    for (section, key), (parse, default) in CONFIG_SCHEMA.items():
        raw = parser.get(section, key, fallback=None)
        if raw is None and default is ...:
            where = "section" if parser.has_section(section) else "missing section"
            fail(section, None, f"[{section}] {key} is required ({where} [{section}])")
        try:
            values[key] = default if raw is None else parse(raw.strip(), f"[{section}] {key}")
        except ValueError as exc:
            fail(section, key, str(exc))

    if values["x0_seed"] is None:
        values["x0_seed"] = values["problem_seed"] + 1
    if values["record_stride"] is None:
        values["record_stride"] = max(1, values["num_iters"] // 200)
    set_spec = dict(parser["set"]) if parser.has_section("set") else None
    cfg = ExperimentConfig(**values, set_spec=set_spec, source_path=path)
    broken = _broken_rule(cfg)
    if broken is not None:
        fail(*broken)
    return cfg


def _broken_rule(config: ExperimentConfig) -> tuple[str, str | None, str] | None:
    """(section, key, message) for the first rule spanning the config's keys
    that it breaks, else None; key None stands for the section's line."""
    if config.scenario not in _MODES:
        return "experiment", "scenario", _one_of("[experiment] scenario", _MODES, config.scenario)
    # make_least_squares's rule for each, which the comparison needs
    m, n = _check_count(config.m, "m", 1), _check_count(config.n, "n", 1)
    if n < m:
        return "problem", "n", f"n must be >= m, got m={m}, n={n}"
    if config.mu is None and config.eps is None:
        return "solver", "mu", "[solver] eps is required when mu = auto"
    if config.mu is not None and config.eps is not None:
        return "solver", "eps", "[solver] eps is only valid with mu = auto"
    constrained = config.scenario == "constrained"
    if constrained and config.set_spec is None:
        return "experiment", "scenario", "constrained scenario requires a [set] section"
    if not constrained and config.set_spec is not None:
        return "set", None, "[set] is only valid for the constrained scenario"
    try:
        for section, key, seed in (
            ("problem", "problem_seed", config.problem_seed),
            ("experiment", "x0_seed", config.x0_seed),
            ("experiment", "run_seed_base", config.run_seed_base),
        ):
            _check_u64(seed, f"[{section}] {key}")
        # the last run's seed, which no line holds: refused at run_seed_base's
        last = config.run_seed_base + config.num_runs - 1
        _check_u64(last, "[experiment] run_seed_base + num_runs - 1")
    except ValueError as exc:
        return section, key, str(exc)
    if constrained:
        try:
            diameter = spec_diameter(config.set_spec, n)
        except ValueError as exc:
            # spec_diameter starts a message about one key's value with that key
            key = str(exc).split(" ", 1)[0]
            if key in config.set_spec:
                return "set", key, f"[set] {exc}"
            return "set", None, str(exc)
        if not math.isfinite(diameter):
            return "set", None, "constrained scenario requires a finite-diameter set"
    if config.svg_path is not None and config.num_iters == 0:
        message = "[outputs] svg_path needs [solver] num_iters >= 1 (a log-log chart needs k > 0)"
        return "outputs", "svg_path", message
    return None


def apply_seed_override(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Rebase all seeds on one value (problem, x0, and run seeds)."""
    config = replace(config, problem_seed=seed, x0_seed=seed + 1, run_seed_base=seed + 2)
    broken = _broken_rule(config)
    if broken is not None:
        raise ConfigError(f"seed override {seed}: {broken[2]}", path=config.source_path)
    return config


def checkpoint_grid(num_iters: int) -> np.ndarray:
    """Geometric grid of iteration indices (ratio about 1.15) plus endpoints."""
    num_iters = _check_count(num_iters, "num_iters", 0)
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
    # run index -> iteration at which that run diverged; reported on stderr
    # only, the CSV (and so read_series_csv) keeps just the run indices
    diverged_at: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class _RunSummary:
    """One finished run read at checkpoint_grid(num_iters): what aggregate needs.

    f and best_f are f(x_k) and the best value so far at the checkpoints;
    gap is the running average of f(x_j) - f_star over j <= k there, or
    None when f_star was not given.  sigma_sq is the run's c11 sigma^2 at
    every k = 0..num_iters when the sigma overlay is on, else None: the
    overlay averages it across runs at every k, so it stays dense.
    """

    num_iters: int
    f: np.ndarray
    best_f: np.ndarray
    gap: np.ndarray | None
    f_star: float | None
    feasibility_violations: int
    sigma_sq: np.ndarray | None = None


def _summarize_run(record: RunRecord, f_star: float | None) -> _RunSummary:
    """A run's checkpoint rows, with the bits of the dense per-run arrays there."""
    ks = checkpoint_grid(record.num_iters)
    gap = None
    if f_star is not None:
        # a sequential cumsum; dividing after the selection is elementwise
        sums = record.values - f_star
        gap = np.cumsum(sums, out=sums)[ks] / (ks + 1.0)
    return _RunSummary(
        num_iters=record.num_iters,
        f=record.values[ks],
        best_f=record.best_values[ks],
        gap=gap,
        f_star=f_star,
        feasibility_violations=record.feasibility_violations,
    )


class _Checkpoints:
    """solvers._run's recorder for a worker's block: each run's _RunSummary,
    read at checkpoint_grid(num_iters) from _run's value calls as the run
    goes, so that nothing it holds grows with num_iters.

    It has the bits of _summarize_run over the run's RunRecord: a running
    minimum of f(x_j) taken as np.minimum.accumulate takes it (on a tie the
    later value), and a running sum of f(x_j) - f_star added in order, as
    np.cumsum adds, from -0.0, which x + -0.0 leaves as x.

    Given the problem and mu it also keeps the sigma overlay: sigma_hook,
    the solver's on_iterate, stores |grad f(x_k)|^2 for every run and k, and
    outcome turns the run's row into its c11 sigma^2 in place.
    """

    def __init__(self, num_runs: int, num_iters: int, f_star: float, problem=None, mu=None):
        self.num_iters = num_iters
        self.f_star = f_star
        self.column = {k: c for c, k in enumerate(checkpoint_grid(num_iters).tolist())}
        shape = (num_runs, len(self.column))
        self.f, self.best_f, self.gap = np.empty(shape), np.empty(shape), np.empty(shape)
        self.best = [math.inf] * num_runs
        self.total = [-0.0] * num_runs
        self.problem, self.mu = problem, mu
        self.grad_sq = None if problem is None else np.empty((num_runs, num_iters + 1))

    def value(self, i: int, k: int, value: float, X: np.ndarray, j: int) -> None:
        if value <= self.best[i]:
            self.best[i] = value
        self.total[i] += value - self.f_star
        c = self.column.get(k)
        if c is not None:
            self.f[i, c] = value
            self.best_f[i, c] = self.best[i]
            self.gap[i, c] = self.total[i] / (k + 1.0)

    def sigma_hook(self, k: int, X: np.ndarray) -> None:
        g = self.problem.grad(X)
        self.grad_sq[:, k] = np.vecdot(g, g)

    def outcome(self, i: int, violations: int) -> _RunSummary:
        sigma_sq = None if self.grad_sq is None else self.grad_sq[i]
        if sigma_sq is not None:
            p = self.problem
            _c11_sigma_sq(self.mu, p.dim, p.lip_const, sigma_sq, out=sigma_sq)
        return _RunSummary(
            num_iters=self.num_iters,
            f=self.f[i],
            best_f=self.best_f[i],
            gap=self.gap[i],
            f_star=self.f_star,
            feasibility_violations=violations,
            sigma_sq=sigma_sq,
        )


def _run_order_mean(rows: list[np.ndarray]) -> np.ndarray:
    """Mean of rows summed one after another in run order.

    These are the bits of numpy's axis-0 mean over the dense (runs, N + 1)
    matrix at the same columns.  An axis-0 reduction of the narrow matrix of
    rows may sum in another order, depending on its memory layout.
    """
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total / len(rows)


def _run_order_std(rows: list[np.ndarray], mean: np.ndarray) -> np.ndarray:
    """Sample standard deviation (divisor R - 1, 0 for one run) by numpy's
    two-pass formula, the squared deviations summed in run order."""
    if len(rows) == 1:
        return np.zeros_like(mean)
    total = np.zeros_like(mean)
    for row in rows:
        dev = row - mean
        total += dev * dev
    return np.sqrt(total / (len(rows) - 1))


def aggregate(
    records: list[RunRecord | _RunSummary],
    bound_inputs: BoundInputs | None = None,
    f_star: float | None = None,
    step_size: float | None = None,
) -> AggregateSeries:
    """Cross-run mean/std of f(x_k), best-so-far mean, and optional bound.

    records are RunRecords, or the checkpoint summaries that run_experiment's
    workers hand back; both are read at the checkpoints only, and the output
    has the bits of the same statistics over the dense per-run arrays.  All
    records must share the same iteration count.  Standard deviations
    use the sample convention (divisor R - 1) and are 0 for a single run.
    When bound_inputs carries a diameter the constrained bound is evaluated,
    otherwise the unconstrained one; step_size is forwarded to the bound.
    """
    if not records:
        raise ValueError("no records to aggregate")
    runs = [r if isinstance(r, _RunSummary) else _summarize_run(r, f_star) for r in records]
    num_iters = runs[0].num_iters
    for run in runs[1:]:
        if run.num_iters != num_iters:
            raise ValueError("records do not share a checkpoint grid")
    if f_star is not None and any(run.f_star != f_star for run in runs):
        raise ValueError("run summaries were taken against another f_star")
    ks = checkpoint_grid(num_iters)
    n_runs = len(runs)

    f_rows = [run.f for run in runs]
    mean_f = _run_order_mean(f_rows)
    std_f = _run_order_std(f_rows, mean_f)
    mean_best = _run_order_mean([run.best_f for run in runs])

    gap = gap_se = None
    if f_star is not None:
        gap_rows = [run.gap for run in runs]
        gap = _run_order_mean(gap_rows)
        gap_se = _run_order_std(gap_rows, gap) / math.sqrt(n_runs)

    bound = None
    if bound_inputs is not None:
        if bound_inputs.d_x is not None:
            gap_bound = constrained_gap_bound
        else:
            gap_bound = unconstrained_gap_bound
        bound = np.array([gap_bound(bound_inputs, int(k), step_size) for k in ks])

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
    columns = [c for c in _VALUE_COLUMNS if getattr(series, c) is not None]
    arrays = [getattr(series, c) for c in columns]
    lines = [_CSV_MAGIC]
    lines.append(f"# f_star = {'none' if series.f_star is None else repr(series.f_star)}")
    lines.append(f"# num_runs = {series.num_runs}")
    for key in sorted(series.metadata):
        lines.append(f"# {key} = {series.metadata[key]}")
    lines.append(",".join(["k", *columns]))
    for i, k in enumerate(series.ks):
        lines.append(",".join([str(int(k)), *(repr(float(a[i])) for a in arrays)]))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_value(path, number: int, name: str, text: str):
    """A value of a series CSV: num_runs and k are counts (>= 1 and >= 0),
    the rest floats; else one ValueError naming the file and the line."""
    low = {"num_runs": 1, "k": 0}.get(name)
    try:
        value = float(text) if low is None else int(text)
    except ValueError:
        kind = "a number" if low is None else "an integer"
        raise ValueError(f"{path}: line {number}: {name} must be {kind}, got {text!r}") from None
    if low is None:
        return value
    try:
        return _check_count(value, name, low)
    except ValueError as exc:
        raise ValueError(f"{path}: line {number}: {exc}") from None


def read_series_csv(path) -> AggregateSeries:
    """Read a CSV written by write_series_csv, reproducing it exactly."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: cannot read series: {exc}") from exc
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
            f_star = None if value == "none" else _csv_value(path, idx + 1, key, value)
        elif key == "num_runs":
            num_runs = _csv_value(path, idx + 1, key, value)
        else:
            metadata[key] = value
        idx += 1
    if num_runs is None:
        raise ValueError(f"{path}: missing num_runs header")
    if idx == len(lines):
        raise ValueError(f"{path}: line {idx + 1}: file ends before the column line")
    columns = lines[idx].split(",")
    column_line = f"{path}: line {idx + 1}: the column line"
    for at, name in enumerate(columns):
        if name in columns[:at]:
            raise ValueError(f"{column_line} repeats {name}")
    for name in ("k", *_VALUE_COLUMNS[:3]):
        if name not in columns:
            raise ValueError(f"{column_line} has no {name} column")
    for name in columns:
        if name != "k" and name not in _VALUE_COLUMNS:
            raise ValueError(f"{column_line} has an unknown column {name}")
    data = {name: [] for name in columns}
    for number, line in enumerate(lines[idx + 1 :], start=idx + 2):
        if not line:
            continue
        row = line.split(",")
        if len(row) != len(columns):
            raise ValueError(
                f"{path}: line {number}: {len(row)} cells, the header has {len(columns)}"
            )
        for name, cell in zip(columns, row):
            data[name].append(_csv_value(path, number, name, cell))

    def floats(name):
        return np.array(data[name], dtype=float) if name in data else None

    return AggregateSeries(
        ks=np.array(data["k"], dtype=np.int64),
        **{name: floats(name) for name in _VALUE_COLUMNS},
        f_star=f_star,
        num_runs=num_runs,
        metadata=metadata,
    )


@dataclass(frozen=True, eq=False)
class _RunTask:
    """A block of runs for one worker: one solver config per run."""

    problem: TestProblem
    x0: np.ndarray
    solvers: tuple[SolverConfig, ...]
    feasible_set: FeasibleSet | None
    collect_sigma: bool
    f_star: float


def _execute_run(task: _RunTask) -> list[_RunSummary | DivergenceError]:
    """Advance a block of runs together: each run's checkpoint summary (with
    collect_sigma, carrying its c11 sigma^2 row) or DivergenceError, in
    block order."""
    problem = task.problem
    cfg = task.solvers[0]  # the runs of a block share all but their seeds
    overlay = (problem, cfg.oracle.mu) if task.collect_sigma else ()
    recorder = _Checkpoints(len(task.solvers), cfg.num_iters, task.f_star, *overlay)
    on_iterate = recorder.sigma_hook if task.collect_sigma else None
    if task.feasible_set is None:
        block = random_search(
            problem.objective, task.x0, task.solvers, on_iterate=on_iterate, _recorder=recorder
        )
    else:
        block = projected_random_search(
            problem.objective, task.feasible_set, task.x0, task.solvers,
            on_iterate=on_iterate, _recorder=recorder,
        )
    return block.outcomes


def _leave_interrupts() -> None:
    """A pool worker ignores SIGINT: the parent alone reports an interrupt,
    and ends the pool."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def resolve_output_path(path: str | None, out_dir: str | None) -> str | None:
    """Join a config-relative output path with --out-dir when given."""
    if path is None or out_dir is None:
        return path
    return str(Path(out_dir) / path)


@contextmanager
def _writing(path: str):
    """An OSError while writing the output path ends in one ConfigError line."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


@contextmanager
def _workers(num_blocks: int):
    """A started pool of num_blocks workers, or None for one block.

    Under fork the pool forks every worker at its first submit, so a no-op
    submitted here forks them before the box reference solve loads scipy,
    which the workers never use.  An exception in the body (an interrupt, a
    refused solve, a block that failed) ends the workers at once rather than
    waiting for them.
    """
    if num_blocks == 1:
        yield None
        return
    others = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(max_workers=num_blocks, initializer=_leave_interrupts)
    try:
        pool.submit(int)
        yield pool
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        workers = set(multiprocessing.active_children()) - others
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join()
        raise
    pool.shutdown()


def constrained_opt_value(problem: TestProblem, feasible_set: FeasibleSet) -> float:
    """analysis.constrained_opt_value, whose module (and scipy) loads on the first call."""
    from . import analysis

    return analysis.constrained_opt_value(problem, feasible_set)


def run_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    full: bool = False,
    out_dir: str | None = None,
) -> AggregateSeries:
    """Execute an experiment and write its outputs.

    A config that breaks a rule spanning its keys is refused first, with a
    file's message.  The runs are split into min(jobs, num_runs) contiguous
    blocks, one per pool worker (in-process for one block), each advanced
    in lockstep; a run's bits do not depend on its block, so the result
    does not depend on the worker count.  Diverged runs are recorded in the
    metadata, with the iteration each one diverged at in the returned
    series' diverged_at, and skipped by the aggregation; if every run
    diverges a RuntimeError is raised.  An output that cannot be written
    raises a ConfigError that names its path.  The pool workers start after
    every check of the config and before the reference solve; an interrupt,
    a refused solve or a block that raises ends them at once and propagates.
    """
    jobs = _check_count(jobs, "jobs", 1)
    num_runs = _check_count(config.num_runs, "num_runs", 1)
    broken = _broken_rule(config)
    if broken is not None:
        raise ConfigError(broken[2], path=config.source_path)
    cost = config.num_iters * num_runs * config.n
    if cost > FULL_GATE_COST and not full:
        raise FullRunRequired(
            f"experiment cost {cost:.2g} (iterations * runs * dimension) exceeds "
            f"{FULL_GATE_COST:.0e}; pass --full to run it"
        )
    stored = num_runs * (config.num_iters + 1)
    if stored > FULL_GATE_VALUES and not full:
        raise FullRunRequired(
            f"experiment size {stored:.2g} (runs * (iterations + 1) stored values) exceeds "
            f"{FULL_GATE_VALUES:.0e}; pass --full to run it"
        )
    csv_path = resolve_output_path(config.csv_path, out_dir)
    svg_path = resolve_output_path(config.svg_path, out_dir)
    if csv_path and svg_path and Path(csv_path).resolve() == Path(svg_path).resolve():
        message = f"[outputs] csv_path and svg_path name the same file {csv_path}"
        raise ConfigError(message, path=config.source_path)
    for path in filter(None, (csv_path, svg_path)):
        if Path(path).is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        try:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the directory of {path}: {exc.strerror}") from exc

    # an instance that overflows is reported once, at f(x0) below
    with np.errstate(over="ignore", invalid="ignore"):
        problem = make_least_squares(config.m, config.n, config.noise_std, config.problem_seed)
    lip = problem.lip_const
    pl = problem.pl_const
    n = config.n
    mode = config.scenario

    # _broken_rule gives a constrained config, and only one, a finite-diameter box
    feasible = None if config.set_spec is None else set_from_spec(config.set_spec, n)
    d_x = None if feasible is None else feasible.diameter()

    mu = config.mu
    if mu is None:
        try:
            mu, _ = suggest_params(mode, config.eps, n, lip, pl, d_x=d_x)
        except ValueError as exc:
            raise ConfigError(f"[solver] mu = auto: {exc}", path=config.source_path) from exc
    analyzed = theorem_step_size(mode, n, lip)
    step = analyzed if config.step_size is None else config.step_size

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
        "requested_runs": str(num_runs),
    }

    x0 = substream(config.x0_seed, 0).standard_normal(n)
    if feasible is not None:
        x0 = feasible.project(x0)
        metadata["x0_note"] = "standard normal sample projected onto the feasible set"
        metadata["set"] = ";".join(f"{k}={v}" for k, v in sorted(feasible.spec().items()))
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = problem.objective(x0)
    if not math.isfinite(f0):
        where = " and x0 in the [set] box" if feasible is not None else ""
        raise ConfigError(
            f"f(x0) = {f0!r} is not finite with [problem] noise_std = {config.noise_std!r}{where}",
            path=config.source_path,
        )

    if mode == "constrained" and step > analyzed:
        # once, before any block starts: the blocks may run in other processes
        warnings.warn(
            f"step size {step:.3g} exceeds 1/lip_const {analyzed:.3g}; the projected "
            "scheme's guarantees assume steps at or below it",
            stacklevel=2,
        )
    collect_sigma = config.bound_overlay and mode == "constrained"
    if collect_sigma:
        # the c11 floor, which the sigma hook adds at every iterate
        try:
            oracle_variance_candidate(mu, n, lip, 0.0)
        except ValueError as exc:
            message = f"[solver] mu is too large for the bound overlay: {exc}"
            raise ConfigError(message, path=config.source_path) from exc
    solvers = [
        SolverConfig(
            oracle=OracleConfig(mu=float(mu), seed=config.run_seed_base + i),
            step_size=float(step),
            num_iters=config.num_iters,
            record_stride=config.record_stride,
        )
        for i in range(num_runs)
    ]
    num_blocks = min(jobs, num_runs)
    edges = [num_runs * b // num_blocks for b in range(num_blocks + 1)]
    with _workers(num_blocks) as pool:
        try:
            f_star = (
                problem.opt_value if feasible is None else constrained_opt_value(problem, feasible)
            )
        except ValueError as exc:
            raise ConfigError(f"[set] {exc}", path=config.source_path) from exc
        tasks = [
            _RunTask(
                problem=problem,
                x0=x0,
                solvers=tuple(solvers[lo:hi]),
                feasible_set=feasible,
                collect_sigma=collect_sigma,
                f_star=f_star,
            )
            for lo, hi in zip(edges, edges[1:])
        ]
        # both paths return the blocks, and so the outcomes, in run index order
        if pool is None:
            blocks = [_execute_run(t) for t in tasks]
        else:
            blocks = list(pool.map(_execute_run, tasks))
    outcomes = [outcome for block in blocks for outcome in block]

    summaries = [o for o in outcomes if isinstance(o, _RunSummary)]
    if not summaries:
        raise RuntimeError(f"every run diverged; first failure: {outcomes[0]}")
    diverged_at = {
        i: o.iteration for i, o in enumerate(outcomes) if isinstance(o, DivergenceError)
    }
    metadata["diverged_runs"] = ",".join(map(str, diverged_at))

    bound_inputs = None
    if config.bound_overlay:
        sigma_seq = None
        if collect_sigma:
            # rms across runs upper-bounds both the mean of sigma and the
            # mean of sigma^2 that the expectation form of the bound needs
            sigma_seq = np.sqrt(_run_order_mean([run.sigma_sq for run in summaries]))
            metadata["sigma_note"] = (
                "sigma_k from the c11 candidate with analytic gradient norms, "
                "rms across runs"
            )
            metadata["bound_pl_note"] = (
                "constrained bound evaluated with the unconstrained dominance "
                "constant"
            )
        bound_inputs = BoundInputs(
            n=n,
            lip_const=lip,
            pl_const=pl,
            mu=float(mu),
            initial_gap=max(0.0, float(summaries[0].f[0]) - f_star),
            d_x=d_x,
            sigma_seq=sigma_seq,
        )
        if not math.isclose(step, analyzed, rel_tol=1e-9):
            metadata["bound_step_note"] = (
                "step size differs from the analyzed one; leading bound term "
                "rescaled heuristically"
            )

    try:
        series = aggregate(summaries, bound_inputs=bound_inputs, f_star=f_star, step_size=step)
    except ValueError as exc:  # the runs' only ValueError: a bound that overflows
        message = f"[outputs] bound_overlay has no finite bound for this config: {exc}"
        raise ConfigError(message, path=config.source_path) from exc
    series.metadata.update(metadata)
    series.diverged_at = diverged_at
    if feasible is not None:
        series.metadata["feasibility_violations"] = str(
            sum(run.feasibility_violations for run in summaries)
        )

    if csv_path is not None:
        with _writing(csv_path):
            write_series_csv(series, csv_path)
    if svg_path is not None:
        curves = [
            ("mean f(x_k)", series.ks.tolist(), series.mean_f.tolist()),
            ("mean best-so-far", series.ks.tolist(), series.mean_best_f.tolist()),
        ]
        if series.bound_rhs is not None:
            curves.append(
                ("running-avg gap", series.ks.tolist(), series.running_avg_gap.tolist())
            )
            curves.append(("gap bound", series.ks.tolist(), series.bound_rhs.tolist()))
        with _writing(svg_path):
            write_log_log_chart(
                svg_path,
                curves,
                title=f"{mode} run: m={config.m}, n={n}, {len(summaries)} runs",
            )
    return series
