"""Traced in-process run of one workload: per-layer self times and counts.

    tracing.py --workload NAME --seed N --scale full|tiny --work-dir DIR [--untraced]

The workload runs once in this process at jobs = 1.  With --untraced it
runs as is and only its wall time is reported: run.py runs that first, in a
process of its own, as the reference for the tracing overhead, so that both
runs start cold as a user's run does.  Otherwise tracing replaces the module
functions and methods that zopt's layers call on each other (the callables
the solver receives and the module functions it calls) with timing
wrappers; nothing inside src/zopt is edited.

A span is one wrapped call.  Its self time is its duration minus the time of
the spans it caused, so the self times of all spans partition the traced
wall time; what is left (the residual) is this script's own glue.  Spans
are folded into per-name totals when they close, which keeps memory flat
over millions of calls, and written out as one JSON line at the end.
Work the tracer adds is a span of its own under `trace.`, so it lands in
no layer of zopt: `trace.bookkeeping` is the active-projection test and a
second, untimed `aggregate` call under tracemalloc for its memory peak;
`trace.handoff` pickles and unpickles each run result as a pool would,
which zopt does not do at jobs = 1.

The JSON line has the keys rc, wall_s and, when traced, metrics.  A metric
of a layer that does no such work on the workload is 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (sibling module)

LAYERS = ("rng", "problems", "oracle", "sets", "solvers", "analysis", "harness", "svgplot", "cli")

# name -> unit, in print order.  Times are self times per call unless the
# README says otherwise.
UNITS = {
    "rng.draw_us": "us",
    "rng.draw_ns_per_normal_batch": "ns",
    "problems.f_us": "us",
    "problems.evals": "count",
    "problems.f_batch_ns_per_point": "ns",
    "problems.build_s": "s",
    "oracle.eval_self_us": "us",
    "oracle.calls": "count",
    "sets.project_us": "us",
    "sets.contains_us": "us",
    "sets.contains_calls": "count",
    "sets.active_frac": "ratio",
    "solvers.loop_self_us": "us",
    "solvers.iters": "count",
    "solvers.diverged_runs": "count",
    "analysis.sigma_hook_us": "us",
    "analysis.opt_value_s": "s",
    "analysis.bound_s": "s",
    "analysis.probe_deviation_s": "s",
    "analysis.probe_loop_us": "us",
    "analysis.prox_pl_s": "s",
    "harness.handoff_bytes": "bytes",
    "harness.handoff_s": "s",
    "harness.aggregate_s": "s",
    "harness.aggregate_peak_mb": "MB",
    "harness.csv_write_s": "s",
    "svgplot.write_s": "s",
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in (*LAYERS, "trace")},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.residual_frac": "ratio",
}


class Tracer:
    """Span stack with per-name self-time totals and free-form counters."""

    def __init__(self):
        self.stack = [["<outside>", 0.0, 0.0]]  # [name, child seconds, start]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.paused = False  # spans inside a paused stretch are not recorded

    def begin(self, name: str) -> None:
        if self.paused:
            return
        self.stack.append([name, 0.0, time.perf_counter()])

    def end(self) -> None:
        if self.paused:
            return
        end = time.perf_counter()
        name, child, start = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        self.stack[-1][1] += duration

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def per_call(self, name: str, scale: float = 1.0) -> float:
        calls = self.calls[name]
        return self.self_s[name] / calls * scale if calls else 0.0


def ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


class Patches:
    """Attribute replacements on zopt's modules and classes, undone on exit."""

    def __init__(self):
        self.saved = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner, attr: str, name: str) -> None:
        self.set(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary the workloads cross."""
    import numpy as np
    from zopt import analysis, cli, harness, problems, sets, solvers

    t = tracer
    for owner, attr, name in (
        (cli, "main", "cli.main"),
        (harness, "load_config", "harness.load_config"),
        (harness, "run_experiment", "harness.run_experiment"),
        (harness, "write_series_csv", "harness.csv_write"),
        (harness, "write_log_log_chart", "svgplot.write"),
        (harness, "make_least_squares", "problems.build"),
        (problems, "make_least_squares", "problems.build"),
        (harness, "set_from_spec", "sets.set_from_spec"),
        (harness, "substream", "rng.substream"),
        (analysis, "substream", "rng.substream"),
        (harness, "suggest_params", "solvers.params"),
        (harness, "theorem_step_size", "solvers.params"),
        (harness, "constrained_opt_value", "analysis.opt_value"),
        (analysis, "constrained_opt_value", "analysis.opt_value"),
        (harness, "unconstrained_gap_bound", "analysis.bound"),
        (harness, "constrained_gap_bound", "analysis.bound"),
        (analysis, "probe_deviation", "analysis.probe_deviation"),
        (analysis, "gradient_map", "sets.gradient_map"),
        (solvers, "oracle_eval", "oracle.eval"),
        (analysis, "verify_oracle_inequalities", "analysis.verify"),
        (analysis, "check_proximal_pl", "analysis.prox_pl"),
        (problems.LeastSquaresObjective, "__call__", "problems.f"),
        (problems.TestProblem, "grad", "problems.grad"),
    ):
        patches.wrap(t, owner, attr, name)
    for cls in (sets.Box, sets.Ball, sets.WholeSpace):
        patches.wrap(t, cls, "contains", "sets.contains")
        patches.wrap(t, cls, "sample", "sets.sample")

    def draws(original):
        def sample_directions(cfg, dim, counter, num, sampler=None):
            t.begin("rng.draw" if num == 1 else "rng.draw_batch")
            try:
                return original(cfg, dim, counter, num, sampler=sampler)
            finally:
                t.end()
                if num != 1:
                    t.counts["batch_normals"] += num * dim

        return sample_directions

    patches.set(solvers, "sample_directions", draws(solvers.sample_directions))
    patches.set(analysis, "sample_directions", draws(analysis.sample_directions))

    batch = problems.LeastSquaresObjective.batch

    def traced_batch(self, points):
        t.begin("problems.f_batch")
        try:
            return batch(self, points)
        finally:
            t.end()
            t.counts["batch_points"] += len(points)

    patches.set(problems.LeastSquaresObjective, "batch", traced_batch)

    def projection(original):
        def project(self, x):
            t.begin("sets.project")
            try:
                out = original(self, x)
            finally:
                t.end()
            t.begin("trace.bookkeeping")
            changed = np.any(out != np.asarray(x), axis=-1)
            t.counts["projected_points"] += changed.size
            t.counts["active_points"] += int(np.count_nonzero(changed))
            t.end()
            return out

        return project

    for cls in (sets.Box, sets.Ball, sets.WholeSpace):
        patches.set(cls, "project", projection(cls.project))

    def solver(original):
        def run(*args, on_iterate=None, **kwargs):
            if on_iterate is not None:
                # the only hook the harness passes is the c11 sigma recorder
                on_iterate = t.wrap("analysis.sigma_hook", on_iterate)
            t.begin("solvers.loop")
            try:
                record = original(*args, on_iterate=on_iterate, **kwargs)
            except solvers.DivergenceError as exc:
                t.counts["iters"] += exc.iteration
                t.counts["diverged"] += 1
                raise
            finally:
                t.end()
            t.counts["iters"] += record.num_iters
            return record

        return run

    patches.set(harness, "random_search", solver(harness.random_search))
    patches.set(harness, "projected_random_search", solver(harness.projected_random_search))

    execute_run = t.wrap("harness.execute_run", harness._execute_run)

    def traced_execute_run(task):
        outcome = execute_run(task)
        # jobs = 1 hands results over in memory; a pool pickles each one
        t.begin("trace.handoff")
        blob = ForkingPickler.dumps(outcome)
        ForkingPickler.loads(blob)
        t.end()
        t.counts["handoff_bytes"] += len(blob)
        return outcome

    patches.set(harness, "_execute_run", traced_execute_run)

    aggregate = harness.aggregate
    timed_aggregate = t.wrap("harness.aggregate", aggregate)

    def traced_aggregate(*args, **kwargs):
        series = timed_aggregate(*args, **kwargs)
        # the memory peak comes from a second call: tracemalloc's allocation
        # hook would slow the timed one
        t.begin("trace.bookkeeping")
        t.paused = True
        tracemalloc.start()
        try:
            aggregate(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            t.paused = False
            t.end()
        t.counts["aggregate_peak_bytes"] = max(t.counts["aggregate_peak_bytes"], peak)
        return series

    patches.set(harness, "aggregate", traced_aggregate)


def layer_metrics(tracer: Tracer, spec, scale: str, wall: float, import_s: float) -> dict:
    s = tracer.self_s
    c = tracer.counts
    probes = spec.sizes[scale][0] if spec.kind == "verify" else 0
    layer_self = {layer: 0.0 for layer in (*LAYERS, "trace")}
    for name, seconds in s.items():
        layer_self[name.split(".")[0]] += seconds
    return {
        "rng.draw_us": tracer.per_call("rng.draw", 1e6),
        "rng.draw_ns_per_normal_batch": ratio(s["rng.draw_batch"], c["batch_normals"], 1e9),
        "problems.f_us": tracer.per_call("problems.f", 1e6),
        "problems.evals": tracer.calls["problems.f"],
        "problems.f_batch_ns_per_point": ratio(s["problems.f_batch"], c["batch_points"], 1e9),
        "problems.build_s": tracer.per_call("problems.build"),
        "oracle.eval_self_us": tracer.per_call("oracle.eval", 1e6),
        "oracle.calls": tracer.calls["oracle.eval"],
        "sets.project_us": tracer.per_call("sets.project", 1e6),
        "sets.contains_us": tracer.per_call("sets.contains", 1e6),
        "sets.contains_calls": tracer.calls["sets.contains"],
        "sets.active_frac": ratio(c["active_points"], c["projected_points"]),
        "solvers.loop_self_us": ratio(s["solvers.loop"], c["iters"], 1e6),
        "solvers.iters": c["iters"],
        "solvers.diverged_runs": c["diverged"],
        "analysis.sigma_hook_us": tracer.per_call("analysis.sigma_hook", 1e6),
        "analysis.opt_value_s": tracer.per_call("analysis.opt_value"),
        "analysis.bound_s": ratio(s["analysis.bound"], tracer.calls["harness.aggregate"]),
        "analysis.probe_deviation_s": tracer.per_call("analysis.probe_deviation"),
        "analysis.probe_loop_us": ratio(s["analysis.verify"], probes, 1e6),
        "analysis.prox_pl_s": tracer.per_call("analysis.prox_pl"),
        "harness.handoff_bytes": ratio(c["handoff_bytes"], tracer.calls["trace.handoff"]),
        "harness.handoff_s": tracer.per_call("trace.handoff"),
        "harness.aggregate_s": tracer.per_call("harness.aggregate"),
        "harness.aggregate_peak_mb": c["aggregate_peak_bytes"] / 1e6,
        "harness.csv_write_s": tracer.per_call("harness.csv_write"),
        "svgplot.write_s": tracer.per_call("svgplot.write"),
        "cli.import_s": import_s,
        **{f"{layer}.self_s": seconds for layer, seconds in layer_self.items()},
        "trace.wall_s": wall,
        "trace.residual_frac": (wall - sum(layer_self.values())) / wall,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--untraced", action="store_true", help="reference run, no tracing")
    args = parser.parse_args()
    spec = workloads.WORKLOADS[args.workload]
    out_dir = args.work_dir / ("untraced" if args.untraced else "traced")

    start = time.perf_counter()
    import zopt.cli  # noqa: F401  (numpy and scipy come with it)

    import_s = time.perf_counter() - start

    tracer = Tracer()
    patches = Patches()
    if not args.untraced:
        install(tracer, patches)
    try:
        start = time.perf_counter()
        if spec.kind == "experiment":
            with contextlib.redirect_stdout(io.StringIO()):
                rc = workloads.run_experiment(args.work_dir / "full.cfg", out_dir, jobs=1)
        else:
            out_dir.mkdir(parents=True, exist_ok=True)
            rc = workloads.run_verify(args.seed, args.scale, out_dir)["rc"]
        wall = time.perf_counter() - start
    finally:
        patches.restore()

    result = {"rc": rc, "wall_s": wall}
    if not args.untraced:
        result["metrics"] = layer_metrics(tracer, spec, args.scale, wall, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
