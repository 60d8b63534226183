"""The zopt benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of unc_n1000, con_box_n40, unc_n24_long, verify_n100, or `all`
(each workload in turn, S seconds each).  Run it from the root of a source
checkout; zopt is imported from ./src.

With --trace 0 the workload is sampled repeatedly for about S seconds, each
sample in a fresh interpreter (child.py), alternating a set-up sample (the
same experiment with num_iters = 0) with a full sample.  It prints the
end-to-end metrics as medians with their sample counts.  With --trace 1 a
single in-process run at jobs = 1 is traced layer by layer (tracing.py).

Every output is checked; the counts of attempted and failed operations go
into the result.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
check passed.  See perfbench/README.md for why each workload exists and what
each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import UNITS as PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # zopt is imported once main() has found it
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB"}


class SampleError(RuntimeError):
    """A child process crashed or printed no result line."""


def spawn(script: str, args: list[str]) -> tuple[float, dict]:
    """Run one child to completion; its wall time and its last-line JSON."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the child's own pool workers share its session: stop them all
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleError(f"{script} {' '.join(args)}: timed out") from None
    wall = time.perf_counter() - start
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SampleError(
            f"{script} {' '.join(args)}: exit {proc.returncode}, no result line\n"
            + err[-2000:]
        ) from None
    return wall, result


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Ledger:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")


class DigestCheck:
    """Output digests must repeat across samples and, at the default seed,
    equal the digest recorded for the workload and scale."""

    def __init__(self, name: str, seed: int, scale: str):
        self.first = None
        self.at_default_seed = seed == workloads.DEFAULT_SEED
        self.expected = None
        if self.at_default_seed:
            recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
            self.expected = recorded.get(scale, {}).get(name)

    def __call__(self, ledger: Ledger, digest: str) -> None:
        if self.first is None:
            self.first = digest
        ledger.check(digest == self.first, f"output digest {digest} differs between samples")
        if self.at_default_seed:
            ledger.check(
                digest == self.expected,
                f"output digest {digest} != recorded {self.expected} at the default seed",
            )


def experiment_sample(spec, cfg: Path, out: Path, setup: bool, ledger, digest_check):
    """One `zopt run` sample: wall seconds, tree and parent peak MB, completed runs."""
    from zopt.harness import read_series_csv

    if out.exists():
        shutil.rmtree(out)
    wall, result = spawn("child.py", ["run", "--config", str(cfg), "--out-dir", str(out)])
    csv_path = out / "run.csv"
    ok = result["rc"] == 0 and csv_path.exists()
    ledger.check(ok, f"zopt run exited {result['rc']}" + ("" if setup else " (full sample)"))
    if not ok:
        return wall, None, None, 0
    series = read_series_csv(csv_path)
    header = series.metadata
    if setup:
        ledger.check(series.ks.tolist() == [0], "set-up CSV is not the single k=0 row")
        return wall, None, None, 0
    diverged = [i for i in header.get("diverged_runs", "").split(",") if i]
    completed = int(header["completed_runs"])
    ledger.ops(spec.num_runs, len(diverged), "runs diverged")
    ledger.check(completed + len(diverged) == spec.num_runs, "completed + diverged != requested")
    # criteria 3 and 4: running-average gap under the bound plus 3 standard errors
    within = series.running_avg_gap <= series.bound_rhs + 3.0 * series.running_avg_gap_se
    over = series.ks[~within].tolist()
    ledger.check(not over, f"running-average gap above bound + 3 SE at k = {over[:5]}")
    if spec.box:
        ledger.check(
            header.get("feasibility_violations") == "0",
            f"feasibility violations: {header.get('feasibility_violations')}",
        )
    digest_check(ledger, sha256(csv_path))
    workers = min(workloads.JOBS, spec.num_runs)
    # getrusage reports the largest reaped child; every worker is taken at it
    peak_kb = result["self_kb"] + workers * result["children_kb"]
    return wall, peak_kb * 1024 / 1e6, result["self_kb"] * 1024 / 1e6, completed


def verify_sample(spec, seed: int, scale: str, out: Path, setup: bool, ledger, digest_check):
    """One verify sample: wall seconds, peak MB (tree and parent alike), no run count."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    args = ["verify", "--seed", str(seed), "--scale", scale, "--out-dir", str(out)]
    wall, result = spawn("child.py", args + (["--setup"] if setup else []))
    if setup:
        ledger.check(result["rc"] == 0, "verify set-up failed")
        return wall, None, None, None
    ledger.ops(result["checks"], result["violated"], "verify checks violated")
    ledger.check(result["all_passed"], "verify did not report all_passed")
    ledger.check(result["prox_evaluated"] > 0, "proximal-PL check evaluated no point")
    digest_check(ledger, sha256(out / "checks.csv"))
    peak = result["self_kb"] * 1024 / 1e6
    return wall, peak, peak, None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def fresh_work_dir(name: str) -> Path:
    work = WORK / name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return work


def measure(name: str, seed: int, seconds: float, scale: str) -> dict:
    """Alternate set-up and full samples for about `seconds`; medians."""
    start = time.perf_counter()
    spec = workloads.WORKLOADS[name]
    work = fresh_work_dir(name)
    ledger = Ledger()
    digest_check = DigestCheck(name, seed, scale)
    _, facts = spawn("child.py", ["facts"])
    facts["git_commit"] = git_commit()

    if spec.kind == "experiment":
        full_cfg, setup_cfg = spec.write_configs(work, seed, scale)

        def sample(setup):
            cfg = setup_cfg if setup else full_cfg
            return experiment_sample(spec, cfg, work / "out", setup, ledger, digest_check)
    else:

        def sample(setup):
            return verify_sample(spec, seed, scale, work / "out", setup, ledger, digest_check)

    # warm-up: compiles bytecode and fills the page cache; its time is not kept
    sample(True)

    setups, walls, peaks, parent_peaks, completed = [], [], [], [], []
    while True:
        if len(walls) >= 2:
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(setups) + statistics.median(walls) > seconds:
                break
        setups.append(sample(True)[0])
        wall, peak, parent_peak, runs = sample(False)
        walls.append(wall)
        if peak is not None:
            peaks.append(peak)
            parent_peaks.append(parent_peak)
        completed.append(runs)

    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    if spec.kind == "experiment":
        evals = spec.evals(scale, min(completed))
    else:
        evals = spec.evals(scale)
    solve_s = wall_s - setup_s
    if solve_s <= 0:
        print(f"{name}: solve time not resolved (wall_s <= setup_s)", file=sys.stderr)
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "evals_per_s": evals / solve_s if solve_s > 0 else 0.0,
        "peak_rss_mb": statistics.median(peaks) if peaks else 0.0,
    }
    samples = {
        "wall_s": walls,
        "setup_s": setups,
        "peak_rss_mb": peaks,
        "parent_peak_rss_mb": parent_peaks,
    }
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "metrics": metrics,
        "samples": samples,
        "evals_per_sample": evals,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "machine": facts,
    }


def print_measured(res: dict) -> None:
    print(f"workload {res['workload']} (seed {res['seed']}, scale {res['scale']})")
    for key, value in res["metrics"].items():
        unit = END_TO_END_UNITS[key]
        if key == "evals_per_s":
            note = f"{res['evals_per_sample']} evaluations per sample over wall_s - setup_s"
        else:
            values = res["samples"][key]
            lo, hi = quartiles(values)
            note = f"median of {len(values)} samples, quartiles {lo:.6g} .. {hi:.6g}"
        print(f"  {key:<13} {value:14.6g} {unit:<4} {note}")
    parent = res["samples"]["parent_peak_rss_mb"]
    if parent:
        note = "median peak of the zopt process alone, without its pool workers (printed only)"
        print(f"  {'parent_rss_mb':<13} {statistics.median(parent):14.6g} {'MB':<4} {note}")
    frac = res["failed"] / res["attempted"]
    note = f"{res['failed']} of {res['attempted']} operations"
    print(f"  {'failed_frac':<13} {frac:14.6g} {'ratio':<4} {note}")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")
    print("  machine: " + json.dumps(res["machine"], sort_keys=True))


def trace(name: str, seed: int, scale: str) -> dict:
    """An untraced then a traced in-process run, each in a fresh interpreter."""
    work = fresh_work_dir(name)
    spec = workloads.WORKLOADS[name]
    if spec.kind == "experiment":
        spec.write_configs(work, seed, scale)
    args = ["--workload", name, "--seed", str(seed), "--scale", scale, "--work-dir", str(work)]
    _, reference = spawn("tracing.py", [*args, "--untraced"])
    _, traced = spawn("tracing.py", args)
    metrics = traced["metrics"]
    metrics["trace.untraced_wall_s"] = reference["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - reference["wall_s"]

    ledger = Ledger()
    ledger.check(reference["rc"] == 0, f"untraced run exited {reference['rc']}")
    ledger.check(traced["rc"] == 0, f"traced run exited {traced['rc']}")
    output = "run.csv" if spec.kind == "experiment" else "checks.csv"
    outputs = [work / label / output for label in ("untraced", "traced")]
    ledger.check(
        all(p.exists() for p in outputs) and outputs[0].read_bytes() == outputs[1].read_bytes(),
        "traced output differs from the untraced output",
    )
    if spec.kind == "experiment":
        ledger.ops(spec.num_runs, metrics["solvers.diverged_runs"], "runs diverged")
    return {
        "workload": name,
        "metrics": {key: metrics[key] for key in PER_LAYER_UNITS},
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
    }


def print_traced(res: dict) -> None:
    print(f"traced workload {res['workload']} (jobs=1, in process)")
    for key, value in res["metrics"].items():
        print(f"  {key:<34} {value:14.6g} {PER_LAYER_UNITS[key]}")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description="zopt benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes"
    )
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "zopt" / "__init__.py").is_file():
        print(f"no zopt source under {ROOT / 'src'}; run from a zopt checkout", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            if args.trace:
                res = trace(name, args.seed, args.scale)
                print_traced(res)
                units = PER_LAYER_UNITS
            else:
                res = measure(name, args.seed, args.seconds, args.scale)
                print_measured(res)
                units = END_TO_END_UNITS
                (WORK / name / "result.json").write_text(json.dumps(res, indent=1) + "\n")
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for key, value in res["metrics"].items():
                metrics[prefix + key] = {"value": value, "unit": units[key]}
    except SampleError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
