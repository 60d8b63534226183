"""Command line interface.

Subcommands:
  zopt run --config PATH [--full] [--jobs K] [--out-dir D]
  zopt suggest --mode {unc|con} --eps E --n N --lip L --pl P [--dx D]
  zopt verify [--probes P] [--samples S] [--seed X] [--csv PATH]

The ZOPT_SEED environment variable rebases every seed in a run config for
one-off reproduction (problem_seed = v, x0_seed = v + 1, run_seed_base =
v + 2).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings

from . import analysis, harness, problems, sets, solvers
from .oracle import OracleConfig

__all__ = ["main"]


def _bad_count(flag: str, value: int, minimum: int) -> bool:
    """Print a one-line error when a count option is outside [minimum, 2**53],
    the library's count rule."""
    if minimum <= value <= 2**53:
        return False
    limit = f">= {minimum}" if value < minimum else "<= 2**53"
    print(f"{flag} must be {limit}, got {value}", file=sys.stderr)
    return True


def _write_csv(path: str, text: str) -> bool:
    """Write verify's CSV; an OSError is one stderr line and False."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"--csv {path}: cannot write: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one stderr line, in the form of the run summary's."""
    print(f"  warning: {message}", file=sys.stderr)


def _cmd_run(args) -> int:
    if _bad_count("--jobs", args.jobs, 1):
        return 2
    env_seed = os.environ.get(harness.SEED_ENV_VAR)
    try:
        config = harness.load_config(args.config)
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:
                raise harness.ConfigError(
                    f"{harness.SEED_ENV_VAR} must be an integer, got {env_seed!r}"
                ) from None
            config = harness.apply_seed_override(config, seed)
            print(f"seeds rebased on {harness.SEED_ENV_VAR}={seed}")
        # the parent warns before any run starts, so the line comes first
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            series = harness.run_experiment(
                config, jobs=args.jobs, full=args.full, out_dir=args.out_dir
            )
    except (harness.ConfigError, harness.FullRunRequired) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"{args.config}: the experiment does not fit in memory: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    meta = series.metadata
    print(
        f"{meta['scenario']} experiment: m={meta['m']}, n={meta['n']}, "
        f"runs={series.num_runs}/{meta['requested_runs']}, "
        f"iters={meta['num_iters']}"
    )
    print(f"  lip_const={meta['lip_const']}, pl_const={meta['pl_const']}")
    print(f"  mu={meta['mu']}, step_size={meta['step_size']}")
    print(f"  f_star={series.f_star!r}")
    if series.diverged_at:
        runs = ", ".join(f"{i} (iteration {k})" for i, k in series.diverged_at.items())
        print(f"  warning: diverged runs: {runs}", file=sys.stderr)
    if "feasibility_violations" in meta:
        print(f"  feasibility violations: {meta['feasibility_violations']}")
    last = len(series.ks) - 1
    print(
        f"  final checkpoint k={int(series.ks[last])}: "
        f"mean_f={series.mean_f[last]:.6g}, mean_best_f={series.mean_best_f[last]:.6g}"
    )
    if series.bound_rhs is not None:
        print(
            f"  running-avg gap={series.running_avg_gap[last]:.6g} vs "
            f"bound={series.bound_rhs[last]:.6g}"
        )
    out_dir = args.out_dir
    for label, path in (("csv", config.csv_path), ("svg", config.svg_path)):
        if path is not None:
            resolved = harness.resolve_output_path(path, out_dir)
            print(f"  wrote {label}: {resolved}")
    return 0


def _cmd_suggest(args) -> int:
    mode = {"unc": "unconstrained", "con": "constrained"}[args.mode]
    try:
        mu, num_iters = solvers.suggest_params(
            mode, args.eps, args.n, args.lip, args.pl, d_x=args.dx
        )
        step = solvers.theorem_step_size(mode, args.n, args.lip)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"mode: {mode}")
    print(f"mu: {mu:.6g}")
    print(f"num_iters: {num_iters}")
    print(f"step_size: {step:.6g}")
    return 0


def _cmd_verify(args) -> int:
    if _bad_count("--probes", args.probes, 1) or _bad_count("--samples", args.samples, 2):
        return 2
    if not 0 <= args.seed < 2**64:
        print(f"--seed must be in [0, 2**64), got {args.seed}", file=sys.stderr)
        return 2
    if args.csv and not _write_csv(args.csv, ""):  # fail before the checks, not after them
        return 2
    # Fixed desk-scale quadratic instance on a box; the checks are exact
    # inequalities, so any instance should report zero violations.
    problem = problems.make_least_squares(m=5, n=20, noise_std=0.1, seed=args.seed)
    box = sets.Box(-0.5, 0.5, dim=problem.dim)
    cfg = OracleConfig(mu=1e-3, seed=args.seed)
    try:
        start = time.perf_counter()
        report = analysis.verify_oracle_inequalities(
            problem,
            box,
            cfg,
            num_probes=args.probes,
            num_samples=args.samples,
            seed=args.seed,
        )
        checks_s = time.perf_counter() - start
        start = time.perf_counter()
        prox = analysis.check_proximal_pl(problem, box, num_points=args.probes, seed=args.seed)
        prox_s = time.perf_counter() - start
    except MemoryError as exc:
        print(f"verify: the checks do not fit in memory: {exc}", file=sys.stderr)
        return 2
    if args.csv and not _write_csv(args.csv, "\n".join(report.csv_rows()) + "\n"):
        return 2
    print(report.as_text())
    # phase times go to stderr: stdout and the CSV stay byte-reproducible
    print(
        f"verify: inequality checks {checks_s:.3f} s, "
        f"dominance sampler {prox_s:.3f} s",
        file=sys.stderr,
    )
    print(
        f"  constrained dominance ratio: min={prox.min_ratio:.6g} over "
        f"{prox.evaluated} points ({prox.below_unconstrained} below the "
        f"unconstrained constant {prox.pl_const_unconstrained:.6g})"
    )
    if args.csv:
        print(f"  wrote csv: {args.csv}")
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zopt",
        description=(
            "Derivative-free optimization experiments with two-point Gaussian "
            "gradient estimates"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config-driven experiment")
    p_run.add_argument("--config", required=True, help="path to a config file")
    p_run.add_argument(
        "--full",
        action="store_true",
        help="allow experiments above the default cost gate",
    )
    p_run.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_run.add_argument("--out-dir", default=None, help="directory for output files")
    p_run.set_defaults(func=_cmd_run)

    p_sug = sub.add_parser("suggest", help="print smoothing and iteration choices")
    p_sug.add_argument("--mode", choices=["unc", "con"], required=True)
    p_sug.add_argument("--eps", type=float, required=True, help="target gap")
    p_sug.add_argument("--n", type=int, required=True, help="dimension")
    p_sug.add_argument("--lip", type=float, required=True, help="gradient Lipschitz constant")
    p_sug.add_argument("--pl", type=float, required=True, help="gradient dominance constant")
    p_sug.add_argument("--dx", type=float, default=None, help="feasible-set diameter")
    p_sug.set_defaults(func=_cmd_suggest)

    p_ver = sub.add_parser("verify", help="run the oracle inequality checks")
    p_ver.add_argument("--probes", type=int, default=1000)
    p_ver.add_argument("--samples", type=int, default=10000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--csv", default=None, help="also write check rows as CSV")
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
