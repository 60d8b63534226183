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

from . import harness, problems, sets, solvers
from .oracle import OracleConfig
from .rng import _check_count, _check_real, _check_u64, _ClosedFormError

__all__ = ["main"]


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
    env_seed = os.environ.get(harness.SEED_ENV_VAR)
    try:
        config = harness.load_config(args.config)
        if env_seed is not None:
            try:
                seed = harness._from_text(_check_u64)(env_seed, harness.SEED_ENV_VAR)
            except ValueError as exc:
                raise harness.ConfigError(str(exc)) from None
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


# suggest's flag for each library argument it sets
_SUGGEST_FLAGS = {
    "eps": "--eps", "n": "--n", "lip_const": "--lip", "pl_const": "--pl", "d_x": "--dx"
}


def _cmd_suggest(args) -> int:
    mode = {"unc": "unconstrained", "con": "constrained"}[args.mode]
    if (args.dx is None) == (mode == "constrained"):
        need = "is required with" if args.dx is None else "is only valid with"
        print(f"--dx {need} --mode con", file=sys.stderr)
        return 2
    try:
        mu, num_iters = solvers.suggest_params(
            mode, args.eps, args.n, args.lip, args.pl, d_x=args.dx
        )
        step = solvers.theorem_step_size(mode, args.n, args.lip)
    except _ClosedFormError as exc:  # the flags passed their rules; a formula of them failed
        print(exc.renamed(_SUGGEST_FLAGS), file=sys.stderr)
        return 2
    print(f"mode: {mode}")
    print(f"mu: {mu:.6g}")
    print(f"num_iters: {num_iters}")
    print(f"step_size: {step:.6g}")
    return 0


def _cmd_verify(args) -> int:
    if args.csv and not _write_csv(args.csv, ""):  # fail before the checks, not after them
        return 2
    from . import analysis  # loads scipy, outside the checks' phase times

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
    print(report.as_text(), flush=True)  # a closed stdout fails before the stderr line
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one stderr line and exit 2, without the usage block."""
        self.exit(2, message + "\n")


def _add_number(parser, flag: str, rule, *bound, **kwargs) -> None:
    """Add a numeric flag that the library's rule for its kind of value
    judges; a refusal is the rule's one line, naming the flag."""
    parse = harness._from_text(rule, *bound)

    def convert(text: str):
        try:
            return parse(text, flag)
        except ValueError as exc:
            raise argparse.ArgumentError(None, str(exc)) from None

    parser.add_argument(flag, type=convert, **kwargs)


def main(argv=None) -> int:
    parser = _Parser(
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
    _add_number(p_run, "--jobs", _check_count, 1, default=1, help="worker processes")
    p_run.add_argument("--out-dir", default=None, help="directory for output files")
    p_run.set_defaults(func=_cmd_run)

    p_sug = sub.add_parser("suggest", help="print smoothing and iteration choices")
    p_sug.add_argument("--mode", choices=["unc", "con"], required=True)
    _add_number(p_sug, "--eps", _check_real, required=True, help="target gap")
    _add_number(p_sug, "--n", _check_count, 1, required=True, help="dimension")
    _add_number(p_sug, "--lip", _check_real, required=True, help="gradient Lipschitz constant")
    _add_number(p_sug, "--pl", _check_real, required=True, help="gradient dominance constant")
    _add_number(p_sug, "--dx", _check_real, help="feasible-set diameter (--mode con only)")
    p_sug.set_defaults(func=_cmd_suggest)

    p_ver = sub.add_parser("verify", help="run the oracle inequality checks")
    _add_number(p_ver, "--probes", _check_count, 1, default=1000)
    _add_number(p_ver, "--samples", _check_count, 2, default=10000)
    _add_number(p_ver, "--seed", _check_u64, default=0)
    p_ver.add_argument("--csv", default=None, help="also write check rows as CSV")
    p_ver.set_defaults(func=_cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error on its one line
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except KeyboardInterrupt:
        print(f"zopt {args.command}: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout's reader is gone: send what is left to the null device, so
        # that the interpreter's last flush cannot fail again, and exit as a
        # shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
