"""One benchmark sample in a fresh interpreter.

run.py times this process from spawn to exit, so a sample pays what a
researcher pays: interpreter start, the import of zopt with numpy and scipy,
and the workload itself.  The last stdout line is a JSON object with
the program's exit code and the peak resident memory of this process and of
its reaped children (the experiment's pool workers).

  child.py run --config CFG --out-dir DIR
  child.py verify --seed S --scale full|tiny --out-dir DIR [--setup]
  child.py facts
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (sibling module)


def _peaks() -> dict:
    return {
        "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def machine_facts() -> dict:
    """Library versions and BLAS build of the interpreter the samples use."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", required=True)
    p_ver = sub.add_parser("verify")
    p_ver.add_argument("--seed", type=int, required=True)
    p_ver.add_argument("--scale", choices=("full", "tiny"), required=True)
    p_ver.add_argument("--out-dir", required=True)
    p_ver.add_argument("--setup", action="store_true")
    sub.add_parser("facts")
    args = parser.parse_args()

    if args.mode == "run":
        result = {"rc": workloads.run_experiment(args.config, args.out_dir, workloads.JOBS)}
    elif args.mode == "verify":
        result = workloads.run_verify(args.seed, args.scale, args.out_dir, args.setup)
    else:
        result = machine_facts()
    if args.mode != "facts":
        result.update(_peaks())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
