"""Session-wide pytest hooks."""

import os

import numpy as np
import scipy


def pytest_report_header(config):
    # Every pinned CSV and digest holds for one numpy, scipy and BLAS build
    # and thread count; the header puts them in the log of a failed run.
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"zopt pins: numpy {np.__version__}, scipy {scipy.__version__}, "
        f"BLAS {blas.get('name')} {blas.get('version')}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"
    )
