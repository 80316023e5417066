"""Machine and library facts stored with every benchmark result.

Numbers taken on different CPUs, library builds or thread settings are not
comparable; the record makes such a mismatch visible. The benchmark sets
none of the thread variables itself, so the defaults are what gets measured.
"""

from __future__ import annotations

import os
import platform
import sys

THREAD_VARS = (
    "HMORE_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas(config_fn) -> str:
    try:
        deps = config_fn(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{deps.get('name', '?')} {deps.get('version', '?')}"


def record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "thread_vars": {name: os.environ[name] for name in THREAD_VARS if name in os.environ},
    }
