"""Machine notes recorded with each benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import sys

# thread-count getters exported by the OpenBLAS builds numpy and scipy ship
_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict[str, int]:
    """Runtime thread count of each OpenBLAS library loaded in this process."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def notes() -> dict:
    """Call after numpy, scipy.linalg and molpol are imported."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
    }
