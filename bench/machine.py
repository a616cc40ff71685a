"""Machine record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

SCOPE_NOTE = ("Only this benchmark's own processes were measured. Nothing machine-wide "
              "(cache drops, cgroup freezes, system tracing) was used.")
_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_OPENBLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                            "openblas_get_num_threads")


def cache_bytes(level: int):
    """Size of the unified or data cache at `level`, from sysfs; None if unknown."""
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1], 1)
        return int(size.rstrip("KMG")) * scale
    return None


def blas_library() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_QUERIES:
            query = getattr(library, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_library(),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "scope": SCOPE_NOTE,
    }
