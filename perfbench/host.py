"""Host fingerprint and the process settings the benchmark fixes.

BLAS libraries start helper threads that spin between calls; on a small
host they add CPU time and jitter to every build.  The benchmark pins them
to one thread for its own process, before numpy is first imported.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

#: Thread-count variables honoured by the BLAS builds numpy may link.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; call before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "absent"


def _compiler() -> str:
    from repro.core.native import find_compiler

    compiler = find_compiler()
    if compiler is None:
        return "none"
    try:
        out = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"{compiler}: {exc}"
    lines = (out.stdout or out.stderr).splitlines()
    return lines[0] if lines else compiler


def _blas_library() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("name", "unknown"))
    except Exception:  # the config layout differs across numpy releases
        return "unknown"


def fingerprint() -> dict:
    """CPU, cores, library versions, BLAS threads and native kernel status."""
    from repro.core.native import build_info

    info = build_info()
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cffi": _version("cffi"),
        "compiler": _compiler(),
        "blas": _blas_library(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "native": {"status": info["status"], "detail": info["detail"]},
    }
