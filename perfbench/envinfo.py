"""Thread discipline and the environment record written with every run."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads(workers: int) -> int:
    """Set BLAS threads so workers x BLAS threads <= nproc; call before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    threads = max(1, nproc() // workers)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else ():
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(index / "size")
    return out


def _git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' if absent."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def record(root: Path, workers: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workers": workers,
        "git_commit": _git_commit(root),
    }
