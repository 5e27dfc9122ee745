"""Environment block attached to every benchmark result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read_text(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def git_rev(root: Path) -> str | None:
    """The checked-out commit, read from `root/.git` only."""
    git_dir = root / ".git"
    head = _read_text(git_dir / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    rev = _read_text(git_dir / ref)
    if rev:
        return rev
    for line in (_read_text(git_dir / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split(" ", 1)[0]
    return None


def _blas() -> dict:
    config = np.show_config(mode="dicts") or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key)
            for key in ("name", "version", "openblas configuration")}


def environment(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read_text(Path("/sys/fs/cgroup/cpu.max")),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "git_rev": git_rev(root),
        "seed": seed,
    }
