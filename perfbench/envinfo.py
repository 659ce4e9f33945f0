"""Environment hygiene and the fingerprint recorded with every result.

:func:`prepare` must run before numpy is imported: it pins the BLAS and
OpenMP pools to one thread (the harness is one closed-loop client) and
removes every ``REPRO_*`` variable, so a timed run never inherits
tracing, verification, an artifact store or a batch row bound from the
calling shell.  What it saw and what it changed go into the
fingerprint.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: Thread-pool variables pinned for every run.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1


def prepare() -> dict:
    """Pin thread pools and clear ``REPRO_*``; returns what was seen."""
    seen_threads = {v: os.environ.get(v) for v in THREAD_VARS}
    seen_repro = {k: v for k, v in sorted(os.environ.items())
                  if k.startswith("REPRO_")}
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for var in seen_repro:
        del os.environ[var]
    return {"threads_env_seen": seen_threads, "repro_env_seen": seen_repro}


def _git(root: Path, *args: str) -> str | None:
    # The ceiling keeps git from searching directories above the root.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True, timeout=30,
                              env=env, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(root: Path, seen: dict) -> dict:
    import numpy as np

    rev = dirty = None
    if (root / ".git").exists():
        rev = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_rev": rev,
        "git_dirty": dirty,
        "argv": sys.argv[1:],
        **seen,
    }
