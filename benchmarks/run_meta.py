"""Run metadata shared by the ``bench_*.py`` scripts.

Each ``BENCH_*.json`` records the git commit it was measured at, whether
the tree had uncommitted changes, the rankspectra version and the CPU
count, so that figures from different runs can be told apart.
``measured`` times one stage and reads how far it raised the process's
peak RSS, so the scripts track memory next to seconds.
"""

import os
import subprocess
import time
from pathlib import Path

import rankspectra

HERE = Path(__file__).resolve().parent


def git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=HERE, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def hwm_mib():
    """The process's peak RSS so far (``VmHWM``) in MiB, or None where
    ``/proc/self/status`` has no such line."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def measured(fn, *args, **kwargs):
    """fn(*args, **kwargs), its seconds, and the MiB by which it raised the
    peak RSS (None without ``VmHWM``).  The mark only rises, so a stage
    that stays under an earlier peak reads 0."""
    before = hwm_mib()
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    after = hwm_mib()
    return out, seconds, None if None in (before, after) else round(after - before, 2)


def run_metadata() -> dict:
    status = git("status", "--porcelain")
    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "rankspectra": rankspectra.__version__, "nproc": os.cpu_count()}
