"""Run metadata shared by the ``bench_*.py`` scripts.

Each ``BENCH_*.json`` records the git commit it was measured at, whether
the tree had uncommitted changes, the rankspectra version and the CPU
count, so that figures from different runs can be told apart.
"""

import os
import subprocess
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


def run_metadata() -> dict:
    status = git("status", "--porcelain")
    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "rankspectra": rankspectra.__version__, "nproc": os.cpu_count()}
