"""Benchmark the fixed cost of a rankspectra process.

Times, each in a fresh interpreter: ``python -c pass``, ``import
rankspectra``, the import plus ``cli.parse_spec_source`` of every
``tests/data/*.json``, the CLI's ``--help`` and ``--version``, a
rank-deficient generator that ``analyze`` rejects with exit 2, and
``analyze`` of the golden code (``tests/data/example_code.json``).  All but
the last end before the first array operation.  The package is copied to a
temporary directory and every command runs four times per round: with no
bytecode cache (``PYTHONDONTWRITEBYTECODE=1``, as the benchmark harness
runs) and after ``compileall`` has written one, each once as is and once
with numpy imported first, as ``import rankspectra`` did before numpy's
load was deferred; the difference is what the deferral saves that command.
Rounds alternate over all commands, so machine drift reaches each alike.
Per command it records the median wall seconds from spawn to exit with the
quartiles, the exit status, and whether numpy's core was loaded when the
process ended, and writes them to ``benchmarks/BENCH_startup.json`` with
the run metadata.
Exits non-zero if a command ends with another status than expected.
Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_startup.py
"""

import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

from run_meta import HERE, run_metadata

ROUNDS = 15
DATA = HERE.parent / "tests" / "data"
OUT = HERE / "BENCH_startup.json"

# printed to stderr at exit: was numpy's core loaded?
PROBE = ("import atexit, sys; atexit.register(lambda: print("
         "'numpy._core' in sys.modules, file=sys.stderr)); ")
# numpy loaded up front, with the thread cap import rankspectra sets
EAGER = "import os; os.environ.setdefault('OPENBLAS_NUM_THREADS', '1'); import numpy; "
CLI = PROBE + "from rankspectra.cli import console_main; console_main()"
PARSE = PROBE + ("import rankspectra; from rankspectra import cli; "
                 "cli.parse_spec_source(open(sys.argv[1], 'rb').read())")
DEFICIENT = {"p": 2, "m_extension": [1, 1, 0, 0, 1], "n": 4,
             "generator": [[1, 2, 3, 4], [2, 4, 6, 8]]}


def commands(workdir):
    """(name, argv after the interpreter, expected exit status)."""
    rejected = workdir / "deficient.json"
    rejected.write_text(json.dumps(DEFICIENT))
    yield "python -c pass", ["-c", PROBE], 0
    yield "import rankspectra", ["-c", PROBE + "import rankspectra"], 0
    for path in sorted(DATA.glob("*.json")):
        yield f"import + parse {path.name}", ["-c", PARSE, str(path)], 0
    yield "--help", ["-c", CLI, "--help"], 0
    yield "--version", ["-c", CLI, "--version"], 0
    yield "analyze rejected input", ["-c", CLI, "analyze", str(rejected)], 2
    yield "analyze example_code.json", ["-c", CLI, "analyze", str(DATA / "example_code.json")], 0


def run_once(argv, env):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=60)
    seconds = time.perf_counter() - start
    numpy_loaded = proc.stderr.split()[-1:] == [b"True"]
    return seconds, proc.returncode, numpy_loaded


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cached, uncached = work / "cached", work / "uncached"
        for root in (cached, uncached):
            shutil.copytree(HERE.parent / "src" / "rankspectra", root / "rankspectra",
                            ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(cached, quiet=1)
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
        modes = {True: dict(env, PYTHONPATH=str(cached)),
                 False: dict(env, PYTHONPATH=str(uncached), PYTHONDONTWRITEBYTECODE="1")}
        cases = [(name, ["-c", EAGER * eager + argv[1], *argv[2:]], status, cache, eager)
                 for name, argv, status in commands(work)
                 for cache in modes for eager in (False, True)]
        times = {i: [] for i in range(len(cases))}
        seen = {}
        for _ in range(ROUNDS):
            for i, (name, argv, status, cache, eager) in enumerate(cases):
                seconds, got, numpy_loaded = run_once(argv, modes[cache])
                if got != status:
                    print(f"{name}: exit {got}, expected {status}", file=sys.stderr)
                    return 1
                times[i].append(seconds)
                seen[i] = numpy_loaded
    rows = []
    for i, (name, argv, status, cache, eager) in enumerate(cases):
        q1, median, q3 = statistics.quantiles(times[i], n=4)
        rows.append({"command": name, "bytecode_cache": cache,
                     "numpy_imported_first": eager, "numpy_loaded": seen[i],
                     "exit": status, "median_s": round(median, 4),
                     "q1_s": round(q1, 4), "q3_s": round(q3, 4)})
        print(f"{name:34s} cache={cache!s:5s} first={eager!s:5s} numpy={seen[i]!s:5s} "
              f"median {median * 1e3:6.1f} ms  (quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f})")
    OUT.write_text(json.dumps({
        "benchmark": "startup", "rounds": ROUNDS, "commands": rows,
        "python": platform.python_version(), "numpy": version("numpy"),
        **run_metadata()}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
