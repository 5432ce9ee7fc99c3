"""Benchmark the classical-matroid oracle of ``verify --level full``.

Times four stages on U(2,4) over F_2, the golden 3-dimensional code over
F_16 (``tests/data/example_code.json``) and the seed-1
``verify_full_q2_n4`` input (``random_code`` of ``perfbench/workloads.py``):
building ``ClassicalMatroid``, its ``dual_cycles``,
``verify_lattice_isomorphism`` on the cycle lattice (built before the
timer starts), and the inclusion-exclusion sum over every subspace of
dimension at most 2.  Each stage starts from a fresh matroid, so its
rank memo is cold, and from an empty cache of classical ground sets
(``oracle._ground``), so it builds every ground it reads.  It runs five
times; the fastest run is kept.
Per stage it records the seconds, the ``Subspace.sum`` calls and the
evaluations of the input matroid's rank oracle, counted in the timed runs,
and writes them to ``benchmarks/BENCH_oracle.json`` with the run
metadata.  Exits non-zero if the golden code does not give 46 cycles.
Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_oracle.py
"""

import json
import sys
import time

from rankspectra import (
    Subspace, build_cycle_lattice, cli, enumerate_subspaces, uniform_qmatroid,
)
from rankspectra.oracle import (
    ClassicalMatroid,
    _ground,
    inclusion_exclusion_poly,
    verify_lattice_isomorphism,
)
from run_meta import HERE, run_metadata

sys.path.insert(0, str(HERE.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SEED = 1
REPEATS = 5
GOLDEN_CYCLES = 46
OUT = HERE / "BENCH_oracle.json"


def spec_matroid(spec: dict):
    """The q-matroid of a JSON input, parsed as the CLI parses it."""
    return cli.parse_spec_source(json.dumps(spec).encode())[0].matroid


RUNGS = {
    "U(2,4)": lambda: uniform_qmatroid(2, 4, 2),
    "golden F_16 code": lambda: spec_matroid(
        json.loads((HERE.parent / "tests" / "data" / "example_code.json").read_text())),
    f"seed-{SEED} verify_full_q2_n4": lambda: spec_matroid(
        WORKLOADS["verify_full_q2_n4"].make_input(SEED)),
}


def inclusion_exclusion_sum(M):
    for s in range(min(2, M.n) + 1):
        for U in enumerate_subspaces(M.gf, M.n, s):
            inclusion_exclusion_poly(M, U)


# stage -> (setup outside the timer or None, the timed call)
STAGES = {
    "build": (None, ClassicalMatroid),
    "dual_cycles": (ClassicalMatroid, ClassicalMatroid.dual_cycles),
    "lattice_iso": (build_cycle_lattice, verify_lattice_isomorphism),
    "inclusion_exclusion": (None, inclusion_exclusion_sum),
}


class Counters:
    """Counts ``Subspace.sum`` calls and rank evaluations while active."""

    def __init__(self):
        self.sums = self.ranks = 0
        self._sum = Subspace.sum

    def __enter__(self):
        original = self._sum

        def counted(S, other):
            self.sums += 1
            return original(S, other)

        Subspace.sum = counted
        return self

    def __exit__(self, *exc):
        Subspace.sum = self._sum

    def watch(self, M):
        original = M._rank_fn

        def counted(X):
            self.ranks += 1
            return original(X)

        M._rank_fn = counted


def run_stage(make, stage):
    """Fastest of REPEATS runs, with the counters and result of that run."""
    setup, timed = STAGES[stage]
    best = None
    for _ in range(REPEATS):
        M = make()
        arg = M if setup is None else setup(M)
        _ground.cache_clear()
        with Counters() as counters:
            counters.watch(M)
            start = time.perf_counter()
            out = timed(arg)
            seconds = time.perf_counter() - start
        if best is None or seconds < best[0]:
            best = (seconds, counters.sums, counters.ranks, out)
    return best


def main():
    rungs, problems = [], []
    for label, make in RUNGS.items():
        stages = {}
        for stage in STAGES:
            seconds, sums, ranks, out = run_stage(make, stage)
            stages[stage] = {"seconds": round(seconds, 5), "sum_calls": sums,
                             "rank_evals": ranks}
            if stage == "lattice_iso":
                cycles = out["cycles"]
            print(f"{label}: {stage} {seconds:.4f} s, {sums} sums, {ranks} rank evals")
        print(f"{label}: {cycles} cycles")
        rungs.append({"rung": label, "cycles": cycles, "stages": stages})
        if label == "golden F_16 code" and cycles != GOLDEN_CYCLES:
            problems.append(f"golden code gives {cycles} cycles, expected {GOLDEN_CYCLES}")
    OUT.write_text(json.dumps({
        "benchmark": "oracle", "repeats": REPEATS, "rungs": rungs,
        **run_metadata(),
    }, indent=2) + "\n")
    print(f"wrote {OUT.relative_to(HERE.parent)}")
    if problems:
        raise SystemExit("; ".join(problems))


if __name__ == "__main__":
    main()
