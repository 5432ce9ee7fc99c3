"""Benchmark the q-flat scan and the cycle lattice built from it.

Times a cold ``QMatroid.qflats()`` and ``build_cycle_lattice`` on U(3,6)
and U(3,7) over F_2 and on the seed-1 random k=3 codes of length 6 over
F_64 and length 7 over F_128 (``random_code`` of ``perfbench/workloads.py``,
the ``code_q2_n6`` benchmark input and its n=7 sibling), prints seconds and
flat counts, and writes them to ``benchmarks/BENCH_qflats.json`` with the
run metadata.  Exits non-zero if a uniform Betti table differs from its
closed form.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_qflats.py
"""

import json
import sys
import time

from rankspectra import (
    build_cycle_lattice,
    cli,
    uniform_betti_table,
    uniform_qmatroid,
    virtual_betti_table,
)
from run_meta import HERE, run_metadata

sys.path.insert(0, str(HERE.parent / "perfbench"))
from workloads import random_code  # noqa: E402

SEED = 1
OUT = HERE / "BENCH_qflats.json"


def code_matroid(label, m_extension, n):
    """q-matroid of the seeded k=3 code over F_{2^m}, parsed as the CLI parses it."""
    spec = random_code(SEED, label, 2, m_extension, 3, n)
    return cli.parse_spec_source(json.dumps(spec).encode())[0].matroid


def bench(label, M):
    start = time.perf_counter()
    flats = M.qflats()
    scanned = time.perf_counter()
    lattice = build_cycle_lattice(M)
    built = time.perf_counter()
    print(f"{label}: {len(flats)} q-flats in {scanned - start:.3f} s, "
          f"lattice in {built - scanned:.3f} s, total {built - start:.3f} s")
    rung = {"rung": label, "flats": len(flats), "qflats_s": round(scanned - start, 4),
            "lattice_s": round(built - scanned, 4)}
    return rung, lattice


def bench_uniform(k, n, mismatches):
    rung, lattice = bench(f"U({k},{n}) over F_2", uniform_qmatroid(k, n, 2))
    table = virtual_betti_table(lattice)
    expected = uniform_betti_table(n, k, 2)
    if table != expected:
        mismatches.append(f"U({k},{n}) Betti table {table.to_records()} "
                          f"!= closed form {expected.to_records()}")
    return rung


def main():
    mismatches = []
    rungs = [
        bench_uniform(3, 6, mismatches),
        bench(f"code_q2_n6 seed {SEED}", code_matroid("code_q2_n6", [1, 1, 0, 0, 0, 0, 1], 6))[0],
        bench_uniform(3, 7, mismatches),
        bench(f"code_q2_n7 seed {SEED}",
              code_matroid("code_q2_n7", [1, 1, 0, 0, 0, 0, 0, 1], 7))[0],
    ]
    OUT.write_text(json.dumps({"benchmark": "qflats", "rungs": rungs, **run_metadata()},
                              indent=2) + "\n")
    print(f"wrote {OUT.relative_to(HERE.parent)}")
    if mismatches:
        raise SystemExit("; ".join(mismatches))


if __name__ == "__main__":
    main()
