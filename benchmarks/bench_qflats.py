"""Benchmark the ranked subspace table, the q-flat walk, the cycle
lattice, the rank profile and the axiom check.

Times the stages as ``analyze`` runs them on a fresh matroid: its ranked
subspace table, the unchecked cover walk (``QMatroid.flat_covers``, which
returns the flats as table positions with their cover edges) and
``build_cycle_lattice`` from that walk.  Then, with the first matroid and
its lattice released, a cold ``rank_profile()`` and a cold
``verify_axioms()`` (table and checked cover walk), each on a fresh copy
of the matroid.  The rungs are U(3,6), U(3,7), U(3,8) and U(3,9) over
F_2, U(3,6) over F_3, the seed-1 random k=3 binary codes of length 6 over
F_64 and F_512, 7 over F_128, 8 over F_256 and 9 over F_512, the seed-1
k=2 codes of length 5 over F_243 and of length 5 and 6 over F_729, and
the seed-1 k=3 code of length 6 over F_729, all with base field F_3
(``random_code`` of ``perfbench/workloads.py``; the n=6 code over F_64
and the F_243 code are the ``code_q2_n6`` and ``code_q3_n5`` benchmark
inputs, F_512 is the smallest field past the 256 elements that the
Q x Q product tables of ``linalg`` once covered, and the F_729 codes
rank their subspaces in batches, with sums through the Zech list of
their field).  U(3,9) and the n=9 code run with a raised subspace cap,
``N9_CAP``, since their 213,188,689 covers pass the default cap; every
other rung runs at the default cap.  Each rung runs in a child
process of its own, so every stage's rise counts from that rung's start.
Prints seconds, how far each stage raised the child's peak RSS
(``VmHWM``, MiB), flat counts, the cover edges of the cycle lattice and
the largest peak RSS of a child, and writes them to
``benchmarks/BENCH_qflats.json`` with the run metadata.
Exits non-zero if a uniform Betti table differs from its closed form, if
the axiom check fails, or if on an n <= 7 rung the q-flats differ from
the scalar ``is_qflat`` scan over all subspaces or the lattice, built
from the cover edges of the walk, differs from the point-mask containment
lattice over the complements of the same flats (both references from
``tests/point_mask.py``).  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_qflats.py

With a rung number (0 for the first) it runs that rung alone in this
process and prints its record as JSON on the last line.
"""

import json
import resource
import subprocess
import sys

from rankspectra import (
    QMatroid,
    all_subspaces,
    build_cycle_lattice,
    cli,
    uniform_betti_table,
    uniform_qmatroid,
    virtual_betti_table,
)
from run_meta import HERE, measured, run_metadata

sys.path.insert(0, str(HERE.parent / "perfbench"))
sys.path.insert(0, str(HERE.parent / "tests"))
from point_mask import PointMaskLattice, is_qflat  # noqa: E402
from workloads import random_code  # noqa: E402

SEED = 1
OUT = HERE / "BENCH_qflats.json"
N9_CAP = 3 * 10**8


def code_matroid(label, p, m_extension, k, n):
    """q-matroid of the seeded code over F_{p^m}, parsed as the CLI parses it."""
    spec = random_code(SEED, label, p, m_extension, k, n)
    return cli.parse_spec_source(json.dumps(spec).encode())[0].matroid


def cross_check(label, M, lattice, mismatches):
    """The scalar ``is_qflat`` scan and the point-mask lattice over the
    complements of the flats, against the walk and its lattice."""
    flats = M.qflats()
    R = QMatroid(M.gf, M.n, M._rank_fn)
    if flats != tuple(X for X in all_subspaces(R.gf, R.n) if is_qflat(R, X)):
        mismatches.append(f"{label}: q-flats differ from the is_qflat scan")
    ref = PointMaskLattice(M, [F.complement() for F in flats],
                           [M.full_rank - M.rank(F) for F in flats])
    if (lattice.nodes, lattice.nullity, lattice.below) != (ref.nodes, ref.nullity, ref.below):
        mismatches.append(f"{label}: the cover lattice differs from point-mask containment")


def bench(label, make, mismatches, cap=None, betti=None):
    """Time the stages of ``analyze`` on a fresh matroid from ``make``,
    then the cold stages on fresh copies once it is released; n <= 7 is
    checked against the scalar scan and the point-mask lattice, and the
    Betti table against ``betti`` when given."""
    kwargs = {} if cap is None else {"cap": cap}
    M = make()
    _, table_s, table_mib = measured(M._ranked_table, cap)
    (flats, _, covers), walk_s, walk_mib = measured(M.flat_covers, **kwargs)
    lattice, lattice_s, lattice_mib = measured(build_cycle_lattice, M, **kwargs)
    count, edges = sum(map(len, flats)), sum(map(len, covers))
    table = virtual_betti_table(lattice)
    if betti is not None and table != betti:
        mismatches.append(f"{label} Betti table {table.to_records()} "
                          f"!= closed form {betti.to_records()}")
    if M.n <= 7:
        cross_check(label, M, lattice, mismatches)
    del M, lattice, flats, covers  # the first matroid holds its table
    _, profile_s, profile_mib = measured(lambda: make().rank_profile(**kwargs))
    verdict, axioms_s, axioms_mib = measured(lambda: make().verify_axioms(**kwargs))
    if not verdict["ok"]:
        mismatches.append(f"{label}: the q-matroid axioms fail")
    print(f"{label}: ranked table in {table_s:.3f} s (+{table_mib} MiB), "
          f"{count} q-flats by the walk in {walk_s:.3f} s (+{walk_mib} MiB), "
          f"lattice ({edges} cover edges) in {lattice_s:.3f} s (+{lattice_mib} MiB), "
          f"cold rank profile in {profile_s:.3f} s (+{profile_mib} MiB), cold axiom "
          f"check in {axioms_s:.3f} s (+{axioms_mib} MiB)")
    return {"rung": label, "flats": count, "cover_edges": edges,
            "table_s": round(table_s, 4), "table_hwm_rise_mib": table_mib,
            "walk_s": round(walk_s, 4), "walk_hwm_rise_mib": walk_mib,
            "lattice_s": round(lattice_s, 4), "lattice_hwm_rise_mib": lattice_mib,
            "rank_profile_s": round(profile_s, 4), "rank_profile_hwm_rise_mib": profile_mib,
            "verify_axioms_s": round(axioms_s, 4), "verify_axioms_hwm_rise_mib": axioms_mib}


def bench_uniform(k, n, mismatches, cap=None, q=2):
    return bench(f"U({k},{n}) over F_{q}", lambda: uniform_qmatroid(k, n, q),
                 mismatches, cap, uniform_betti_table(n, k, q))


def bench_code(label, m_extension, n, mismatches, cap=None, p=2, k=3):
    return bench(f"{label} seed {SEED}", lambda: code_matroid(label, p, m_extension, k, n),
                 mismatches, cap)


RUNGS = [
    lambda m: bench_uniform(3, 6, m),
    lambda m: bench_code("code_q2_n6", [1, 1, 0, 0, 0, 0, 1], 6, m),
    lambda m: bench_code("code_F512_n6", [1, 1, 0, 0, 0, 0, 0, 0, 0, 1], 6, m),
    lambda m: bench_uniform(3, 7, m),
    lambda m: bench_code("code_q2_n7", [1, 1, 0, 0, 0, 0, 0, 1], 7, m),
    lambda m: bench_uniform(3, 8, m),
    lambda m: bench_code("code_q2_n8", [1, 0, 1, 1, 1, 0, 0, 0, 1], 8, m),
    lambda m: bench_uniform(3, 9, m, N9_CAP),
    lambda m: bench_code("code_q2_n9", [1, 1, 0, 0, 0, 0, 0, 0, 0, 1], 9, m, N9_CAP),
    lambda m: bench_uniform(3, 6, m, q=3),
    lambda m: bench_code("code_q3_n5", [1, 2, 0, 0, 0, 1], 5, m, p=3, k=2),
    lambda m: bench_code("code_F729_n5", [2, 1, 0, 0, 0, 0, 1], 5, m, p=3, k=2),
    lambda m: bench_code("code_F729_n6", [2, 1, 0, 0, 0, 0, 1], 6, m, p=3, k=2),
    lambda m: bench_code("q3_n6", [2, 1, 0, 0, 0, 0, 1], 6, m, p=3, k=3),
]


def run_rung(i):
    """Rung i in this process; its record, mismatches and peak RSS as the
    last line of stdout, in JSON."""
    mismatches = []
    rung = RUNGS[i](mismatches)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"rung": rung, "mismatches": mismatches, "peak_rss_mib": peak}))


def main():
    mismatches, rungs, peak = [], [], 0.0
    for i in range(len(RUNGS)):
        child = subprocess.run([sys.executable, __file__, str(i)],
                               capture_output=True, text=True)
        lines = child.stdout.splitlines()
        result = json.loads(lines.pop()) if child.returncode == 0 else None
        for line in lines:
            print(line)
        if result is None:
            sys.stderr.write(child.stderr)
            mismatches.append(f"rung {i} exited with status {child.returncode}")
            continue
        rungs.append(result["rung"])
        mismatches += result["mismatches"]
        peak = max(peak, result["peak_rss_mib"])
    print(f"peak RSS of a rung {peak:.1f} MiB")
    OUT.write_text(json.dumps({"benchmark": "qflats", "rungs": rungs,
                               "peak_rss_mib": round(peak, 1), **run_metadata()},
                              indent=2) + "\n")
    print(f"wrote {OUT.relative_to(HERE.parent)}")
    if mismatches:
        raise SystemExit("; ".join(mismatches))


if __name__ == "__main__":
    if len(sys.argv) > 1:
        run_rung(int(sys.argv[1]))
    else:
        main()
