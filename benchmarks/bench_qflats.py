"""Benchmark the ranked subspace table, the q-flat walk, the cycle
lattice, the rank profile and the axiom check.

Times the ranked subspace table of a fresh matroid, ``QMatroid.qflats()``
on it (the unchecked cover walk), ``build_cycle_lattice``, then a cold
``rank_profile()`` and a cold ``verify_axioms()`` (table and checked cover
walk), each on a fresh copy of the matroid, on U(3,6), U(3,7), U(3,8) and
U(3,9) over F_2, on U(3,6) over F_3, on the seed-1 random k=3 binary codes
of length 6 over F_64 and F_512, 7 over F_128 and 8 over F_256, and on the
seed-1 k=2 code of length 5 over F_243 with base field F_3
(``random_code`` of ``perfbench/workloads.py``; the n=6 code over F_64 and
the F_243 code are the ``code_q2_n6`` and ``code_q3_n5`` benchmark inputs,
and F_512 is the smallest field past the Q x Q product tables of
``linalg``).  U(3,9) runs with a raised subspace cap, since its
213,188,689 covers pass the default cap; every other rung runs at the
default cap.  Prints seconds, how far each stage raised the process's
peak RSS (``VmHWM``, MiB), flat counts, the cover edges of the cycle
lattice and the peak RSS of the process, and writes them to
``benchmarks/BENCH_qflats.json`` with the run metadata.  Exits non-zero if
a uniform Betti table differs from its closed form, if the axiom check
fails, or if on an n <= 7 rung the q-flats differ from the scalar
``is_qflat`` scan over all subspaces or the lattice, built from the cover
edges of the walk, differs from the point-mask containment lattice over
the same nodes.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_qflats.py
"""

import json
import resource
import sys

from rankspectra import (
    CycleLattice,
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
from workloads import random_code  # noqa: E402

SEED = 1
OUT = HERE / "BENCH_qflats.json"
N9_CAP = 3 * 10**8


def code_matroid(label, p, m_extension, k, n):
    """q-matroid of the seeded code over F_{p^m}, parsed as the CLI parses it."""
    spec = random_code(SEED, label, p, m_extension, k, n)
    return cli.parse_spec_source(json.dumps(spec).encode())[0].matroid


def bench(label, make, mismatches, cap=None):
    """Time the scans on fresh matroids from ``make``; n <= 7 is checked
    against the scalar scan and the point-mask lattice."""
    kwargs = {} if cap is None else {"cap": cap}
    M = make()
    _, table_s, table_mib = measured(M._ranked_table, cap)
    flats, flats_s, flats_mib = measured(M.qflats, **kwargs)
    lattice, lattice_s, lattice_mib = measured(build_cycle_lattice, M, **kwargs)
    _, profile_s, profile_mib = measured(lambda: make().rank_profile(**kwargs))
    verdict, axioms_s, axioms_mib = measured(lambda: make().verify_axioms(**kwargs))
    if not verdict["ok"]:
        mismatches.append(f"{label}: the q-matroid axioms fail")
    edges = sum(map(len, M.flat_covers(**kwargs)))
    print(f"{label}: ranked table in {table_s:.3f} s (+{table_mib} MiB), "
          f"{len(flats)} q-flats in {flats_s:.3f} s (+{flats_mib} MiB), "
          f"lattice ({edges} cover edges) in {lattice_s:.3f} s (+{lattice_mib} MiB), "
          f"cold rank profile in {profile_s:.3f} s (+{profile_mib} MiB), cold axiom "
          f"check in {axioms_s:.3f} s (+{axioms_mib} MiB)")
    if M.n <= 7:
        R = QMatroid(M.gf, M.n, M._rank_fn)
        if flats != tuple(X for X in all_subspaces(R.gf, R.n) if R.is_qflat(X)):
            mismatches.append(f"{label}: q-flats differ from the is_qflat scan")
        ref = CycleLattice(M, [F.complement() for F in flats],
                           [M.full_rank - M.rank(F) for F in flats])
        if (lattice.nodes, lattice.nullity, lattice.below) != (ref.nodes, ref.nullity, ref.below):
            mismatches.append(f"{label}: the cover lattice differs from point-mask containment")
    rung = {"rung": label, "flats": len(flats), "cover_edges": edges,
            "table_s": round(table_s, 4), "table_hwm_rise_mib": table_mib,
            "qflats_s": round(flats_s, 4), "qflats_hwm_rise_mib": flats_mib,
            "lattice_s": round(lattice_s, 4), "lattice_hwm_rise_mib": lattice_mib,
            "rank_profile_s": round(profile_s, 4), "rank_profile_hwm_rise_mib": profile_mib,
            "verify_axioms_s": round(axioms_s, 4), "verify_axioms_hwm_rise_mib": axioms_mib}
    return rung, lattice


def bench_uniform(k, n, mismatches, cap=None, q=2):
    rung, lattice = bench(f"U({k},{n}) over F_{q}", lambda: uniform_qmatroid(k, n, q),
                          mismatches, cap)
    table = virtual_betti_table(lattice)
    expected = uniform_betti_table(n, k, q)
    if table != expected:
        mismatches.append(f"U({k},{n}) over F_{q} Betti table {table.to_records()} "
                          f"!= closed form {expected.to_records()}")
    return rung


def bench_code(label, m_extension, n, mismatches, cap=None, p=2, k=3):
    return bench(f"{label} seed {SEED}", lambda: code_matroid(label, p, m_extension, k, n),
                 mismatches, cap)[0]


def main():
    mismatches = []
    rungs = [
        bench_uniform(3, 6, mismatches),
        bench_code("code_q2_n6", [1, 1, 0, 0, 0, 0, 1], 6, mismatches),
        bench_code("code_F512_n6", [1, 1, 0, 0, 0, 0, 0, 0, 0, 1], 6, mismatches),
        bench_uniform(3, 7, mismatches),
        bench_code("code_q2_n7", [1, 1, 0, 0, 0, 0, 0, 1], 7, mismatches),
        bench_uniform(3, 8, mismatches),
        bench_code("code_q2_n8", [1, 0, 1, 1, 1, 0, 0, 0, 1], 8, mismatches),
        bench_uniform(3, 9, mismatches, N9_CAP),
        bench_uniform(3, 6, mismatches, q=3),
        bench_code("code_q3_n5", [1, 2, 0, 0, 0, 1], 5, mismatches, p=3, k=2),
    ]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.1f} MiB")
    OUT.write_text(json.dumps({"benchmark": "qflats", "rungs": rungs,
                               "peak_rss_mib": round(peak, 1), **run_metadata()},
                              indent=2) + "\n")
    print(f"wrote {OUT.relative_to(HERE.parent)}")
    if mismatches:
        raise SystemExit("; ".join(mismatches))


if __name__ == "__main__":
    main()
