"""Benchmark the q-flat scan and the cycle lattice built from it.

Times a cold ``QMatroid.qflats()`` and ``build_cycle_lattice`` on U(3,6)
and U(3,7) over F_2 and on a random k=3, n=6 code over F_64 drawn from a
fixed seed, prints seconds and flat counts, and exits non-zero if a
uniform Betti table differs from its closed form.  Run from the
repository root:

    PYTHONPATH=src python3 benchmarks/bench_qflats.py
"""

import random
import time

from rankspectra import (
    GabidulinCode,
    InputError,
    build_cycle_lattice,
    prime_field,
    uniform_betti_table,
    uniform_qmatroid,
    virtual_betti_table,
)

SEED = 1


def random_code(seed):
    """Full-rank k=3, n=6 code over F_64 = F_2[x]/(x^6 + x + 1)."""
    rng = random.Random(seed)
    tower = prime_field(2).extend([1, 1, 0, 0, 0, 0, 1])
    while True:
        gen = [[rng.randrange(64) for _ in range(6)] for _ in range(3)]
        try:
            return GabidulinCode(tower, 0, 1, gen)
        except InputError:
            continue


def bench(label, M):
    start = time.perf_counter()
    flats = M.qflats()
    scanned = time.perf_counter()
    lattice = build_cycle_lattice(M)
    built = time.perf_counter()
    print(f"{label}: {len(flats)} q-flats in {scanned - start:.3f} s, "
          f"lattice in {built - scanned:.3f} s, total {built - start:.3f} s")
    return lattice


def bench_uniform(k, n):
    table = virtual_betti_table(bench(f"U({k},{n}) over F_2", uniform_qmatroid(k, n, 2)))
    expected = uniform_betti_table(n, k, 2)
    if table != expected:
        raise SystemExit(f"U({k},{n}) Betti table {table.to_records()} "
                         f"!= closed form {expected.to_records()}")


def main():
    bench_uniform(3, 6)
    code = random_code(SEED)
    bench(f"{code}, seed {SEED}", code.qmatroid())
    bench_uniform(3, 7)


if __name__ == "__main__":
    main()
