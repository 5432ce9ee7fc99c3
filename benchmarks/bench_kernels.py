"""Benchmark the GF(2) spectrum kernel.

Enumerates the extension codes of a 3-dimensional code over F_16 (4096
words at r=1, 16.7M at r=2) in one thread, reports wall time and
codewords per second, and checks both spectra against the golden
values, exiting non-zero on a mismatch.  Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import time

from rankspectra import GabidulinCode, prime_field
from rankspectra.oracle import brute_spectrum

GOLDEN = {1: [1, 15, 420, 2460, 1200], 2: [1, 255, 7140, 959820, 15810000]}


def main():
    tower = prime_field(2).extend([1, 1, 0, 0, 1])
    code = GabidulinCode(tower, 0, 1, [[7, 4, 11, 15], [7, 9, 2, 3], [5, 1, 5, 9]])
    print(f"code: {code}")
    for r in (1, 2):
        total = code.Q ** (r * code.k)
        start = time.perf_counter()
        counts = brute_spectrum(code, r)
        elapsed = time.perf_counter() - start
        print(f"r={r}: {total} codewords in {elapsed:.3f} s "
              f"({total / elapsed:,.0f} codewords/s)  {counts}")
        if counts != GOLDEN[r]:
            raise SystemExit(f"r={r} spectrum {counts} != golden {GOLDEN[r]}")


if __name__ == "__main__":
    main()
