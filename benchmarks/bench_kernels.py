"""Benchmark the GF(2) spectrum kernel.

Enumerates the extension codes of a 3-dimensional code over F_16 (4096
words at r=1, 16.7M at r=2) in one thread, reports wall time and
codewords per second, checks both spectra against the golden values and
writes the figures to ``benchmarks/BENCH_kernels.json`` (with the git
commit, whether the tree had uncommitted changes, the rankspectra
version and the CPU count).  Exits non-zero on a spectrum mismatch.  Run
from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import json
import time

from rankspectra import GabidulinCode, prime_field
from rankspectra.oracle import brute_spectrum
from run_meta import HERE, run_metadata

GOLDEN = {1: [1, 15, 420, 2460, 1200], 2: [1, 255, 7140, 959820, 15810000]}
OUT = HERE / "BENCH_kernels.json"


def main():
    tower = prime_field(2).extend([1, 1, 0, 0, 1])
    code = GabidulinCode(tower, 0, 1, [[7, 4, 11, 15], [7, 9, 2, 3], [5, 1, 5, 9]])
    print(f"code: {code}")
    runs, mismatches = [], []
    for r in (1, 2):
        total = code.Q ** (r * code.k)
        start = time.perf_counter()
        counts = brute_spectrum(code, r)
        elapsed = time.perf_counter() - start
        print(f"r={r}: {total} codewords in {elapsed:.3f} s "
              f"({total / elapsed:,.0f} codewords/s)  {counts}")
        golden = counts == GOLDEN[r]
        runs.append({"r": r, "codewords": total, "seconds": round(elapsed, 4),
                     "codewords_per_s": round(total / elapsed), "golden": golden})
        if not golden:
            mismatches.append(f"r={r} spectrum {counts} != golden {GOLDEN[r]}")
    OUT.write_text(json.dumps({
        "benchmark": "kernels", "code": repr(code), "threads": 1, "runs": runs,
        **run_metadata(),
    }, indent=2) + "\n")
    print(f"wrote {OUT.relative_to(HERE.parent)}")
    if mismatches:
        raise SystemExit("; ".join(mismatches))


if __name__ == "__main__":
    main()
