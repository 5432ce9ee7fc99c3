"""Benchmark the enumeration oracle on the GF(2) spectrum kernel.

Enumerates the extension codes of a 3-dimensional code over F_16 (4096
codewords at r=1, 16.7M at r=2).  ``brute_spectrum`` ranks
one codeword per projective class (273 words at r=1, 65793 at r=2); the
reference runs the kernel over every message index of the same extension
basis.  Per rung it reports the codewords accounted for, the words
``brute_spectrum`` ranked, and the seconds of both with how far each
raised the process's peak RSS (``VmHWM``, MiB), checks both spectra
against the golden values and against each other, and writes the figures
to ``benchmarks/BENCH_kernels.json`` (with the git commit, whether the
tree had uncommitted changes, the rankspectra version and the CPU
count).  Exits non-zero on any spectrum mismatch.  Run from the
repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import json

from rankspectra import GabidulinCode, _kernels, prime_field
from rankspectra.oracle import _binary_basis, _extension_setup, brute_spectrum
from run_meta import HERE, measured, run_metadata

GOLDEN = {1: [1, 15, 420, 2460, 1200], 2: [1, 255, 7140, 959820, 15810000]}
OUT = HERE / "BENCH_kernels.json"


def main():
    tower = prime_field(2).extend([1, 1, 0, 0, 1])
    code = GabidulinCode(tower, 0, 1, [[7, 4, 11, 15], [7, 9, 2, 3], [5, 1, 5, 9]])
    print(f"code: {code}")
    runs, mismatches = [], []
    for r in (1, 2):
        Qr = code.Q**r
        total, ranked = Qr**code.k, (Qr**code.k - 1) // (Qr - 1)
        counts, seconds, rise = measured(brute_spectrum, code, r)
        basis = _binary_basis(code, *_extension_setup(code, r))
        whole, whole_s, whole_rise = measured(_kernels.spectrum_counts, basis)
        whole = [int(c) for c in whole]
        print(f"r={r}: {total} codewords from {ranked} ranked in {seconds:.4f} s "
              f"(peak RSS +{rise} MiB); whole range {total} ranked in "
              f"{whole_s:.4f} s (+{whole_rise} MiB)  {counts}")
        golden = counts == GOLDEN[r]
        runs.append({"r": r, "codewords": total, "ranked": ranked,
                     "seconds": round(seconds, 4), "hwm_rise_mib": rise,
                     "whole_range_seconds": round(whole_s, 4),
                     "whole_range_hwm_rise_mib": whole_rise,
                     "golden": golden, "matches_whole_range": counts == whole})
        if not golden:
            mismatches.append(f"r={r} spectrum {counts} != golden {GOLDEN[r]}")
        if counts != whole:
            mismatches.append(f"r={r} spectrum {counts} != whole range {whole}")
    OUT.write_text(json.dumps({
        "benchmark": "kernels", "code": repr(code), "runs": runs,
        **run_metadata(),
    }, indent=2) + "\n")
    print(f"wrote {OUT.relative_to(HERE.parent)}")
    if mismatches:
        raise SystemExit("; ".join(mismatches))


if __name__ == "__main__":
    main()
