"""End-to-end acceptance checks; one printed pass/fail line per criterion."""

import random
import time

import pytest

from rankspectra import (
    GabidulinCode,
    all_subspaces,
    build_cycle_lattice,
    cross_checked_weights,
    gaussian_binomial,
    higher_spectra,
    mrd_closed_form,
    uniform_qmatroid,
    virtual_betti_table,
    weight_distribution,
    weight_poly_betti,
    weight_poly_mobius,
    weight_polys_betti,
)
from rankspectra.oracle import brute_higher, brute_spectrum, verify_lattice_isomorphism

GOLDEN_BETTI = {
    (0, 0, 0): 1,
    (0, 1, 1): 1,
    (0, 1, 2): 28,
    (0, 2, 3): 76,
    (0, 3, 4): 48,
    (1, 1, 3): 15,
    (1, 2, 4): 14,
    (2, 1, 4): 1,
}
GOLDEN_SPECTRUM = [1, 15, 420, 2460, 1200]


def _report(num, ok, label):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"acceptance criterion {num} failed: {label}"


def test_criterion_1_golden_example(example_code):
    start = time.time()
    M = example_code.qmatroid()
    table = virtual_betti_table(build_cycle_lattice(M))
    polys = weight_polys_betti(table)
    spectrum = weight_distribution(polys, 16)
    elapsed = time.time() - start
    got = {key: v for key, v in table.entries.items() if v}
    expected = dict(GOLDEN_BETTI)
    for l in range(1, 4):
        expected[(l, 0, 0)] = 1
    ok = got == expected and spectrum == GOLDEN_SPECTRUM and elapsed < 10
    _report(1, ok, "golden Betti table and spectrum (1,15,420,2460,1200)")


def test_criterion_2_brute_force_agreement(example_code, example_table):
    start = time.time()
    polys = weight_polys_betti(example_table)
    ok = brute_spectrum(example_code, 1) == weight_distribution(polys, 16)
    ok = ok and brute_spectrum(example_code, 2) == weight_distribution(polys, 256)
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _report(2, ok, "brute-force spectra agree at r=1 (4096) and r=2 (16.7M)")


def test_criterion_3_polynomial_identity(tower16, example_matroid, example_table):
    start = time.time()
    ok = all(
        weight_poly_mobius(example_matroid, s) == weight_poly_betti(example_table, s)
        for s in range(5)
    )
    for k in range(1, 5):
        M = uniform_qmatroid(k, 4, 2)
        table = virtual_betti_table(build_cycle_lattice(M))
        ok = ok and all(
            weight_poly_mobius(M, s) == weight_poly_betti(table, s)
            for s in range(5)
        )
    rng = random.Random(2026)
    built = 0
    while built < 5:
        k = rng.choice([1, 2, 3])
        rows = [[rng.randrange(16) for _ in range(4)] for _ in range(k)]
        try:
            code = GabidulinCode(tower16, 0, 1, rows)
        except Exception:
            continue
        built += 1
        M = code.qmatroid()
        table = virtual_betti_table(build_cycle_lattice(M))
        ok = ok and all(
            weight_poly_mobius(M, s) == weight_poly_betti(table, s)
            for s in range(5)
        )
    elapsed = time.time() - start
    ok = ok and elapsed < 120
    _report(3, ok, "betti and moebius weight polynomials identical coefficientwise")


def test_criterion_4_mrd_closed_forms(mrd_code):
    start = time.time()
    M = mrd_code.qmatroid()
    uniform = uniform_qmatroid(2, 4, 2)
    ok = all(M.rank(X) == uniform.rank(X) for X in all_subspaces(M.gf, 4))
    table = virtual_betti_table(build_cycle_lattice(M))
    polys = weight_polys_betti(table)
    pipeline = weight_distribution(polys, 16)
    closed = mrd_closed_form(4, 2, 2, 4)
    brute = brute_spectrum(mrd_code, 1)
    ok = ok and pipeline == closed == brute and closed[3] == 225
    rows = higher_spectra(polys, 16, 2)
    ok = ok and rows[2][4] == gaussian_binomial(4, 4, 2) == 1
    elapsed = time.time() - start
    ok = ok and elapsed < 30
    _report(4, ok, "MRD code matches U(2,4), closed form, and brute force")


def test_criterion_5_weight_agreement(tower16, example_matroid, example_table):
    polys = weight_polys_betti(example_table)
    ok = cross_checked_weights(example_matroid, example_table, polys) == (1, 3, 4)
    for k in (1, 2, 3):
        M = uniform_qmatroid(k, 4, 2)
        table = virtual_betti_table(build_cycle_lattice(M))
        d = cross_checked_weights(M, table, weight_polys_betti(table))
        ok = ok and d == tuple(4 - k + r for r in range(1, k + 1))
    _report(5, ok, "four generalized-weight methods agree; example d = (1,3,4)")


def test_criterion_6_higher_spectra(example_code, example_table, mrd_code):
    start = time.time()
    polys = weight_polys_betti(example_table)
    rows = higher_spectra(polys, 16, 3)
    A = weight_distribution(polys, 16)
    ok = all(rows[1][w] * 15 == A[w] for w in range(1, 5))
    ok = ok and all(brute_higher(example_code, i) == rows[i] for i in range(3))
    mrd_table = virtual_betti_table(build_cycle_lattice(mrd_code.qmatroid()))
    mrd_rows = higher_spectra(weight_polys_betti(mrd_table), 16, 2)
    ok = ok and all(brute_higher(mrd_code, i) == mrd_rows[i] for i in range(3))
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _report(6, ok, "higher spectra integral, row 1 = A_w/(Q-1), brute agreement")


def test_criterion_7_structural_checks(example_matroid, example_lattice):
    # lattice construction already enforces Jordan-Dedekind; isomorphism + axioms
    ok = verify_lattice_isomorphism(example_lattice)["ok"]
    ok = ok and verify_lattice_isomorphism(build_cycle_lattice(uniform_qmatroid(2, 4, 2)))["ok"]
    ok = ok and example_matroid.verify_axioms()["ok"]
    for k, n, q in [(1, 3, 2), (2, 4, 2), (3, 4, 2), (1, 3, 3), (2, 3, 3)]:
        ok = ok and uniform_qmatroid(k, n, q).verify_axioms()["ok"]
    _report(7, ok, "Jordan-Dedekind, lattice isomorphism, q-matroid axioms")


def test_criterion_8_conservation(tower16, example_table, mrd_code):
    ok = True
    tables = {"example": example_table,
              "mrd": virtual_betti_table(build_cycle_lattice(mrd_code.qmatroid()))}
    for table in tables.values():
        polys = weight_polys_betti(table)
        for Qtilde in (16, 256):
            ok = ok and sum(P(Qtilde) for P in polys) == Qtilde ** table.k
        rows = higher_spectra(polys, 16, table.k)
        for i in range(table.k + 1):
            ok = ok and sum(rows[i]) == gaussian_binomial(table.k, i, 16)
    _report(8, ok, "spectrum totals Qtilde^k and higher-spectra Gaussian totals")
