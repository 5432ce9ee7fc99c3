import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankspectra import (
    GF,
    GabidulinCode,
    QMatroid,
    StructuralError,
    WeightPolynomial,
    all_subspaces,
    build_cycle_lattice,
    cli,
    cross_checked_weights,
    enumerate_subspaces,
    gaussian_binomial,
    higher_spectra,
    matrix_count,
    mrd_closed_form,
    uniform_betti_table,
    uniform_h_sequence,
    uniform_qmatroid,
    virtual_betti_table,
    weight_distribution,
    weight_poly_betti,
    weight_poly_mobius,
    weight_polys_betti,
    weights_from_polys,
)
from rankspectra.linalg import binom2
from rankspectra.spectra import weights_betti, weights_conullity, weights_flats

DATA = Path(__file__).parent / "data"

EXAMPLE_POLYS = [
    (1,),
    (-1, 1),
    (-28, 28),
    (76, -91, 15),
    (-48, 62, -15, 1),
]


def _random_code(tower16, k, rng):
    while True:
        G = [[rng.randrange(16) for _ in range(4)] for _ in range(k)]
        try:
            return GabidulinCode(tower16, 0, 1, G)
        except Exception:
            continue


def test_polynomial_basics():
    P = WeightPolynomial([76, -91, 15, 0])
    assert P.coeffs == (76, -91, 15)
    assert P.degree == 2
    assert P(16) == 2460
    zero = WeightPolynomial([0, 0])
    assert zero.degree is None


def test_example_weight_polys(example_table):
    polys = weight_polys_betti(example_table)
    assert [P.coeffs for P in polys] == EXAMPLE_POLYS


def test_poly_identity_example(example_matroid, example_table):
    for s in range(5):
        assert (weight_poly_mobius(example_matroid, s)
                == weight_poly_betti(example_table, s))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_poly_identity_uniform(k):
    M = uniform_qmatroid(k, 4, 2)
    table = virtual_betti_table(build_cycle_lattice(M))
    for s in range(5):
        assert weight_poly_mobius(M, s) == weight_poly_betti(table, s)


def test_poly_identity_random_codes(tower16):
    rng = random.Random(7)
    for trial in range(5):
        code = _random_code(tower16, rng.choice([1, 2, 3]), rng)
        M = code.qmatroid()
        table = virtual_betti_table(build_cycle_lattice(M))
        for s in range(5):
            assert weight_poly_mobius(M, s) == weight_poly_betti(table, s)


def test_poly_identity_q3():
    for k in (1, 2, 3):
        M = uniform_qmatroid(k, 3, 3)
        table = virtual_betti_table(build_cycle_lattice(M))
        for s in range(4):
            assert weight_poly_mobius(M, s) == weight_poly_betti(table, s)


def mobius_reference(M, s):
    """The Moebius sum term by term: every V <= U with dim U = s, V through U's chart.

    The reference that ``weight_poly_mobius`` regroups by rank profile.
    """
    k = M.full_rank
    coeffs = [0] * (k + 1)
    for U in enumerate_subspaces(M.gf, M.n, s):
        for v_dim in range(s + 1):
            factor = (-1) ** (s - v_dim) * M.q ** binom2(s - v_dim)
            for V in enumerate_subspaces(M.gf, s, v_dim, ambient=U):
                coeffs[M.conullity(V)] += factor
    return WeightPolynomial(coeffs)


def _assert_mobius_matches_reference(M):
    for s in range(M.n + 1):
        assert weight_poly_mobius(M, s) == mobius_reference(M, s), s


@pytest.mark.parametrize("source", [*sorted(p.name for p in DATA.glob("*.json")),
                                    *(f"U({k},4)" for k in range(5))])
def test_mobius_regrouping_matches_reference(source):
    if source.startswith("U("):
        M = uniform_qmatroid(int(source[2]), 4, 2)
    else:
        M = cli.parse_spec_source((DATA / source).read_bytes())[0].matroid
    _assert_mobius_matches_reference(M)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(space=st.sampled_from([(2, 3), (2, 4), (3, 2)]),
       k=st.integers(0, 4),
       changes=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 4)), max_size=4))
def test_mobius_regrouping_on_perturbed_ranks(space, k, changes):
    # U(k, n) over F_2^3, F_2^4, F_3^2 with some proper subspaces moved to an
    # arbitrary rank in [0, k]: often not q-matroids, yet the regrouping
    # is exact for every rank function
    q, n = space
    k = min(k, n)
    subs = list(all_subspaces(GF.of_order(q), n))
    ranks = {X: min(X.dim, k) for X in subs}
    for index, value in changes:
        X = subs[index % (len(subs) - 1)]  # the full space keeps rank k
        ranks[X] = value % (k + 1)
    _assert_mobius_matches_reference(QMatroid(GF.of_order(q), n, ranks.__getitem__))


def test_spectrum_example(example_table):
    polys = weight_polys_betti(example_table)
    assert weight_distribution(polys, 16) == [1, 15, 420, 2460, 1200]
    assert weight_distribution(polys, 256) == [1, 255, 7140, 959820, 15810000]


def test_spectrum_mass_conservation(example_table):
    polys = weight_polys_betti(example_table)
    for power in (1, 2, 3):
        assert sum(P(16**power) for P in polys) == 16 ** (3 * power)


def test_poly_at_one_counts_zero_word(example_table):
    # only the zero word survives at r = 0
    polys = weight_polys_betti(example_table)
    assert [P(1) for P in polys] == [1, 0, 0, 0, 0]


def test_higher_spectra_example(example_table):
    polys = weight_polys_betti(example_table)
    rows = higher_spectra(polys, 16, 3)
    assert rows[0] == [1, 0, 0, 0, 0]
    assert rows[1] == [0, 1, 28, 164, 80]
    assert rows[3] == [0, 0, 0, 0, 1]
    for i in range(4):
        assert sum(rows[i]) == gaussian_binomial(3, i, 16)


def test_higher_spectra_row1_is_quotient(example_table):
    polys = weight_polys_betti(example_table)
    rows = higher_spectra(polys, 16, 3)
    A = weight_distribution(polys, 16)
    assert rows[1][0] == 0
    for w in range(1, 5):
        assert rows[1][w] == A[w] // 15


def test_higher_spectra_triangular_consistency(example_table):
    polys = weight_polys_betti(example_table)
    rows = higher_spectra(polys, 16, 3)
    for r in range(4):
        for w in range(5):
            total = sum(matrix_count(r, s, 16) * rows[s][w] for s in range(4))
            assert total == polys[w](16**r)


def test_weights_example(example_matroid, example_table):
    polys = weight_polys_betti(example_table)
    assert cross_checked_weights(example_matroid, example_table, polys) == (1, 3, 4)
    assert weights_conullity(example_matroid) == (1, 3, 4)
    assert weights_flats(example_matroid) == (1, 3, 4)
    assert weights_betti(example_table) == (1, 3, 4)
    assert weights_from_polys(polys) == (1, 3, 4)


def test_weights_uniform():
    for k in (1, 2, 3):
        M = uniform_qmatroid(k, 4, 2)
        expected = tuple(4 - k + r for r in range(1, k + 1))
        assert weights_conullity(M) == expected
        assert weights_flats(M) == expected


def test_weights_strictly_increasing(example_matroid, example_table):
    polys = weight_polys_betti(example_table)
    d = cross_checked_weights(example_matroid, example_table, polys)
    assert all(a < b for a, b in zip(d, d[1:]))
    assert 0 < d[0] and d[-1] <= 4


def test_equivalence_roundtrip(example_table):
    # polynomials -> phi -> polynomials is a fixed point
    polys = weight_polys_betti(example_table)
    for s in range(5):
        phi = []
        acc = 0
        for l in range(4):
            acc += polys[s].coeffs[l] if l < len(polys[s].coeffs) else 0
            phi.append(acc)
        assert phi == [example_table.phi(l, s) for l in range(4)]
        rebuilt = WeightPolynomial(
            [phi[l] - (phi[l - 1] if l else 0) for l in range(4)])
        assert rebuilt == polys[s]


def test_mrd_closed_form_values():
    assert mrd_closed_form(4, 2, 2, 4) == [1, 0, 0, 225, 30]
    assert mrd_closed_form(4, 2, 2, 5)[3] == 15 * 31
    assert mrd_closed_form(4, 0, 2, 4) == [1, 0, 0, 0, 0]
    with pytest.raises(Exception):
        mrd_closed_form(4, 2, 2, 3)


def test_mrd_closed_form_matches_pipeline():
    for k in (1, 2, 3):
        for m in (4, 5):
            table = virtual_betti_table(build_cycle_lattice(uniform_qmatroid(k, 4, 2)))
            polys = weight_polys_betti(table)
            assert weight_distribution(polys, 2**m) == mrd_closed_form(4, k, 2, m)


def test_uniform_h_sequence_values():
    # U(2,4), q=2, l=0: h_1 = -1, h_2 = -1 - [4 over 1] h_1 = 14
    assert uniform_h_sequence(4, 2, 2, 0) == [-1, 14]
    assert uniform_h_sequence(4, 2, 2, 1) == [-1]


def test_uniform_betti_matches_lattice():
    for k in (1, 2, 3):
        closed = uniform_betti_table(4, k, 2)
        lattice = virtual_betti_table(build_cycle_lattice(uniform_qmatroid(k, 4, 2)))
        assert closed == lattice


def test_higher_spectra_rejects_negative_counts():
    bad = [WeightPolynomial([1]), WeightPolynomial([2, -1])]
    with pytest.raises(StructuralError):
        higher_spectra(bad, 4, 1)
