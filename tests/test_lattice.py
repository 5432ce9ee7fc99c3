import random

import pytest

from rankspectra import (
    BettiTable,
    CycleLattice,
    GabidulinCode,
    InputError,
    QMatroid,
    StructuralError,
    build_cycle_lattice,
    cross_checked_weights,
    enumerate_subspaces,
    gaussian_binomial,
    uniform_qmatroid,
    virtual_betti_table,
    weight_polys_betti,
)

# Betti table of the session example code: (l, i, dim) -> value
EXAMPLE_BETTI = {
    (0, 0, 0): 1,
    (0, 1, 1): 1,
    (0, 1, 2): 28,
    (0, 2, 3): 76,
    (0, 3, 4): 48,
    (1, 1, 3): 15,
    (1, 2, 4): 14,
    (2, 1, 4): 1,
}


def test_uniform_lattice_nodes():
    L = build_cycle_lattice(uniform_qmatroid(2, 4, 2))
    dims = sorted(X.dim for X in L.nodes)
    assert dims == [0] + [3] * 15 + [4]
    assert L.nullity == [0] + [1] * 15 + [2]


def test_lattice_height_is_rank(example_lattice):
    assert max(example_lattice.nullity) == 3
    assert len(example_lattice) == 46


def test_example_node_dims_by_nullity(example_lattice):
    by_nullity = {}
    for dim, eta in zip(example_lattice.dims, example_lattice.nullity):
        by_nullity.setdefault(eta, set()).add(dim)
    assert by_nullity == {0: {0}, 1: {1, 2}, 2: {3}, 3: {4}}


def test_mobius_bottom_uniform():
    L = build_cycle_lattice(uniform_qmatroid(2, 4, 2))
    top = max(range(len(L)), key=lambda i: L.nullity[i])
    # mu(0, top) = -1 - 15 * (-1) = 14
    assert L.mobius_bottom(top, 0) == 14
    assert L.mobius_bottom(top, 1) == -1
    assert L.mobius_bottom(0, 0) == 1


def test_mobius_collapsed_level_out_of_range(example_lattice):
    with pytest.raises(StructuralError):
        example_lattice.mobius_bottom(0, 7)


def test_virtual_betti_example(example_table):
    nonzero = {key: v for key, v in example_table.entries.items()
               if v and key[1] != 0}
    assert nonzero == {key: v for key, v in EXAMPLE_BETTI.items() if key[1] != 0}


def test_betti_convention_row(example_table):
    for l in range(4):
        assert example_table.get(l, 0, 0) == 1


def test_classical_grading(example_table):
    assert [example_table.classical_grading(j) for j in range(5)] == [0, 8, 12, 14, 15]


def test_phi_values(example_table):
    # phi^(l)_j = alternating sum over i at fixed l, j
    t = example_table
    assert t.phi(0, 0) == 1
    assert t.phi(0, 1) == -1
    assert t.phi(0, 2) == -28
    assert t.phi(0, 3) == 76
    assert t.phi(0, 4) == -48
    assert t.phi(1, 3) == -15
    assert t.phi(1, 4) == 14
    assert t.phi(2, 4) == -1


def test_min_nonzero_dim(example_table):
    assert example_table.min_nonzero_dim(1) == 1
    assert example_table.min_nonzero_dim(2) == 3
    assert example_table.min_nonzero_dim(3) == 4


def test_to_records_sorted(example_table):
    recs = example_table.to_records()
    keys = [(r["l"], r["i"], r["j_dim"]) for r in recs]
    assert keys == sorted(keys)
    lookup = {(r["l"], r["i"], r["j_dim"]): (r["value"], r["j_classical"])
              for r in recs}
    assert lookup[(0, 2, 3)] == (76, 14)


def test_jordan_dedekind_detects_gap(uniform24):
    # dropping the middle layer must break the rank-step validation
    from rankspectra.lattice import CycleLattice
    dual = uniform24.dual()
    cycles = dual.qcycles()
    nodes = [X for X, eta in cycles if eta != 1]
    etas = [eta for _, eta in cycles if eta != 1]
    with pytest.raises(StructuralError):
        CycleLattice(uniform24, nodes, etas)


def test_betti_nonnegative_across_uniforms():
    for k in range(1, 5):
        table = virtual_betti_table(build_cycle_lattice(uniform_qmatroid(k, 4, 2)))
        assert all(v >= 0 for v in table.entries.values())


def test_uniform_first_betti_count():
    # beta_{1,[d]} = [n over d]_q for U(k, n)
    for k in (1, 2, 3):
        d = 4 - k + 1
        table = virtual_betti_table(build_cycle_lattice(uniform_qmatroid(k, 4, 2)))
        assert table.get(0, 1, d) == gaussian_binomial(4, d, 2)


def test_table_equality_ignores_zero_entries(example_table):
    clone = BettiTable(4, 2, 3, dict(example_table.entries))
    clone.entries[(0, 2, 2)] = 0
    assert clone == example_table


@pytest.mark.parametrize("dim,rank,axiom", [(1, 0, "P3"), (3, 1, "P2")],
                         ids=["line-rank-0", "3-space-rank-1"])
def test_corrupted_rank_oracle_rejected(dim, rank, axiom):
    # U(2,4) with one subspace's rank overwritten: a line of rank 0 breaks
    # submodularity, a 3-space of rank 1 breaks monotonicity
    base = uniform_qmatroid(2, 4, 2)
    target = next(enumerate_subspaces(base.gf, 4, dim))
    M = QMatroid(base.gf, 4, lambda X: rank if X == target else base.rank(X))
    assert M.verify_axioms()["violation"]["axiom"] == axiom
    with pytest.raises(StructuralError):
        table = virtual_betti_table(build_cycle_lattice(M))
        cross_checked_weights(M, table, weight_polys_betti(table))


def _random_f16_matroid(tower16, k, seed):
    rng = random.Random(seed)
    while True:
        gen = [[rng.randrange(16) for _ in range(4)] for _ in range(k)]
        try:
            return GabidulinCode(tower16, 0, 1, gen).qmatroid()
        except InputError:
            continue


@pytest.mark.parametrize("kind,params", [
    ("example", ()), ("mrd", ()),
    ("uniform", (1, 4, 2)), ("uniform", (2, 4, 2)), ("uniform", (3, 4, 2)),
    ("uniform", (2, 3, 3)),
    ("random", (2, 1)), ("random", (3, 2)), ("random", (3, 3)),
], ids=["example", "mrd", "U(1,4)", "U(2,4)", "U(3,4)", "U(2,3)-q3",
        "random-k2", "random-k3-a", "random-k3-b"])
def test_lattice_from_flats_matches_dual_qcycles(request, tower16, kind, params):
    if kind == "example":
        M = request.getfixturevalue("example_matroid")
    elif kind == "mrd":
        M = request.getfixturevalue("mrd_code").qmatroid()
    elif kind == "uniform":
        M = uniform_qmatroid(*params)
    else:
        M = _random_f16_matroid(tower16, *params)
    L = build_cycle_lattice(M)
    cycles = M.dual().qcycles()
    ref = CycleLattice(M, [X for X, _ in cycles], [eta for _, eta in cycles])
    assert L.nodes == ref.nodes
    assert L.nullity == ref.nullity
    assert L.below == ref.below
    # the point-mask order is the inclusion order
    assert L.below == [
        frozenset(j for j, Y in enumerate(L.nodes) if j != i and X.contains(Y))
        for i, X in enumerate(L.nodes)
    ]
