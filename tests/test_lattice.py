import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankspectra import (
    BettiTable,
    CycleLattice,
    GF,
    GabidulinCode,
    InputError,
    QMatroid,
    StructuralError,
    Subspace,
    all_subspaces,
    build_cycle_lattice,
    cross_checked_weights,
    enumerate_subspaces,
    gaussian_binomial,
    uniform_qmatroid,
    virtual_betti_table,
    weight_polys_betti,
)
from rankspectra.subspace_table import SubspaceTable

from point_mask import PointMaskLattice, is_qflat, lines, point_mask
from test_subspace_table import seed1_code

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
    assert L.mobius(0)[top] == 14
    assert L.mobius(1)[top] == -1
    assert L.mobius(0)[0] == 1


def test_what_the_perfbench_tracer_reads():
    # perfbench/tracer.py wraps these attributes by name, counts len(L.nodes)
    # and takes unions and differences of the down-sets L.below[i]
    from rankspectra import lattice, spectra
    assert callable(CycleLattice.__dict__["__init__"])
    assert callable(QMatroid.__dict__["qflats"])
    assert callable(spectra.weights_flats)
    assert callable(lattice.virtual_betti_table)
    L = build_cycle_lattice(uniform_qmatroid(2, 4, 2))
    assert len(L.nodes) == len(L) == 17
    for below in L.below:
        assert isinstance(below, frozenset)
        assert all(type(j) is int for j in below)
        assert below - set() == below == set().union(below)


def test_mobius_collapsed_level_out_of_range(example_lattice):
    with pytest.raises(StructuralError):
        example_lattice.mobius(7)


def mobius_reference(L, l):
    """mu of the l-collapsed lattice from the bottom to every node, by the
    memoised recursion over the surviving nodes below each node."""
    memo = {}

    def mu(node):
        if L.nullity[node] <= l:
            return 1
        if node not in memo:
            memo[node] = -1 - sum(mu(j) for j in L.below[node] if L.nullity[j] > l)
        return memo[node]

    return [mu(node) for node in range(len(L))]


@pytest.mark.parametrize("make", [
    "example",
    lambda: uniform_qmatroid(2, 4, 3),
    lambda: uniform_qmatroid(3, 6, 2),
    lambda: seed1_code("code_q2_n6", [1, 1, 0, 0, 0, 0, 1], 6),
], ids=["example", "U(2,4)-q3", "U(3,6)", "code_q2_n6"])
def test_mobius_sweep_matches_recursion(example_matroid, make):
    L = build_cycle_lattice(example_matroid if make == "example" else make())
    for l in range(L.k + 1):
        assert L.mobius(l) == mobius_reference(L, l), l


# nodes (dimension, nullity) of a small lattice over U(2,4): the bottom, two
# nullity-1 nodes and the top; covers[i] lists the nodes node i covers
_EDGE_DIMS, _EDGE_NULLITIES = [0, 3, 3, 4], [0, 1, 1, 2]


@pytest.mark.parametrize("dims,nullities,covers,message", [
    (_EDGE_DIMS, _EDGE_NULLITIES, [[], [0], [0], [1, 0]],
     "Jordan-Dedekind violated between nodes of ranks 0 and 2"),
    (_EDGE_DIMS, _EDGE_NULLITIES, [[], [0], [1], [1, 2]],
     "Jordan-Dedekind violated between nodes of ranks 1 and 1"),
    (_EDGE_DIMS, _EDGE_NULLITIES, [[], [0, 3], [0], [1, 2]],
     "Jordan-Dedekind violated between nodes of ranks 2 and 1"),
    ([3, 3, 4], [1, 1, 2], [[2], [], [0, 1]],
     "lattice must have the zero subspace as unique bottom"),
], ids=["skips-a-level", "equal-nullity", "later-node", "no-zero-bottom"])
def test_cover_edges_checked_by_the_lattice(uniform24, dims, nullities, covers, message):
    # the package's own check on the cover edges it is given: an edge to a
    # later node is a Jordan-Dedekind failure, and a missing bottom is
    # reported before any edge is read
    with pytest.raises(StructuralError) as raised:
        CycleLattice(uniform24, dims, nullities, covers)
    assert str(raised.value) == message


def test_lattice_without_top_rejected():
    # two maximal nodes of nullity k = 1 and no top: every edge adds one
    # and no two nodes of nullity >= 2 lack a meet; the pairwise reference
    # rejects the same poset, the zero space and two lines of F_2^2
    message = "lattice has no top: the last node is not above all others"
    M = uniform_qmatroid(1, 2, 2)
    with pytest.raises(StructuralError) as raised:
        CycleLattice(M, [0, 1, 1], [0, 1, 1], [[], [0], [0]])
    assert str(raised.value) == message
    nodes = list(all_subspaces(M.gf, 2))[:3]
    assert [X.dim for X in nodes] == [0, 1, 1]
    assert (_verdict(PointMaskLattice, M, nodes, [0, 1, 1])
            == _verdict(ReferenceLattice, M, nodes, [0, 1, 1]) == message)


def test_node_covering_nothing_rejected():
    # node 2 covers nothing, so it does not lie above the bottom; the rest
    # would still yield a Betti table
    with pytest.raises(StructuralError) as raised:
        CycleLattice(uniform_qmatroid(2, 3, 2), [0, 1, 1, 2], [0, 1, 1, 2],
                     [[], [0], [], [1, 2]])
    assert str(raised.value) == "a lattice node other than the bottom covers no node"


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
    dual = uniform24.dual()
    cycles = dual.qcycles()
    nodes = [X for X, eta in cycles if eta != 1]
    etas = [eta for _, eta in cycles if eta != 1]
    with pytest.raises(StructuralError):
        PointMaskLattice(uniform24, nodes, etas)


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


def _counted_walks(monkeypatch):
    """The ``check`` argument of each ``SubspaceTable.cover_walk`` call."""
    calls = []
    original = SubspaceTable.cover_walk

    def cover_walk(self, ranks, check=False):
        calls.append(check)
        return original(self, ranks, check)

    monkeypatch.setattr(SubspaceTable, "cover_walk", cover_walk)
    return calls


@pytest.mark.parametrize("make", [
    lambda: uniform_qmatroid(2, 4, 2),
    lambda: uniform_qmatroid(3, 5, 2).dual(),
    lambda: uniform_qmatroid(2, 5, 2).restrict(next(enumerate_subspaces(GF.of_order(2), 5, 3))),
], ids=["U(2,4)", "U(3,5)*", "U(2,5)|U"])
@pytest.mark.parametrize("axioms_first", [True, False], ids=["axioms-first", "lattice-first"])
def test_plain_rank_function_runs_closure_pass_once(monkeypatch, make, axioms_first):
    # the cover pointers are closures only on a q-matroid: a rank function
    # that is not one by theorem gets one checked cover walk, whose flats,
    # edges and verdict verify_axioms and the lattice share
    calls = _counted_walks(monkeypatch)
    source = make()
    M = QMatroid(source.gf, source.n, source._rank_fn)
    if axioms_first:
        assert M.verify_axioms()["ok"]
    L = build_cycle_lattice(M)
    assert M.verify_axioms()["ok"]
    assert calls == [True]
    ref = build_cycle_lattice(source)
    assert (L.nodes, L.nullity, L.below) == (ref.nodes, ref.nullity, ref.below)


@pytest.mark.parametrize("q", [2, 3], ids=["q2", "q3"])
@pytest.mark.parametrize("dim,rank", [(1, 0), (3, 1)], ids=["line-rank-0", "3-space-rank-1"])
def test_failing_rank_function_walked_once(monkeypatch, q, dim, rank):
    # the checked walk records its first failure and walks on, so the
    # flats of a rank function that is no q-matroid come from that walk
    calls = _counted_walks(monkeypatch)
    base = uniform_qmatroid(2, 4, q)
    target = next(enumerate_subspaces(base.gf, 4, dim))
    M = QMatroid(base.gf, 4, lambda X: rank if X == target else base.rank(X))
    assert not M.verify_axioms()["ok"]
    flats = M.qflats()
    assert calls == [True]
    R = QMatroid(base.gf, 4, M._rank_fn)
    assert flats == tuple(X for X in all_subspaces(R.gf, R.n) if is_qflat(R, X))


def test_codes_and_uniform_skip_closure_pass(monkeypatch, example_code):
    calls = _counted_walks(monkeypatch)
    build_cycle_lattice(example_code.qmatroid())
    build_cycle_lattice(uniform_qmatroid(3, 5, 2))
    assert calls == [False, False]


@pytest.mark.parametrize("dim,rank", [(1, 0), (3, 1)], ids=["line-rank-0", "3-space-rank-1"])
def test_corrupted_rank_oracle_rejected_by_lattice(dim, rank):
    # without verify_axioms first, the lattice runs the checked cover walk itself
    base = uniform_qmatroid(2, 4, 2)
    target = next(enumerate_subspaces(base.gf, 4, dim))
    M = QMatroid(base.gf, 4, lambda X: rank if X == target else base.rank(X))
    with pytest.raises(StructuralError, match="q-matroid axioms"):
        build_cycle_lattice(M)


@pytest.mark.parametrize("dim,rank", [(1, 0), (3, 1)], ids=["line-rank-0", "3-space-rank-1"])
def test_corrupted_rank_oracle_rejected_by_lattice_q3(dim, rank):
    # over F_3 the lattice runs the same checked cover walk and fails the same way
    base = uniform_qmatroid(2, 4, 3)
    target = next(enumerate_subspaces(base.gf, 4, dim))
    M = QMatroid(base.gf, 4, lambda X: rank if X == target else base.rank(X))
    with pytest.raises(StructuralError, match="q-matroid axioms"):
        build_cycle_lattice(M)


def labelled_poset(L):
    """Node -> (nullity, the set of nodes below it), over distinct nodes."""
    poset = {X: (L.nullity[i], frozenset(L.nodes[j] for j in L.below[i]))
             for i, X in enumerate(L.nodes)}
    assert len(poset) == len(L)
    return poset


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
    ref = PointMaskLattice(M, [X for X, _ in cycles], [eta for _, eta in cycles])
    # both order their nodes by (nullity, dimension, place in the input),
    # and the inputs list the nodes in different orders
    assert labelled_poset(L) == labelled_poset(ref)
    # the point-mask order is the inclusion order
    assert L.below == [
        frozenset(j for j, Y in enumerate(L.nodes) if j != i and X.contains(Y))
        for i, X in enumerate(L.nodes)
    ]


def test_meet_check_rejects_bowtie(uniform24):
    # 0 < <e1>, <e2> < <e1,e2,e3>, <e1,e2,e4>: every cover adds one, but the
    # two 3-spaces have two maximal common lower bounds
    e = [tuple(int(t == s) for t in range(4)) for s in range(4)]
    nodes = [Subspace.from_rows(uniform24.gf, 4, rows) for rows in
             ([], [e[0]], [e[1]], [e[0], e[1], e[2]], [e[0], e[1], e[3]])]
    with pytest.raises(StructuralError, match="lattice meet is not unique"):
        PointMaskLattice(uniform24, nodes, [0, 1, 1, 2, 2])


# -- the cover and top-element check against the pairwise scans -----------


class ReferenceLattice(PointMaskLattice):
    """The point-mask order checked by the O(N^3) pairwise scans that the
    package's check replaced, then by the package's cover and top checks,
    in its order, with covers found by the same scan."""

    def _validate(self):
        if not self.nodes or self.nodes[0].dim != 0 or self.nullity[0] != 0:
            raise StructuralError("lattice must have the zero subspace as unique bottom")
        if sum(1 for r in self.nullity if r == 0) != 1:
            raise StructuralError("more than one rank-0 node")
        size = len(self.nodes)
        covered = [[] for _ in range(size)]
        # Jordan-Dedekind: every covering step raises the rank by exactly one
        for i in range(size):
            for j in self.below[i]:
                is_cover = not any(
                    t in self.below[i] and j in self.below[t] for t in range(size)
                )
                if is_cover:
                    covered[i].append(j)
                if is_cover and self.nullity[i] != self.nullity[j] + 1:
                    raise StructuralError(
                        "Jordan-Dedekind violated between nodes of ranks "
                        f"{self.nullity[j]} and {self.nullity[i]}"
                    )
        # meet well-defined: common lower bounds have a unique maximum
        for i in range(size):
            below_i = self.below[i] | {i}
            for j in range(i + 1, size):
                common = below_i & (self.below[j] | {j})
                maximal = [
                    t for t in common
                    if not any(t in self.below[u] for u in common)
                ]
                if len(maximal) != 1:
                    raise StructuralError("lattice meet is not unique")
        if max(self.nullity) != self.k:
            raise StructuralError(
                f"lattice height {max(self.nullity)} differs from rank {self.k}"
            )
        # every node but the bottom covers one, and the last node is a top
        if not all(covered[1:]):
            raise StructuralError("a lattice node other than the bottom covers no node")
        if any(j not in self.below[size - 1] for j in range(size - 1)):
            raise StructuralError("lattice has no top: the last node is not above all others")


# free q-matroid U(4,4): every subspace of F_2^4 is a node, and its height 4
# lets a dropped 2-space leave two 3-spaces without a unique meet
_PERTURBED_BASES = {"U(2,4)": (2, 4, 2), "U(3,4)": (3, 4, 2),
                    "U(2,3)/F_3": (2, 3, 3), "U(4,4)": (4, 4, 2)}


@functools.cache
def _perturbation_base(kind, example_matroid):
    """The matroid, its lattice nodes and nullities, and its non-cycles (read only)."""
    M = (example_matroid if kind == "example"
         else uniform_qmatroid(*_PERTURBED_BASES[kind]))
    L = build_cycle_lattice(M)
    cycles = set(L.nodes)
    return M, L.nodes, L.nullity, [X for X in all_subspaces(M.gf, M.n)
                                   if X not in cycles]


def _verdict(lattice_class, M, nodes, nullities):
    try:
        lattice_class(M, nodes, nullities)
    except StructuralError as exc:
        return str(exc)
    return "accept"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(kind=st.sampled_from([*_PERTURBED_BASES, "example"]),
       dropped=st.lists(st.integers(0, 10**6), max_size=3),
       shifted=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([-1, 1])),
                        max_size=2),
       extra=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3)), max_size=2))
def test_lattice_check_matches_pairwise_reference(example_matroid, kind, dropped,
                                                  shifted, extra):
    # node sets with dropped nodes, shifted nullities and extra non-cycle
    # subspaces get the same verdict, message included, from both checks
    M, nodes, nullities, others = _perturbation_base(kind, example_matroid)
    gone = {index % len(nodes) for index in dropped}
    kept = [t for t in range(len(nodes)) if t not in gone]
    nodes = [nodes[t] for t in kept]
    nullities = [nullities[t] for t in kept]
    for index, delta in shifted:
        nullities[index % len(nodes)] += delta
    for index, eta in extra if others else ():
        X = others[index % len(others)]
        if X not in nodes:
            nodes.append(X)
            nullities.append(eta)
    assert (_verdict(PointMaskLattice, M, nodes, nullities)
            == _verdict(ReferenceLattice, M, nodes, nullities))


def test_duplicate_node_rejected(uniform24):
    # a node passed twice lies below its copy, and that cover keeps the nullity
    L = build_cycle_lattice(uniform24)
    nodes, nullities = L.nodes + [L.nodes[1]], L.nullity + [L.nullity[1]]
    verdict = _verdict(PointMaskLattice, uniform24, nodes, nullities)
    assert verdict == _verdict(ReferenceLattice, uniform24, nodes, nullities)
    assert verdict == "Jordan-Dedekind violated between nodes of ranks 1 and 1"


@pytest.mark.parametrize("q,n", [(3, 3), (4, 3), (3, 4)])
def test_point_mask_matches_all_vectors(q, n):
    # the leading-1 coefficient vectors give the same points as all q^dim vectors
    M = uniform_qmatroid(1, n, q)
    index = {P.rows[0]: t for t, P in enumerate(lines(M))}
    for X in all_subspaces(M.gf, n):
        expected = sum(1 << index[v] for v in X.vectors() if v in index)
        assert point_mask(X, index) == expected
