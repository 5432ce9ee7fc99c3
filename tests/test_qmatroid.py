import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankspectra import (
    GabidulinCode,
    InputError,
    QMatroid,
    ResourceLimitError,
    Subspace,
    all_subspaces,
    enumerate_subspaces,
    prime_field,
    qmatroid,
    subspace_table,
    uniform_qmatroid,
)
from rankspectra.linalg import DEFAULT_SUBSPACE_CAP


def test_generator_must_be_full_rank(tower16):
    with pytest.raises(InputError):
        GabidulinCode(tower16, 0, 1, [[1, 2, 3, 4], [2, 4, 6, 8]])


def test_code_parameters(example_code):
    assert (example_code.q, example_code.m, example_code.n, example_code.k) == (2, 4, 4, 3)
    assert example_code.Q == 16


def test_mrd_construction_rows(tower16, mrd_code):
    # second row applies x -> x^2 entrywise
    assert mrd_code.G[0] == (1, 2, 4, 8)
    assert mrd_code.G[1] == tuple(tower16.frobenius(a, 1, 0) for a in (1, 2, 4, 8))


def test_mrd_rejects_dependent_anchors(tower16):
    with pytest.raises(InputError):
        GabidulinCode.mrd(tower16, 0, 1, [1, 2, 4, 7], 2)  # 7 = 1 + 2 + 4


def test_full_rank_is_k(example_matroid):
    assert example_matroid.full_rank == 3


def test_rank_monotone_bounded(example_matroid):
    M = example_matroid
    for X in all_subspaces(M.gf, M.n):
        assert 0 <= M.rank(X) <= min(X.dim, M.full_rank)


def test_axioms_example_code(example_matroid):
    assert example_matroid.verify_axioms()["ok"]


@pytest.mark.parametrize("k,n,q", [(0, 3, 2), (1, 3, 2), (2, 4, 2), (2, 3, 3), (3, 3, 3)])
def test_axioms_uniform(k, n, q):
    assert uniform_qmatroid(k, n, q).verify_axioms()["ok"]


def test_axioms_dual(uniform24):
    assert uniform24.dual().verify_axioms()["ok"]


def test_dual_involution(example_matroid):
    M = example_matroid
    dd = M.dual().dual()
    for X in all_subspaces(M.gf, M.n):
        assert dd.rank(X) == M.rank(X)


def test_conullity_counts_subcode(example_code, example_matroid):
    # eta*(X) = dim of the subcode supported inside X; check against words
    from rankspectra import rank_support
    M = example_matroid
    code = example_code
    full = Subspace.full(M.gf, 4)
    assert M.conullity(full) == 3
    from itertools import product
    for X in enumerate_subspaces(M.gf, 4, 2):
        inside = 0
        for message in product(range(16), repeat=3):
            word = code.codeword(message)
            if X.contains(rank_support(code.tower, 1, 0, word)):
                inside += 1
        assert 16 ** M.conullity(X) == inside
        break  # one subspace suffices at this cost


def test_uniform_qflats(uniform24):
    # dims < k are q-flats, dims in [k, n) are not, the full space is
    M = uniform24
    for X in all_subspaces(M.gf, 4):
        expected = X.dim < 2 or X.dim == 4
        assert M.is_qflat(X) == expected


def test_uniform_dual_qcycles(uniform24):
    # q-cycles of U(2,4)*: {0}, all 15 dim-3 subspaces, and the full space
    dual = uniform24.dual()
    cycles = dual.qcycles()
    by_dim = {}
    for X, eta in cycles:
        by_dim.setdefault(X.dim, []).append(eta)
    assert sorted(by_dim) == [0, 3, 4]
    assert by_dim[0] == [0]
    assert by_dim[3] == [1] * 15
    assert by_dim[4] == [2]


def test_zero_cycle_unique(example_matroid):
    dual = example_matroid.dual()
    nullity0 = [X for X, eta in dual.qcycles() if eta == 0]
    assert len(nullity0) == 1 and nullity0[0].dim == 0


def test_restriction_preserves_conullity(example_matroid):
    M = example_matroid
    for U in enumerate_subspaces(M.gf, 4, 3):
        MU = M.restrict(U)
        for V in all_subspaces(M.gf, 3):
            embedded = U.embed_subspace(V)
            assert V.dim - MU.dual_rank(V) == M.conullity(embedded)
        break


def _double_dual_restriction(M, U):
    # the restriction by its definition: the double dual within the chart,
    # whose dual rank the conullity of M pins
    def rho_star(V):
        return V.dim - M.conullity(U.embed_subspace(V))

    full = Subspace.full(M.gf, U.dim)
    return lambda W: W.dim + rho_star(W.complement()) - rho_star(full)


def _seed1_code_q3_n5():
    # the seed-1 code_q3_n5 benchmark input: k=2, n=5 over F_243, redrawn
    # from one stream until the generator has full rank
    tower = prime_field(3).extend([1, 2, 0, 0, 0, 1])
    rng = random.Random("code_q3_n5/1")
    while True:
        gen = [[rng.randrange(243) for _ in range(5)] for _ in range(2)]
        try:
            return GabidulinCode(tower, 0, 1, gen)
        except InputError:
            continue


@pytest.mark.parametrize("make", [
    lambda example, mrd: example.qmatroid(),
    lambda example, mrd: mrd.qmatroid(),  # the code of tests/data/mrd_2_4.json
    lambda example, mrd: _seed1_code_q3_n5().qmatroid(),
    lambda example, mrd: uniform_qmatroid(2, 4, 3),
], ids=["example", "mrd_2_4", "code_q3_n5", "U(2,4) over F_3"])
def test_restriction_closed_form_matches_double_dual(make, example_code, mrd_code):
    M = make(example_code, mrd_code)
    rng = random.Random(0)
    pairs = 0
    for s in range(4):
        charts = list(enumerate_subspaces(M.gf, M.n, s))
        for U in rng.sample(charts, min(24, len(charts))):
            restricted, reference = M.restrict(U), _double_dual_restriction(M, U)
            for W in all_subspaces(M.gf, s):
                assert restricted.rank(W) == reference(W)
                pairs += 1
    assert pairs >= 391


def test_restriction_is_qmatroid(example_matroid):
    M = example_matroid
    U = next(enumerate_subspaces(M.gf, 4, 3))
    assert M.restrict(U).verify_axioms()["ok"]


def test_uniform_requires_valid_params():
    with pytest.raises(InputError):
        uniform_qmatroid(5, 4, 2)


# -- the line-step axiom check against the pairwise definition ------------


def _meet(A, B):
    return A.complement().sum(B.complement()).complement()


def _violates(M, axiom, X, Y=None):
    """True iff (X, Y) is a genuine witness against the named axiom."""
    if axiom == "P1":
        return not (0 <= M.rank(X) <= X.dim)
    if axiom == "P2":
        return Y.contains(X) and M.rank(X) > M.rank(Y)
    return M.rank(X.sum(Y)) + M.rank(_meet(X, Y)) > M.rank(X) + M.rank(Y)


def _pairwise_ok(M):
    """(P1) on every subspace, (P2) and (P3) on every pair."""
    subs = list(all_subspaces(M.gf, M.n))
    return (all(not _violates(M, "P1", X) for X in subs)
            and all(not _violates(M, "P2", X, Y) for X in subs for Y in subs)
            and all(not _violates(M, "P3", X, Y)
                    for i, X in enumerate(subs) for Y in subs[i + 1:]))


def _deserialize(gf, n, codes):
    rows = []
    for code in codes:
        digits = []
        for _ in range(n):
            code, digit = divmod(code, gf.size)
            digits.append(digit)
        rows.append(tuple(digits))
    return Subspace.from_rows(gf, n, rows)


def _base_matroid(tower16, kind, n, seed):
    if kind.startswith("F_3^"):
        n = int(kind[-1])
        return uniform_qmatroid(seed % (n + 1), n, 3)
    if kind == "uniform":
        return uniform_qmatroid(seed % (n + 1), n, 2)
    rng = random.Random(seed)
    while True:
        gen = [[rng.randrange(16) for _ in range(n)] for _ in range(1 + seed % n)]
        try:
            return GabidulinCode(tower16, 0, 1, gen).qmatroid()
        except InputError:
            continue


@settings(derandomize=True, deadline=None, max_examples=60)
@given(kind=st.sampled_from(["uniform", "F_16-code", "F_3^2", "F_3^3"]),
       n=st.sampled_from([3, 4]),
       seed=st.integers(0, 2**16),
       changes=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([-1, 1, 2])),
                        max_size=3))
def test_axiom_check_matches_pairwise_definition(tower16, kind, n, seed, changes):
    # perturbed uniform and F_16-code q-matroids over F_2^3, F_2^4, and
    # uniform ones over F_3^2 and F_3^3:
    # each change moves one subspace's rank by +-delta, inside [0, dim] when
    # one of the two fits, so most perturbations keep (P1)
    base = _base_matroid(tower16, kind, n, seed)
    subs = list(all_subspaces(base.gf, base.n))
    ranks = {X: base.rank(X) for X in subs}
    for index, delta in changes:
        X = subs[index % len(subs)]
        ranks[X] += delta if 0 <= ranks[X] + delta <= X.dim else -delta
    M = QMatroid(base.gf, base.n, ranks.__getitem__)
    result = M.verify_axioms()
    assert result["ok"] == _pairwise_ok(M)
    if not result["ok"]:
        v = result["violation"]
        X = _deserialize(M.gf, M.n, v["X"])
        Y = _deserialize(M.gf, M.n, v["Y"]) if "Y" in v else None
        assert _violates(M, v["axiom"], X, Y)


_SUM = Subspace.sum


def _no_sum(self, other):
    raise AssertionError("verify_axioms called Subspace.sum")


def _walk_sum_calls(monkeypatch, M, bound):
    """The ``sum`` calls of the scalar walk that names the witness of a
    failing verdict, run on M however the cover walk decides."""
    calls = 0

    def counted(self, other):
        nonlocal calls
        calls += 1
        if calls > bound:
            raise AssertionError(f"the axiom walk made more than {bound} sum calls")
        return _SUM(self, other)

    monkeypatch.setattr(Subspace, "sum", counted)
    assert M._axiom_walk(None) == {"ok": True, "violation": None}
    return calls


def test_verify_axioms_sum_calls_bounded(monkeypatch):
    # the cover walk decides without a ``sum`` call; the line walk makes one
    # per (subspace, line) and at most n per closure; checking P3 on every
    # pair of the 374 subspaces needs about 70k
    M = uniform_qmatroid(2, 5, 2)
    subs = sum(1 for _ in all_subspaces(M.gf, 5))
    lines = sum(1 for _ in enumerate_subspaces(M.gf, 5, 1))
    bound = subs * (lines + 5)
    assert bound == 374 * 36
    monkeypatch.setattr(Subspace, "sum", _no_sum)
    assert M.verify_axioms() == {"ok": True, "violation": None}
    assert _walk_sum_calls(monkeypatch, M, bound) > subs


def test_verify_axioms_sum_calls_bounded_q3(monkeypatch):
    # the same over F_3: the cover walk over the subspace table decides
    # the axioms there too, and the line walk keeps its bound
    M = uniform_qmatroid(2, 4, 3)
    subs = sum(1 for _ in all_subspaces(M.gf, 4))
    lines = sum(1 for _ in enumerate_subspaces(M.gf, 4, 1))
    bound = subs * (lines + 4)
    assert bound == 212 * 44
    monkeypatch.setattr(Subspace, "sum", _no_sum)
    assert M.verify_axioms() == {"ok": True, "violation": None}
    assert _walk_sum_calls(monkeypatch, M, bound) > subs


class Enumerated(Exception):
    """Raised by a stand-in for the subspace enumerations: the scan got past
    its checks."""


def _enumerate_nothing(monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise Enumerated

    monkeypatch.setattr(qmatroid, "all_subspaces", enumerate_nothing)
    monkeypatch.setattr(subspace_table, "subspace_rows", enumerate_nothing)


@pytest.mark.parametrize("scan", ["qflats", "verify_axioms"])
def test_line_steps_capped_before_enumeration(monkeypatch, scan):
    _enumerate_nothing(monkeypatch)
    # the cover walk visits sum_s [4, s]_2 [4 - s, 1]_2 = 240 covers of the
    # subspaces of F_2^4: the cap is exact
    with pytest.raises(ResourceLimitError) as err:
        getattr(uniform_qmatroid(2, 4, 2), scan)(cap=240 - 1)
    assert (err.value.required, err.value.cap) == (240, 240 - 1)
    with pytest.raises(Enumerated):
        getattr(uniform_qmatroid(2, 4, 2), scan)(cap=240)
    # n = 8 over F_2 runs under the default cap: 7449060 covers
    with pytest.raises(Enumerated):
        getattr(uniform_qmatroid(3, 8, 2), scan)()
    # n = 9: 8283458 subspaces pass the per-dimension cap, their covers do not
    with pytest.raises(ResourceLimitError) as err:
        getattr(uniform_qmatroid(3, 9, 2), scan)()
    assert (err.value.required, err.value.cap) == (213188689, DEFAULT_SUBSPACE_CAP)


def test_axiom_walk_line_steps_capped_before_enumeration(monkeypatch):
    # the line walk that names a witness takes one step per subspace and
    # line: 67 subspaces of F_2^4 times 15 lines, the cap exact
    _enumerate_nothing(monkeypatch)
    with pytest.raises(ResourceLimitError) as err:
        uniform_qmatroid(2, 4, 2)._axiom_walk(67 * 15 - 1)
    assert (err.value.required, err.value.cap) == (67 * 15, 67 * 15 - 1)
    with pytest.raises(Enumerated):
        uniform_qmatroid(2, 4, 2)._axiom_walk(67 * 15)
    # at n = 8 the covers pass the default cap, the 417199 x 255 line steps not
    with pytest.raises(ResourceLimitError) as err:
        uniform_qmatroid(3, 8, 2)._axiom_walk(DEFAULT_SUBSPACE_CAP)
    assert (err.value.required, err.value.cap) == (417199 * 255, DEFAULT_SUBSPACE_CAP)
