"""The indexed subspace table of F_q^n against the scalar subspace walk."""

import json
import random
import sys
import tracemalloc
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankspectra import (
    CycleLattice,
    GF,
    GabidulinCode,
    InputError,
    QMatroid,
    ResourceLimitError,
    all_subspaces,
    build_cycle_lattice,
    cli,
    enumerate_subspaces,
    prime_field,
    subspace_table,
    uniform_qmatroid,
)
from rankspectra.linalg import DEFAULT_SUBSPACE_CAP, exp_log
from rankspectra.subspace_table import SubspaceTable


@cache
def binary_tower(m):
    t = prime_field(2)
    return t.extend(t.find_irreducible(m))


@cache
def table(n, q=2):
    return SubspaceTable(GF.of_order(q), n)


def scalar_reference(M):
    """q-flats by ``is_qflat`` and the profile by ``rank``, on a fresh memo."""
    R = QMatroid(M.gf, M.n, M._rank_fn)
    subs = list(all_subspaces(R.gf, R.n))
    return (tuple(X for X in subs if R.is_qflat(X)),
            Counter((X.dim, R.rank(X)) for X in subs))


# F_2^n for n <= 6, F_3^n for n <= 4 and F_4^n for n <= 3; the bare n of F_2
# keeps the test ids it had when the table was binary only
def field_ladder(low):
    return [pytest.param(q, n, id=str(n) if q == 2 else f"q{q}-{n}")
            for q, top in ((2, 6), (3, 4), (4, 3)) for n in range(low, top + 1)]


@pytest.mark.parametrize("q,n", field_ladder(0))
def test_rows_follow_enumeration_order(q, n):
    gf = GF.of_order(q)
    T = table(n, q)
    for s in range(n + 1):
        expected = [(X.rows, X.pivots) for X in enumerate_subspaces(gf, n, s)]
        assert [(X.rows, X.pivots) for X in T.subspaces(s)] == expected


@pytest.mark.parametrize("q,n", field_ladder(1))
def test_covers_are_the_sums_with_lines(q, n):
    # the computed index of every cover against the scalar sum X + L
    gf = GF.of_order(q)
    T = table(n, q)
    lines = list(enumerate_subspaces(gf, n, 1))
    for s in range(n):
        above = list(T.subspaces(s + 1))
        covers = T.cover_index(s, np.arange(len(T.rows[s]))).tolist()
        for X, cover in zip(T.subspaces(s), covers, strict=True):
            expected = {X.sum(L) for L in lines} - {X}
            assert len(cover) == len(expected) and {above[i] for i in cover} == expected


@pytest.mark.parametrize("q,n", [(3, 4), (4, 3)])
def test_covers_without_q_squared_tables(monkeypatch, q, n):
    # once q^2 > CHUNK the row update calls the field's arithmetic element
    # by element, with no q x q tables: the same covers as from the tables
    tabled = table(n, q)
    monkeypatch.setattr(subspace_table, "CHUNK", q * q - 1)
    T = SubspaceTable(GF.of_order(q), n)
    for s in range(n):
        at = np.arange(len(T.rows[s]))
        assert np.array_equal(T.cover_index(s, at), tabled.cover_index(s, at))


@pytest.mark.parametrize("q,n", [(2**31, 1), (1024, 2)])
def test_large_field_allocates_nothing_of_field_size(q, n):
    # the tables grow with the subspaces, not with q: a 2^n q^n table of
    # row shares would take 32 GiB over F_2^31 and 32 MiB over F_1024^2,
    # and q x q tables of the field 8 MiB over F_1024
    gf = GF.of_order(q)
    tracemalloc.start()
    try:
        T = SubspaceTable(gf, n)
        covers = [T.cover_index(s, np.arange(len(T.rows[s]))) for s in range(n)]
        if n == 1:
            M = uniform_qmatroid(1, 1, q)
            assert M.verify_axioms()["ok"] and len(M.qflats()) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the zero subspace is covered by every line, the lines by F_q^n
    assert sorted(covers[0].ravel().tolist()) == list(range((q**n - 1) // (q - 1)))
    assert set(covers[-1].ravel().tolist()) == {0}


def random_binary_code(m, n, k, rng):
    while True:
        gen = [[rng.randrange(2**m) for _ in range(n)] for _ in range(k)]
        try:
            return GabidulinCode(binary_tower(m), 0, 1, gen)
        except InputError:
            continue


@settings(derandomize=True, deadline=None, max_examples=6)
@given(n=st.integers(1, 5), data=st.data())
def test_batched_code_ranks_match_scalar(n, data):
    # the exp/log batch against the single-subspace rho (mat_mul + mat_rank)
    # over every field F_4 .. F_4096; above F_256 the scalar side runs on
    # tower arithmetic, so n <= 4 there
    for m in range(2, 13):
        length = min(n, 4) if m > 8 else n
        k = data.draw(st.integers(1, length))
        code = random_binary_code(m, length, k, random.Random(data.draw(st.integers(0, 2**32))))
        M = code.qmatroid()
        assert M._rank_rows is not None
        for s, rows in enumerate(table(length).rows):
            scalar = [M._rank_fn(X) for X in enumerate_subspaces(M.gf, length, s)]
            assert M._rank_rows(rows).tolist() == scalar


def test_verify_axioms_reads_batched_ranks(example_code):
    # over F_2 the axiom walk reads the batch's ranks and ranks nothing itself
    M = example_code.qmatroid()
    rho, calls = M._rank_fn, []

    def counted(X):
        calls.append(X)
        return rho(X)

    M._rank_fn = counted
    assert M.verify_axioms() == {"ok": True, "violation": None}
    assert calls == []
    assert all(r == rho(X) for X, r in M._memo.items())


def test_batch_stops_at_its_field_limit():
    rng = random.Random(1)
    assert random_binary_code(12, 3, 2, rng).qmatroid()._rank_rows is not None
    M = random_binary_code(13, 3, 2, rng).qmatroid()
    assert M._rank_rows is None
    # ranked one subspace at a time, with no exp/log table of F_8192
    misses = exp_log.cache_info().misses
    assert sum(M.rank_profile().values()) == 16
    assert exp_log.cache_info().misses == misses


def _corrupted(dim, rank):
    base = uniform_qmatroid(2, 4, 2)
    target = next(enumerate_subspaces(base.gf, 4, dim))
    return QMatroid(base.gf, 4, lambda X: rank if X == target else base.rank(X))


@pytest.mark.parametrize("make", [
    lambda: uniform_qmatroid(0, 3, 2),
    lambda: uniform_qmatroid(2, 4, 2),
    lambda: uniform_qmatroid(3, 5, 2),
    lambda: uniform_qmatroid(5, 5, 2),
    lambda: uniform_qmatroid(2, 4, 2).dual(),
    lambda: uniform_qmatroid(3, 5, 2).dual(),
    lambda: uniform_qmatroid(2, 5, 2).restrict(next(enumerate_subspaces(GF.of_order(2), 5, 3))),
    lambda: _corrupted(1, 0),
    lambda: _corrupted(3, 1),
    # every cover changes the rank, half of them downwards
    lambda: QMatroid(GF.of_order(2), 4, lambda X: X.dim % 2),
], ids=["U(0,3)", "U(2,4)", "U(3,5)", "U(5,5)", "U(2,4)*", "U(3,5)*", "U(2,5)|U",
        "line-rank-0", "3-space-rank-1", "parity"])
def test_indexed_flats_and_profile_match_scalar_scan(make):
    M = make()
    flats, profile = scalar_reference(M)
    assert M.qflats() == flats
    assert all(M.rank(F) == M._rank_fn(F) for F in flats)
    assert M.rank_profile() == profile


def test_default_cap_refused_before_enumeration(monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("enumerated past the default cap")

    monkeypatch.setattr(subspace_table, "subspace_rows", enumerate_nothing)
    # the table has no width limit of its own: at n = 11 the default cap
    # refuses the covers of the cover walk and the subspaces of the profile
    for scan in ("qflats", "rank_profile"):
        with pytest.raises(ResourceLimitError) as err:
            getattr(uniform_qmatroid(3, 11, 2), scan)()
        assert err.value.cap == DEFAULT_SUBSPACE_CAP < err.value.required


def test_profile_cap_checked_after_table_built():
    # the table is kept, but a smaller cap still refuses, as an enumeration would
    M = uniform_qmatroid(2, 4, 2)
    M.qflats()
    with pytest.raises(ResourceLimitError) as err:
        M.rank_profile(cap=5)
    assert (err.value.required, err.value.cap) == (15, 5)


# -- the checked cover walk against the scalar walk -------------------------


@cache
def subspace_list(n):
    return list(all_subspaces(GF.of_order(2), n))


def perturbed_matroid(seed):
    """A uniform or F_16-code q-matroid on F_2^3..F_2^5 with up to three
    ranks moved by -1, +1 or +2, kept inside [0, dim] when one of the two
    fits, and ranked through a shared table."""
    rng = random.Random(seed)
    n = 3 + seed % 3
    if rng.random() < 0.5:
        base = uniform_qmatroid(rng.randrange(n + 1), n, 2)
    else:
        base = random_binary_code(4, n, rng.randint(1, 3), rng).qmatroid()
    T = table(n)
    sizes = [len(rows) for rows in T.rows]
    flat = np.concatenate([base._rank_rows(rows) for rows in T.rows]).astype(np.int64)
    dims = np.repeat(np.arange(n + 1), sizes)
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(flat))
        delta = rng.choice([-1, 1, 2])
        flat[i] += delta if 0 <= flat[i] + delta <= dims[i] else -delta
    M = QMatroid(base.gf, n, dict(zip(subspace_list(n), flat.tolist())).__getitem__)
    M._table = T, np.split(flat, np.cumsum(sizes)[:-1])
    return M


def test_closure_pass_matches_scalar_walk():
    verdicts = []
    for seed in range(400):
        M = perturbed_matroid(seed)
        T, ranks = M._table
        walk = T.cover_walk(ranks, check=True)
        verdicts.append(walk is not None)
        assert verdicts[-1] == M._axiom_walk(None)["ok"], seed
        if walk is not None:
            # on a q-matroid the checked walk and the early-exit walk find
            # the same flats and the same cover edges
            flats, covers = walk
            early_flats, early_covers = T.cover_walk(ranks)
            assert len(flats) == len(early_flats) == M.n + 1, seed
            assert all(np.array_equal(a, b) for a, b in zip(flats, early_flats)), seed
            assert covers == early_covers, seed
    assert 50 < sum(verdicts) < 350


def seed1_code(label, m_extension, n, p=2, k=3):
    """A seed-1 benchmark code, parsed as the CLI parses it."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import random_code
    finally:
        sys.path.pop(0)
    spec = random_code(1, label, p, m_extension, k, n)
    return cli.parse_spec_source(json.dumps(spec).encode())[0].matroid


SEED1_LADDER = pytest.mark.parametrize("make", [
    lambda: uniform_qmatroid(3, 6, 2),
    lambda: seed1_code("code_q2_n6", [1, 1, 0, 0, 0, 0, 1], 6),
    lambda: seed1_code("code_q2_n7", [1, 1, 0, 0, 0, 0, 0, 1], 7),
    lambda: seed1_code("code_q3_n5", [1, 2, 0, 0, 0, 1], 5, p=3, k=2),
], ids=["U(3,6)", "code_q2_n6", "code_q2_n7", "code_q3_n5"])


@SEED1_LADDER
def test_closure_fixed_points_are_qflats(make):
    M = make()
    T, ranks = M._ranked_table(None)
    flats, _ = T.cover_walk(ranks, check=True)
    walked = tuple(X for s, index in enumerate(flats) for X in T.subspaces(s, index))
    assert walked == M.qflats()
    assert M.verify_axioms() == {"ok": True, "violation": None}


@SEED1_LADDER
def test_cover_lattice_matches_point_masks(make):
    # the lattice built from the closure pointers of the flat scan against
    # point-mask containment over the scalar complements of the flats
    M = make()
    L = build_cycle_lattice(M)
    ref = CycleLattice(M, [F.complement() for F in M.qflats()],
                       [M.full_rank - M.rank(F) for F in M.qflats()])
    assert L.nodes == ref.nodes
    assert L.nullity == ref.nullity
    assert L.below == ref.below
