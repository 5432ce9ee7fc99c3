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
    GF,
    GabidulinCode,
    InputError,
    QMatroid,
    ResourceLimitError,
    StructuralError,
    Subspace,
    all_subspaces,
    build_cycle_lattice,
    cli,
    cross_checked_weights,
    enumerate_subspaces,
    prime_field,
    qmatroid,
    subspace_table,
    uniform_qmatroid,
    virtual_betti_table,
    weight_polys_betti,
)
from rankspectra.fields import FieldTower
from rankspectra.linalg import _TABLE_LIMIT, DEFAULT_SUBSPACE_CAP, exp_log
from rankspectra.subspace_table import SubspaceTable

from point_mask import PointMaskLattice, is_qflat, line_steps
from test_qmatroid import _violates, _witness


@cache
def field_tower(p, *degrees):
    """F_p extended by irreducibles of the given degrees, one level each."""
    t = prime_field(p)
    for m in degrees:
        t = t.extend(t.find_irreducible(m))
    return t


@cache
def table(n, q=2):
    return SubspaceTable(GF.of_order(q), n)


def scalar_reference(M):
    """q-flats by ``is_qflat`` and the profile by ``rank``, on a fresh memo."""
    R = QMatroid(M.gf, M.n, M._rank_fn)
    subs = list(all_subspaces(R.gf, R.n))
    return (tuple(X for X in subs if is_qflat(R, X)),
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


@pytest.mark.parametrize("q,n,dtype", [
    (2, 7, np.int8), (2, 8, np.int16), (3, 4, np.int8), (3, 5, np.int16), (4, 3, np.int8),
    (1024, 2, np.int32), (2**31, 1, np.int32),
])
def test_rows_take_the_narrowest_signed_type(q, n, dtype):
    # the smallest signed type that holds -q^n, so every packed row fits
    T = SubspaceTable(GF.of_order(q), n)
    assert np.min_scalar_type(-q ** n) == dtype
    assert [rows.dtype for rows in T.rows] == [np.dtype(dtype)] * (n + 1)


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
    # past the square-table bound of the walk the row update calls the
    # field's arithmetic element by element, with no q x q tables: the same
    # covers as from the tables
    tabled = table(n, q)
    monkeypatch.setattr(subspace_table, "_SQUARE_TABLE_LIMIT", q - 1)
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


def random_code(tower, n, k, rng):
    """A random full-rank code over the top level of tower, based one level below."""
    while True:
        gen = [[rng.randrange(tower.sizes[-1]) for _ in range(n)] for _ in range(k)]
        try:
            return GabidulinCode(tower, -2, -1, gen)
        except InputError:
            continue


def random_binary_code(m, n, k, rng):
    return random_code(field_tower(2, m), n, k, rng)


def _batch_matches_scalar(degrees, n, data):
    k = data.draw(st.integers(1, n))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    M = random_code(field_tower(*degrees), n, k, rng).qmatroid()
    assert M._rank_rows is not None
    for s, rows in enumerate(table(n, M.q).rows):
        scalar = [M._rank_fn(X) for X in enumerate_subspaces(M.gf, n, s)]
        assert M._rank_rows(rows).tolist() == scalar


@settings(derandomize=True, deadline=None, max_examples=6)
@given(n=st.integers(1, 5), data=st.data())
def test_batched_code_ranks_match_scalar(n, data):
    # the exp/log batch against the single-subspace rho (mat_mul + mat_rank)
    # over every field F_4 .. F_4096 up to n = 5, and with Zech sums over
    # F_9 .. F_2187, F_25 and F_49, and XOR over F_16 with base F_4, up to n = 4
    for m in range(2, 13):
        _batch_matches_scalar((2, m), n, data)
    for degrees in [(3, m) for m in range(2, 8)] + [(5, 2), (7, 2), (2, 2, 2)]:
        _batch_matches_scalar(degrees, min(n, 4), data)


def test_batch_reduces_its_factor_modulo_the_group_order():
    # the images [1, 1] and [5, 5] of e_0 and e_1 over F_9 are proportional;
    # the factor's log, unreduced, runs past the doubled exp list into its
    # zeros, and the pair would rank 2
    code = GabidulinCode(field_tower(3, 2), 0, 1, [[1, 5, 0], [1, 5, 1]])
    M = code.qmatroid()
    assert M._rank_fn(Subspace.from_rows(M.gf, 3, [(1, 0, 0), (0, 1, 0)])) == 1
    assert M._rank_rows(np.array([[1, 3]])).tolist() == [1]


def test_verify_axioms_reads_batched_ranks(example_code):
    # over F_2 and F_3 the axiom walk reads the batch's ranks and ranks
    # nothing itself
    code_q3 = cli.parse_spec_source(
        (Path(__file__).parent / "data" / "code_q3_k2_n4.json").read_bytes())[0].code
    for code in (example_code, code_q3):
        M = code.qmatroid()
        rho, calls = M._rank_fn, []

        def counted(X, rho=rho, calls=calls):
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
    # the same limit for odd p: F_2187 = 3^7 is batched, F_6561 = 3^8 is not
    assert random_code(field_tower(3, 7), 3, 2, rng).qmatroid()._rank_rows is not None
    M = random_code(field_tower(3, 8), 3, 2, rng).qmatroid()
    assert M._rank_rows is None
    misses = exp_log.cache_info().misses
    assert sum(M.rank_profile().values()) == 28
    assert exp_log.cache_info().misses == misses


def test_batch_logs_fit_int16_up_to_the_table_limit():
    # _code_rank_rows sums logs in int16 and indexes exp with them; a sum
    # reaches 4Q, the last of the 4Q + 1 entries of exp
    code = random_binary_code(12, 3, 2, random.Random(2))
    _, exp, log, _ = code._image_tables
    assert code.Q == _TABLE_LIMIT and len(exp) == 4 * code.Q + 1
    assert log.dtype == np.int16 and 4 * _TABLE_LIMIT + 1 < 2**15


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
    # over the field of the table and its subspaces, which the rank dict
    # keys; a code's F_2 sits in a tower of its own
    M = QMatroid(T.gf, n, dict(zip(subspace_list(n), flat.tolist())).__getitem__)
    M._table = T, np.split(flat, np.cumsum(sizes)[:-1])
    return M


def line_walk_ok(M):
    """The scalar line walk: (P1) on every subspace, every step X -> X + L
    over a line L outside X in {0, 1}, and the closure of X, grown from X
    one step-0 line at a time, of the rank of X.  Given (P1) it accepts
    exactly the q-matroids (``QMatroid.verify_axioms``)."""
    subs = subspace_list(M.n)
    if not all(0 <= M.rank(X) <= X.dim for X in subs):
        return False
    for X in subs:
        steps = list(line_steps(M, X))
        if any(step not in (0, 1) for _, step in steps):
            return False
        S = X
        for L, step in steps:
            if step == 0:
                S = S.sum(L)
                if M.rank(S) != M.rank(X):
                    return False
    return True


def test_closure_pass_matches_scalar_walk():
    verdicts, kinds = [], Counter()
    for seed in range(400):
        M = perturbed_matroid(seed)
        T, ranks = M._table
        flats, covers, failure = T.cover_walk(ranks, check=True)
        verdicts.append(failure is None)
        assert verdicts[-1] == line_walk_ok(M), seed
        # the checked walk and the early-exit walk find the same flats,
        # and on a q-matroid the same cover edges
        early_flats, early_covers, early_failure = T.cover_walk(ranks)
        assert early_failure is None, seed
        assert len(flats) == len(early_flats) == M.n + 1, seed
        assert all(np.array_equal(a, b) for a, b in zip(flats, early_flats)), seed
        if verdicts[-1]:
            assert covers == early_covers, seed
            continue
        assert covers is None, seed
        # every witness is genuine by the pairwise definition
        axiom, X, Y = _witness(M, M.verify_axioms()["violation"])
        assert _violates(M, axiom, X, Y), seed
        if axiom == "P3":  # a step d > 1 to a line, or two step-0 covers
            axiom += " line" if M.rank(X.sum(Y)) > M.rank(X) + 1 else " covers"
        kinds[axiom] += 1
    assert 50 < sum(verdicts) < 350
    assert set(kinds) == {"P1", "P2", "P3 line", "P3 covers"}, kinds


def seed1_code(label, m_extension, n, p=2, k=3):
    """A seed-1 benchmark code, parsed as the CLI parses it."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import random_code
    finally:
        sys.path.pop(0)
    spec = random_code(1, label, p, m_extension, k, n)
    return cli.parse_spec_source(json.dumps(spec).encode())[0].matroid


def test_code_over_f729_ranks_without_tower_arithmetic(monkeypatch):
    # F_729 lies under the table limit: once its GF is built, ranking the
    # subspaces of a code over it calls no tower arithmetic, inverses
    # included
    M = seed1_code("code_F729_n4", [2, 1, 0, 0, 0, 0, 1], 4, p=3, k=2)
    calls = Counter()
    for method in ("add", "sub", "neg", "mul", "inv"):
        def counted(*args, _call=getattr(FieldTower, method), _name=method, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(FieldTower, method, counted)
    ranks = Counter(M._rank_fn(X) for X in all_subspaces(M.gf, 4))
    monkeypatch.undo()
    assert calls == {}
    assert ranks == {0: 1, 1: 40, 2: 171}


def test_qflats_memo_holds_only_ranks_of_the_rank_function():
    # a code ranks its table in batches; the flats it finds are not
    # ranked by the scalar rank function, so they stay out of its memo,
    # which the oracles read
    M = seed1_code("code_q2_n6", [1, 1, 0, 0, 0, 0, 1], 6)
    ranked, rank_fn = [], M._rank_fn
    M._rank_fn = lambda X: ranked.append(X) or rank_fn(X)
    assert len(M.qflats()) == 592
    assert set(M._memo) <= set(ranked)


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
    flats, _, failure = T.cover_walk(ranks, check=True)
    assert failure is None
    walked = tuple(X for s, index in enumerate(flats) for X in T.subspaces(s, index))
    assert walked == M.qflats()
    assert M.verify_axioms() == {"ok": True, "violation": None}


def _point_mask_lattice(M):
    """The point-mask containment lattice over the complements of the flats."""
    flats = M.qflats()
    return PointMaskLattice(M, [F.complement() for F in flats],
                            [M.full_rank - M.rank(F) for F in flats])


@SEED1_LADDER
def test_cover_lattice_matches_point_masks(make):
    # the lattice built from the closure pointers of the flat scan against
    # point-mask containment over the scalar complements of the flats
    M = make()
    L = build_cycle_lattice(M)
    ref = _point_mask_lattice(M)
    assert L.nodes == ref.nodes
    assert L.nullity == ref.nullity
    assert L.below == ref.below


def _forms_no_flat_subspace(monkeypatch):
    """Refuse every flat ``Subspace``, every complement and every rank but
    rho(E) = k; the ranked table is built before, as a source without a
    batched rank fills it one subspace at a time."""
    def refuse(*args, **kwargs):
        raise AssertionError("formed a Subspace for a flat or a node")

    rank = QMatroid.rank

    def full_rank_only(self, X):
        assert X.dim == self.n, "ranked a subspace other than E"
        return rank(self, X)

    monkeypatch.setattr(Subspace, "complement", refuse)
    monkeypatch.setattr(SubspaceTable, "subspaces", refuse)
    monkeypatch.setattr(QMatroid, "qflats", refuse)
    monkeypatch.setattr(QMatroid, "rank", full_rank_only)


# U(k, n) and the codes over F_64 and F_81 rank arrays of rows
TABLE_SOURCES = pytest.mark.parametrize("make", [
    lambda: uniform_qmatroid(3, 6, 2),
    lambda: seed1_code("code_q2_n6", [1, 1, 0, 0, 0, 0, 1], 6),
    lambda: cli.parse_spec_source(
        (Path(__file__).parent / "data" / "code_q3_k2_n4.json").read_bytes())[0].matroid,
], ids=["U(3,6)", "code_q2_n6", "code_q3_k2_n4"])


@TABLE_SOURCES
def test_rank_slices_match_whole_dimensions(monkeypatch, make):
    # with CHUNK = 7 a source with ``_rank_rows`` ranks every dimension in
    # slices of at most 7 rows; the int8 ranks equal those of the default
    # CHUNK, which holds each of these dimensions (at most 1395 rows) whole
    whole = make()._ranked_table(None)[1]
    M, slices = make(), []
    if M._rank_rows is not None:
        rank_rows = M._rank_rows
        M._rank_rows = lambda rows: slices.append(len(rows)) or rank_rows(rows)
    monkeypatch.setattr(qmatroid, "CHUNK", 7)
    ranks = M._ranked_table(None)[1]
    assert [rank.dtype for rank in ranks] == [np.dtype(np.int8)] * (M.n + 1)
    assert all(map(np.array_equal, ranks, whole))
    if M._rank_rows is not None:
        assert slices == [min(7, len(r) - i) for r in ranks for i in range(0, len(r), 7)]


@TABLE_SOURCES
def test_lattice_and_weights_form_no_flat_subspace(monkeypatch, make):
    # the analyze path reads the flats as table positions: the lattice,
    # its Betti table and the weights form no Subspace for a flat or a node
    M = make()
    M.rank_profile()
    with monkeypatch.context() as patched:
        _forms_no_flat_subspace(patched)
        L = build_cycle_lattice(M)
        table = virtual_betti_table(L)
        weights = cross_checked_weights(M, table, weight_polys_betti(table))
    assert len(weights) == M.full_rank
    ref = _point_mask_lattice(M)
    assert L.nodes == ref.nodes
    assert L.nullity == ref.nullity
    assert L.below == ref.below


def test_failing_rank_function_rejected_with_no_flat_subspace(monkeypatch):
    M = _corrupted(1, 0)
    M.rank_profile()
    _forms_no_flat_subspace(monkeypatch)
    with pytest.raises(StructuralError, match="the rank function fails the q-matroid axioms"):
        build_cycle_lattice(M)
