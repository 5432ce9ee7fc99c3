import random
import time
import tracemalloc
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankspectra import (
    GF,
    InputError,
    ResourceLimitError,
    Subspace,
    all_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    linalg,
    matrix_count,
    prime_field,
    rank_support,
    rank_weight,
)
from rankspectra.linalg import _TABLE_LIMIT, _table_ops, mat_mul, mat_rank, rref


def _reference_rref(gf, rows):
    """Gauss-Jordan elimination on coordinate tuples, column by column:
    (rows, rank, pivots), the reference for ``rref`` and ``Subspace``, which
    both eliminate in the row form of ``gf`` (``linalg._insert``)."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = gf.inv(work[r][col])
        work[r] = [gf.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                work[i] = [gf.sub(x, gf.mul(c, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in work[:r]), r, tuple(pivots)


def _reference_product(gf, a, b):
    """The matrix product a b over gf, one dot product per entry."""
    return tuple(tuple(reduce(gf.add, map(gf.mul, row, col), 0) for col in zip(*b))
                 for row in a)


def _rows(n, q=2, size=None):
    """Row lists over F_q^n, at most ``size`` (n + 1 by default) drawn rows,
    with zero rows and up to two repeated rows mixed in."""
    vector = st.one_of(st.just((0,) * n),
                       st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple))
    return st.lists(vector, max_size=n + 1 if size is None else size).flatmap(
        lambda rows: st.lists(st.sampled_from(rows), max_size=2).map(rows.__add__)
        if rows else st.just(rows))


@pytest.fixture(scope="module")
def gf2():
    return GF.of_order(2)


@pytest.fixture(scope="module")
def gf3():
    return GF.of_order(3)


def test_of_order_prime_power():
    gf4 = GF.of_order(4)
    assert gf4.size == 4
    with pytest.raises(InputError):
        GF.of_order(6)


def test_rref_canonical(gf2):
    rows, rank, pivots = rref(gf2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert rank == 2
    assert pivots == (0, 1)
    assert rows == ((1, 0, 1), (0, 1, 1))


def test_mat_rank_gf3(gf3):
    assert mat_rank(gf3, [(1, 2), (2, 1)]) == 1  # second row = 2 * first
    assert mat_rank(gf3, [(1, 2), (2, 2), (0, 0)]) == 2


def test_mat_mul_identity(gf3):
    eye = ((1, 0), (0, 1))
    a = ((1, 2), (0, 2))
    assert mat_mul(gf3, a, eye) == a


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), q=st.sampled_from([2, 3, 4, 9, 16]))
def test_matrix_helpers_match_reference(data, q):
    # up to 5 x 6 matrices: b has 1..5 rows of 1..6 entries, a as many
    # columns as b has rows
    gf = GF.of_order(q)
    b = data.draw(_rows(data.draw(st.integers(1, 6)), q, 3).filter(bool))
    a = data.draw(_rows(len(b), q, 3))
    for rows in (a, b):
        assert rref(gf, rows) == _reference_rref(gf, rows)
        assert mat_rank(gf, rows) == _reference_rref(gf, rows)[1]
    assert mat_mul(gf, a, b) == _reference_product(gf, a, b)


def test_subspace_canonical_equality(gf2):
    a = Subspace.from_rows(gf2, 3, [(1, 1, 0), (0, 1, 1)])
    b = Subspace.from_rows(gf2, 3, [(1, 0, 1), (0, 1, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2


def test_containment_and_order(gf2):
    big = Subspace.from_rows(gf2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    small = Subspace.from_rows(gf2, 4, [(1, 1, 0, 0)])
    assert big.contains(small)
    assert not small.contains(big)


def test_sum_and_intersect(gf2):
    x = Subspace.from_rows(gf2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    y = Subspace.from_rows(gf2, 4, [(0, 1, 0, 0), (0, 0, 1, 0)])
    assert x.sum(y).dim == 3


def test_complement_dimensions():
    # the orthogonal complement from its definition, on every subspace:
    # each row of X is orthogonal to each row of its complement under the
    # dot product of the tower, the dimensions add to n, and the
    # complement of the complement is X
    for q, n in [(2, 5), (3, 3), (4, 3)]:
        gf = GF.of_order(q)
        tower, level = gf.tower, gf.level

        def dot(x, y):
            total = 0
            for a, b in zip(x, y):
                total = tower.add(total, tower.mul(a, b, level), level)
            return total

        for X in all_subspaces(gf, n):
            C = X.complement()
            assert all(dot(x, y) == 0
                       for x in X.coordinate_rows() for y in C.coordinate_rows())
            assert X.dim + C.dim == n
            assert C.complement() == X


def test_embed_subspace(gf2):
    U = Subspace.from_rows(gf2, 4, [(1, 0, 1, 0), (0, 1, 1, 1)])
    line = Subspace.from_rows(gf2, 2, [(1, 1)])
    image = U.embed_subspace(line)
    assert image.dim == 1
    assert U.contains(image)


@pytest.mark.parametrize("q,n,s", [(2, 4, 2), (3, 3, 1), (3, 3, 2), (2, 5, 3)])
def test_enumeration_count(q, n, s):
    gf = GF.of_order(q)
    subs = list(enumerate_subspaces(gf, n, s))
    assert len(subs) == gaussian_binomial(n, s, q)
    assert len(set(subs)) == len(subs)


def test_enumeration_deterministic(gf2):
    a = [X.serialize() for X in enumerate_subspaces(gf2, 4, 2)]
    b = [X.serialize() for X in enumerate_subspaces(gf2, 4, 2)]
    assert a == b


def test_enumeration_cap(gf2):
    with pytest.raises(ResourceLimitError) as err:
        list(enumerate_subspaces(gf2, 4, 2, cap=10))
    assert err.value.required == 35


def test_ambient_enumeration(gf2):
    U = Subspace.from_rows(gf2, 4, [(1, 0, 1, 0), (0, 1, 1, 1)])
    lines = list(enumerate_subspaces(gf2, 4, 1, ambient=U))
    assert len(lines) == 3
    assert all(U.contains(line) for line in lines)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 3, 2) == 15
    assert gaussian_binomial(4, 1, 16) == 4369
    assert gaussian_binomial(3, 5, 2) == 0


@given(n=st.integers(0, 6), k=st.integers(0, 6), q=st.sampled_from([2, 3, 4]))
@settings(max_examples=50)
def test_gaussian_symmetry(n, k, q):
    assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q) or k > n


def test_matrix_count_values():
    assert matrix_count(2, 1, 16) == 255
    assert matrix_count(2, 2, 16) == 255 * 240
    assert matrix_count(3, 0, 16) == 1


def test_rank_support_and_weight(tower16):
    # word over F_16 with entries {1, a} spans two base directions
    word = (1, 2, 0, 0)
    support = rank_support(tower16, 1, 0, word)
    assert support.dim == 2
    assert rank_weight(tower16, 1, 0, (0, 0, 0, 0)) == 0
    assert rank_weight(tower16, 1, 0, (1, 1, 1, 1)) == 1


def _top_level(q, ext=1):
    """F_q, then, for ext > 1, its extension of degree ext: (tower, top level)."""
    tower = GF.of_order(q).tower
    if ext > 1:
        tower = tower.extend(tower.find_irreducible(ext))
    return tower, tower.top_level


@pytest.mark.parametrize("q,ext", [
    (2, 1), (3, 1), (9, 1), (16, 1), (64, 1), (243, 1), (256, 1), (4, 2),
], ids=["F2", "F3", "F9", "F16", "F64", "F243", "F256", "F16_over_F4"])
def test_table_ops_match_tower(q, ext):
    tower, level = _top_level(q, ext)
    gf = GF(tower, level)
    size = gf.size
    assert size == q**ext <= _TABLE_LIMIT
    for a in range(size):
        for b in range(size):
            assert gf.add(a, b) == tower.add(a, b, level)
            assert gf.sub(a, b) == tower.sub(a, b, level)
            assert gf.mul(a, b) == tower.mul(a, b, level)
        assert gf.neg(a) == tower.neg(a, level)
        if a:
            assert gf.inv(a) == tower.inv(a, level)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


@pytest.mark.parametrize("q", [257, 512, 729, 1024, 2187, 4096])
def test_exp_log_ops_match_tower(q):
    # past the 256 elements of test_table_ops_match_tower: the exp/log and
    # Zech lists of _table_ops on sampled pairs, the inverse on every unit
    tower, level = _top_level(q)
    gf = GF(tower, level)
    assert gf.mul is _table_ops(tower, level)[3]
    rng = random.Random(q)
    for _ in range(3000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert gf.add(a, b) == tower.add(a, b, level)
        assert gf.sub(a, b) == tower.sub(a, b, level)
        assert gf.mul(a, b) == tower.mul(a, b, level)
        assert gf.neg(a) == tower.neg(a, level)
    # an inverse is unique, so one tower product checks it
    assert all(tower.mul(a, gf.inv(a), level) == 1 for a in range(1, q))
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


@pytest.mark.parametrize("q", [6561, 8192])
def test_field_above_table_limit_uses_tower(monkeypatch, q):
    # only the levels below the limit, which the tower computes through,
    # may build their tables, whatever the cache holds
    def tables_below_limit(tower, at):
        assert tower.sizes[at] <= _TABLE_LIMIT
        return _table_ops(tower, at)

    tower, level = _top_level(q)
    monkeypatch.setattr(linalg, "_table_ops", tables_below_limit)
    gf = GF(tower, level)
    rng = random.Random(q)
    for _ in range(300):
        a, b = rng.randrange(q), rng.randrange(q)
        assert gf.add(a, b) == tower.add(a, b, level)
        assert gf.sub(a, b) == tower.sub(a, b, level)
        assert gf.mul(a, b) == tower.mul(a, b, level)
        assert gf.neg(a) == tower.neg(a, level)
        if a:
            assert gf.inv(a) == tower.inv(a, level)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


def test_table_build_is_linear_in_the_field_size():
    # the lists of a fresh F_256 (not the modulus of GF.of_order) have O(Q)
    # entries, far below the 65,536 of one 256 x 256 product table
    tower = prime_field(2).extend([1, 0, 1, 1, 1, 0, 0, 0, 1])
    tower.mul(2, 3, 1)  # the GF of level 0, which the primitive-element walk reads
    misses = _table_ops.cache_info().misses
    tracemalloc.start()
    try:
        GF(tower, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _table_ops.cache_info().misses == misses + 1
    assert peak < 64 << 10


def test_huge_prime_field_builds_no_tables():
    misses = _table_ops.cache_info().misses
    start = time.perf_counter()
    gf = GF.of_order(1000000007)
    assert time.perf_counter() - start < 1.0
    assert _table_ops.cache_info().misses == misses
    assert gf.mul(2, 500000004) == 1


_SUM_FIELDS = {"F_2^4": (2, 4), "F_2^7": (2, 7), "F_3^3": (3, 3), "F_4^3": (4, 3)}


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data(), field=st.sampled_from(sorted(_SUM_FIELDS)))
def test_incremental_sum_matches_rref(data, field):
    q, n = _SUM_FIELDS[field]
    gf = GF.of_order(q)
    vectors = st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                       max_size=n)
    A = Subspace.from_rows(gf, n, [tuple(v) for v in data.draw(vectors)])
    B = Subspace.from_rows(gf, n, [tuple(v) for v in data.draw(vectors)])
    joint = Subspace.from_rows(gf, n, A.coordinate_rows() + B.coordinate_rows())
    total = A.sum(B)
    assert total == joint
    assert total.pivots == joint.pivots
    for L in enumerate_subspaces(gf, n, 1):
        assert (A.sum(L).dim > A.dim) == (not A.contains(L))


# -- F_2 rows packed into ints, against the reference elimination ---------


def _f2_span(rows, n):
    """Every vector of the span of coordinate rows, by brute force over F_2^n."""
    rank = _reference_rref(GF.of_order(2), rows)[1]
    return {v for v in product((0, 1), repeat=n)
            if _reference_rref(GF.of_order(2), list(rows) + [v])[1] == rank}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), n=st.integers(1, 9))
def test_binary_rows_match_rref(gf2, data, n):
    rows_a, rows_b = data.draw(_rows(n)), data.draw(_rows(n))
    ref_a, rank_a, pivots_a = _reference_rref(gf2, rows_a)
    A, B = Subspace.from_rows(gf2, n, rows_a), Subspace.from_rows(gf2, n, rows_b)
    assert (A.coordinate_rows(), A.dim, A.pivots) == (ref_a, rank_a, pivots_a)
    assert A.serialize() == [sum(x << j for j, x in enumerate(row)) for row in ref_a]
    # equality and hash follow the span, not the rows given
    same = Subspace.from_rows(gf2, n, list(reversed(ref_a)) + rows_a)
    assert same == A and hash(same) == hash(A)
    assert (A == B) == (_reference_rref(gf2, rows_b)[0] == ref_a)
    joint = _reference_rref(gf2, rows_a + rows_b)
    total = A.sum(B)
    assert (total.coordinate_rows(), total.pivots) == (joint[0], joint[2])
    assert A.contains(B) == (joint[1] == rank_a)
    span = _f2_span(rows_a, n)
    vectors = list(A.vectors())
    assert len(vectors) == len(span) and set(vectors) == span
    # the complement is every vector orthogonal to all of A
    perp = [v for v in product((0, 1), repeat=n)
            if all(sum(x * y for x, y in zip(v, row)) % 2 == 0 for row in ref_a)]
    assert A.complement().coordinate_rows() == _reference_rref(gf2, perp)[0]


# serialized order of enumerate_subspaces(GF(2), 4, s), taken from the
# tuple-row implementation; qflats, the lattice sort and the verify_axioms
# witnesses follow it
_F2_4_ORDER = {
    0: [[]],
    1: [[1], [9], [5], [13], [3], [11], [7], [15], [2], [10], [6], [14], [4], [12], [8]],
    2: [[1, 2], [1, 10], [1, 6], [1, 14], [9, 2], [9, 10], [9, 6], [9, 14], [5, 2],
        [5, 10], [5, 6], [5, 14], [13, 2], [13, 10], [13, 6], [13, 14], [1, 4], [1, 12],
        [9, 4], [9, 12], [3, 4], [3, 12], [11, 4], [11, 12], [1, 8], [5, 8], [3, 8],
        [7, 8], [2, 4], [2, 12], [10, 4], [10, 12], [2, 8], [6, 8], [4, 8]],
    3: [[1, 2, 4], [1, 2, 12], [1, 10, 4], [1, 10, 12], [9, 2, 4], [9, 2, 12],
        [9, 10, 4], [9, 10, 12], [1, 2, 8], [1, 6, 8], [5, 2, 8], [5, 6, 8], [1, 4, 8],
        [3, 4, 8], [2, 4, 8]],
    4: [[1, 2, 4, 8]],
}


@pytest.mark.parametrize("s", range(5))
def test_enumeration_order_pinned(gf2, s):
    assert [X.serialize() for X in enumerate_subspaces(gf2, 4, s)] == _F2_4_ORDER[s]
