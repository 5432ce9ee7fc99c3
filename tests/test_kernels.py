import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankspectra import _kernels


def _toy_basis(k=2, mtilde=2, n=3, seed=11):
    # arbitrary but fixed unit-message codewords, entries mtilde bits wide
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << mtilde, size=(k * mtilde, n), dtype=np.uint64)


def _spectrum_odometer(contrib, mtilde, start, stop, counts):
    """Reference implementation, one message at a time.

    contrib[t, v, j] is the encoding of the j-th entry of v * row_t of the
    generator matrix; message index digits are big-endian in t.
    """
    k, S, n = contrib.shape
    digits = np.zeros(k, np.int64)
    acc = np.zeros((k + 1, n), np.uint64)
    basis = np.zeros(n, np.uint64)
    rem = start
    for t in range(k - 1, -1, -1):
        digits[t] = rem % S
        rem //= S
    for u in range(k):
        for j in range(n):
            acc[u + 1, j] = acc[u, j] ^ contrib[u, digits[u], j]
    one = np.uint64(1)
    for _ in range(stop - start):
        rank = 0
        for b in range(n):
            basis[b] = 0
        for i in range(mtilde):
            row = np.uint64(0)
            sh = np.uint64(i)
            for j in range(n):
                row |= ((acc[k, j] >> sh) & one) << np.uint64(j)
            while row != 0:
                h = 0
                r = row >> one
                while r != 0:
                    r >>= one
                    h += 1
                if basis[h] != 0:
                    row ^= basis[h]
                else:
                    basis[h] = row
                    rank += 1
                    break
        counts[rank] += 1
        t = k - 1
        while t >= 0:
            digits[t] += 1
            if digits[t] == S:
                digits[t] = 0
                t -= 1
            else:
                break
        if t < 0:
            break
        for u in range(t, k):
            for j in range(n):
                acc[u + 1, j] = acc[u, j] ^ contrib[u, digits[u], j]
    return counts


def _reference(basis, mtilde, start=0, stop=None):
    # expand the basis by linearity into the odometer's table:
    # contrib[t, v] is the XOR of the rows (k-1-t)*mtilde + b over bits b of v
    K, n = basis.shape
    k, S = K // mtilde, 1 << mtilde
    contrib = np.zeros((k, S, n), dtype=np.uint64)
    for t in range(k):
        for v in range(S):
            for b in range(mtilde):
                if v >> b & 1:
                    contrib[t, v] ^= basis[(k - 1 - t) * mtilde + b]
    stop = S**k if stop is None else stop
    return _spectrum_odometer(
        contrib, mtilde, start, stop, np.zeros(n + 1, dtype=np.int64))


@pytest.mark.parametrize("k, mtilde, n", [
    pytest.param(2, 4, 3, id="n_lt_mtilde"),
    pytest.param(2, 3, 6, id="n_gt_mtilde"),
    pytest.param(3, 4, 1, id="n_eq_1"),
])
def test_numpy_matches_reference(k, mtilde, n):
    basis = _toy_basis(k, mtilde, n)
    out = _kernels.spectrum_counts(basis)
    assert out.dtype == np.int64
    assert list(out) == list(_reference(basis, mtilde))


def test_range_partition_merges():
    basis = _toy_basis()
    whole = _kernels.spectrum_counts(basis)
    parts = sum(
        _kernels.spectrum_counts(basis, start, stop)
        for start, stop in [(0, 5), (5, 11), (11, 16)]
    )
    assert list(parts) == list(whole)


def test_range_partition_across_chunk_boundary():
    # K = 18, so 2^18 messages: the cuts fall off the 2^14-message chunk grid,
    # 65530 and 65542 on either side of the boundary at 65536
    basis = _toy_basis(k=2, mtilde=9, n=4)
    whole = _kernels.spectrum_counts(basis)
    cuts = [0, 65530, 65542, 200001, 512**2]
    parts = [_kernels.spectrum_counts(basis, start, stop)
             for start, stop in zip(cuts, cuts[1:])]
    assert list(sum(parts)) == list(whole)
    window = _reference(basis, 9, 65530, 65542)
    assert list(parts[1]) == list(window)
    head = _kernels.spectrum_counts(basis, 0, 65542)  # five chunks
    assert list(head - parts[0]) == list(window)


def test_class_ranges_sum_to_whole():
    # [0, 1) and the doubling ranges [2^a, 2^(a+1)) partition all 2^18
    # indices; each range sizes its own low table, and from a = 15 on the
    # ranges span several 2^14-message chunks
    basis = _toy_basis(k=2, mtilde=9, n=4)
    parts = [_kernels.spectrum_counts(basis, 0, 1)]
    parts += [_kernels.spectrum_counts(basis, 1 << a, 2 << a) for a in range(18)]
    assert list(sum(parts)) == list(_kernels.spectrum_counts(basis))
    assert list(parts[0]) == [1, 0, 0, 0, 0]


def test_low_table_sized_to_range(monkeypatch):
    # the one-word range [1, 2) reads columns 0 and 1 only: one doubling of
    # the table, not one per chunk bit
    widths = []
    hstack = np.hstack

    def recording(arrays):
        out = hstack(arrays)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(_kernels.np, "hstack", recording)
    basis = _toy_basis(k=2, mtilde=9, n=4)
    assert list(_kernels.spectrum_counts(basis, 1, 2)) == list(_reference(basis, 9, 1, 2))
    assert widths == [2]


def test_empty_range():
    basis = _toy_basis()
    assert list(_kernels.spectrum_counts(basis, 3, 3)) == [0, 0, 0, 0]
    assert list(_kernels.spectrum_counts(basis, 0, 0)) == [0, 0, 0, 0]


def test_out_of_bounds_range():
    basis = _toy_basis()
    with pytest.raises(ValueError):
        _kernels.spectrum_counts(basis, 0, 17)


def test_total_count_conserved():
    basis = _toy_basis()
    out = _kernels.spectrum_counts(basis)
    assert int(out.sum()) == 16


def scalar_rank(words):
    """GF(2) rank of Python ints by an XOR basis keyed on the leading bit."""
    basis = {}
    for v in words:
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


_WORDS = st.one_of(st.just(0), st.integers(0, 15), st.integers(1 << 63, (1 << 64) - 1),
                   st.integers(0, (1 << 64) - 1))


@st.composite
def word_rows(draw):
    """(n, size) rows mixing zero rows, copies of earlier rows and fresh words."""
    n = draw(st.integers(1, 70))
    size = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "copy", "fresh"]))
        if kind == "zero":
            rows.append([0] * size)
        elif kind == "copy" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(_WORDS, min_size=size, max_size=size)))
    return rows


@example(rows=[[(1 << 64) - 1, 1 << 63]] * 3 + [[0, 0]] + [[1 << 63, 1]])
@example(rows=[[1 << b % 64 | 1 << (b + 1) % 64] for b in range(66)])  # rank 63
@given(rows=word_rows())
@settings(derandomize=True, deadline=None, max_examples=100)
def test_ranks_match_scalar_xor_basis(rows):
    words = np.array(rows, dtype=np.uint64)
    expected = [scalar_rank(column) for column in zip(*rows)]
    assert list(_kernels._ranks(words)) == expected
