import numpy as np
import pytest

from rankspectra import _kernels


def _toy_basis(k=2, mtilde=2, n=3, seed=11):
    # arbitrary but fixed unit-message codewords, entries mtilde bits wide
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << mtilde, size=(k * mtilde, n), dtype=np.uint64)


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
    return _kernels._spectrum_odometer(
        contrib, mtilde, start, stop, np.zeros(n + 1, dtype=np.int64))


@pytest.mark.parametrize("k, mtilde, n", [
    pytest.param(2, 4, 3, id="n_lt_mtilde"),
    pytest.param(2, 3, 6, id="n_gt_mtilde"),
    pytest.param(3, 4, 1, id="n_eq_1"),
])
def test_numpy_matches_reference(k, mtilde, n):
    basis = _toy_basis(k, mtilde, n)
    out = _kernels.spectrum_counts(basis, mtilde)
    assert out.dtype == np.int64
    assert list(out) == list(_reference(basis, mtilde))


def test_range_partition_merges():
    basis = _toy_basis()
    whole = _kernels.spectrum_counts(basis, 2)
    parts = sum(
        _kernels.spectrum_counts(basis, 2, start, stop)
        for start, stop in [(0, 5), (5, 11), (11, 16)]
    )
    assert list(parts) == list(whole)


def test_range_partition_across_chunk_boundary():
    # K = 18, so 2^18 messages: the cuts fall off the 2^16-message chunk grid
    basis = _toy_basis(k=2, mtilde=9, n=4)
    whole = _kernels.spectrum_counts(basis, 9)
    cuts = [0, 65530, 65542, 200001, 512**2]
    parts = [_kernels.spectrum_counts(basis, 9, start, stop)
             for start, stop in zip(cuts, cuts[1:])]
    assert list(sum(parts)) == list(whole)
    window = _reference(basis, 9, 65530, 65542)
    assert list(parts[1]) == list(window)
    head = _kernels.spectrum_counts(basis, 9, 0, 65542)  # two chunks
    assert list(head - parts[0]) == list(window)


def test_empty_range():
    basis = _toy_basis()
    assert list(_kernels.spectrum_counts(basis, 2, 3, 3)) == [0, 0, 0, 0]


def test_out_of_bounds_range():
    basis = _toy_basis()
    with pytest.raises(ValueError):
        _kernels.spectrum_counts(basis, 2, 0, 17)


def test_total_count_conserved():
    basis = _toy_basis()
    out = _kernels.spectrum_counts(basis, 2)
    assert int(out.sum()) == 16
