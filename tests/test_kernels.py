import numpy as np
import pytest

from rankspectra import _kernels


def _toy_contrib(k=2, S=4, n=3, bits=4, seed=11):
    # arbitrary but fixed bit patterns of the given width
    rng = np.random.default_rng(seed)
    contrib = rng.integers(0, 1 << bits, size=(k, S, n), dtype=np.uint64)
    contrib[:, 0, :] = 0  # scalar 0 contributes nothing
    return contrib


def _reference(contrib, mtilde, start=0, stop=None):
    k, S, n = contrib.shape
    stop = S**k if stop is None else stop
    return _kernels._spectrum_odometer(
        contrib, mtilde, start, stop, np.zeros(n + 1, dtype=np.int64))


@pytest.mark.parametrize("k, S, n, mtilde", [
    pytest.param(2, 4, 3, 4, id="n_lt_mtilde"),
    pytest.param(2, 8, 6, 3, id="n_gt_mtilde"),
    pytest.param(3, 4, 1, 4, id="n_eq_1"),
])
def test_numpy_matches_reference(k, S, n, mtilde):
    contrib = _toy_contrib(k, S, n, bits=mtilde)
    out = _kernels.spectrum_counts(contrib, mtilde)
    assert out.dtype == np.int64
    assert list(out) == list(_reference(contrib, mtilde))


def test_range_partition_merges():
    contrib = _toy_contrib()
    whole = _kernels.spectrum_counts(contrib, 4)
    parts = sum(
        _kernels.spectrum_counts(contrib, 4, start, stop)
        for start, stop in [(0, 5), (5, 11), (11, 16)]
    )
    assert list(parts) == list(whole)


def test_range_partition_across_chunk_boundary():
    # 2^18 messages: the cuts fall off the 65536-message chunk grid
    contrib = _toy_contrib(k=2, S=512, n=4, bits=6)
    whole = _kernels.spectrum_counts(contrib, 6)
    cuts = [0, 65530, 65542, 200001, 512**2]
    parts = [_kernels.spectrum_counts(contrib, 6, start, stop)
             for start, stop in zip(cuts, cuts[1:])]
    assert list(sum(parts)) == list(whole)
    window = _reference(contrib, 6, 65530, 65542)
    assert list(parts[1]) == list(window)
    head = _kernels.spectrum_counts(contrib, 6, 0, 65542)  # two chunks
    assert list(head - parts[0]) == list(window)


def test_empty_range():
    contrib = _toy_contrib()
    assert list(_kernels.spectrum_counts(contrib, 4, 3, 3)) == [0, 0, 0, 0]


def test_out_of_bounds_range():
    contrib = _toy_contrib()
    with pytest.raises(ValueError):
        _kernels.spectrum_counts(contrib, 4, 0, 17)


def test_total_count_conserved():
    contrib = _toy_contrib()
    out = _kernels.spectrum_counts(contrib, 4)
    assert int(out.sum()) == 16
