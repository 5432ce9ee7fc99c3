"""Bit-packed GF(2) rank-spectrum kernel.

The enumeration oracle's hot loop walks every message of the extension
code, forms the codeword (addition in characteristic 2 is XOR on the
canonical encodings), packs the bit-planes of the entries into machine
words and computes the GF(2) rank by elimination on packed rows.  The
kernel is vectorized over chunks of messages and accepts a subrange of
the message space so callers can partition the work across threads.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 16


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


def _ranks(rows, n):
    """GF(2) rank of each column of packed rows, shape (mtilde, size).

    Pivots on the highest set bit.  basis[h] holds, per message, the
    basis row whose leading bit is h, or 0; every step is a word
    operation under an all-ones/all-zeros mask, so no message branches.
    """
    size = rows.shape[1]
    basis = np.zeros((n, size), dtype=np.uint64)
    rank = np.zeros(size, dtype=np.int64)
    bit = np.empty(size, dtype=np.uint64)
    mask = np.empty(size, dtype=np.uint64)
    one = np.uint64(1)
    for row in rows:
        for h in range(n - 1, -1, -1):
            sh = np.uint64(h)
            # reduce by the pivot row for h, if there is one
            np.right_shift(row, sh, out=bit)
            bit &= one
            np.negative(bit, out=mask)
            mask &= basis[h]
            row ^= mask
            # bit h still set: no pivot yet, so the row becomes it
            np.right_shift(row, sh, out=bit)
            bit &= one
            np.negative(bit, out=mask)
            rank -= mask.view(np.int64)
            mask &= row
            basis[h] |= mask
            row ^= mask
    return rank


def spectrum_counts(contrib, mtilde: int, start: int = 0,
                    stop: int | None = None) -> np.ndarray:
    """Rank-weight histogram over a range of message indices.

    Returns an int64 vector of length n + 1; entry s counts messages whose
    codeword has GF(2) rank weight s.
    """
    contrib = np.ascontiguousarray(contrib, dtype=np.uint64)
    k, S, n = contrib.shape
    total = S**k
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValueError("message index range out of bounds")
    counts = np.zeros(n + 1, dtype=np.int64)
    one = np.uint64(1)
    for lo in range(start, stop, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, stop), dtype=np.int64)
        words = np.zeros((idx.size, n), dtype=np.uint64)
        for t in range(k):
            d = (idx // S ** (k - 1 - t)) % S
            words ^= contrib[t, d, :]
        rows = np.empty((mtilde, idx.size), dtype=np.uint64)
        for i in range(mtilde):
            r = np.zeros(idx.size, dtype=np.uint64)
            sh = np.uint64(i)
            for j in range(n):
                r |= ((words[:, j] >> sh) & one) << np.uint64(j)
            rows[i] = r
        counts += np.bincount(_ranks(rows, n), minlength=n + 1)
    return counts
