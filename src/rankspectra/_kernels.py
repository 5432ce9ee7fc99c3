"""Bit-packed GF(2) rank-spectrum kernel.

The enumeration oracle's hot loop walks every message of the extension
code.  Encoding is F_2-linear on the canonical encodings (addition in
characteristic 2 is XOR), so the kernel takes the codewords of the unit
messages and forms every other codeword as an XOR of them: one table
spans the low bits of the message index, and each chunk of messages is
that table XOR the codeword of its high bits.  The n entries of a
codeword are the columns of its expansion over F_2, and a matrix has the
rank of its transpose, so the GF(2) rank is taken by elimination on the
entries themselves.  The kernel is vectorized over chunks of messages and
accepts a subrange of the message space so callers can partition the
work across threads.
"""

from __future__ import annotations

import numpy as np

_CHUNK_BITS = 16


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


def _ranks(rows, width):
    """GF(2) rank of each column of packed rows, shape (n, size).

    Each row is a vector of ``width``-bit words, one per message.  Pivots
    on the highest set bit: basis[h] holds, per message, the basis row
    whose leading bit is h, or 0; every step is a word operation under an
    all-ones/all-zeros mask, so no message branches.  ``rows`` is
    overwritten.
    """
    size = rows.shape[1]
    basis = np.zeros((width, size), dtype=np.uint64)
    rank = np.zeros(size, dtype=np.int64)
    bit = np.empty(size, dtype=np.uint64)
    mask = np.empty(size, dtype=np.uint64)
    one = np.uint64(1)
    for row in rows:
        for h in range(width - 1, -1, -1):
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


def spectrum_counts(basis, width: int, start: int = 0,
                    stop: int | None = None) -> np.ndarray:
    """Rank-weight histogram over a range of message indices.

    Row b of ``basis``, shape (K, n), is the codeword of message 1 << b, its
    entries ``width``-bit words; message i is the XOR of the rows of its set
    bits.  Returns an int64 vector of length n + 1; entry s counts messages
    whose codeword has GF(2) rank weight s.
    """
    basis = np.asarray(basis, dtype=np.uint64)
    K, n = basis.shape
    if stop is None:
        stop = 1 << K
    if not (0 <= start <= stop <= 1 << K):
        raise ValueError("message index range out of bounds")
    c = min(K, _CHUNK_BITS)
    # column i: the codeword of message i < 2^c, as an (n, 2^c) table
    low = np.zeros((n, 1), dtype=np.uint64)
    for row in basis[:c]:
        low = np.hstack([low, low ^ row[:, None]])
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(start >> c << c, stop, 1 << c):
        high = np.zeros(n, dtype=np.uint64)
        for b in range(c, K):
            if lo >> b & 1:
                high ^= basis[b]
        words = low[:, max(start - lo, 0):stop - lo] ^ high[:, None]
        counts += np.bincount(_ranks(words, width), minlength=n + 1)
    return counts
