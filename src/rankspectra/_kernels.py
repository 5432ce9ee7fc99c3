"""GF(2) rank-spectrum kernel on whole words.

The enumeration oracle's hot loop walks one message per projective class
of the extension code: callers pass the index ranges of those
representatives (``oracle.brute_spectrum`` passes k ranges, one per
position of the leading digit 1), and any other range, the whole message
space included, is ranked the same way.  Encoding is F_2-linear on the
canonical encodings (addition in characteristic 2 is XOR), so the kernel
takes the codewords of the unit messages and forms every other codeword
as an XOR of them: one table spans the low bits of the message index,
and each chunk of messages is that table XOR the codeword of its high
bits.  The n entries of a codeword are the columns of its expansion over
F_2, and a matrix has the rank of its transpose, so the GF(2) rank is
taken on the entries themselves, by inserting each into an XOR basis of
the entries before it with an unsigned minimum (see ``_ranks``): n(n-1)
word passes per chunk, whatever the bit width.  The kernel is vectorized
over chunks of messages and takes one subrange of the message space per
call; the low table is only as wide as the range's indices reach, so a
short range near 0 builds a short table.  A chunk is at most 2^14
messages, 128 KiB per row of uint64 words: in
``benchmarks/bench_kernels.py``, 2^16 made the r=2 oracle and the
whole-range reference slower and raised the peak RSS by 3 MiB more, and
2^12 made the whole-range reference slower.
"""

from __future__ import annotations

import numpy as np

_CHUNK_BITS = 14


def _ranks(rows):
    """GF(2) rank of each column of word rows, shape (n, size).

    Row j holds entry j of every message's codeword as a uint64 word, and
    is reduced by each earlier (already reduced) row s with
    ``v = min(v, v ^ s)``.  ``v ^ s`` differs from ``v`` exactly on the
    bits of s, the highest of them lead(s), so the unsigned minimum
    clears lead(s) in v and leaves every bit outside s alone.  Each row
    stored after s had lead(s) cleared by its own step with s, so the
    later steps XOR only rows without lead(s) and never set it again.  A
    nonzero combination of stored rows therefore has the lead of its
    lowest-index member set: a reduced row is zero iff the row lies in
    the span of the rows before it, and the rank is the number of
    nonzero reduced rows; their leads are distinct, so at most 64 of
    them and the count fits a uint8.  ``rows`` is overwritten.
    """
    tmp = np.empty(rows.shape[1], dtype=np.uint64)
    for j in range(1, len(rows)):
        v = rows[j]
        for s in rows[:j]:
            np.bitwise_xor(v, s, out=tmp)
            np.minimum(v, tmp, out=v)
    return (rows != 0).sum(axis=0, dtype=np.uint8)


def spectrum_counts(basis, start: int = 0,
                    stop: int | None = None) -> np.ndarray:
    """Rank-weight histogram over a range of message indices.

    Row b of ``basis``, shape (K, n), is the codeword of message 1 << b, its
    entries uint64 words; message i is the XOR of the rows of its set bits.
    Returns an int64 vector of length n + 1; entry s counts messages
    whose codeword has GF(2) rank weight s.
    """
    basis = np.asarray(basis, dtype=np.uint64)
    K, n = basis.shape
    if stop is None:
        stop = 1 << K
    if not (0 <= start <= stop <= 1 << K):
        raise ValueError("message index range out of bounds")
    c = min(K, _CHUNK_BITS, max(stop - 1, 0).bit_length())
    # column i: the codeword of message i < 2^c, as an (n, 2^c) table;
    # 2^c reaches every index below stop, up to one chunk of 2^14
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
        counts += np.bincount(_ranks(words), minlength=n + 1)
    return counts
