"""One indexed table of all subspaces of F_2^n, for array passes over them.

Each dimension d holds the int RREF rows of its subspaces (bit j =
coordinate j, the F_2 row form of ``linalg``) as one (N, d) int64 array,
in the order of ``enumerate_subspaces``: index i of dimension d is the i-th
subspace that ``enumerate_subspaces(GF(2), n, d)`` yields.  The rows come
one pivot set at a time, a block of consecutive indices, so the pivots of
a row are those of its block.  No ``Subspace`` is built except on request.

Keys.  An RREF row with pivot p is zero below p, so a subspace is fixed by
its pivot mask and, for each row, its bits above the pivot.  Column p owns
n - 1 - p key bits for the bits above it, after the n bits of the pivot
mask: n + n(n - 1)/2 bits in all, 55 at n = 10 and 66 at n = 11, so the
key is one int64 up to n = 10.  Past that the table refuses to be built.

Covers.  The (d + 1)-subspaces above X are the X + v for the 2^(n-d) - 1
nonzero v that are zero at the pivots of X.  Such a v is already reduced
modulo X, and two of them give the same sum only if their difference,
also zero at the pivots, lies in X, that is only if they are equal.  With
c the lowest bit of v, the RREF of X + v is v itself, with pivot c, and
the rows of X that hold bit c XORed with v; each of those has its pivot
below c, so it keeps it.  The key of X + v is then key(X) with the pivot
bit c set and, XORed into the field of each changed row and of c, the
bits of v above that row's pivot.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np

from .errors import ResourceLimitError
from .linalg import GF, Subspace, check_subspace_count

KEY_BITS = 63  # value bits of an int64
CHUNK = 1 << 20  # (subspace, cover) pairs per array pass


def key_offsets(n: int) -> np.ndarray:
    """Bit offset of each column's key field; raises past the int64 key."""
    bits = n + n * (n - 1) // 2
    if bits > KEY_BITS:
        raise ResourceLimitError(
            f"subspace keys of F_2^{n} need {bits} bits, over {KEY_BITS}",
            required=bits, cap=KEY_BITS)
    return n + np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1)))).astype(np.int64)


def _deposit(t: np.ndarray, columns) -> np.ndarray:
    """Rows with bit t_j of each index t at column columns[-1 - j]."""
    out = np.zeros(len(t), np.int64)
    for j, col in enumerate(reversed(columns)):
        out |= (t >> j & 1) << col
    return out


def binary_subspace_rows(n: int, s: int):
    """Yield (pivots, rows) per pivot set of the s-subspaces of F_2^n.

    ``rows`` is an (N, s) int64 array of RREF rows, in the order of
    ``enumerate_subspaces``: pivot sets in lexicographic order, and within
    one the product of the choices for each row, the free entries of a row
    read as a big-endian counter.
    """
    if s == 0:
        yield (), np.zeros((1, 0), np.int64)
        return
    for pivots in combinations(range(n), s):
        choices = []
        for p in pivots:
            free = [j for j in range(p + 1, n) if j not in pivots]
            choices.append(_deposit(np.arange(1 << len(free)), free) | 1 << p)
        grid = np.meshgrid(*choices, indexing="ij")
        yield pivots, np.stack(grid, axis=-1).reshape(-1, s)


class SubspaceTable:
    """Every subspace of F_2^n by dimension: rows, pivot blocks and keys."""

    def __init__(self, n: int):
        self.n = n
        self.offsets = key_offsets(n)
        self.rows, self.blocks, self.keys, self._order, self._sorted = [], [], [], [], []
        for s in range(n + 1):
            blocks, parts, start = [], [], 0
            for pivots, rows in binary_subspace_rows(n, s):
                blocks.append((pivots, start, start + len(rows)))
                parts.append(rows)
                start += len(rows)
            rows = np.concatenate(parts)
            keys = np.zeros(len(rows), np.int64)
            for pivots, lo, hi in blocks:
                keys[lo:hi] = self._keys(rows[lo:hi], pivots)
            order = np.argsort(keys)
            self.rows.append(rows)
            self.blocks.append(blocks)
            self.keys.append(keys)
            self._order.append(order)
            self._sorted.append(keys[order])

    @staticmethod
    def check(n: int, cap: int | None) -> None:
        """The subspace cap of every dimension, then the key width."""
        for s in range(n + 1):
            check_subspace_count(n, s, 2, cap)
        key_offsets(n)

    def _keys(self, rows: np.ndarray, pivots) -> np.ndarray:
        key = np.full(len(rows), sum(1 << p for p in pivots), np.int64)
        for i, p in enumerate(pivots):
            key ^= rows[:, i] >> (p + 1) << self.offsets[p]
        return key

    def index(self, s: int, keys: np.ndarray) -> np.ndarray:
        """Indices in dimension s of the subspaces with these keys."""
        return self._order[s][np.searchsorted(self._sorted[s], keys)]

    def subspaces(self, gf: GF, s: int, indices=None):
        """``Subspace`` objects of dimension s, all or at the given indices."""
        blocks = self.blocks[s]
        if indices is None:
            indices = np.arange(len(self.rows[s]))
        at = np.searchsorted([lo for _, lo, _ in blocks], indices, side="right") - 1
        for b, row in zip(at.tolist(), self.rows[s][indices].tolist()):
            yield Subspace(gf, self.n, tuple(row), blocks[b][0])

    def cover_vectors(self, pivots) -> np.ndarray:
        """The nonzero v zero at ``pivots``: X + v are the covers of X."""
        free = [j for j in range(self.n) if j not in pivots]
        return _deposit(np.arange(1, 1 << len(free)), free)

    def cover_index(self, s: int, pivots, at: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Indices in dimension s + 1 of X + v, for X at indices ``at`` of
        dimension s, all with these pivots, and v from ``cover_vectors``;
        one row per X, one column per v."""
        off = self.offsets
        c = np.log2(v & -v).astype(np.int64)
        keys = self.keys[s][at, None] ^ (1 << c ^ v >> (c + 1) << off[c])
        rows = self.rows[s][at]
        for i, p in enumerate(pivots):
            keys ^= np.where(rows[:, i, None] >> c & 1 == 1, v >> (p + 1) << off[p], 0)
        return self.index(s + 1, keys)

    def flats(self, ranks) -> list[np.ndarray]:
        """Per dimension, the indices of the subspaces whose every cover has
        another rank, given the rank array of each dimension.

        The covers of a pivot block are tried in slices of 1, 4, 16, ...
        vectors, and a subspace leaves after the first slice with a cover
        of its own rank: most non-flats leave after the first.
        """
        out = []
        for s in range(self.n + 1):
            flat = np.zeros(len(self.rows[s]), bool)
            for pivots, lo, hi in self.blocks[s]:
                live = np.arange(lo, hi)
                vs = self.cover_vectors(pivots)
                a = 0
                while a < len(vs) and len(live):
                    v = vs[a:4 * a + 1]
                    a += len(v)
                    step = max(1, CHUNK // len(v))
                    keep = []
                    for i in range(0, len(live), step):
                        part = live[i:i + step]
                        cover = self.cover_index(s, pivots, part, v)
                        keep.append(part[(ranks[s + 1][cover] != ranks[s][part, None]).all(axis=1)])
                    live = np.concatenate(keep)
                flat[live] = True
            out.append(np.flatnonzero(flat))
        return out

    def closures(self, ranks) -> list[np.ndarray] | None:
        """Per dimension, the key of each subspace's closure pointer, given
        the rank array of each dimension; None as soon as a check fails.

        The dimensions are walked from n down to 0, each pivot block over
        all its covers X + v at once, in chunks of ``CHUNK`` pairs.  With
        d = rho(X + v) - rho(X), the checks are 0 <= rho(X) <= dim X, d in
        {0, 1} on every cover, and ptr[X + v] == ptr[X] on every cover with
        d = 0, where ptr[X] is X itself when no cover has d = 0 and else
        ptr[X + v] for the first cover that has.  ``QMatroid.verify_axioms``
        proves that these checks pass exactly on the q-matroids, and then
        ptr[X] is the closure of X, so its fixed points are the q-flats.
        """
        ptr = [None] * (self.n + 1)
        for s in range(self.n, -1, -1):
            rank = ranks[s]
            if ((rank < 0) | (rank > s)).any():
                return None
            ptr[s] = self.keys[s].copy()
            if s == self.n:
                continue
            for pivots, lo, hi in self.blocks[s]:
                vs = self.cover_vectors(pivots)
                step = max(1, CHUNK // len(vs))
                for i in range(lo, hi, step):
                    part = np.arange(i, min(i + step, hi))
                    cover = self.cover_index(s, pivots, part, vs)
                    d = ranks[s + 1][cover] - rank[part, None]
                    zero = d == 0
                    if not (zero | (d == 1)).all():
                        return None
                    up = ptr[s + 1][cover]
                    first = zero.argmax(axis=1)
                    at = np.arange(len(part))
                    own = np.where(zero[at, first], up[at, first], ptr[s][part])
                    if not ((up == own[:, None]) | ~zero).all():
                        return None
                    ptr[s][part] = own
        return ptr

    @staticmethod
    def profile(ranks) -> Counter:
        """c(d, r) over the rank arrays."""
        out = Counter()
        for s, r in enumerate(ranks):
            low = int(r.min())
            for value, count in enumerate(np.bincount(r - low).tolist(), low):
                if count:
                    out[s, value] = count
        return out
