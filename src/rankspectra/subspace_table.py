"""One indexed table of all subspaces of F_2^n, for array passes over them.

Each dimension d holds the int RREF rows of its subspaces (bit j =
coordinate j, the F_2 row form of ``linalg``) as one (N, d) int64 array,
in the order of ``enumerate_subspaces``: index i of dimension d is the i-th
subspace that ``enumerate_subspaces(GF(2), n, d)`` yields.  The rows come
one pivot set at a time, a block of consecutive indices, so the pivots of
a row are those of its block.  No ``Subspace`` is built except on request.

Index.  An RREF row with pivot p is zero below p, so a subspace is fixed
by its pivot mask and the bits of its rows at the free columns.  Its
index is the first index of its pivot block plus those bits read as one
mixed-radix number, a field per row, the last row lowest, and within a
row the highest column lowest: the Schubert-cell ranking of the
Grassmannian (Silberstein and Etzion, "Enumerative coding for Grassmannian
space", IEEE Trans. IT 2011).  ``place_table`` holds the share of each
row in that number, so an index is a sum of gathers.

Covers.  The (d + 1)-subspaces above X are the X + v for the 2^(n-d) - 1
nonzero v that are zero at the pivots of X.  Such a v is already reduced
modulo X, and two of them give the same sum only if their difference,
also zero at the pivots, lies in X, that is only if they are equal.  With
c the lowest bit of v, the RREF of X + v is v itself, with pivot c, and
the rows of X that hold bit c XORed with v; each of those has its pivot
below c, so it keeps it.  The index of X + v is then the first index of
the block of the pivot mask of X with bit c set, plus the shares of v
and of the rows of X, each XORed with v when it holds bit c.  The pivot
masks and cover vectors of each pivot block sit in small tables, read at
the block of each subspace, so every pass takes a whole dimension at
once.

Flats and closure pointers.  X is a flat when every cover has another
rank.  The flat scan walks the dimensions from n down, and a non-flat
leaves at the first cover of its own rank that it meets; it points where
that cover points, and a flat points to itself.  On a q-matroid a cover
of the same rank keeps the closure (``QMatroid.verify_axioms``), so by
induction from the top the pointer of X is cl X, and the flats that
cover a flat F are the distinct pointers of its covers, the closures
cl(F + v) (Byrne, Ceria and Jurrius, "Constructions of new
q-cryptomorphisms", JCTB 2022).  On a rank function that is no q-matroid
the flats are still the flats, but the pointers need not be closures:
``QMatroid.flat_covers`` reads them only from a source that is a
q-matroid by theorem (a code, U(k, n)) or after ``closures``, the full
pass of the axiom check, has passed.  That pass visits every cover, so
codes never run it to build a lattice.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import prod

import numpy as np

from .linalg import GF, Subspace, check_subspace_count

CHUNK = 1 << 16  # (subspace, cover) pairs per array pass


def binary_subspace_rows(n: int, s: int):
    """(blocks, rows) of the s-subspaces of F_2^n.

    ``rows`` is an (N, s) int64 array of RREF rows, in the order of
    ``enumerate_subspaces``: pivot sets in lexicographic order, each a
    block of consecutive rows listed in ``blocks`` as (pivots, lo, hi), and
    within one the product of the choices for each row, the free entries
    of a row read as a big-endian counter.  So the index within a block
    holds the choice of each row in a field of bits, the last row lowest,
    and row i of a block is its list of choices read at that field.
    """
    blocks, tables, lo = [], [], 0
    for pivots in combinations(range(n), s):
        choices = []
        for p in pivots:
            values = [1 << p]
            for col in (j for j in range(p + 1, n) if j not in pivots):
                values = [v | bit << col for v in values for bit in (0, 1)]
            choices.append(values)
        size = prod(map(len, choices))
        blocks.append((pivots, lo, lo + size))
        tables.append(choices)
        lo += size
    rows = np.empty((lo, s), np.int64)
    index = np.arange(max(hi - lo for _, lo, hi in blocks))
    for (_, lo, hi), choices in zip(blocks, tables):
        shift = (hi - lo).bit_length() - 1
        for i, values in enumerate(choices):
            mask = len(values) - 1  # a power of 2 choices
            shift -= mask.bit_length()
            rows[lo:hi, i] = np.array(values)[index[:hi - lo] >> shift & mask]
    return blocks, rows


def place_table(n: int) -> np.ndarray:
    """At ``mask << n | row``, the share of an RREF row in the index of a
    subspace of F_2^n within the block of pivot mask ``mask``: the bits
    of the row at the free columns, the highest column lowest, shifted
    past the fields of the rows with higher pivots."""
    value = np.arange(1 << n)
    mask, row = value[:, None], value[None, :]
    packed = shift = offset = free = 0
    for j in range(n - 1, -1, -1):  # free = free columns above j
        pivot, bit = mask >> j & 1, row >> j & 1
        shift = np.where(bit == 1, offset, shift)  # ends at the lowest bit
        packed = packed | bit * (1 - pivot) << free
        offset = offset + pivot * free
        free = free + 1 - pivot
    return np.ravel(packed << shift)


class SubspaceTable:
    """Every subspace of F_2^n by dimension: rows, pivot blocks and the
    tables of the index."""

    def __init__(self, n: int):
        self.n = n
        self._place = place_table(n)
        self._first = np.zeros(1 << n, np.int64)
        self.rows, self.blocks, self._tables = [], [], []
        for s in range(n + 1):
            blocks, rows = binary_subspace_rows(n, s)
            self.rows.append(rows)
            self.blocks.append(blocks)
            self._tables.append(self._block_tables(s))
            first, masks, _ = self._tables[s]
            self._first[masks] = first
        # a pointer names a subspace by its index plus base[s]
        self.base = np.cumsum([0] + [len(rows) for rows in self.rows])

    @staticmethod
    def check(n: int, cap: int | None) -> None:
        """The subspace cap of every dimension."""
        for s in range(n + 1):
            check_subspace_count(n, s, 2, cap)

    def subspaces(self, gf: GF, s: int, indices=None):
        """``Subspace`` objects of dimension s, all or at the given indices."""
        blocks = self.blocks[s]
        if indices is None:
            indices = np.arange(len(self.rows[s]))
        at = self._block_of(s, indices)
        for b, row in zip(at.tolist(), self.rows[s][indices].tolist()):
            yield Subspace(gf, self.n, tuple(row), blocks[b][0])

    def _block_tables(self, s: int):
        """Per pivot block of dimension s: its first index, its pivot mask
        and its cover vectors, the nonzero v zero at its pivots, the t-th
        with the bits of t at the free columns, as rows are enumerated."""
        blocks = self.blocks[s]
        free = np.array([[j for j in range(self.n) if j not in p] for p, _, _ in blocks],
                        np.int64).reshape(len(blocks), self.n - s)
        t = np.arange(1, 1 << (self.n - s))
        v = np.zeros((len(blocks), len(t)), np.int64)
        for j, col in enumerate(free.T[::-1]):
            v |= (t >> j & 1) << col[:, None]
        masks = np.array([sum(1 << j for j in p) for p, _, _ in blocks], np.int64)
        return [lo for _, lo, _ in blocks], masks, v

    def _block_of(self, s: int, at: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._tables[s][0], at, side="right") - 1

    def cover_index(self, s: int, at: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Indices in dimension s + 1 of X + v, for X at indices ``at`` of
        dimension s: one row per X, one column per cover vector v of the
        block of X (``_block_tables``), columns ``cols`` of them."""
        _, masks, vectors = self._tables[s]
        block = self._block_of(s, at)
        v = vectors[:, cols][block]
        low = v & -v
        mask = masks[block, None] | low
        up = mask << self.n
        index = self._first[mask] + self._place[up | v]
        rows = self.rows[s][at]
        for i in range(s):
            row = rows[:, i, None]
            index += self._place[up | np.where(row & low, row ^ v, row)]
        return index

    def flats(self, ranks) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The flats and the closure pointers, given the rank array of each
        dimension.

        Returns, per dimension, the indices of the subspaces whose every
        cover has another rank, and an int32 pointer for every subspace:
        the id of a flat, flats numbered by dimension and then index.  The
        covers are tried in slices of 1, 4, 16, ... vectors, and a
        subspace leaves after the first slice with a cover of its own
        rank: most non-flats leave after the first.  The dimensions are
        scanned from n down, so a non-flat points where the first cover of
        its own rank in that slice points, and a flat to itself.  On a
        q-matroid that is its closure (module docstring); on any other
        rank function the flats are still the flats, but the pointers
        mean nothing.
        """
        n = self.n
        flats, ptr = [None] * (n + 1), [None] * (n + 1)
        # pointers hold table positions until the flats are numbered
        base = self.base
        for s in range(n, -1, -1):
            width = (1 << (n - s)) - 1
            live = np.arange(len(self.rows[s]))
            point = (live + base[s]).astype(np.int32)
            a = 0
            while a < width and len(live):
                cols = slice(a, 4 * a + 1)
                a = min(4 * a + 1, width)
                step = max(1, CHUNK // (cols.stop - cols.start))
                keep = []
                for i in range(0, len(live), step):
                    part = live[i:i + step]
                    cover = self.cover_index(s, part, cols)
                    same = ranks[s + 1][cover] == ranks[s][part, None]
                    first = same.argmax(axis=1)
                    left = same[np.arange(len(part)), first]
                    point[part[left]] = ptr[s + 1][cover[left, first[left]]]
                    keep.append(part[~left])
                live = np.concatenate(keep)
            flats[s] = live
            ptr[s] = point
        ids = np.zeros(base[-1], np.int32)
        at = np.concatenate([index + b for index, b in zip(flats, base)])
        ids[at] = np.arange(len(at), dtype=np.int32)
        for s, point in enumerate(ptr):
            ptr[s] = ids[point]
        return flats, ptr

    def flat_covers(self, ranks, flats, ptr) -> list[list[int]]:
        """For each flat by id, the distinct pointers of its covers, given
        the rank arrays and the output of ``flats``: on a q-matroid, the
        ids of the flats that cover it.

        A cover of a flat of rank rho(E) - 1 has rank rho(E), and so has
        closure E, the top flat: those flats are not looked up.
        """
        top = sum(map(len, flats)) - 1
        full = ranks[self.n][0]
        out = []
        for s, index in enumerate(flats[:-1]):
            covers = [[top] for _ in range(len(index))]
            lower = np.flatnonzero(ranks[s][index] < full - 1)
            step = max(1, CHUNK // ((1 << (self.n - s)) - 1))
            for i in range(0, len(lower), step):
                part = lower[i:i + step]
                up = ptr[s + 1][self.cover_index(s, index[part])]
                for j, row in zip(part.tolist(), up.tolist()):
                    covers[j] = sorted(set(row))
            out += covers
        return out + [[]]

    def closures(self, ranks) -> list[np.ndarray] | None:
        """Per dimension, the closure pointer of each subspace, given the
        rank array of each dimension; None as soon as a check fails.

        The dimensions are walked from n down to 0, all covers X + v of a
        dimension at once, in chunks of ``CHUNK`` pairs.  With
        d = rho(X + v) - rho(X), the checks are 0 <= rho(X) <= dim X, d in
        {0, 1} on every cover, and ptr[X + v] == ptr[X] on every cover with
        d = 0, where ptr[X] is X itself when no cover has d = 0 and else
        ptr[X + v] for the first cover that has.  ``QMatroid.verify_axioms``
        proves that these checks pass exactly on the q-matroids, and then
        ptr[X] is the closure of X, so its fixed points are the q-flats.
        A pointer is int32, the index of a subspace plus ``base`` of its
        dimension, as in ``flats``.
        """
        ptr = [None] * (self.n + 1)
        for s in range(self.n, -1, -1):
            rank = ranks[s]
            if ((rank < 0) | (rank > s)).any():
                return None
            size = len(rank)
            ptr[s] = (np.arange(size) + self.base[s]).astype(np.int32)
            if s == self.n:
                continue
            step = max(1, CHUNK // ((1 << (self.n - s)) - 1))
            for i in range(0, size, step):
                part = np.arange(i, min(i + step, size))
                cover = self.cover_index(s, part)
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
