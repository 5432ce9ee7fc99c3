"""One indexed table of all subspaces of F_q^n, for array passes over them.

Each dimension d holds the RREF rows of its subspaces, packed base q
(digit j = coordinate j, over F_2 the int row form of ``linalg``), as one
(N, d) int64 array, in the order of ``enumerate_subspaces``: index i of
dimension d is the i-th subspace that ``enumerate_subspaces(gf, n, d)``
yields.  The rows come one pivot set at a time, a block of consecutive
indices, so the pivots of a row are those of its block.  No ``Subspace``
is built except on request.

Index.  An RREF row with pivot p is zero below p and 1 at p, so a
subspace is fixed by its pivot mask and the digits of its rows at the
free columns.  Its index is the first index of its pivot block plus those
digits read as one mixed-radix number, a field per row, the last row
lowest, and within a row the highest column lowest: the Schubert-cell
ranking of the Grassmannian (Silberstein and Etzion, "Enumerative coding
for Grassmannian space", IEEE Trans. IT 2011).  ``weight_table`` holds the
weight of each digit in that number, at most 2^n n^2 entries whatever q.

Covers.  The (d + 1)-subspaces above X are the X + v for the nonzero v
that are zero at the pivots of X and 1 at their first nonzero column c:
v is reduced modulo X, so it names the line of X + v over X.  The RREF of
X + v is v, with pivot c, and each row of X minus row[c] v, which keeps
its pivot, below c.  The index of X + v is then the first index of the
block of the pivot mask of X with bit c set, plus the shares of v and of
the updated rows.  Small tables hold these per pivot block, so every
pass takes a whole dimension at once.

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

from .linalg import GF, Subspace

CHUNK = 1 << 16  # (subspace, cover) pairs per array pass


def subspace_rows(n: int, s: int, q: int):
    """(blocks, rows) of the s-subspaces of F_q^n.

    ``rows`` is an (N, s) int64 array of packed RREF rows, in the order
    of ``enumerate_subspaces``: pivot sets in lexicographic order, each a
    block of consecutive rows listed in ``blocks`` as (pivots, lo, hi), and
    within one the product of the choices for each row, the free entries
    of a row read as a big-endian counter, the last row lowest.
    """
    blocks, tables, lo = [], [], 0
    for pivots in combinations(range(n), s):
        choices = []
        for p in pivots:
            values = [q ** p]
            for col in (j for j in range(p + 1, n) if j not in pivots):
                values = [v + digit * q ** col for v in values for digit in range(q)]
            choices.append(np.array(values))
        size = prod(map(len, choices))
        blocks.append((pivots, lo, lo + size))
        tables.append(choices)
        lo += size
    rows = np.empty((lo, s), np.int64)
    for (_, lo, hi), choices in zip(blocks, tables):
        # a view with one axis per row's choice, the last row's fastest
        block = rows[lo:hi].reshape(*map(len, choices), s)
        for i, values in enumerate(choices):
            block[..., i] = values.reshape([-1 if j == i else 1 for j in range(s)])
    return blocks, rows


def weight_table(n: int, q: int) -> np.ndarray:
    """At [mask, p, j], the weight of digit j of a row with pivot p in the
    index within the block of pivot mask ``mask``: q to the free columns
    above j plus the fields of higher-pivot rows, if j is free and > p."""
    cols = np.arange(n)
    pivot = np.arange(1 << n)[:, None] >> cols & 1
    free = 1 - pivot
    above = np.cumsum(free[:, ::-1], 1)[:, ::-1] - free  # free columns above j
    field = pivot * above  # the width of the field of a row with pivot j
    shift = np.cumsum(field[:, ::-1], 1)[:, ::-1] - field
    keep = (pivot[:, :, None] & free[:, None, :]) * (cols[:, None] < cols)
    return keep * np.int64(q) ** (keep * (shift[:, :, None] + above[:, None, :]))


def _moved_share(gf: GF, n: int, weights: np.ndarray):
    """``moved(mask, v, unit, pivots, block)`` on arrays of the pivot masks
    of X + v, cover vectors v, q^c for their leading columns c and the
    blocks of X: ``share(i, row)``, the share in the index of row - row[c] v
    for row i of X.  Over F_2 an XOR and a lookup, else the field's
    arithmetic, as tables if q^2 <= CHUNK, with the pivots of the block."""
    if gf.size == 2:
        row, pivot = np.arange(1 << n), [(r & -r).bit_length() - 1 for r in range(1 << n)]
        place = sum(((row >> j & 1) * weights[:, pivot, j] for j in range(n)),
                    np.zeros((1 << n, 1 << n), np.int64)).ravel()
        def moved(mask, v, low, pivots, block):
            up = mask << n
            return lambda i, row: place[up | np.where(row & low, row ^ v, row)]
        return moved
    q, units = gf.size, (gf.size ** np.arange(n)).tolist()
    sub, mul = (np.frompyfunc(op, 2, 1) for op in (gf.sub, gf.mul))
    if q * q <= CHUNK:  # else element by element, with no array of order q^2
        tables = [f(*np.ogrid[:q, :q]).astype(np.int64) for f in (sub, mul)]
        sub, mul = (lambda a, b, t=t: t[a, b] for t in tables)

    def moved(mask, v, unit, pivots, block):
        digits, p = [v // u % q for u in units], pivots[block]
        def share(i, row):
            a, w = row // unit % q, weights[mask, p[:, i, None]]
            return sum(sub(row // u % q, mul(a, y)) * w[..., j]
                       for j, (u, y) in enumerate(zip(units, digits))).astype(np.int64)
        return share
    return moved


class SubspaceTable:
    """Every subspace of F_q^n by dimension: rows, pivot blocks and the
    tables of the index."""

    def __init__(self, gf: GF, n: int):
        self.gf, self.n, self.q = gf, n, gf.size
        weights = weight_table(n, self.q)
        self._moved = _moved_share(gf, n, weights)
        self.blocks, self.rows = zip(*(subspace_rows(n, s, self.q) for s in range(n + 1)))
        first = np.zeros(1 << n, np.int64)  # the first index of each pivot mask's block
        for pivots, lo, _ in (block for blocks in self.blocks for block in blocks):
            first[sum(1 << j for j in pivots)] = lo
        self._tables = [self._block_tables(s, first, weights) for s in range(n + 1)]
        # a pointer names a subspace by its index plus base[s]
        self.base = np.cumsum([0] + [len(rows) for rows in self.rows])
        self.widths = [table[2].shape[1] for table in self._tables]

    def subspaces(self, s: int, indices=None):
        """``Subspace`` objects of dimension s, all or at the given indices."""
        blocks = self.blocks[s]
        if indices is None:
            indices = np.arange(len(self.rows[s]))
        at = self._block_of(s, indices)
        rows = self.rows[s][indices]
        if self.q > 2:  # tuples of coordinates, the row form of ``linalg``
            rows = rows[..., None] // self.q ** np.arange(self.n) % self.q
        for b, row in zip(at.tolist(), rows.tolist()):
            row = tuple(map(tuple, row)) if self.q > 2 else tuple(row)
            yield Subspace(self.gf, self.n, row, blocks[b][0])

    def _block_tables(self, s: int, first: np.ndarray, weights: np.ndarray):
        """Per pivot block of dimension s: its first index and pivots, and
        per cover vector v: the pivot mask of X + v, v, q^c for its column
        c, and the index of X + v less the shares of the rows of X.  v holds
        the digits of a t in [q^j, 2 q^j) at the free columns, highest lowest."""
        q, n, blocks = self.q, self.n, self.blocks[s]
        free = np.array([[j for j in range(n - 1, -1, -1) if j not in p] for p, _, _ in blocks],
                        np.int64).reshape(len(blocks), n - s)
        t, top = np.array([(x, j) for j in range(n - s) for x in range(q ** j, 2 * q ** j)],
                          np.int64).reshape(-1, 2).T
        v = np.zeros((len(blocks), len(t)), np.int64)
        for j in range(n - s):
            v += t // q ** j % q * q ** free[:, j, None]
        pivots = np.array([p for p, _, _ in blocks], np.int64).reshape(len(blocks), s)
        c = np.ascontiguousarray(free[:, top])  # gathers read rows
        up = np.sum(1 << pivots, 1)[:, None] | 1 << c
        start = first[up] + sum(v // q ** j % q * weights[up, c, j] for j in range(n))
        return [lo for _, lo, _ in blocks], up, v, q ** c, pivots, start

    def _block_of(self, s: int, at: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._tables[s][0], at, side="right") - 1

    def cover_index(self, s: int, at: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Indices in dimension s + 1 of X + v, for X at indices ``at`` of
        dimension s: one row per X, one column per cover vector v of the
        block of X (``_block_tables``), columns ``cols`` of them."""
        _, up, v, unit, pivots, start = self._tables[s]
        block = self._block_of(s, at)
        up, v, unit, index = (table[:, cols][block] for table in (up, v, unit, start))
        rows, share = self.rows[s][at], self._moved(up, v, unit, pivots, block)
        for i in range(s):
            index += share(i, rows[:, i, None])
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
            width = self.widths[s]
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
            step = max(1, CHUNK // self.widths[s])
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
            step = max(1, CHUNK // self.widths[s])
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
