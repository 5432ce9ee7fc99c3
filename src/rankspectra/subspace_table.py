"""One indexed table of all subspaces of F_q^n, for array passes over them.

Each dimension d holds the RREF rows of its subspaces, packed base q
(digit j = coordinate j, over F_2 the int row form of ``linalg``), as one
(N, d) array of the narrowest signed type that holds q^n (int8 over F_2
up to n = 7, int16 up to n = 15), in the order of ``enumerate_subspaces``:
index i of dimension d is the i-th subspace that
``enumerate_subspaces(gf, n, d)`` yields.  The rows come one pivot set at
a time, a block of consecutive indices, so the pivots of a row are those
of its block.  No ``Subspace`` is built except on request.

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
rank.  One walk over the covers, from dimension n down and with pointers
for two dimensions at a time, finds the flats and their cover edges: a
subspace with a cover of its own rank points where that cover points,
and a flat points to itself.  On a q-matroid a cover of the same rank
keeps the closure (``QMatroid.verify_axioms``), so by induction from the
top the pointer of X is cl X, and the flats that cover a flat F are the
distinct pointers of its covers, the closures cl(F + v) (Byrne, Ceria
and Jurrius, "Constructions of new q-cryptomorphisms", JCTB 2022).  A
flat reads all its covers anyway, so it keeps their pointers, and no
second pass is made.  The checked walk of the axiom check visits every
cover, records at its first failed check the table positions of a
witness against P1, P2 or P3, and walks on; the unchecked walk, for a
source that is a q-matroid by theorem (a code, U(k, n)), lets a non-flat
leave early.  On a rank function that is no q-matroid the flats are
still the flats, but the pointers need not be closures, so a checked
walk that failed returns no cover edges.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import prod

import numpy as np

from .linalg import GF, Subspace

CHUNK = 1 << 16  # (subspace, cover) pairs per array pass, rows per rank slice
# the row update of ``_moved_share`` tabulates sub and mul as two q x q
# int64 arrays up to this q, 1 MiB at q = 256
_SQUARE_TABLE_LIMIT = 256


def subspace_rows(n: int, s: int, q: int):
    """(blocks, rows) of the s-subspaces of F_q^n.

    ``rows`` is an (N, s) array of packed RREF rows, of the signed type
    ``np.min_scalar_type(-q ** n)`` (numpy would mix an unsigned one with
    int64 into float64), in the order of ``enumerate_subspaces``: pivot
    sets in lexicographic order, each a block of consecutive rows listed in
    ``blocks`` as (pivots, lo, hi), and within one the product of the
    choices for each row, the free entries of a row read as a big-endian
    counter, the last row lowest.
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
    rows = np.empty((lo, s), np.min_scalar_type(-q ** n))
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
    arithmetic, as q x q tables if q <= ``_SQUARE_TABLE_LIMIT``, with the
    pivots of the block."""
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
    if q <= _SQUARE_TABLE_LIMIT:  # else element by element, with no array of order q^2
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

    def cover_walk(self, ranks, check: bool = False):
        """The flats and their cover edges, given the rank array of each
        dimension, in one walk over the covers from dimension n down.

        Returns (flats, covers, failure): per dimension, the indices of the
        flats, and for each flat numbered by dimension and then index, the
        sorted ids of the distinct pointers of its covers: on a q-matroid,
        the flats that cover it.  failure is None unless a check failed.  A
        pointer is the table position of a subspace, its index plus
        ``base`` of its dimension, and only dimensions s + 1 and s hold
        them at a time.  ptr[X] is X when no cover of X has the rank of X,
        and else ptr[X + v] for the first cover X + v that has.  Each flat
        keeps the pointers of its covers as its rows are read, except a
        flat of rank rho(E) - 1: on a q-matroid its covers have rank
        rho(E), whose closure is E, the top flat.

        With ``check`` it first checks 0 <= rho(X) <= dim X on every
        dimension, then visits every cover and checks d = rho(X + v) -
        rho(X) in {0, 1} on each and ptr[X + v] == ptr[X] on each with
        d = 0.  At the first failure it records {"axiom", "X", "Y"} (no
        "Y" for P1), whose X and Y are the (dimension, index) of a witness:
        P1 on X; P2 on (X, X + v) for d < 0; P3 on (X, the line of v) for
        d > 1; P3 on (A, X + v), A the first cover with d = 0, for a
        pointer that differs.  It walks on, for the flats, and returns
        that record as failure and None for covers.
        ``QMatroid.verify_axioms`` proves that these checks pass exactly on
        the q-matroids and that each witness is genuine.  Without ``check``
        the covers are tried in slices of 1, 4, 16, ... vectors, and a
        subspace leaves after the first slice with a cover of its own rank:
        most non-flats leave after the first.  Either way the flats are the
        flats, and on a q-matroid the pointers are closures (module
        docstring).
        """
        n, base, failure = self.n, self.base, None
        for s, rank in enumerate(ranks if check else ()):
            bad = np.flatnonzero((rank < 0) | (rank > s))
            if len(bad):
                failure = {"axiom": "P1", "X": (s, int(bad[0]))}
                break
        full = ranks[n][0]
        flats, edges = [np.zeros(1, np.int32)], []
        above = base[n:n + 1].astype(np.int32)  # E points to itself
        for s in range(n - 1, -1, -1):
            rank = ranks[s]
            point = np.arange(base[s], base[s + 1], dtype=np.int32)
            live, width, a = np.arange(len(rank), dtype=np.int32), self.widths[s], 0
            low = rank < full - 1
            seen = []  # per slice, the cover pointers of the live X that are low
            while a < width and len(live):
                cols = slice(a, width if check else min(4 * a + 1, width))
                a = cols.stop
                step = max(1, CHUNK // (cols.stop - cols.start))
                stay, kept = [], []
                for i in range(0, len(live), step):
                    part = live[i:i + step]
                    cover = self.cover_index(s, part, cols)
                    d = ranks[s + 1][cover] - rank[part, None]
                    up = above[cover]
                    zero = d == 0
                    first = zero.argmax(axis=1)
                    at = np.arange(len(part))
                    left = zero[at, first]
                    own = np.where(left, up[at, first], point[part])
                    if check and failure is None:  # the first failure, row r, cover c
                        bad = (d < 0) | (d > 1) | zero & (up != own[:, None])
                        r, c = divmod(int(bad.argmax()), bad.shape[1])
                        X, Y = (s, int(part[r])), (s + 1, int(cover[r, c]))
                        if d[r, c] < 0:
                            failure = {"axiom": "P2", "X": X, "Y": Y}
                        elif d[r, c] > 1:  # v is reduced and led by 1: the row of its line
                            v = self._tables[s][2][self._block_of(s, part[r]), c]
                            line = np.flatnonzero(self.rows[1][:, 0] == v)[0]
                            failure = {"axiom": "P3", "X": X, "Y": (1, int(line))}
                        elif bad[r, c]:  # two step-0 covers with different pointers
                            failure = {"axiom": "P3", "X": (s + 1, int(cover[r, first[r]])), "Y": Y}
                    point[part] = own
                    stay.append(~left)
                    kept.append(up[stay[-1] & low[part]])
                stay = np.concatenate(stay)
                seen = [x[stay[low[live]]] for x in seen] + [np.concatenate(kept)]
                live = live[stay]
            up = np.sort(np.hstack(seen), axis=1)
            new = np.ones(up.shape, bool)
            new[:, 1:] = up[:, 1:] != up[:, :-1]
            flats.append(live)
            edges.append((low[live], up[new], new.sum(axis=1)))
            above = point
        flats.reverse()
        if failure is not None:
            return flats, None, failure
        at = np.concatenate([index + b for index, b in zip(flats, base)])
        top, covers = len(at) - 1, []
        for low, up, counts in reversed(edges):
            ids, ends = np.searchsorted(at, up).tolist(), np.cumsum(counts).tolist()
            rows = map(ids.__getitem__, map(slice, [0] + ends, ends))
            covers += [next(rows) if x else [top] for x in low.tolist()]
        return flats, covers + [[]], None

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
