"""Matrices and canonical subspaces over finite fields.

Subspaces of F_q^n are kept in reduced row echelon form, which makes the
representation canonical: two subspaces are equal iff their basis tuples
are identical, so they can be used directly as dictionary keys.  All
values are immutable after construction.

A basis row is stored in the form its field's row primitives read, bound
once per :class:`GF` next to the arithmetic.  Over F_2 a row is one int
with bit j = coordinate j, the little-endian encoding ``serialize``
returns: the pivot is the lowest set bit, reducing a row by another whose
pivot bit it holds is one XOR, and no row needs scaling, so a line step
X -> X + L costs a few int operations instead of a tuple comprehension
per basis row.  Every other field keeps rows as tuples of encodings, since
there a row operation multiplies entry by entry through the field tables.
The choice follows the field size alone, so one field never mixes the two
forms, and ``coordinate_rows`` gives the tuples in either case.  One
elimination (``_insert``) and one row combination (``combine_rows``) serve
both :class:`Subspace` and the matrix helpers ``rref``, ``mat_rank`` and
``mat_mul``, which pack coordinate rows into the row form and unpack the
result.

Field arithmetic goes through :class:`GF`.  A field of at most
``_TABLE_LIMIT`` (4096) elements computes from the O(Q) exp, log and Zech
lists of ``exp_log``, built once per tower level and shared by every
``GF`` of that level and by the batched code rank of ``qmatroid``, whose
int16 log sums (at most 4Q) it keeps below 2^15; sums are XOR for p = 2
and read the one Zech list for odd p, scalar and batched alike.  A larger
field calls the :class:`FieldTower` arithmetic.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache, partial
from itertools import combinations, product
from math import comb, isqrt
from operator import xor

from .errors import InputError, ResourceLimitError
from .fields import MAX_FIELD_SIZE, FieldTower, prime_field

DEFAULT_SUBSPACE_CAP = 10**7
DEFAULT_CODEWORD_CAP = 1 << 24
_TABLE_LIMIT = 4096


def _factor_prime_power(q: int):
    if q > MAX_FIELD_SIZE:
        raise InputError(f"field of size {q} exceeds the {MAX_FIELD_SIZE} element cap")
    if q < 2:
        raise InputError(f"{q} is not a prime power")
    # the least divisor above 1 is prime; none up to isqrt(q) means q is prime
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise InputError(f"{q} is not a prime power")
    return p, e


@lru_cache(maxsize=32)
def exp_log(tower: FieldTower, level: int):
    """(exp, log, zech) of a primitive element g of one tower level, as lists.

    g is the first of 1, 2, ... whose powers, walked with ``FieldTower.mul``,
    reach order Q - 1, Q the size.  exp holds g^0 .. g^(Q-2) twice, then
    zeros up to 4Q + 1 entries; log inverts it, and log[0] = 2Q points into
    the zeros, so exp[log a + log b] = ab with no zero branch.  zech holds
    the Zech logarithms, 1 + g^t = g^zech[t] (Huber, IEEE Trans. IT 36(4),
    1990), for t in (-(Q - 1), 2(Q - 1)), twice like exp: adding 1 raises
    the lowest base-p digit of the encoding.
    """
    p, size = tower.p, tower.sizes[level]
    for g in range(1, size):
        exp = [1]
        x = g
        while x != 1:
            exp.append(x)
            x = tower.mul(x, g, level)
        if len(exp) == size - 1:
            break
    log = [2 * size] * size
    for i, x in enumerate(exp):
        log[x] = i
    zech = [log[x + 1 - p if x % p == p - 1 else x + 1] for x in exp] * 2
    return exp + exp + [0] * (2 * size + 3), log, zech


@lru_cache(maxsize=32)
def _table_ops(tower: FieldTower, level: int):
    """(add, sub, neg, mul, inv) of one tower level, read from ``exp_log``.

    With Q the size of the level and g^half = -1: ab = exp[log a + log b],
    1/a = exp[Q - 1 - log a] and -a = exp[log a + half].  Sums are XOR for
    p = 2, and a + b = a (1 + b/a) = exp[log a + zech[log b - log a]] for
    odd p.  Every list has O(Q) entries.
    """
    p, size = tower.p, tower.sizes[level]
    exp, log, zech = exp_log(tower, level)
    half = (size - 1) // 2 if p > 2 else 0

    def mul(a, b):
        return exp[log[a] + log[b]]

    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return exp[size - 1 - log[a]]

    def neg(a):
        return exp[log[a] + half]

    if p == 2:
        return xor, xor, neg, mul, inv

    def add(a, b):
        if not (a and b):
            return a or b
        la = log[a]
        return exp[la + zech[log[b] - la]]

    def sub(a, b):
        if not (a and b):
            return a or neg(b)
        la = log[a]
        return exp[la + zech[log[b] + half - la]]

    return add, sub, neg, mul, inv


# -- row primitives ------------------------------------------------------
#
# One family per row form, bound into GF slots:
#   pack_row(vec), unpack_row(row, n): coordinate sequence <-> row;
#   reduce_row(rows, pivots, v): v minus its components along the RREF rows,
#     zero at every pivot, and zero iff v lies in their span;
#   row_nonzero(row): whether the row is not zero;
#   lead_row(v): (pivot column, v scaled to 1 there), column -1 for v = 0;
#   clear_column(rows, col, v): the rows with column col cleared by v, the
#     lead row of that column;
#   combine_rows(coeffs, rows, n): sum of coeffs[i] * rows[i], the
#     coefficients a coordinate sequence.


def _pack2(vec):
    return sum(1 << j for j, x in enumerate(vec) if x)


def _unpack2(row, n):
    return tuple(row >> j & 1 for j in range(n))


def _reduce2(rows, pivots, v):
    for row, p in zip(rows, pivots):
        if v >> p & 1:
            v ^= row
    return v


def _lead2(v):
    return (v & -v).bit_length() - 1, v


def _clear2(rows, col, v):
    bit = 1 << col
    return [row ^ v if row & bit else row for row in rows]


def _combine2(coeffs, rows, n):
    v = 0
    for c, row in zip(coeffs, rows):
        if c:
            v ^= row
    return v


_BINARY_ROWS = (_pack2, _unpack2, _reduce2, bool, _lead2, _clear2, _combine2)


def _tuple_rows(add, sub, mul, inv):
    """Row primitives on tuples of field encodings, from the field's arithmetic."""

    def unpack(row, n):
        return row

    def reduce(rows, pivots, vec):
        v = list(vec)
        for row, p in zip(rows, pivots):
            c = v[p]
            if c:
                v = [sub(x, mul(c, y)) for x, y in zip(v, row)]
        return v

    def lead(v):
        for col, x in enumerate(v):
            if x:
                c = inv(x)
                return col, tuple([mul(c, y) for y in v])
        return -1, v

    def clear(rows, col, v):
        out = []
        for row in rows:
            c = row[col]
            out.append(tuple([sub(x, mul(c, y)) for x, y in zip(row, v)]) if c else row)
        return out

    def combine(coeffs, rows, n):
        terms = [(c, row) for c, row in zip(coeffs, rows) if c]
        out = []
        for j in range(n):  # per column, a sum over the nonzero coefficients
            acc = 0
            for c, row in terms:
                if row[j]:
                    acc = add(acc, mul(c, row[j]))
            out.append(acc)
        return tuple(out)

    return tuple, unpack, reduce, any, lead, clear, combine


class GF:
    """Arithmetic view of one level of a :class:`FieldTower`.

    ``add``, ``sub``, ``neg``, ``mul`` and ``inv`` are bound once here.  A
    field of at most ``_TABLE_LIMIT`` elements keeps the cached lists of
    ``exp_log`` as ``exp_log``, reads them through ``_table_ops`` and
    calls no tower arithmetic; a larger one has ``exp_log`` None and calls
    the tower's arithmetic.  ``inv(0)`` raises ``ZeroDivisionError`` either
    way.  The row primitives of :class:`Subspace` are bound here too: int
    rows for F_2, tuple rows for every other field.
    """

    __slots__ = ("tower", "level", "size", "exp_log", "add", "sub", "neg", "mul", "inv",
                 "pack_row", "unpack_row", "reduce_row", "row_nonzero", "lead_row",
                 "clear_column", "combine_rows")

    def __init__(self, tower: FieldTower, level: int = -1):
        self.tower = tower
        self.level = tower._idx(level)
        self.size = tower.sizes[self.level]
        self.exp_log = exp_log(tower, self.level) if self.size <= _TABLE_LIMIT else None
        if self.exp_log is not None:
            self.add, self.sub, self.neg, self.mul, self.inv = _table_ops(tower, self.level)
        else:
            self.add, self.sub, self.neg, self.mul, self.inv = (
                partial(op, level=self.level)
                for op in (tower.add, tower.sub, tower.neg, tower.mul, tower.inv))
        (self.pack_row, self.unpack_row, self.reduce_row, self.row_nonzero,
         self.lead_row, self.clear_column, self.combine_rows) = (
            _BINARY_ROWS if self.size == 2
            else _tuple_rows(self.add, self.sub, self.mul, self.inv))

    @classmethod
    def of_order(cls, q: int) -> "GF":
        """Field with q elements (q a prime power), built deterministically."""
        p, e = _factor_prime_power(q)
        tower = prime_field(p)
        if e > 1:
            tower = tower.extend(tower.find_irreducible(e))
        return cls(tower)

    def elements(self):
        return range(self.size)

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and self.level == other.level
            and self.tower == other.tower
        )

    def __hash__(self):
        return hash((self.tower, self.level))

    def __repr__(self):
        return f"GF({self.size})"


def _insert(gf: GF, rows, pivots: list, vecs):
    """Fold rows ``vecs`` into the RREF rows and pivots of a span.

    A row outside the current span is reduced, scaled at its first nonzero
    column, cleared from the existing rows in that column and inserted in
    pivot order; RREF is canonical, so the result does not depend on the
    order of ``vecs``.  ``pivots`` is updated in place; returns the rows,
    the ``rows`` argument itself if no row was inserted.
    """
    reduce, lead, clear = gf.reduce_row, gf.lead_row, gf.clear_column
    for vec in vecs:
        col, v = lead(reduce(rows, pivots, vec))
        if col < 0:
            continue
        rows = clear(rows, col, v)
        at = bisect(pivots, col)
        rows.insert(at, v)
        pivots.insert(at, col)
    return rows


def rref(gf: GF, rows):
    """Reduced row echelon form of coordinate rows of one length: (rows,
    rank, pivots), the rows as tuples of field encodings, by ``_insert``."""
    n = len(rows[0]) if rows else 0
    pivots = []
    reduced = _insert(gf, [], pivots, map(gf.pack_row, rows))
    return tuple([gf.unpack_row(row, n) for row in reduced]), len(reduced), tuple(pivots)


def mat_rank(gf: GF, rows) -> int:
    return rref(gf, rows)[1]


def mat_mul(gf: GF, a, b):
    """Product of row-tuple matrices over gf: row i is ``combine_rows`` of
    the rows of b, the coefficients row i of a."""
    n = len(b[0]) if b else 0
    unpack, combine, rows = gf.unpack_row, gf.combine_rows, list(map(gf.pack_row, b))
    return tuple([unpack(combine(row, rows, n), n) for row in a])


class Subspace:
    """Canonical subspace of F_q^n: RREF basis with no zero rows.

    ``rows`` holds the basis in the row form of ``gf`` (ints over F_2,
    tuples otherwise; see the module docstring), ``pivots`` the pivot
    column of each row.
    """

    __slots__ = ("gf", "n", "rows", "pivots", "_hash")

    def __init__(self, gf: GF, n: int, rows, pivots):
        self.gf = gf
        self.n = n
        self.rows = rows
        self.pivots = pivots
        self._hash = hash((gf.size, n, rows))

    @classmethod
    def _spanned(cls, gf: GF, n: int, vecs) -> "Subspace":
        """Span of rows already in the row form of gf."""
        pivots = []
        rows = _insert(gf, [], pivots, vecs)
        return cls(gf, n, tuple(rows), tuple(pivots))

    @classmethod
    def from_rows(cls, gf: GF, n: int, rows) -> "Subspace":
        """Span of coordinate rows, each a sequence of n field encodings."""
        for row in rows:
            if len(row) != n:
                raise InputError("row length does not match ambient dimension")
        return cls._spanned(gf, n, map(gf.pack_row, rows))

    @classmethod
    def zero(cls, gf: GF, n: int) -> "Subspace":
        return cls(gf, n, (), ())

    @classmethod
    def full(cls, gf: GF, n: int) -> "Subspace":
        rows = tuple(gf.pack_row([1 if j == i else 0 for j in range(n)]) for i in range(n))
        return cls(gf, n, rows, tuple(range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coordinate_rows(self):
        """The RREF basis as tuples of field encodings, whatever the row form."""
        unpack, n = self.gf.unpack_row, self.n
        return tuple(unpack(row, n) for row in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.rows == other.rows
            and (self.gf is other.gf or self.gf == other.gf)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"Subspace(n={self.n}, dim={self.dim}, "
                f"rows={list(map(list, self.coordinate_rows()))})")

    # -- membership and order -----------------------------------------

    def contains(self, other: "Subspace") -> bool:
        if other.n != self.n:
            raise InputError("ambient dimension mismatch")
        reduce, nonzero = self.gf.reduce_row, self.gf.row_nonzero
        rows, pivots = self.rows, self.pivots
        return not any(nonzero(reduce(rows, pivots, row)) for row in other.rows)

    # -- lattice operations -------------------------------------------

    def sum(self, other: "Subspace") -> "Subspace":
        """RREF of self + other, folding in the rows of other one at a time.

        Returns self itself when other lies in self.
        """
        if other.n != self.n or (other.gf is not self.gf and other.gf != self.gf):
            raise InputError("ambient mismatch")
        pivots = list(self.pivots)
        rows = _insert(self.gf, self.rows, pivots, other.rows)
        if rows is self.rows:
            return self
        return Subspace(self.gf, self.n, tuple(rows), tuple(pivots))

    def complement(self) -> "Subspace":
        """Orthogonal complement w.r.t. the standard dot product.

        The kernel row of a free column f is e_f minus row_p[f] e_p over
        the rows p.
        """
        gf, n = self.gf, self.n
        if self.dim == 0:
            return Subspace.full(gf, n)
        free = [j for j in range(n) if j not in self.pivots]
        rows = self.coordinate_rows()
        kernel_rows = []
        for f in free:
            vec = [0] * n
            vec[f] = 1
            for row, p in zip(rows, self.pivots):
                vec[p] = gf.neg(row[f])
            kernel_rows.append(tuple(vec))
        return Subspace.from_rows(gf, n, kernel_rows)

    # -- coordinate charts --------------------------------------------

    def embed_vector(self, coords):
        gf = self.gf
        return gf.unpack_row(gf.combine_rows(coords, self.rows, self.n), self.n)

    def embed_subspace(self, sub: "Subspace") -> "Subspace":
        """Map a subspace of the chart F_q^dim into the ambient space."""
        if sub.n != self.dim:
            raise InputError("chart dimension mismatch")
        combine, rows, n = self.gf.combine_rows, self.rows, self.n
        return Subspace._spanned(self.gf, n, [combine(coeffs, rows, n)
                                              for coeffs in sub.coordinate_rows()])

    def vectors(self):
        """All vectors of the subspace, deterministic order (desk scale only)."""
        for coords in product(self.gf.elements(), repeat=self.dim):
            yield self.embed_vector(coords)

    def serialize(self):
        """Basis rows as little-endian base-q integer encodings."""
        q = self.gf.size
        out = []
        for row in self.coordinate_rows():
            val = 0
            for x in reversed(row):
                val = val * q + x
            out.append(val)
        return out


def enumerate_subspaces(gf: GF, n: int, s: int, ambient: Subspace | None = None,
                        cap: int | None = DEFAULT_SUBSPACE_CAP):
    """Yield every s-dimensional subspace exactly once, deterministically.

    Order: lexicographic by pivot column set, then by the little-endian
    encoding of the free entries.  With ``ambient`` given, subspaces of that
    subspace are produced through its coordinate chart.
    """
    if ambient is not None:
        if ambient.gf != gf:
            raise InputError("ambient field mismatch")
        for sub in enumerate_subspaces(gf, ambient.dim, s, cap=cap):
            yield ambient.embed_subspace(sub)
        return
    if not (0 <= s <= n):
        raise InputError(f"subspace dimension {s} out of range for n={n}")
    check_subspace_count(n, s, gf.size, cap)
    if s == 0:
        yield Subspace.zero(gf, n)
        return
    for pivots in combinations(range(n), s):
        # the free entries are ordered row by row, so the basis matrices
        # are the product of the choices for each row
        choices = []
        for p in pivots:
            free = [j for j in range(p + 1, n) if j not in pivots]
            row_choices = []
            for values in product(gf.elements(), repeat=len(free)):
                vec = [0] * n
                vec[p] = 1
                for j, v in zip(free, values):
                    vec[j] = v
                row_choices.append(gf.pack_row(vec))
            choices.append(row_choices)
        for rows in product(*choices):
            yield Subspace(gf, n, rows, pivots)


def check_subspace_count(n: int, s: int, q: int, cap: int | None) -> None:
    """Raise ResourceLimitError when F_q^n has more than cap s-dimensional subspaces."""
    total = gaussian_binomial(n, s, q)
    if cap is not None and total > cap:
        raise ResourceLimitError(
            f"enumeration of {total} subspaces exceeds cap {cap}",
            required=int(total), cap=cap,
        )


def all_subspaces(gf: GF, n: int, cap: int | None = DEFAULT_SUBSPACE_CAP):
    """All subspaces of F_q^n, by increasing dimension."""
    for s in range(n + 1):
        yield from enumerate_subspaces(gf, n, s, cap=cap)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n; exact integer."""
    if q < 2:
        raise InputError("q must be >= 2")
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def matrix_count(r: int, s: int, Q: int) -> int:
    """Number of s x r matrices over F_Q of full rank s: prod (Q^r - Q^i)."""
    if r < 0 or s < 0:
        raise InputError("matrix_count arguments must be nonnegative")
    out = 1
    for i in range(s):
        out *= Q**r - Q**i
    return out


def binom2(d: int) -> int:
    return comb(d, 2)


# -- rank supports -----------------------------------------------------


def rank_support(tower: FieldTower, code_level: int, base_level: int, word,
                 gf_base: GF | None = None) -> Subspace:
    """Row space over the base field of the matrix expansion of ``word``,
    whose column j holds the coordinates of word[j] over the base level."""
    if gf_base is None:
        gf_base = GF(tower, base_level)
    cols = [tower.coords(x, code_level, base_level) for x in word]
    return Subspace.from_rows(gf_base, len(word), list(zip(*cols)))


def rank_weight(tower: FieldTower, code_level: int, base_level: int, word) -> int:
    return rank_support(tower, code_level, base_level, word).dim
