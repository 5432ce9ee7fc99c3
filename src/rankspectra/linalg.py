"""Matrices and canonical subspaces over finite fields.

Subspaces of F_q^n are kept in reduced row echelon form, which makes the
representation canonical: two subspaces are equal iff their basis tuples
are identical, so they can be used directly as dictionary keys.  All
values are immutable after construction.

Field arithmetic goes through :class:`GF`.  A field of at most
``_TABLE_LIMIT`` (256) elements computes from dense tables built once per
tower level and shared by every ``GF`` of that level: products and
inverses from the exp/log tables of a primitive element, sums and
negatives digit-wise mod p on the base-p encoding (XOR for p = 2).  A
larger field calls the recursive :class:`FieldTower` arithmetic.
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
_TABLE_LIMIT = 256


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
def _table_ops(tower: FieldTower, level: int):
    """(add, sub, neg, mul, inv) of one tower level, read from dense tables.

    Products come from exp/log of a primitive element g, found by walking
    the powers of g = 1, 2, ... with ``FieldTower.mul`` until one has order
    size - 1; the size x size table is then filled by index arithmetic.
    Sums are digit-wise mod p on the base-p encoding, so for p = 2 they are
    XOR.
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
    log = [0] * size
    for i, x in enumerate(exp):
        log[x] = i
    exp2 = exp + exp
    logs = log[1:]
    mul_t = [[0] * size]
    for a in range(1, size):
        # mul(a, b) = exp[log a + log b]
        mul_t.append([0, *map(exp2[log[a]:].__getitem__, logs)])
    inv_t = [0] + [exp[-log[a] % (size - 1)] for a in range(1, size)]

    def mul(a, b):
        return mul_t[a][b]

    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return inv_t[a]

    if p == 2:
        return xor, xor, list(range(size)).__getitem__, mul, inv
    # digit-wise sums: each pass appends the next base-p digit at the top
    add_t = [[0]]
    width = 1
    while width < size:
        add_t = [[x + off for off in [width * ((ah + bh) % p) for bh in range(p)] for x in row]
                 for ah in range(p) for row in add_t]
        width *= p
    neg_t = [row.index(0) for row in add_t]
    sub_t = [list(map(row.__getitem__, neg_t)) for row in add_t]

    def add(a, b):
        return add_t[a][b]

    def sub(a, b):
        return sub_t[a][b]

    return add, sub, neg_t.__getitem__, mul, inv


class GF:
    """Arithmetic view of one level of a :class:`FieldTower`.

    ``add``, ``sub``, ``neg``, ``mul`` and ``inv`` are bound once here.  A
    field of at most ``_TABLE_LIMIT`` elements reads them from tables built
    on first use of its (tower, level) and cached; a larger one calls the
    tower's recursive arithmetic.  ``inv(0)`` raises ``ZeroDivisionError``
    either way.
    """

    __slots__ = ("tower", "level", "size", "add", "sub", "neg", "mul", "inv")

    def __init__(self, tower: FieldTower, level: int = -1):
        self.tower = tower
        self.level = tower._idx(level)
        self.size = tower.sizes[self.level]
        if self.size <= _TABLE_LIMIT:
            self.add, self.sub, self.neg, self.mul, self.inv = _table_ops(tower, self.level)
        else:
            self.add = partial(tower.add, level=self.level)
            self.sub = partial(tower.sub, level=self.level)
            self.neg = partial(tower.neg, level=self.level)
            self.mul = partial(tower.mul, level=self.level)
            self.inv = partial(tower.inv, level=self.level)

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


def rref(gf: GF, rows):
    """Reduced row echelon form; returns (rows, rank, pivots)."""
    mul, sub = gf.mul, gf.sub
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = gf.inv(work[r][col])
        work[r] = [mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                work[i] = [sub(x, mul(c, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), r, tuple(pivots)


def mat_rank(gf: GF, rows) -> int:
    return rref(gf, rows)[1]


def mat_mul(gf: GF, a, b):
    """Product of row-tuple matrices over gf."""
    add, mul = gf.add, gf.mul
    bt = list(zip(*b)) if b else []
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = add(acc, mul(x, y))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def _reduce(gf: GF, rows, pivots, vec):
    """Reduce vec against RREF rows with the given pivots; zero iff vec is in their span."""
    mul, sub = gf.mul, gf.sub
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = [sub(x, mul(c, y)) for x, y in zip(v, row)]
    return v


class Subspace:
    """Canonical subspace of F_q^n: RREF basis with no zero rows."""

    __slots__ = ("gf", "n", "rows", "pivots", "_hash")

    def __init__(self, gf: GF, n: int, rows, pivots):
        self.gf = gf
        self.n = n
        self.rows = rows
        self.pivots = pivots
        self._hash = hash((gf.size, n, rows))

    @classmethod
    def from_rows(cls, gf: GF, n: int, rows) -> "Subspace":
        for row in rows:
            if len(row) != n:
                raise InputError("row length does not match ambient dimension")
        canon, _, pivots = rref(gf, rows)
        return cls(gf, n, canon, pivots)

    @classmethod
    def zero(cls, gf: GF, n: int) -> "Subspace":
        return cls(gf, n, (), ())

    @classmethod
    def full(cls, gf: GF, n: int) -> "Subspace":
        rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return cls(gf, n, rows, tuple(range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.rows == other.rows
            and self.gf == other.gf
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Subspace(n={self.n}, dim={self.dim}, rows={list(map(list, self.rows))})"

    # -- membership and order -----------------------------------------

    def contains_vector(self, vec) -> bool:
        return not any(_reduce(self.gf, self.rows, self.pivots, vec))

    def contains(self, other: "Subspace") -> bool:
        if other.n != self.n:
            raise InputError("ambient dimension mismatch")
        return all(self.contains_vector(r) for r in other.rows)

    # -- lattice operations -------------------------------------------

    def sum(self, other: "Subspace") -> "Subspace":
        """RREF of self + other, folding in the rows of other one at a time.

        A row outside the current span is reduced, normalised at its first
        nonzero column, cleared from the existing rows in that column and
        inserted in pivot order; RREF is canonical, so the result equals
        ``from_rows(self.rows + other.rows)``.
        """
        if other.n != self.n or other.gf != self.gf:
            raise InputError("ambient mismatch")
        gf = self.gf
        mul, sub = gf.mul, gf.sub
        rows, pivots = list(self.rows), list(self.pivots)
        for vec in other.rows:
            v = _reduce(gf, rows, pivots, vec)
            col = next((j for j, x in enumerate(v) if x), None)
            if col is None:
                continue
            inv = gf.inv(v[col])
            v = tuple([mul(inv, x) for x in v])
            for i, row in enumerate(rows):
                c = row[col]
                if c:
                    rows[i] = tuple([sub(x, mul(c, y)) for x, y in zip(row, v)])
            at = bisect(pivots, col)
            rows.insert(at, v)
            pivots.insert(at, col)
        if len(rows) == self.dim:
            return self
        return Subspace(gf, self.n, tuple(rows), tuple(pivots))

    def complement(self) -> "Subspace":
        """Orthogonal complement w.r.t. the standard dot product."""
        gf, n = self.gf, self.n
        if self.dim == 0:
            return Subspace.full(gf, n)
        free = [j for j in range(n) if j not in self.pivots]
        kernel_rows = []
        for f in free:
            vec = [0] * n
            vec[f] = 1
            for row, p in zip(self.rows, self.pivots):
                vec[p] = gf.neg(row[f])
            kernel_rows.append(tuple(vec))
        return Subspace.from_rows(gf, n, kernel_rows)

    # -- coordinate charts --------------------------------------------

    def embed_vector(self, coords):
        gf = self.gf
        vec = [0] * self.n
        for c, row in zip(coords, self.rows):
            if c:
                vec = [gf.add(x, gf.mul(c, y)) for x, y in zip(vec, row)]
        return tuple(vec)

    def embed_subspace(self, sub: "Subspace") -> "Subspace":
        """Map a subspace of the chart F_q^dim into the ambient space."""
        if sub.n != self.dim:
            raise InputError("chart dimension mismatch")
        rows = [self.embed_vector(r) for r in sub.rows]
        return Subspace.from_rows(self.gf, self.n, rows)

    def vectors(self):
        """All vectors of the subspace, deterministic order (desk scale only)."""
        for coords in product(self.gf.elements(), repeat=self.dim):
            yield self.embed_vector(coords)

    def serialize(self):
        """Basis rows as little-endian base-q integer encodings."""
        q = self.gf.size
        out = []
        for row in self.rows:
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
    total = gaussian_binomial(n, s, gf.size)
    if cap is not None and total > cap:
        raise ResourceLimitError(
            f"enumeration of {total} subspaces exceeds cap {cap}",
            required=int(total), cap=cap,
        )
    if s == 0:
        yield Subspace.zero(gf, n)
        return
    for pivots in combinations(range(n), s):
        free_positions = [
            (i, j)
            for i in range(s)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        for values in product(gf.elements(), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(s)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free_positions, values):
                rows[i][j] = v
            yield Subspace(
                gf, n, tuple(tuple(r) for r in rows), tuple(pivots)
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


# -- codeword expansion -----------------------------------------------


def expand_codeword(tower: FieldTower, code_level: int, base_level: int, word):
    """Matrix expansion of a word over the tower basis: column j = coords(word[j]).

    Returns an (m x n) tuple-of-rows over the base level, where m is the
    extension degree of the code level over the base level.
    """
    m = tower.ext_degree(code_level, base_level)
    cols = [tower.coords(x, code_level, base_level) for x in word]
    return tuple(tuple(col[i] for col in cols) for i in range(m))


def rank_support(tower: FieldTower, code_level: int, base_level: int, word,
                 gf_base: GF | None = None) -> Subspace:
    """Row space over the base field of the matrix expansion of ``word``."""
    if gf_base is None:
        gf_base = GF(tower, base_level)
    rows = expand_codeword(tower, code_level, base_level, word)
    return Subspace.from_rows(gf_base, len(word), rows)


def rank_weight(tower: FieldTower, code_level: int, base_level: int, word) -> int:
    return rank_support(tower, code_level, base_level, word).dim
