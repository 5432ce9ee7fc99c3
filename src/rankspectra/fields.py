"""Exact arithmetic in towers of finite fields.

A :class:`FieldTower` is a chain F_p < F_{p^a} < F_{p^ab} < ... built by
repeatedly adjoining a root of a monic irreducible polynomial over the
current top level.  Elements of level ``i`` are represented by a canonical
integer encoding: the little-endian digit expansion of the coefficient
vector in the polynomial basis {1, a, a^2, ...} over level ``i-1``,
applied recursively down to integers mod p.  The encoding is a bijection
between level-``i`` elements and ``range(size(i))``; 0 encodes zero and
1 encodes one, and embedding an element into a higher level preserves its
encoding.

So the encoding is the base-p digit string of the coefficients over F_p,
and sums, negatives and differences are digit-wise mod p on the whole
encoding at every level, XOR for p = 2 (Lidl and Niederreiter, *Finite
Fields*).  A product at level ``i >= 1`` is one polynomial product over
level ``i-1`` modulo the level's modulus: ``_poly_mulmod``, which the
irreducibility test uses too; polynomials over a level compute through
that level's ``linalg.GF``, built once per tower and level.

All operations are pure functions of the encodings; a tower is immutable
after construction, up to that cache, and safe to share between threads.
"""

from __future__ import annotations

from .errors import InputError, StructuralError

# Constructed fields are capped at 2**31 elements; this is a desk-scale
# library, not a cryptographic one.
MAX_FIELD_SIZE = 2**31


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


class FieldTower:
    """A prime field together with a chain of extension steps.

    Level 0 is F_p; level ``i`` is obtained from level ``i-1`` by adjoining
    a root of ``moduli[i-1]`` (a monic irreducible polynomial over level
    ``i-1``, stored as a little-endian tuple of level-``i-1`` encodings).
    """

    __slots__ = ("p", "moduli", "degrees", "sizes", "_signature", "_gfs")

    def __init__(self, p: int, _moduli=(), _degrees=(), _sizes=None):
        if p > MAX_FIELD_SIZE:
            raise InputError(f"characteristic {p} exceeds the {MAX_FIELD_SIZE} element cap")
        if not is_prime(p):
            raise InputError(f"characteristic must be prime, got {p}")
        self.p = p
        self.moduli = tuple(_moduli)
        self.degrees = tuple(_degrees)
        if _sizes is None:
            sizes = [p]
            for d in self.degrees:
                sizes.append(sizes[-1] ** d)
            self.sizes = tuple(sizes)
        else:
            self.sizes = tuple(_sizes)
        self._signature = (self.p, self.moduli)
        self._gfs = {}

    # -- construction -------------------------------------------------

    def extend(self, modulus) -> "FieldTower":
        """Return a new tower with one more level, adjoining a root of ``modulus``.

        ``modulus`` is a little-endian coefficient sequence over the current
        top level; it must be monic of degree >= 2 and irreducible.
        """
        modulus = tuple(int(c) for c in modulus)
        degree = len(modulus) - 1
        if degree < 2:
            raise InputError("extension modulus must have degree >= 2")
        top = self.top_level
        size = self.sizes[top]
        if any(not (0 <= c < size) for c in modulus):
            raise InputError("modulus coefficients out of range for the top level")
        if modulus[-1] != 1:
            raise InputError("modulus must be monic")
        if size**degree > MAX_FIELD_SIZE:
            raise InputError(
                f"field of size {size}^{degree} exceeds the {MAX_FIELD_SIZE} element cap"
            )
        factor_deg = self._reducible_factor_degree(modulus, top)
        if factor_deg is not None:
            raise InputError(
                f"modulus is reducible: it has an irreducible factor of degree {factor_deg}"
            )
        return FieldTower(
            self.p,
            self.moduli + (modulus,),
            self.degrees + (degree,),
            self.sizes + (size**degree,),
        )

    @property
    def top_level(self) -> int:
        return len(self.degrees)

    def size(self, level: int = -1) -> int:
        return self.sizes[self._idx(level)]

    def _idx(self, level: int) -> int:
        if level < 0:
            level += self.top_level + 1
        if not (0 <= level <= self.top_level):
            raise InputError(f"no such tower level: {level}")
        return level

    def _gf(self, level: int):
        """The ``linalg.GF`` of a level, built on first use and kept."""
        gf = self._gfs.get(level)
        if gf is None:
            from .linalg import GF  # imported here: linalg imports this module

            gf = self._gfs[level] = GF(self, level)
        return gf

    def ext_degree(self, level: int, sublevel: int = 0) -> int:
        """Degree of level over sublevel (product of step degrees)."""
        level, sublevel = self._idx(level), self._idx(sublevel)
        if sublevel > level:
            raise InputError("sublevel must not be above level")
        deg = 1
        for d in self.degrees[sublevel:level]:
            deg *= d
        return deg

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self._signature == other._signature

    def __hash__(self):
        return hash(self._signature)

    def __repr__(self):
        return f"FieldTower(p={self.p}, sizes={list(self.sizes)})"

    # -- digit plumbing ------------------------------------------------

    def _split(self, x: int, level: int):
        """Digits of a level-``level`` element over level ``level-1`` (little-endian)."""
        base = self.sizes[level - 1]
        return [(x // base**i) % base for i in range(self.degrees[level - 1])]

    def _join(self, digits, level: int) -> int:
        base = self.sizes[level - 1]
        x = 0
        for c in reversed(digits):
            x = x * base + c
        return x

    # -- field operations ----------------------------------------------

    def add(self, a: int, b: int, level: int = -1) -> int:
        level = self._idx(level)
        if self.p == 2:
            return a ^ b
        return (a + b) % self.p if level == 0 else _digitwise(self.p, a, b, 1)

    def neg(self, a: int, level: int = -1) -> int:
        self._idx(level)
        if self.p == 2:
            return a
        return _digitwise(self.p, 0, a, -1)

    def sub(self, a: int, b: int, level: int = -1) -> int:
        level = self._idx(level)
        if self.p == 2:
            return a ^ b
        return (a - b) % self.p if level == 0 else _digitwise(self.p, a, b, -1)

    def mul(self, a: int, b: int, level: int = -1) -> int:
        level = self._idx(level)
        if level == 0:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        prod = _poly_mulmod(self._gf(level - 1), self._split(a, level),
                            self._split(b, level), self.moduli[level - 1])
        return self._join(prod, level)

    def pow(self, a: int, e: int, level: int = -1) -> int:
        level = self._idx(level)
        if e < 0:
            a, e = self.inv(a, level), -e
        result = 1 % self.sizes[level]
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base, level)
            base = self.mul(base, base, level)
            e >>= 1
        return result

    def inv(self, a: int, level: int = -1) -> int:
        level = self._idx(level)
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.sizes[level] - 2, level)

    def frobenius(self, a: int, level: int = -1, base_level: int = 0) -> int:
        """x -> x^s for s the size of ``base_level``; fixes that subfield pointwise."""
        level = self._idx(level)
        return self.pow(a, self.sizes[self._idx(base_level)], level)

    # -- coordinate expansion ------------------------------------------

    def coords(self, x: int, level: int = -1, sublevel: int = 0):
        """Coordinates of ``x`` over ``sublevel`` in the tower's polynomial basis.

        Returns a tuple of ``ext_degree(level, sublevel)`` sublevel encodings,
        little-endian; round-trips with :meth:`from_coords`.  The digits of
        each level are themselves digits of the level below, so these are
        just the base-``sizes[sublevel]`` digits of the encoding.
        """
        degree = self.ext_degree(level, sublevel)
        base = self.sizes[self._idx(sublevel)]
        out = []
        for _ in range(degree):
            x, digit = divmod(x, base)
            out.append(digit)
        return tuple(out)

    def from_coords(self, coeffs, level: int = -1, sublevel: int = 0) -> int:
        degree = self.ext_degree(level, sublevel)
        base = self.sizes[self._idx(sublevel)]
        coeffs = list(coeffs)
        if len(coeffs) != degree:
            raise InputError("coordinate vector has the wrong length")
        x = 0
        for c in reversed(coeffs):
            x = x * base + c
        return x

    def _reducible_factor_degree(self, f, level):
        """Smallest degree of an irreducible factor witnessing reducibility, else None.

        gcd-based: f (monic, deg d) has a factor of degree i iff
        gcd(f, X^{s^i} - X) != 1; checking i <= d // 2 decides irreducibility.
        """
        d = len(f) - 1
        if d < 1:
            raise InputError("polynomial must have degree >= 1")
        if d == 1:
            return None
        gf = self._gf(level)
        h = _poly_mod(gf, [0, 1], f)
        for i in range(1, d // 2 + 1):
            h = _poly_powmod(gf, h, gf.size, f)
            diff = list(h) + [0] * (2 - len(h))
            diff[1] = gf.sub(diff[1], 1)
            g = _poly_gcd(gf, f, diff)
            if len(g) - 1 > 0:
                return i
        return None

    def find_irreducible(self, degree: int, level: int = -1):
        """Encoding-minimal monic irreducible polynomial of ``degree`` over ``level``.

        Candidates are scanned by increasing integer encoding of the
        non-leading coefficient vector, so the result is deterministic.
        A candidate of degree >= 2 with a root in the field has a linear
        factor, so it is skipped by Horner evaluation at every element;
        the gcd test still decides every candidate that survives.
        """
        level = self._idx(level)
        if degree < 1:
            raise InputError("degree must be >= 1")
        gf = self._gf(level)
        size = gf.size
        for enc in range(size**degree):
            coeffs = [(enc // size**i) % size for i in range(degree)]
            f = tuple(coeffs) + (1,)
            if degree >= 2 and _has_root(gf, f):
                continue
            if self._reducible_factor_degree(f, level) is None:
                return f
        raise StructuralError("no irreducible polynomial found")  # pragma: no cover


def _digitwise(p: int, a: int, b: int, c: int) -> int:
    """a + c b digit by digit mod p on base-p encodings, with no carry."""
    out, unit = 0, 1
    while a or b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        out += (x + c * y) % p * unit
        unit *= p
    return out


def prime_field(p: int) -> FieldTower:
    """One-level tower F_p; errors on composite p."""
    return FieldTower(p)


# -- polynomials over the field ``gf`` (a ``linalg.GF``), little-endian --


def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mod(gf, f, g):
    """Remainder of f modulo g (g nonzero and trimmed); zero coefficients
    of g are skipped, and a monic g is not scaled."""
    sub, mul = gf.sub, gf.mul
    f = _poly_trim(list(f))
    dg = len(g) - 1
    lead_inv = 1 if g[dg] == 1 else gf.inv(g[dg])
    while len(f) > dg:  # the top term of f is cancelled by c x^shift g
        c = f.pop() if lead_inv == 1 else mul(f.pop(), lead_inv)
        shift = len(f) - dg
        for j in range(dg):
            if g[j]:
                f[shift + j] = sub(f[shift + j], mul(c, g[j]))
        _poly_trim(f)
    return f


def _poly_mulmod(gf, a, b, mod):
    add, mul = gf.add, gf.mul
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                prod[i + j] = add(prod[i + j], mul(x, y))
    return _poly_mod(gf, prod, mod)


def _poly_gcd(gf, f, g):
    f = _poly_trim(list(f))
    g = _poly_trim(list(g))
    while g:
        f, g = g, _poly_mod(gf, f, g)
    if f:
        lead_inv = gf.inv(f[-1])
        f = [gf.mul(c, lead_inv) for c in f]
    return f


def _poly_powmod(gf, a, e, mod):
    result = [1]
    base = _poly_mod(gf, a, mod)
    while e:
        if e & 1:
            result = _poly_mulmod(gf, result, base, mod)
        base = _poly_mulmod(gf, base, base, mod)
        e >>= 1
    return result


def _has_root(gf, f):
    """Whether f vanishes at some element of ``gf`` (Horner at each one)."""
    if f[0] == 0:
        return True
    add, mul = gf.add, gf.mul
    for x in range(1, gf.size):
        value = 0
        for c in reversed(f):
            value = add(mul(value, x), c)
        if value == 0:
            return True
    return False
