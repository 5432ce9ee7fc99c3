"""Brute-force ground truth, independent of the lattice pipeline.

Everything here recomputes spectra and structure from first principles:
codeword enumeration over extension fields, subcode enumeration, the
classical matroid on projective points, and a subset inclusion-exclusion
form of the weight polynomial.  The oracles share only the field and
linear-algebra layers with the fast pipeline, on purpose, apart from the
cycle lattice that ``verify_lattice_isomorphism`` is given to check.
The classical ground set of F_q^n, its points and the span and point mask
of every point set, is built once per (field, n); each matroid on it adds
one rank per span and checks the rank axioms exactly, on every mask.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from itertools import product

import numpy as np

from . import _kernels
from .errors import InputError, ResourceLimitError, StructuralError
from .lattice import CycleLattice
from .linalg import (
    DEFAULT_CODEWORD_CAP,
    DEFAULT_SUBSPACE_CAP,
    GF,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    rank_support,
)
from .qmatroid import GabidulinCode, QMatroid
from .spectra import WeightPolynomial

# ``ClassicalMatroid.dual_cycles`` walks all 2^points subsets, so the limit
# bounds that work (2^20 subsets), not just the mask width: the 31 points
# of a q = 2, n = 5 ground set would take 2^31 steps
_BITMASK_GROUND_LIMIT = 20

# ``inclusion_exclusion_poly`` walks the 2^points subsets of a subspace:
# at most F_2^4, or a plane over F_q for q <= 13
_INCLUSION_EXCLUSION_LIMIT = 15

# ``brute_higher`` expands message rows through ``mat_mul`` and
# ``rank_support``: about 45-50 us a row on the exp/log tables of a field
# (``GF.exp_log``), about 1 ms on the tower arithmetic of a field without.
# The rows are bounded on their own, to about 15 s on either: a k = 3 code
# over F_512 has 262,657 and runs, one over F_1024 has 1,049,601 (about
# 50 s).  Its subcodes are under the subspace cap.
_TABLE_ROW_LIMIT = 3 * 10**5
_TOWER_ROW_LIMIT = 10**4

# per code, the rank support of each message row's codeword (``brute_higher``)
_row_supports: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _extension_setup(code: GabidulinCode, r: int):
    """Tower containing F_{Q^r} one step above the code field."""
    if r < 1:
        raise InputError(f"extension degree must be >= 1, got {r}")
    if r == 1:
        return code.tower, code.code_level
    if code.code_level != code.tower.top_level:
        raise InputError("extension requires the code field at the top of its tower")
    tower = code.tower.extend(code.tower.find_irreducible(r, code.code_level))
    return tower, tower.top_level


def _binary_basis(code: GabidulinCode, tower, ext_level: int) -> np.ndarray:
    """Codewords of the unit messages of the extension code, for the kernel.

    A (k*m, n) uint64 array, m the degree of F_{Q^r} over F_2: row
    (k-1-t)*m + b is the codeword of the message whose digit t is 1 << b
    and whose other digits are 0, so message digit t bit b is index bit
    (k-1-t)*m + b and digits are big-endian in the message index.
    """
    mtilde = tower.ext_degree(ext_level, code.q_level)
    return np.array([[tower.mul(1 << b, g, ext_level) for g in code.G[t]]
                     for t in reversed(range(code.k)) for b in range(mtilde)],
                    dtype=np.uint64)


def brute_spectrum(code: GabidulinCode, r: int = 1,
                   cap: int = DEFAULT_CODEWORD_CAP):
    """Rank-weight distribution of the r-th extension code by enumeration.

    One codeword per projective class is ranked.  Write Q_r = Q^r.  The
    rank weight of c in F_{Q_r}^n is the F_q-dimension of the span of its
    entries.  For lam in F_{Q_r}^*, x -> lam*x is an F_q-linear bijection
    of F_{Q_r}, so it maps the span of the c_j onto the span of the
    lam*c_j: lam*c has the weight of c.  Encoding is F_{Q_r}-linear, so
    the message lam*u encodes to lam*c.  The nonzero messages therefore
    fall into classes {lam*u : lam != 0} of Q_r - 1 messages each (lam*u
    = u forces lam = 1 at a nonzero digit of u), all of one weight, and
    each class has exactly one member whose first nonzero digit is 1:
    divide u by that digit.  The histogram is the tally over these
    (Q_r^k - 1)/(Q_r - 1) representatives times Q_r - 1, plus the zero
    word at weight 0.  The ``cap`` still bounds all Q_r^k codewords.

    For binary base fields the kernel numbers messages big-endian in
    their digits (see ``_binary_basis``), the encoding 1 being the field's
    one: message index i = sum_t u_t Q_r^(k-1-t).  The representatives
    whose first nonzero digit is digit k-1-s are 0..0 1 followed by any
    s digits, the indices Q_r^s + x for 0 <= x < Q_r^s: they are exactly
    the k ranges [Q_r^s, 2 Q_r^s), s = 0..k-1.  The kernel spans the
    codewords of these ranges by XOR from the unit-message codewords and
    ranks their entries as uint64 words by min-reduction, one call per
    range.  Other characteristics walk the representatives on the field
    tables of F_{Q_r} and F_q and rank each codeword with
    ``rank_support``.
    """
    tower, ext_level = _extension_setup(code, r)
    Qt = tower.sizes[ext_level]
    total = Qt**code.k
    if total > cap:
        raise ResourceLimitError(
            f"enumeration of {total} codewords exceeds cap {cap}",
            required=total, cap=cap,
        )
    n, k = code.n, code.k
    if code.q == 2:
        basis = _binary_basis(code, tower, ext_level)
        classes = sum(_kernels.spectrum_counts(basis, Qt**s, 2 * Qt**s)
                      for s in range(k))
    else:
        gf_ext = GF(tower, ext_level)
        gf_base = GF(tower, code.q_level)
        classes = [0] * (n + 1)
        for lead in range(k):
            rows = code.G[lead:]
            for tail in product(range(Qt), repeat=k - 1 - lead):
                word = gf_ext.combine_rows((1, *tail), rows, n)
                classes[rank_support(tower, ext_level, code.q_level, word,
                                     gf_base).dim] += 1
    counts = [int(c) * (Qt - 1) for c in classes]
    counts[0] += 1
    return counts


def brute_higher(code: GabidulinCode, i: int,
                 cap: int = DEFAULT_SUBSPACE_CAP):
    """A^(i)_w by enumerating i-dimensional subcodes.

    The rank support of a subcode is the sum of the supports of any basis
    (entrywise scaling acts invertibly on the expansion rows), so only
    basis codewords are expanded.  Each basis is an RREF, whose rows are
    messages with a leading 1, shared by many subcodes and by every i: the
    support of each row is ranked once per code, through ``rank_support``,
    and kept in ``_row_supports``.  The rows are counted before any is
    expanded, against ``_TABLE_ROW_LIMIT``, or ``_TOWER_ROW_LIMIT`` over a
    field without exp/log tables: at most [k, 1]_Q messages with a leading
    1, and at most i per subcode.
    """
    if not (0 <= i <= code.k):
        raise InputError(f"subcode dimension {i} out of range")
    n = code.n
    if i == 0:
        return [1] + [0] * n
    arithmetic, limit = (("tower", _TOWER_ROW_LIMIT) if code.gf_code.exp_log is None
                         else ("table", _TABLE_ROW_LIMIT))
    rows = min(gaussian_binomial(code.k, 1, code.Q), i * gaussian_binomial(code.k, i, code.Q))
    if rows > limit:
        raise ResourceLimitError(
            f"{rows} message rows on {arithmetic} arithmetic exceed the limit {limit}",
            required=rows, cap=limit)
    supports = _row_supports.setdefault(code, {})
    counts = [0] * (n + 1)
    for D in enumerate_subspaces(code.gf_code, code.k, i, cap=cap):
        support = Subspace.zero(code.gf_q, n)
        for message in D.rows:
            row = supports.get(message)
            if row is None:
                row = supports[message] = rank_support(
                    code.tower, code.code_level, code.q_level, code.codeword(message),
                    code.gf_q)
            support = support.sum(row)
        counts[support.dim] += 1
    return counts


def _halves(values: np.ndarray, t: int):
    """Views of a per-mask array at the masks without and with bit t, aligned
    so that entry i of the second is mask (entry i of the first) | 1 << t."""
    blocks = values.reshape(-1, 2, 1 << t)
    return blocks[:, 0, :], blocks[:, 1, :]


def _check_ground_size(size: int) -> None:
    if size > _BITMASK_GROUND_LIMIT:
        raise ResourceLimitError(
            f"classical ground set of {size} points exceeds the bitmask limit",
            required=size, cap=_BITMASK_GROUND_LIMIT,
        )


@lru_cache(maxsize=8)
def _ground(gf: GF, n: int):
    """(points, index, ids, pop, masks) of F_q^n, shared per (field, n).

    The projective points; each span (every subspace is the span of its
    points) mapped to its id, the zero space 0; the span id and popcount
    of every mask; the point mask of each span, the largest mask with its
    id.  Callers share them and only read them.  A mask below 2^(t+1)
    with bit t set is m + 2^t for some m < 2^t; its span is span(m) + P_t:

        ids[2^t : 2^(t+1)] = lut_t[ids[:2^t]],  lut_t[u] = id(span u + P_t),

    where lut_t ranges over the spans of points 0..t-1 alone: at most
    (#subspaces x N) ``Subspace.sum`` calls instead of one per mask.
    """
    size = gaussian_binomial(n, 1, gf.size)
    _check_ground_size(size)
    points = tuple(enumerate_subspaces(gf, n, 1, cap=None)) if n else ()  # F_q^0: none
    index = {Subspace.zero(gf, n): 0}
    ids = np.zeros(1 << size, dtype=np.int32)
    pop = np.zeros(1 << size, dtype=np.int8)
    for t, P in enumerate(points):
        lut = np.array([index.setdefault(S.sum(P), len(index)) for S in list(index)],
                       dtype=np.int32)
        low = 1 << t
        ids[low:2 * low] = lut[ids[:low]]
        pop[low:2 * low] = pop[:low] + 1
    masks = np.zeros(len(index), dtype=np.int64)
    np.maximum.at(masks, ids, np.arange(1 << size))
    ids.flags.writeable = pop.flags.writeable = False
    return points, index, ids, pop, tuple(masks.tolist())


class ClassicalMatroid:
    """Matroid on the projective points of the ambient space of a q-matroid.

    Ground set: the one-dimensional subspaces in enumeration order, as
    bitmask positions; rank of a point set = q-matroid rank of its span.
    The ``_ground`` of F_q^n is shared; a matroid adds one ``M.rank`` per
    span, the zero span included, read at the span id of every mask.

    The rank axioms are checked exactly, on every mask, in local form:
    (L1) r(0) = 0; (L2) r(A + x) - r(A) is 0 or 1; (L3) r(A + x) + r(A + y)
    >= r(A + x + y) + r(A), for distinct points x, y outside A.  These are
    equivalent to R1 0 <= r(A) <= |A|, R2 monotone and R3 submodular
    (Oxley, *Matroid Theory*, section 1.3).  R1-R3 give L1-L3; L1 and L2
    give R1 and R2, adding the points of A one at a time.  By L3 the gain
    g(C, y) = r(C + y) - r(C) does not grow as points join C, so with
    B - A = {y_1, ..., y_k} and Y_i = {y_1, ..., y_i},

        r(A | B) - r(A) = sum_i g(A + Y_(i-1), y_i)
                       <= sum_i g((A & B) + Y_(i-1), y_i) = r(B) - r(A & B).

    On the (2,)*N cube of the ranks, L2 is the first difference along each
    axis and L3 the second difference along each pair of axes.

    The oracle stays independent of the q-flat scan and of the subspace
    table: it reads only the points of ``enumerate_subspaces(..., 1)``,
    ``Subspace.sum`` and ``M.rank``, and builds flats and cycles from the
    classical definitions.
    """

    def __init__(self, M: QMatroid):
        self.M = M
        points, self._index, ids, self._pop, self._point_masks = _ground(M.gf, M.n)
        self.points = list(points)
        self.size = len(points)
        self.full_mask = (1 << self.size) - 1
        self._ranks = np.array([M.rank(S) for S in self._index], dtype=np.int8)[ids]
        self.full_rank = int(self._ranks[-1])
        self._check_axioms()

    def rank(self, mask: int) -> int:
        return int(self._ranks[mask])

    def _dual_nullities(self) -> np.ndarray:
        """Dual nullity of every mask: |m| - rho*(m) = rho(E) - rho(E - m)."""
        return self.full_rank - self._ranks[::-1]

    def flats(self):
        """All flats: the masks to which no point can be added at equal rank."""
        closed = np.ones(self.full_mask + 1, dtype=bool)
        for t in range(self.size):
            without, with_t = _halves(self._ranks, t)
            open_t, _ = _halves(closed, t)
            open_t &= without != with_t
        return np.flatnonzero(closed).tolist()

    def dual_cycles(self):
        """Sets minimal among subsets of their dual nullity, with that nullity.

        Equivalent single-deletion test: every one-element deletion keeps
        the dual rank (so the nullity drops).  One vector test per point
        over all masks; ascending mask order, the empty set first.
        """
        nullity = self._dual_nullities()
        dual = self._pop - nullity
        ok = nullity != 0
        for t in range(self.size):
            without, with_t = _halves(dual, t)
            _, ok_t = _halves(ok, t)
            ok_t &= with_t == without
        ok[0] = True
        masks = np.flatnonzero(ok)
        return list(zip(masks.tolist(), nullity[masks].tolist()))

    def _check_axioms(self):
        """L1, L2 and L3 of the class docstring on every mask; axis a of
        the cube is point N-1-a."""
        if self._ranks[0] != 0:
            raise StructuralError("classical rank of the empty set is not 0")
        N = self.size
        steps = [np.diff(self._ranks.reshape((2,) * N), axis=a) for a in range(N)]
        if any(step.min() < 0 for step in steps):
            raise StructuralError("classical rank not monotone")
        if any(step.max() > 1 for step in steps):
            raise StructuralError("classical rank bound fails: a point adds more than 1")
        for a, step in enumerate(steps):
            for b in range(a + 1, N):
                if np.diff(step, axis=b).max() > 0:
                    raise StructuralError(
                        f"classical submodularity fails on points {N - 1 - a}, {N - 1 - b}")


def verify_lattice_isomorphism(L: CycleLattice) -> dict:
    """Match the cycle lattice against the classical matroid on projective points.

    Checks that flats are exactly the point sets of q-flats, that the
    dual's minimal-in-nullity sets are exactly the flat complements with
    the expected cardinalities, and that mapping node i of ``L``, F^perp for
    the q-flat F = ``L.flat_ids[i]``, to the complement of the points of F
    is a bijection onto them that keeps ``L.nullity`` and ``L.below`` (j is
    below i iff image j lies strictly inside image i).  Any mismatch raises.
    """
    M = L.matroid
    cl = ClassicalMatroid(M)
    n, q = M.n, M.q
    qflats = M.qflats(cap=None)  # the lattice's flats: no cap applies
    masks = [cl._point_masks[cl._index[F]] for F in qflats]
    classical_flats = set(cl.flats())
    if set(masks) != classical_flats:
        raise StructuralError(
            "flats of the classical matroid do not match the q-flats: "
            f"{sorted(classical_flats)} vs {sorted(masks)}"
        )
    grading = [sum(q ** (n - t) for t in range(1, j + 1)) for j in range(n + 1)]
    dual_cycles = {mask: eta for mask, eta in cl.dual_cycles()}
    complements = {cl.full_mask ^ mask for mask in masks}
    if set(dual_cycles) != complements:
        raise StructuralError("dual cycles are not the flat complements")
    for mask, F in zip(masks, qflats):
        card = bin(cl.full_mask ^ mask).count("1")
        if card != grading[n - F.dim]:
            raise StructuralError(
                f"flat complement of dim-{F.dim} q-flat has size {card}, "
                f"expected {grading[n - F.dim]}"
            )
    images = [cl.full_mask ^ masks[f] for f in L.flat_ids]
    for image, eta, dim in zip(images, L.nullity, L.dims):
        if image not in dual_cycles:
            raise StructuralError(
                f"q-cycle image {image:b} is not a classical dual cycle")
        if dual_cycles[image] != eta:
            raise StructuralError(
                f"nullity mismatch on q-cycle of dim {dim}: "
                f"{eta} vs {dual_cycles[image]}"
            )
    if sorted(images) != sorted(dual_cycles):
        raise StructuralError(
            f"{len(images)} q-cycles vs {len(dual_cycles)} classical dual cycles")
    for x, below in zip(images, L.below):
        for j, y in enumerate(images):
            if (j in below) != (x & y == y and x != y):
                raise StructuralError(
                    "inclusion order not preserved by the cycle correspondence")
    return {
        "ok": True,
        "flats": len(masks),
        "cycles": len(images),
        "points": cl.size,
    }


def inclusion_exclusion_poly(M: QMatroid, U: Subspace) -> WeightPolynomial:
    """Weight-polynomial contribution of one subspace via subset alternation.

    Signed sum over all subsets of the projective points of U, exponent
    the dual nullity in the classical matroid of the restriction to U,
    with a global sign fixed by the parity of the point count.  The
    restriction lives on the chart F_q^s of U, so every subspace of one
    dimension shares the ground of F_q^s.  Its axiom check bounds every
    rank by 0 and the full rank, so each nullity indexes the polynomial.
    """
    s = U.dim
    if s == 0:
        return WeightPolynomial([1])
    size = gaussian_binomial(s, 1, M.q)
    _check_ground_size(size)
    if size > _INCLUSION_EXCLUSION_LIMIT:
        raise ResourceLimitError(
            f"{size} points exceed the inclusion-exclusion limit",
            required=size, cap=_INCLUSION_EXCLUSION_LIMIT,
        )
    cl = ClassicalMatroid(M.restrict(U))
    nullity = cl._dual_nullities()
    length = cl.full_rank + 1
    parity = (cl._pop & 1).astype(bool)
    even = np.bincount(nullity[~parity], minlength=length).tolist()
    odd = np.bincount(nullity[parity], minlength=length).tolist()
    global_sign = (-1) ** cl.size
    return WeightPolynomial([global_sign * (e - o) for e, o in zip(even, odd)])
