"""Brute-force ground truth, independent of the lattice pipeline.

Everything here recomputes spectra and structure from first principles:
codeword enumeration over extension fields, subcode enumeration, the
classical matroid on projective points, and a subset inclusion-exclusion
form of the weight polynomial.  The oracles share only the field and
linear-algebra layers with the fast pipeline, on purpose, apart from the
cycle lattice that ``verify_lattice_isomorphism`` is given to check.
"""

from __future__ import annotations

import random
from itertools import product

import numpy as np

from . import _kernels
from .errors import InputError, ResourceLimitError, StructuralError
from .lattice import CycleLattice
from .linalg import (
    _TABLE_LIMIT,
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

# ``brute_higher`` expands message rows through ``mat_mul`` and
# ``rank_support``: about 45-50 us a row on the tables of a field of at
# most ``_TABLE_LIMIT`` elements, about 1 ms on tower arithmetic above it.
# The rows are bounded on their own, to about 15 s on either: a k = 3 code
# over F_512 has 262,657 and runs, one over F_1024 has 1,049,601 (about
# 50 s).  Its subcodes are under the subspace cap.
_TABLE_ROW_LIMIT = 3 * 10**5
_TOWER_ROW_LIMIT = 10**4


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
    if k == 0:
        return [1] + [0] * n
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
    and kept on the code.  The rows are counted before any is expanded,
    against ``_TABLE_ROW_LIMIT``, or ``_TOWER_ROW_LIMIT`` over a field past
    ``_TABLE_LIMIT``: at most [k, 1]_Q messages with a leading 1, and at
    most i per subcode.
    """
    if not (0 <= i <= code.k):
        raise InputError(f"subcode dimension {i} out of range")
    n = code.n
    if i == 0:
        return [1] + [0] * n
    arithmetic, limit = (("tower", _TOWER_ROW_LIMIT) if code.Q > _TABLE_LIMIT
                         else ("table", _TABLE_ROW_LIMIT))
    rows = min(gaussian_binomial(code.k, 1, code.Q), i * gaussian_binomial(code.k, i, code.Q))
    if rows > limit:
        raise ResourceLimitError(
            f"{rows} message rows on {arithmetic} arithmetic exceed the limit {limit}",
            required=rows, cap=limit)
    supports = code._row_supports
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


class ClassicalMatroid:
    """Matroid on the projective points of the ambient space of a q-matroid.

    Ground set: the one-dimensional subspaces in enumeration order, as
    bitmask positions; rank of a point set = q-matroid rank of its span.

    The rank of every point set is built once, as an int8 array over all
    2^N masks, by giving each distinct span an id.  Mask 0 has the zero
    span, id 0.  A mask below 2^(t+1) with bit t set is m + 2^t for some
    m < 2^t, and its span is span(m) + P_t, so

        ids[2^t : 2^(t+1)] = lut_t[ids[:2^t]],  lut_t[u] = id(spans[u] + P_t).

    The spans known before step t are exactly the spans of the subsets of
    points 0..t-1, the masks below 2^t, so lut_t ranges over them alone.
    This costs at most (#subspaces x N) ``Subspace.sum`` calls and one
    ``M.rank`` per distinct nonzero span, instead of one sum per mask.
    Popcounts come from the same doubling.  Every read below (rank, dual
    rank, closure, flats, dual cycles) is an array operation or a lookup
    on these two arrays.

    The oracle stays independent of the q-flat scan and of the subspace
    table: it reads only the points of ``enumerate_subspaces(..., 1)``,
    ``Subspace.sum`` and ``M.rank``, and builds flats and cycles from the
    classical definitions.
    """

    def __init__(self, M: QMatroid, seed: int = 0):
        size = gaussian_binomial(M.n, 1, M.q)
        _check_ground_size(size)
        self.M = M
        self.points = list(enumerate_subspaces(M.gf, M.n, 1, cap=None))
        self.size = size
        self.full_mask = (1 << size) - 1
        spans = [Subspace.zero(M.gf, M.n)]
        index = {spans[0]: 0}
        span_ranks = [0]
        ids = np.zeros(1 << size, dtype=np.int32)
        pop = np.zeros(1 << size, dtype=np.int8)
        for t, P in enumerate(self.points):
            lut = np.empty(len(spans), dtype=np.int32)
            for u in range(len(spans)):
                S = spans[u]
                T = S.sum(P)
                if T is S:
                    lut[u] = u
                    continue
                v = index.get(T)
                if v is None:
                    v = index[T] = len(spans)
                    spans.append(T)
                    span_ranks.append(M.rank(T))
                lut[u] = v
            low = 1 << t
            ids[low:2 * low] = lut[ids[:low]]
            pop[low:2 * low] = pop[:low] + 1
        self._ranks = np.array(span_ranks, dtype=np.int8)[ids]
        self._pop = pop
        self.full_rank = int(self._ranks[-1])
        self._spot_check_axioms(seed)

    def rank(self, mask: int) -> int:
        return int(self._ranks[mask])

    def _dual_nullities(self) -> np.ndarray:
        """Dual nullity of every mask: |m| - rho*(m) = rho(E) - rho(E - m)."""
        return self.full_rank - self._ranks[::-1]

    def closure(self, mask: int) -> int:
        ranks = self._ranks
        r = ranks[mask]
        out = mask
        for t in range(self.size):
            if not (mask >> t & 1) and ranks[mask | 1 << t] == r:
                out |= 1 << t
        return out

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

    def _spot_check_axioms(self, seed: int, pairs: int = 256):
        """Rank bound, monotonicity and submodularity on ordered mask pairs:
        every pair when there are at most ``pairs`` of them (up to 4 points,
        so every plane over F_2 or F_3), else ``pairs`` seeded draws."""
        ranks = self._ranks.tolist()
        masks = self.full_mask + 1
        if masks * masks <= pairs:
            draws = product(range(masks), repeat=2)
        else:
            rng = random.Random(seed)
            draws = ((rng.randrange(masks), rng.randrange(masks)) for _ in range(pairs))
        for A, B in draws:
            rA, rB = ranks[A], ranks[B]
            if not (0 <= rA <= bin(A).count("1")):
                raise StructuralError(f"classical rank bound fails on {A:b}")
            if ranks[A | B] < max(rA, rB):
                raise StructuralError("classical rank not monotone")
            if ranks[A | B] + ranks[A & B] > rA + rB:
                raise StructuralError(
                    f"classical submodularity fails on {A:b}, {B:b}")


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
    point_index = {P: t for t, P in enumerate(cl.points)}

    def point_mask(X: Subspace) -> int:
        mask = 0
        for P, t in point_index.items():
            if X.contains(P):
                mask |= 1 << t
        return mask

    qflats = M.qflats(cap=None)  # the lattice's flats: no cap applies
    masks = [point_mask(F) for F in qflats]
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


def inclusion_exclusion_poly(M: QMatroid, U: Subspace,
                             max_points: int = 15) -> WeightPolynomial:
    """Weight-polynomial contribution of one subspace via subset alternation.

    Signed sum over all subsets of the projective points of U, exponent
    the dual nullity in the classical matroid of the restriction to U,
    with a global sign fixed by the parity of the point count.
    """
    s = U.dim
    if s == 0:
        return WeightPolynomial([1])
    size = gaussian_binomial(s, 1, M.q)
    _check_ground_size(size)
    if size > max_points:
        raise ResourceLimitError(
            f"{size} points exceed the inclusion-exclusion limit",
            required=size, cap=max_points,
        )
    cl = ClassicalMatroid(M.restrict(U))
    nullity = cl._dual_nullities()
    length = cl.full_rank + 1
    if nullity.min() < 0 or nullity.max() >= length:
        raise StructuralError("classical rank outside [0, full rank]")
    parity = (cl._pop & 1).astype(bool)
    even = np.bincount(nullity[~parity], minlength=length).tolist()
    odd = np.bincount(nullity[parity], minlength=length).tolist()
    global_sign = (-1) ** cl.size
    return WeightPolynomial([global_sign * (e - o) for e, o in zip(even, odd)])
