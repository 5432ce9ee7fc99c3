"""q-Matroids: rank functions on the subspace lattice of F_q^n.

A q-matroid is a pair (F_q^n, rho) where rho is bounded by dimension,
monotone and submodular.  The two sources used here are Gabidulin
rank-metric codes (rho(U) = rank of G Y^T over the extension field) and
the uniform q-matroid rho(X) = min(dim X, k).  Duality, conullity,
q-flats, q-cycles and restriction are all derived from the rank oracle,
which is memoized per canonical subspace; the q-flats and the rank
profile are kept after their first scan.

A code ranks one subspace through ``mat_mul`` and ``mat_rank`` over its
field, the same for every q.  The rank profile reads the ranks off one
``SubspaceTable`` per matroid: the packed RREF rows of every subspace as
arrays, with a rank array per dimension.  One walk over the covers of
that table yields the q-flats, their cover edges and the axiom verdict
with its witness.
A code over F_Q with Q <= ``linalg._TABLE_LIMIT`` (4096), whatever q,
ranks ``CHUNK`` subspaces of a dimension at once, eliminating the images
G y^T of their row sets together through the exp, log and Zech lists
that the scalar arithmetic of F_Q reads too, and U(k, n) fills in
min(d, k); every other rank function fills the int8 arrays through
``rank``, one subspace at a time.  The single-subspace ``rho`` stays the
reference; the tests' ``is_qflat`` (``tests/point_mask.py``) decides a
flat by its line steps.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, partial

import numpy as np

from .errors import InputError, ResourceLimitError
from .fields import FieldTower
from .linalg import (
    _TABLE_LIMIT,
    DEFAULT_SUBSPACE_CAP,
    GF,
    Subspace,
    all_subspaces,
    check_subspace_count,
    enumerate_subspaces,
    exp_log,
    gaussian_binomial,
    mat_mul,
    mat_rank,
    rank_support,
)
from .subspace_table import CHUNK, SubspaceTable


class GabidulinCode:
    """A k-dimensional F_{q^m}-linear code in F_{q^m}^n, given by a generator matrix.

    ``tower`` must contain the designated base level F_q and, one extension
    step above it, the code field F_{q^m}.  The generator matrix must have
    full rank k over F_{q^m}; degenerate inputs are rejected.
    """

    def __init__(self, tower: FieldTower, q_level: int, code_level: int, generator):
        q_level = tower._idx(q_level)
        code_level = tower._idx(code_level)
        if code_level <= q_level:
            raise InputError("code level must lie above the base level")
        self.tower = tower
        self.q_level = q_level
        self.code_level = code_level
        self.gf_q = GF(tower, q_level)
        self.gf_code = GF(tower, code_level)
        self.G = tuple(tuple(int(x) for x in row) for row in generator)
        self.k = len(self.G)
        self.n = len(self.G[0]) if self.G else 0
        if any(len(row) != self.n for row in self.G):
            raise InputError("ragged generator matrix")
        if any(not (0 <= x < self.gf_code.size) for row in self.G for x in row):
            raise InputError("generator entry out of range for the code field")
        if self.k and mat_rank(self.gf_code, self.G) != self.k:
            raise InputError("generator matrix does not have full rank")
        # rank support of the codeword of each message row, filled and read
        # by ``oracle.brute_higher`` across its calls
        self._row_supports: dict = {}

    @property
    def q(self) -> int:
        return self.gf_q.size

    @property
    def m(self) -> int:
        return self.tower.ext_degree(self.code_level, self.q_level)

    @property
    def Q(self) -> int:
        return self.gf_code.size

    @classmethod
    def mrd(cls, tower: FieldTower, q_level: int, code_level: int, anchors, k: int):
        """Gabidulin construction: rows (a_j^{q^i}) for i = 0..k-1.

        The anchors must be linearly independent over F_q and m >= n >= k.
        """
        anchors = tuple(int(a) for a in anchors)
        n = len(anchors)
        m = tower.ext_degree(code_level, q_level)
        if not (k <= n <= m):
            raise InputError(f"MRD construction needs k <= n <= m, got k={k}, n={n}, m={m}")
        gf_q = GF(tower, q_level)
        support = rank_support(tower, code_level, q_level, anchors, gf_q)
        if support.dim != n:
            raise InputError("MRD anchors must be linearly independent over the base field")
        rows = []
        row = anchors
        for _ in range(k):
            rows.append(row)
            row = tuple(
                tower.frobenius(a, code_level, q_level) for a in row
            )
        return cls(tower, q_level, code_level, rows)

    @cached_property
    def _image_tables(self):
        """(phi, exp, log, add) for the batched rank oracle; built on first use.

        phi[y] = G y^T over F_Q for each of the q^n vectors y of F_q^n, at
        its base-q packed row (``SubspaceTable``), as a (q^n, k) array of
        the smallest unsigned dtype that holds F_Q: phi over digit j is
        phi + d G[:, j] for d = 0 .. q - 1, concatenated.  exp and log are
        the lists of ``exp_log`` as arrays, so ab = exp[log a + log b], 0
        when a factor is 0.  log is int16: for Q <= ``_TABLE_LIMIT`` every
        such sum, at most 4Q, stays below 2^15.  add sums arrays, into
        ``out`` when given, as a ufunc would: XOR for p = 2, in place, else
        a (1 + b/a) through the Zech list, zero operands masked, built anew
        and copied into ``out``; that ``out`` only keeps one call for both.
        """
        gf = self.gf_code
        dtype = np.min_scalar_type(gf.size - 1)
        exp, log, zech = map(np.array, exp_log(gf.tower, gf.level), (dtype, np.int16, np.int16))
        add = np.bitwise_xor
        if gf.tower.p > 2:
            def add(a, b, out=None):
                la = log[a]
                ab = exp[la + zech[(log[b] - la) % (gf.size - 1)]]
                ab = np.where(a == 0, b, np.where(b == 0, a, ab))
                if out is None:
                    return ab
                out[...] = ab
                return out
        phi = np.zeros((1, self.k), dtype)
        for column in log[np.array(self.G, np.intp).T]:
            phi = np.concatenate([add(phi, exp[log[d] + column]) for d in range(self.q)])
        return phi, exp, log, add

    def codeword(self, message):
        """Word u . G for a message over the code field (or an extension of it)."""
        gf = self.gf_code
        return mat_mul(gf, (tuple(message),), self.G)[0]

    def qmatroid(self) -> "QMatroid":
        return qmatroid_from_code(self)

    def __repr__(self):
        return f"GabidulinCode(q={self.q}, m={self.m}, n={self.n}, k={self.k})"


class QMatroid:
    """Ambient (n, q) with a memoized rank oracle on canonical subspaces."""

    def __init__(self, gf: GF, n: int, rank_fn, name: str = ""):
        self.gf = gf
        self.n = n
        self.q = gf.size
        self._rank_fn = rank_fn
        self._memo: dict[Subspace, int] = {}
        self._flats: tuple[Subspace, ...] | None = None
        # (checked, flats, covers, failure) of ``SubspaceTable.cover_walk``;
        # covers None when the checked walk failed
        self._walk = None
        self._profile: Counter | None = None
        # ranks of an (N, d) array of packed RREF rows, when the source
        # has a batched form; and the ranked subspace table
        self._rank_rows = None
        self._table = None
        # True when the source is a q-matroid by theorem (codes, U(k, n))
        self._qmatroid_by_theorem = False
        self.name = name

    # -- rank and derived functions ------------------------------------

    def rank(self, X: Subspace) -> int:
        value = self._memo.get(X)
        if value is None:
            value = self._rank_fn(X)
            self._memo[X] = value
        return value

    @property
    def full_space(self) -> Subspace:
        return Subspace.full(self.gf, self.n)

    @property
    def full_rank(self) -> int:
        return self.rank(self.full_space)

    def nullity(self, X: Subspace) -> int:
        return X.dim - self.rank(X)

    def dual_rank(self, X: Subspace) -> int:
        return X.dim + self.rank(X.complement()) - self.full_rank

    def conullity(self, X: Subspace) -> int:
        """dim X - rho*(X) = rho(E) - rho(X^perp); dim of the subcode inside X."""
        return self.full_rank - self.rank(X.complement())

    def dual(self) -> "QMatroid":
        return QMatroid(self.gf, self.n, self.dual_rank, name=f"dual({self.name})")

    # -- flats and cycles ------------------------------------------------

    def _check_cover_count(self, cap: int | None) -> None:
        """Raise ResourceLimitError when the covers of all subspaces exceed cap.

        The cover walk visits the [n - s, 1]_q covers of each s-subspace,
        so the subspace cap bounds them before any enumeration starts.
        """
        if cap is None:
            return
        n, q = self.n, self.q
        covers = sum(gaussian_binomial(n, s, q) * gaussian_binomial(n - s, 1, q)
                     for s in range(n))
        if covers > cap:
            raise ResourceLimitError(
                f"{covers} covers over all subspaces exceed cap {cap}",
                required=covers, cap=cap,
            )

    def _ranked_table(self, cap: int | None):
        """The subspace table and a rank array per dimension; built once.

        The ranks are int8.  They come from ``_rank_rows`` on slices of
        ``CHUNK`` rows when the source has it (a code over at most
        ``_TABLE_LIMIT`` elements, U(k, n)), which bounds its temporaries,
        else from ``rank`` one subspace at a time: a code over a larger
        field, and the rank functions built on ``Subspace`` (``dual``,
        ``restrict``, matroids built from a bare rank function).  The caps
        are checked on every call, as an enumeration would check them.
        """
        for s in range(self.n + 1):
            check_subspace_count(self.n, s, self.q, cap)
        if self._table is None:
            table, ranks = SubspaceTable(self.gf, self.n), []
            for s, rows in enumerate(table.rows):
                if self._rank_rows is None:
                    rank = np.fromiter(map(self.rank, table.subspaces(s)), np.int8, len(rows))
                else:
                    rank = np.empty(len(rows), np.int8)
                    for i in range(0, len(rows), CHUNK):
                        rank[i:i + CHUNK] = self._rank_rows(rows[i:i + CHUNK])
                ranks.append(rank)
            self._table = table, ranks
        return self._table

    def _cover_walk(self, cap: int | None, check: bool):
        """(checked, flats, covers, failure) of ``SubspaceTable.cover_walk``;
        walked once per matroid, and again only to check an unchecked result.

        The covers, which bound the subspaces of every dimension, are
        counted against ``cap`` on every call.
        """
        self._check_cover_count(cap)
        if self._walk is None or check and not self._walk[0]:
            table, ranks = self._ranked_table(cap)
            self._walk = check, *table.cover_walk(ranks, check)
        return self._walk

    def qflats(self, cap: int | None = DEFAULT_SUBSPACE_CAP):
        """All q-flats by increasing (dimension, basis) as ``Subspace``
        objects; formed once, for the oracles and the tests, from the table
        positions of ``flat_covers``.  Their ranks stay out of the memo,
        which holds only what the rank function returned."""
        if self._flats is None:
            flats, _, _ = self.flat_covers(cap)
            table = self._table[0]
            self._flats = tuple(X for s, index in enumerate(flats)
                                for X in table.subspaces(s, index))
        return self._flats

    def flat_covers(self, cap: int | None = DEFAULT_SUBSPACE_CAP):
        """(flats, ranks, covers): per dimension, the table indices of the
        q-flats and their ranks, and for each flat, numbered by dimension
        and then index, the ids of the flats that cover it.

        The covers of the walk are counted against ``cap`` first.  X is a
        flat iff each cover of X has a rank other than rho(X), which is
        ``is_qflat`` of ``tests/point_mask.py``.  The walk is that of
        ``verify_axioms`` when it has run; else a new one, checked unless
        the source is a q-matroid by theorem.  The covering flats are the distinct closures cl(F + v),
        read off its pointers (``SubspaceTable.cover_walk``).  Those are
        closures only on a q-matroid, so covers is None if the walk was
        checked and failed.
        """
        _, flats, covers, _ = self._cover_walk(cap, check=not self._qmatroid_by_theorem)
        ranks = self._table[1]
        return flats, [rank[index] for rank, index in zip(ranks, flats)], covers

    def rank_profile(self, cap: int | None = DEFAULT_SUBSPACE_CAP) -> Counter:
        """c(d, r): the number of subspaces of dimension d and rank r; counted
        once, then kept, over the rank arrays of the subspace table."""
        if self._profile is None:
            self._profile = SubspaceTable.profile(self._ranked_table(cap)[1])
        return self._profile

    def is_qcycle(self, X: Subspace) -> bool:
        """Minimal among subspaces of its nullity.

        Nullity drops by at most one per codimension step, so X is minimal
        iff every codimension-1 subspace of X has the same rank as X (for
        nullity 0 only the zero subspace qualifies).
        """
        eta = self.nullity(X)
        if eta == 0:
            return X.dim == 0
        rX = self.rank(X)
        for hyper in enumerate_subspaces(self.gf, self.n, X.dim - 1, ambient=X, cap=None):
            if self.rank(hyper) != rX:
                return False
        return True

    def qcycles(self, cap: int | None = DEFAULT_SUBSPACE_CAP):
        """All q-cycles with their nullities, by increasing (dimension, basis).

        The reference definition: the pipeline reads the q-cycles of M* off
        ``qflats`` of M instead.
        """
        out = []
        for X in all_subspaces(self.gf, self.n, cap=cap):
            if self.is_qcycle(X):
                out.append((X, self.nullity(X)))
        return out

    # -- restriction ----------------------------------------------------

    def restrict(self, U: Subspace) -> "QMatroid":
        """q-Matroid on the chart of U whose conullity agrees with this one.

        The chart is the RREF basis of U; conullity (and hence every
        downstream lattice quantity) is chart-independent.  The rank is the
        double dual within the chart, in closed form.  Write U(V) for the
        embedding of a chart subspace V and s = dim U.  Conullity pins the
        dual rank, rho*_U(V) = dim V - rho(E) + rho(U(V)^perp), and

            rho_U(W) = dim W + rho*_U(W^perp) - rho*_U(chart),

        with W^perp taken in the chart.  The embedded whole chart is U, so
        rho*_U(chart) = s - rho(E) + rho(U^perp); expanding both terms,
        dim W, s and rho(E) cancel:

            rho_U(W) = rho(U(W^perp)^perp) - rho(U^perp).

        That subspace is formed with one sum.  Let B be the RREF basis, P
        its pivot columns, and phi(x) = B x^T, a map from F_q^n onto F_q^s
        with kernel U^perp.  For v in the chart, (v B) . x = v . phi(x), so
        U(V)^perp = phi^-1(V^perp) and U(W^perp)^perp = phi^-1(W).  Let
        iota_P place the chart coordinates at the columns P; B is the
        identity on those columns, so phi(iota_P(w)) = w, and

            phi^-1(W) = U^perp + iota_P(W).

        iota_P keeps the pivot order and the zeros in the pivot columns, so
        it maps the RREF of W to an RREF.  rho(U^perp) is ranked once, here.
        The zero span needs no sum: rho_U(0) = rho(U^perp) - rho(U^perp) = 0.
        """
        perp = U.complement()
        offset = self.rank(perp)
        gf, n, P = self.gf, self.n, U.pivots

        def placed(w):
            vec = [0] * n
            for p, x in zip(P, w):
                vec[p] = x
            return gf.pack_row(vec)

        def rho(W: Subspace) -> int:
            if W.dim == 0:
                return 0
            image = Subspace(gf, n, tuple(map(placed, W.coordinate_rows())),
                             tuple(P[j] for j in W.pivots))
            return self.rank(perp.sum(image)) - offset

        return QMatroid(self.gf, U.dim, rho, name=f"{self.name}|U")

    # -- axiom verification ---------------------------------------------

    def verify_axioms(self, cap: int | None = DEFAULT_SUBSPACE_CAP) -> dict:
        """Check (P1)-(P3) with the checked walk of ``SubspaceTable.cover_walk``.

        The covers are counted against ``cap`` first.  The walk checks (P1)
        on every subspace, then, from dimension n - 1 down, that each step
        d = rho(X + v) - rho(X) over a cover X + v lies in {0, 1}, and that
        ptr[X + v] = ptr[X] on every cover with d = 0, ptr[X] being X when
        there is none and else ptr of the first.  Its flats and cover edges
        are kept on the matroid for ``qflats`` and ``flat_covers``.  A
        step-0 line L of X is a line outside X with rho(X + L) = rho(X);
        cl X is the sum of X and its step-0 lines.

        The walk accepts exactly the q-matroids:

        - On a q-matroid (P1) holds, and (P2) and (P3) on (X, L) with
          rho(L) <= 1 give d in {0, 1}.  cl X is the closure of X, the
          largest subspace over X of rank rho(X) (Byrne, Ceria and
          Jurrius, "Constructions of new q-cryptomorphisms", JCTB 2022).
          For a step-0 cover X + v, cl X and cl(X + v) both contain X + v
          and have rank rho(X), so they are equal.  By induction from the
          top ptr[X] = cl X, as a subspace with no step-0 cover is a flat
          and points to itself, and the pointer checks pass.
        - If the walk accepts, steps >= 0 on every cover give (P2) along
          chains of covers.  By induction from the top ptr[X] contains X
          and, through a chain of step-0 covers, has the rank of X; each
          step-0 line L of X lies in X + L <= ptr[X + L] = ptr[X], so
          rho(X) <= rho(cl X) <= rho(ptr[X]) = rho(X).  That and steps <= 1
          give diminishing returns: for A <= B and a line x not in B, a step
          0 at A stays 0 at B.  Induct over one line y at a time: if y is a
          step 0 at A, then A + x + y <= cl A; otherwise rho(A + y) <=
          rho(A + x + y) <= rho(A + x) + 1.  Summing steps along matched
          chains (A meet B -> A and B -> A + B) gives (P3).

        Every witness of a failure is genuine:

        - (P1) is checked on every dimension before any step is judged, so
          rho(0) = 0 and rho(L) <= 1 on every line L when one is.
        - A step d < 0 at a cover X + v breaks (P2) on (X, X + v).
        - A step d > 1 breaks (P3) on (X, L), L the line of v: v is a
          reduced RREF row, the table row of L, and X meet L = 0, so
          rho(X + L) + 0 > rho(X) + 1 >= rho(X) + rho(L).
        - A step-0 cover B = X + v whose pointer differs from that of the
          first step-0 cover A breaks (P3) on (A, B).  Every dimension
          above X passed its checks, so if rho(A + B) = r = rho(X), A + B
          would be a step-0 cover of both A and B, and ptr[A] =
          ptr[A + B] = ptr[B].  Hence rho(A + B) = r + 1, while A meet B
          = X, and 2r + 1 > 2r.

        Returns {"ok": bool, "violation": None or a dict}, the violation
        {"axiom", "X", "Y"} or {"axiom": "P1", "X", "rank"}, subspaces
        serialized.
        """
        failure = self._cover_walk(cap, check=True)[3]
        if failure is None:
            return {"ok": True, "violation": None}
        table, ranks = self._table
        (s, i), Y = failure["X"], failure.get("Y")
        violation = {"axiom": failure["axiom"], "X": next(table.subspaces(s, [i])).serialize()}
        if Y is None:
            violation["rank"] = int(ranks[s][i])
        else:
            violation["Y"] = next(table.subspaces(Y[0], [Y[1]])).serialize()
        return {"ok": False, "violation": violation}


def qmatroid_from_code(code: GabidulinCode) -> QMatroid:
    """rho(U) = rank over F_{q^m} of G Y^T, Y the RREF basis of U.

    Base-field encodings embed into the code field unchanged, so the
    coordinate rows of U are read as rows over F_{q^m}.  A code over at
    most ``_TABLE_LIMIT`` elements also ranks arrays of subspaces at once,
    through ``_code_rank_rows``, whatever q.
    """
    gf_code, G = code.gf_code, code.G

    def rho(U: Subspace) -> int:
        if U.dim == 0:
            return 0
        return mat_rank(gf_code, mat_mul(gf_code, G, tuple(zip(*U.coordinate_rows()))))

    M = QMatroid(code.gf_q, code.n, rho, name="code")
    M._qmatroid_by_theorem = True
    if code.Q <= _TABLE_LIMIT:
        M._rank_rows = partial(_code_rank_rows, code)
    return M


def _code_rank_rows(code: GabidulinCode, rows: np.ndarray) -> np.ndarray:
    """rho for an (N, d) array of base-q packed RREF rows, as int8.

    The d images phi[y] of each row set form a d x k matrix over F_Q with
    the rank of G Y^T; all N are eliminated at once, one pass per column:
    the first unused row with a nonzero entry there is the pivot, and every
    row adds its multiple of it, the factor -entry / pivot being
    exp[log entry + (half - log pivot) mod (Q - 1)] with g^half = -1, one
    column at a time.  That zeroes the pivot row, which, like the earlier
    pivots, is never read again.
    """
    phi, exp, log, add = code._image_tables
    images = phi[rows]
    count, d, k = images.shape
    rank = np.zeros(count, np.int8)
    if d == 0:
        return rank
    unused = np.ones((count, d), bool)
    at = np.arange(count)
    zero, half = log[0], log[code.tower.p - 1]  # -1 is encoded p - 1
    for c in range(k):
        column = images[:, :, c]
        pivot = (unused & (column != 0)).argmax(axis=1)
        found = unused[at, pivot] & (column[at, pivot] != 0)
        unused[at[found], pivot[found]] = False
        # the pivot row and the factors as logs
        prow = log[images[at, pivot, c:]]
        factor = log[column] + (half - prow[:, :1]) % (code.Q - 1)
        factor = log[exp[np.where(found[:, None], factor, zero)]]
        for j in range(c, k):
            add(images[:, :, j], exp[factor + prow[:, j - c, None]], out=images[:, :, j])
        rank += found
    return rank


def uniform_qmatroid(k: int, n: int, q: int) -> QMatroid:
    """U(k, n): rho(X) = min(dim X, k)."""
    if not (0 <= k <= n):
        raise InputError(f"uniform q-matroid needs 0 <= k <= n, got k={k}, n={n}")
    gf = GF.of_order(q)
    M = QMatroid(gf, n, lambda X: min(X.dim, k), name=f"U({k},{n})")
    M._rank_rows = lambda rows: np.full(len(rows), min(rows.shape[1], k), np.int8)
    M._qmatroid_by_theorem = True
    return M
