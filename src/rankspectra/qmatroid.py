"""q-Matroids: rank functions on the subspace lattice of F_q^n.

A q-matroid is a pair (F_q^n, rho) where rho is bounded by dimension,
monotone and submodular.  The two sources used here are Gabidulin
rank-metric codes (rho(U) = rank of G Y^T over the extension field) and
the uniform q-matroid rho(X) = min(dim X, k).  Duality, conullity,
q-flats, q-cycles and restriction are all derived from the rank oracle,
which is memoized per canonical subspace; the lines of F_q^n, the
q-flats and the rank profile are kept after their first scan.

A code ranks one subspace through ``mat_mul`` and ``mat_rank`` over its
field, the same for every q.  The rank profile reads the ranks off one
``SubspaceTable`` per matroid: the packed RREF rows of every subspace as
arrays, with a rank array per dimension.  One walk over the covers of
that table yields the q-flats, their cover edges and the axiom verdict.
A binary code over F_Q with Q <= 4096 ranks a whole dimension at once,
eliminating the images G y^T of all its row sets together through the
exp/log tables of F_Q, and U(k, n) fills in min(d, k); every other rank
function fills the arrays through ``rank``, one subspace at a time.  The
line steps of ``is_qflat``, the scalar axiom walk, which also finds the
witness of a failure, and the single-subspace ``rho`` stay the reference.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, partial

import numpy as np

from .errors import InputError, ResourceLimitError, StructuralError
from .fields import FieldTower
from .linalg import (
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
from .subspace_table import SubspaceTable

# largest binary code field whose q-matroid ranks whole arrays of subspaces
_BATCH_LIMIT = 4096


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
        """(phi, exp, log) for the batched F_2 rank oracle; built on first use.

        phi[y] = G y^T over F_Q for each of the 2^n vectors y of F_2^n, as
        a (2^n, k) array of the smallest unsigned dtype that holds F_Q:
        phi[y + 2^j] = phi[y] XOR column j, one XOR per entry.  With g the
        primitive element of ``exp_log``, ab = exp[log a + log b]: exp holds
        g^0 .. g^(Q-2) twice and then zeros, 4Q + 1 entries in all, and
        log[0] = 2Q points into the zeros, so a product with a zero factor
        reads 0 (log a + log b lies in [2Q, 4Q]).  log is int16: for
        Q <= ``_BATCH_LIMIT`` every such sum stays below 2^15.
        """
        gf = self.gf_code
        Q = gf.size
        dtype = np.min_scalar_type(Q - 1)
        exp, log = exp_log(gf.tower, gf.level)
        exp = np.array(exp + exp + [0] * (2 * Q + 3), dtype)
        log = np.array(log, np.int16)
        log[0] = 2 * Q
        phi = np.zeros((1, self.k), dtype)
        for column in np.array(self.G, dtype).T:
            phi = np.concatenate([phi, phi ^ column])
        return phi, exp, log

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
        # (checked, flats, covers) of ``SubspaceTable.cover_walk``; covers
        # None when the checked walk failed and the flats are unchecked
        self._walk = None
        self._profile: Counter | None = None
        self._lines: tuple[Subspace, ...] | None = None
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

    # -- line steps, flats and cycles ----------------------------------

    def lines(self) -> tuple[Subspace, ...]:
        """The one-dimensional subspaces of F_q^n in enumeration order; built once."""
        if self._lines is None:
            self._lines = tuple(enumerate_subspaces(self.gf, self.n, 1, cap=None))
        return self._lines

    def _steps(self, X: Subspace):
        """Yield (L, X + L, rho(X + L) - rho(X)) for each line L outside X.

        X + L depends only on the line spanned by L reduced modulo X (the
        reduction is linear and zero at the pivots of X), so each
        cover X + L is built and ranked once, keyed by that reduced row
        scaled to a leading 1.
        """
        rX = self.rank(X)
        reduce, lead = X.gf.reduce_row, X.gf.lead_row
        rows, pivots = X.rows, X.pivots
        covers = {}
        for L in self.lines():
            col, v = lead(reduce(rows, pivots, L.rows[0]))
            if col < 0:
                continue
            cover = covers.get(v)
            if cover is None:
                XL = X.sum(L)
                covers[v] = cover = (XL, self.rank(XL) - rX)
            yield L, *cover

    def _check_step_count(self, cap: int | None, lines: bool = False) -> None:
        """Raise ResourceLimitError when the covers of all subspaces exceed cap.

        The cover walk visits the [n - s, 1]_q covers of each s-subspace,
        so the subspace cap bounds them before any enumeration starts.
        With ``lines`` it bounds instead the steps X -> X + L of
        ``_axiom_walk``, one per subspace X and line L.
        """
        if cap is None:
            return
        n, q = self.n, self.q
        if lines:
            steps, unit = gaussian_binomial(n, 1, q) * sum(
                gaussian_binomial(n, s, q) for s in range(n + 1)), "line steps"
        else:
            steps, unit = sum(gaussian_binomial(n, s, q) * gaussian_binomial(n - s, 1, q)
                              for s in range(n)), "covers"
        if steps > cap:
            raise ResourceLimitError(
                f"{steps} {unit} over all subspaces exceed cap {cap}",
                required=steps, cap=cap,
            )

    def is_qflat(self, F: Subspace) -> bool:
        """True iff adjoining any outside line changes the rank."""
        return all(step for _, _, step in self._steps(F))

    def _ranked_table(self, cap: int | None):
        """The subspace table and a rank array per dimension; built once.

        The ranks come from ``_rank_rows`` when the source has it, else
        from ``rank`` one subspace at a time.  The caps are checked on
        every call, as an enumeration would check them.
        """
        for s in range(self.n + 1):
            check_subspace_count(self.n, s, self.q, cap)
        if self._table is None:
            table = SubspaceTable(self.gf, self.n)
            if self._rank_rows is not None:
                ranks = [self._rank_rows(rows) for rows in table.rows]
            else:
                ranks = [np.array([self.rank(X) for X in table.subspaces(s)], np.int64)
                         for s in range(self.n + 1)]
            self._table = table, ranks
        return self._table

    def _cover_walk(self, cap: int | None, check: bool):
        """(checked, flats, covers) of ``SubspaceTable.cover_walk``; walked
        once per matroid, and again only to check an unchecked result.

        When the checked walk fails, covers is None and the flats come
        from an unchecked walk.
        """
        if self._walk is None or check and not self._walk[0]:
            table, ranks = self._ranked_table(cap)
            walk = table.cover_walk(ranks, check)
            if walk is None:
                walk = table.cover_walk(ranks)[0], None
            self._walk = check, *walk
        return self._walk

    def qflats(self, cap: int | None = DEFAULT_SUBSPACE_CAP):
        """All q-flats by increasing (dimension, basis); found once, then kept.

        The covers of the walk are counted against ``cap`` first.  The
        flats are read off the ranked subspace table: X is a flat iff each
        cover of X has a rank other than rho(X), which is ``is_qflat``.
        They come from the cover walk of ``verify_axioms`` when it has run;
        else from a new walk, checked unless the source is a q-matroid by
        theorem, so that its cover edges are closures for ``flat_covers``.
        Only the flats become ``Subspace`` objects, and their ranks go into
        the memo.
        """
        if self._flats is None:
            self._check_step_count(cap)
            table, ranks = self._ranked_table(cap)
            walk = self._cover_walk(cap, check=not self._qmatroid_by_theorem)
            flats = []
            for s, index in enumerate(walk[1]):
                for X, r in zip(table.subspaces(s, index), ranks[s][index].tolist()):
                    self._memo[X] = r
                    flats.append(X)
            self._flats = tuple(flats)
        return self._flats

    def flat_covers(self, cap: int | None = DEFAULT_SUBSPACE_CAP) -> list[list[int]]:
        """For each q-flat by its index in ``qflats``, the indices of the
        q-flats that cover it.

        These are the distinct closures cl(F + v) of the covers of F, read
        off the pointers of the walk that found the flats
        (``SubspaceTable.cover_walk``).  Those pointers are closures only on
        a q-matroid, so StructuralError is raised if the walk was checked
        and failed.
        """
        self.qflats(cap)
        covers = self._walk[2]
        if covers is None:
            raise StructuralError("the rank function fails the q-matroid axioms")
        return covers

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

            rho_U(W) = rho(U(W^perp)^perp) - rho(U^perp),

        and rho(U^perp) is ranked once, here.
        """
        offset = self.rank(U.complement())

        def rho(W: Subspace) -> int:
            return self.rank(U.embed_subspace(W.complement()).complement()) - offset

        return QMatroid(self.gf, U.dim, rho, name=f"{self.name}|U")

    # -- axiom verification ---------------------------------------------

    def verify_axioms(self, cap: int | None = DEFAULT_SUBSPACE_CAP) -> dict:
        """Check (P1) on all subspaces and (P2), (P3) on line steps.

        For every X, each step X -> X + L over a line L outside X must
        raise the rank by 0 or 1, and the closure cl X, grown from X one
        step-0 line at a time (S -> T = S + L), must keep the rank of X.
        Witnesses: step < 0 gives P2 (X, X + L); step > 1 gives P3 (X, L),
        as X meet L = 0; rho(T) < rho(X) gives P2 (S, T); rho(T) > rho(X)
        gives P3 (S, X + L), whose meet is X since L is not in S.

        Given (P1) this accepts exactly the q-matroids.  P1-P3 imply steps
        in {0, 1} and rho(cl X) = rho(X) (P3 on (S, X + L)).  Conversely,
        steps >= 0 give P2 along chains of lines, and steps <= 1 with
        rho(cl X) = rho(X) give diminishing returns: for A <= B and a line
        x not in B, a step 0 at A stays 0 at B.  Induct over one line y at
        a time: if y is a step 0 at A, then A + x + y <= cl A; otherwise
        rho(A + y) <= rho(A + x + y) <= rho(A + x) + 1.  Summing steps
        along matched chains (A meet B -> A and B -> A + B) gives P3.

        The line walk above runs only when the checked cover walk of
        ``SubspaceTable.cover_walk`` over the ranked table fails, so that
        it reports its witness; the cover walk decides, and its flats and
        cover edges are kept on the matroid for ``qflats`` and
        ``flat_covers``.  Its checks are (P1), steps in {0, 1} on every
        cover X + v, and ptr[X + v] = ptr[X] on every cover with step 0,
        ptr[X] being X when there is none and else ptr of the first.  By
        induction from the top, ptr[X] contains X and, through a chain of
        step-0 covers, has the rank of X.  The cover walk accepts exactly
        when the line walk does:

        - If the line walk accepts, M is a q-matroid and cl is its closure
          operator (Byrne, Ceria and Jurrius, "Constructions of new
          q-cryptomorphisms", JCTB 2022).  For a step-0 cover X + v,
          cl(X + v) = cl X: by diminishing returns each step-0 line of X
          is a step-0 line of X + v or lies in X + v, so cl X <= cl(X + v);
          and cl(X + v) has rank rho(X + v) = rho(X), so by monotonicity
          each of its lines is a step 0 at X or lies in X, so
          cl(X + v) <= cl X.  By induction from the top ptr[X] = cl X, as
          a subspace with no step-0 cover is a flat and points to itself,
          and the closure test passes.
        - If the cover walk accepts, each step-0 line L of X lies in X + L <=
          ptr[X + L] = ptr[X], so every S and T of the fold lies between X
          and ptr[X].  Steps >= 0 on every cover make rho monotone, so
          rho(X) <= rho(T) <= rho(ptr[X]) = rho(X), and the line walk
          accepts.

        The covers are counted against ``cap`` before any enumeration, and
        the line steps before the line walk starts.

        Returns {"ok": bool, "violation": description-or-None}.
        """
        self._check_step_count(cap)
        if self._cover_walk(cap, check=True)[2] is not None:
            return {"ok": True, "violation": None}
        return self._axiom_walk(cap)

    def _axiom_walk(self, cap: int | None) -> dict:
        """The scalar line walk of ``verify_axioms`` over ``Subspace`` objects.

        Its line steps are counted against ``cap`` first.  It reads the
        ranks of the table, whose rows follow the order of
        ``all_subspaces``, so it judges the ranks the cover walk judged.
        """
        self._check_step_count(cap, lines=True)
        ranks = np.concatenate(self._ranked_table(cap)[1]).tolist()
        subs = list(all_subspaces(self.gf, self.n, cap=cap))
        self._memo.update(zip(subs, ranks, strict=True))
        for X in subs:
            r = self.rank(X)
            if not (0 <= r <= X.dim):
                return {"ok": False, "violation": {
                    "axiom": "P1", "X": X.serialize(), "rank": r}}

        def violation(axiom, X, Y):
            return {"ok": False, "violation": {
                "axiom": axiom, "X": X.serialize(), "Y": Y.serialize()}}

        for X in subs:
            rX = self.rank(X)
            zero_steps = []
            for L, XL, step in self._steps(X):
                if step < 0:
                    return violation("P2", X, XL)
                if step > 1:
                    return violation("P3", X, L)
                if step == 0:
                    zero_steps.append((L, XL))
            S = X
            for L, XL in zero_steps:
                T = S.sum(L)
                if T is S:  # L already lies in S
                    continue
                rT = self.rank(T)
                if rT < rX:
                    return violation("P2", S, T)
                if rT > rX:
                    return violation("P3", S, XL)
                S = T
        return {"ok": True, "violation": None}


def qmatroid_from_code(code: GabidulinCode) -> QMatroid:
    """rho(U) = rank over F_{q^m} of G Y^T, Y the RREF basis of U.

    Base-field encodings embed into the code field unchanged, so the
    coordinate rows of U are read as rows over F_{q^m}.  A binary code over
    at most ``_BATCH_LIMIT`` elements also ranks arrays of subspaces at
    once, through ``_code_rank_rows``.
    """
    gf_code, G = code.gf_code, code.G

    def rho(U: Subspace) -> int:
        if U.dim == 0:
            return 0
        return mat_rank(gf_code, mat_mul(gf_code, G, tuple(zip(*U.coordinate_rows()))))

    M = QMatroid(code.gf_q, code.n, rho, name="code")
    M._qmatroid_by_theorem = True
    if M.q == 2 and code.Q <= _BATCH_LIMIT:
        M._rank_rows = partial(_code_rank_rows, code)
    return M


def _code_rank_rows(code: GabidulinCode, rows: np.ndarray) -> np.ndarray:
    """rho over F_2 for an (N, d) array of int RREF rows, as int8.

    The d images phi[y] of each row set form a d x k matrix over F_Q with
    the rank of G Y^T; all N are eliminated at once, one pass per column:
    the first unused row with a nonzero entry there is the pivot, and every
    row drops its multiple of it, the factor entry / pivot being
    exp[log entry + Q - 1 - log pivot], one column at a time.  That zeroes
    the pivot row, which, like the earlier pivots, is never read again.
    """
    phi, exp, log = code._image_tables
    images = phi[rows]
    count, d, k = images.shape
    rank = np.zeros(count, np.int8)
    if d == 0:
        return rank
    unused = np.ones((count, d), bool)
    at = np.arange(count)
    zero = log[0]
    for c in range(k):
        column = images[:, :, c]
        pivot = (unused & (column != 0)).argmax(axis=1)
        found = unused[at, pivot] & (column[at, pivot] != 0)
        unused[at[found], pivot[found]] = False
        # the pivot row and the factors as logs
        prow = log[images[at, pivot, c:]]
        factor = np.where(found[:, None], log[column] + (code.Q - 1) - prow[:, :1], zero)
        factor = log[exp[factor]]
        for j in range(c, k):
            images[:, :, j] ^= exp[factor + prow[:, j - c, None]]
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
