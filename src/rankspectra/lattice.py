"""The lattice of q-cycles of the dual q-matroid, and its Betti tables.

The nodes are the q-cycles of M*, ordered by inclusion and ranked by
nullity.  X |-> X^perp maps them one to one onto the q-flats of M (Jurrius
and Pellikaan, "Defining the q-analogue of a matroid", 2018): for a line
L outside X^perp, the hyperplane (X^perp + L)^perp of X keeps the dual
rank of X iff L raises the rank of X^perp by one.  The nullity of X in M*
is k - rho(X^perp), so one scan of the q-flats of M gives every node.

The order is built from cover edges.  The flats that cover a flat F are
the closures cl(F + v) of its covers F + v in F_q^n (Byrne, Ceria and
Jurrius, "Constructions of new q-cryptomorphisms", JCTB 2022), and
X |-> X^perp reverses inclusion, so node F^perp covers the nodes G^perp of
those closures.  ``QMatroid.flat_covers`` returns them with the table
positions and ranks of the flats, from the walk over the covers that
found the flats (``SubspaceTable.cover_walk``).  Node i is flat i, of
dimension n - dim F and nullity k - rho(F); the nodes are ordered by
(nullity, dimension, flat id), the down-sets follow in one pass in that
order, and the subspaces F^perp are formed only when ``nodes`` is read.
Those pointers are closures only on a q-matroid: codes and U(k, n) are
q-matroids by theorem (Jurrius and Pellikaan) and take the unchecked
walk; any other rank function takes the checked walk, which
``verify_axioms`` shares, and the lattice raises StructuralError if it
fails.  For nodes passed in directly the order is point-mask
containment, which stays the test reference.  Either way the lattice is
checked on its cover edges, and by the top node of each bitset of common
lower bounds, which must be the whole set below that node.
Moebius values on the lattice, and on its collapsed versions
(all nodes of rank <= l identified with the bottom), stand in for the
graded Betti numbers of the associated simplicial-complex resolutions:
the (l, i, j) entry aggregates (-1)^i mu^(l)(0, P) over nodes P of rank
l + i and dimension j, which is nonnegative for geometric lattices.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .errors import StructuralError
from .linalg import DEFAULT_SUBSPACE_CAP
from .qmatroid import QMatroid


def _point_mask(X, index) -> int:
    """The projective points of X as bits of ``index`` (RREF line row -> bit).

    Over F_2 every nonzero vector of the XOR-span of X's int rows is the
    row of its own line.  Over larger fields the line rows are the vectors
    with a leading 1: the leading entry of a combination of RREF rows is
    its first nonzero coefficient, at that row's pivot, so these are the
    combinations whose first nonzero coefficient is 1.
    """
    if X.gf.size == 2:
        span = [0]
        for row in X.rows:
            span += [v ^ row for v in span]
        return sum(1 << index[v] for v in span[1:])
    elements = X.gf.elements()
    return sum(1 << index[X.embed_vector((0,) * lead + (1,) + tail)]
               for lead in range(X.dim)
               for tail in product(elements, repeat=X.dim - lead - 1))


class CycleLattice:
    """q-cycles of M* ordered by inclusion; rank of a node = its nullity.

    Nodes are ordered by (nullity, dimension, place in the input).  With
    ``covers``, node i is F^perp for the i-th q-flat F of ``qflats()``,
    ``nodes[i]`` its dimension and ``covers[i]`` the nodes it covers, whose
    transitive closure is the order; the subspaces are formed when
    ``nodes`` is first read.  Without covers, ``nodes`` are the subspaces
    and the order is point-mask containment, the test reference.
    """

    def __init__(self, matroid: QMatroid, nodes, nullities, covers=None):
        self.matroid = matroid
        self.n = matroid.n
        self.q = matroid.q
        self.k = matroid.full_rank
        dims = [X.dim for X in nodes] if covers is None else nodes
        order = sorted(range(len(dims)), key=lambda i: (nullities[i], dims[i]))
        self.nullity = [nullities[i] for i in order]
        self.dims = [dims[i] for i in order]
        self._order = order
        if covers is None:
            self.nodes = [nodes[i] for i in order]
            self.below = self._contained_below(matroid)
        else:
            self.below = self._closed_below([covers[i] for i in order], order)
        self._mobius = {}
        self._validate()

    @cached_property
    def nodes(self):
        flats = self.matroid.qflats(cap=None)  # the walk is kept: no cap applies
        return [flats[i].complement() for i in self._order]

    def _contained_below(self, matroid):
        """below[i] from point-mask containment.

        X contains Y iff every projective point of Y lies in X; points are
        bits, indexed by their RREF rows in the matroid's line tuple.
        Strictly below i: a smaller node whose points lie in i's, or an
        equal copy of i, which Jordan-Dedekind then rejects.
        """
        index = {P.rows[0]: t for t, P in enumerate(matroid.lines())}
        masks = [_point_mask(X, index) for X in self.nodes]
        copies: dict[int, list[int]] = {}
        by_dim: dict[int, list[int]] = {}
        for j, (mj, dj) in enumerate(zip(masks, self.dims)):
            copies.setdefault(mj, []).append(j)
            by_dim.setdefault(dj, []).append(j)
        below = []
        for i, (mi, di) in enumerate(zip(masks, self.dims)):
            lower = [j for d in range(di) for j in by_dim.get(d, ())
                     if masks[j] & mi == masks[j]]
            below.append(frozenset(lower + [j for j in copies[mi] if j != i]))
        return below

    def _closed_below(self, covers, order):
        """below[i] from the cover edges, in one pass in index order.

        Each edge must drop the nullity by one, so a covered node comes
        first in the index order and its down-set is already known.
        """
        at = sorted(range(len(order)), key=order.__getitem__)
        below = []
        for i, edges in enumerate(covers):
            lower = [at[j] for j in edges]
            for j in lower:
                if self.nullity[j] != self.nullity[i] - 1:
                    raise StructuralError(
                        "Jordan-Dedekind violated between nodes of ranks "
                        f"{self.nullity[j]} and {self.nullity[i]}")
            below.append(frozenset(lower).union(*(below[j] for j in lower)))
        return below

    # -- structure checks ----------------------------------------------

    def _validate(self):
        """Zero bottom, Jordan-Dedekind on covers, unique meets, height.

        j is covered by i iff j is in below[i] and in no below[t], t in
        below[i].  If each cover adds one to the nullity, a chain of covers
        gives nullity[j] < nullity[i] for every j below i: the index order
        is a linear extension, and a node of nullity 1 covers the bottom
        alone.  So the top bit m of the common lower bounds c = down[i] &
        down[j] is maximal in c; a unique maximal element of a finite poset
        is its maximum, so the meet is unique iff c == down[m], which holds
        whenever i or j has nullity below 2.  Only the nodes of nullity >= 2
        keep a bitset: node i's has i bits, and one per node would take about
        120 MB on U(3,9), whose nodes are almost all of nullity 1.  The
        down-set of a node m of nullity <= 1 is m and at most the bottom,
        bit 0, so it is formed only while c with top bit m is compared.
        """
        if not self.dims or self.dims[0] != 0 or self.nullity[0] != 0:
            raise StructuralError("lattice must have the zero subspace as unique bottom")
        if sum(1 for r in self.nullity if r == 0) != 1:
            raise StructuralError("more than one rank-0 node")
        for i, below_i in enumerate(self.below):
            deeper = set().union(*(self.below[t] for t in below_i))
            for j in below_i:
                if j not in deeper and self.nullity[i] != self.nullity[j] + 1:
                    raise StructuralError(
                        "Jordan-Dedekind violated between nodes of ranks "
                        f"{self.nullity[j]} and {self.nullity[i]}"
                    )
        first = sum(1 for r in self.nullity if r < 2)
        down = [sum(1 << j for j in self.below[i]) | 1 << i
                for i in range(first, len(self.below))]
        for a, down_i in enumerate(down):
            for down_j in down[a + 1:]:
                common = down_i & down_j
                m = common.bit_length() - 1
                if m >= first:
                    unique = common == down[m - first]
                else:  # m and at most the bottom, bit 0, are in down[m]
                    unique = m >= 0 and common == 1 << m | (0 in self.below[m])
                if not unique:
                    raise StructuralError("lattice meet is not unique")
        if max(self.nullity) != self.k:
            raise StructuralError(
                f"lattice height {max(self.nullity)} differs from rank {self.k}"
            )

    # -- Moebius functions ----------------------------------------------

    def mobius_bottom(self, node_index: int, l: int = 0) -> int:
        """mu of the l-collapsed lattice from the bottom to a node.

        Nodes of rank <= l are identified with the bottom (mu = 1 there);
        the recursion runs over surviving nodes in increasing rank order.
        """
        if not (0 <= l <= self.k):
            raise StructuralError(f"elongation level {l} out of range")
        if self.nullity[node_index] <= l:
            return 1
        key = (node_index, l)
        value = self._mobius.get(key)
        if value is None:
            acc = -1  # collapsed bottom contributes mu = 1
            for j in self.below[node_index]:
                if self.nullity[j] > l:
                    acc -= self.mobius_bottom(j, l)
            self._mobius[key] = value = acc
        return value

    def __len__(self):
        return len(self.dims)


class BettiTable:
    """Map (l, i, j) -> nonnegative integer, j the q-cycle dimension.

    Carries the convention entry (l, 0, 0) = 1 for every elongation level,
    so that the degree-0 weight polynomial comes out as 1.
    """

    def __init__(self, n: int, q: int, k: int, entries: dict):
        self.n = n
        self.q = q
        self.k = k
        self.entries = dict(entries)
        for l in range(k + 1):
            self.entries.setdefault((l, 0, 0), 1)

    def get(self, l: int, i: int, j: int) -> int:
        if l < 0:
            return 0
        return self.entries.get((l, i, j), 0)

    def classical_grading(self, j: int) -> int:
        """[j] = q^{n-1} + ... + q^{n-j}."""
        return sum(self.q ** (self.n - t) for t in range(1, j + 1))

    def phi(self, l: int, j: int) -> int:
        """Alternating sum over the homological index at fixed (l, j)."""
        return sum(
            (-1) ** i * v for (ll, i, jj), v in self.entries.items()
            if ll == l and jj == j
        )

    def min_nonzero_dim(self, i: int, l: int = 0):
        dims = [j for (ll, ii, j), v in self.entries.items()
                if ll == l and ii == i and v != 0]
        return min(dims) if dims else None

    def to_records(self):
        recs = [
            {"l": l, "i": i, "j_dim": j,
             "j_classical": self.classical_grading(j), "value": v}
            for (l, i, j), v in self.entries.items()
        ]
        recs.sort(key=lambda r: (r["l"], r["i"], r["j_dim"]))
        return recs

    def __eq__(self, other):
        return isinstance(other, BettiTable) and (
            self.n, self.q, self.k) == (other.n, other.q, other.k) and {
            key: v for key, v in self.entries.items() if v
        } == {key: v for key, v in other.entries.items() if v}


def build_cycle_lattice(M: QMatroid, cap: int | None = DEFAULT_SUBSPACE_CAP) -> CycleLattice:
    """Lattice of q-cycles of M* (the caller passes the primal matroid).

    The nodes come from the q-flats of M as table positions: each flat F
    of dimension s gives the q-cycle F^perp of M*, of dimension n - s and
    nullity k - rho(F).  ``M.dual().qcycles()`` finds the same nodes by the
    definition and serves as the test reference.
    """
    flats, ranks, covers = M.flat_covers(cap=cap)
    if covers is None:
        raise StructuralError("the rank function fails the q-matroid axioms")
    k = M.full_rank
    return CycleLattice(M, [M.n - s for s, index in enumerate(flats) for _ in range(len(index))],
                        [k - r for rank in ranks for r in rank.tolist()], covers)


def virtual_betti_table(L: CycleLattice) -> BettiTable:
    """Aggregate signed Moebius values into the (l, i, j) Betti table.

    Every node P with rank > l contributes (-1)^(rank-l) mu^(l)(0, P) to
    entry (l, rank - l, dim P); geometric-lattice sign alternation makes
    each contribution nonnegative, which is asserted.
    """
    entries: dict[tuple[int, int, int], int] = {}
    for l in range(L.k + 1):
        for idx in range(len(L)):
            r = L.nullity[idx]
            if r <= l:
                continue
            i = r - l
            value = (-1) ** i * L.mobius_bottom(idx, l)
            if value < 0 or (l == 0 and value == 0):
                raise StructuralError(
                    f"Moebius sign alternation failed at node dim={L.dims[idx]}, "
                    f"rank={r}, l={l}: signed value {value}"
                )
            key = (l, i, L.dims[idx])
            entries[key] = entries.get(key, 0) + value
    return BettiTable(L.n, L.q, L.k, entries)
