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
found the flats (``SubspaceTable.cover_walk``).  Flat F gives a node of
dimension n - dim F and nullity k - rho(F); the nodes are ordered by
(nullity, dimension, flat id), ``flat_ids`` maps each node to its flat,
the down-sets follow in one pass in that order, and the subspaces F^perp
are formed only when ``nodes`` is read.
Those pointers are closures only on a q-matroid: codes and U(k, n) are
q-matroids by theorem (Jurrius and Pellikaan) and take the unchecked
walk; any other rank function takes the checked walk, which
``verify_axioms`` shares, and the lattice raises StructuralError if it
fails.  ``CycleLattice._validate`` checks, from the cover edges and the
down-sets, that the order is a lattice graded by nullity.
Moebius values on the lattice, and on its collapsed versions (all nodes
of rank <= l identified with the bottom), each found in one forward
sweep over the nodes, stand in for the graded Betti numbers of the
associated simplicial-complex resolutions: the (l, i, j) entry
aggregates (-1)^i mu^(l)(0, P) over nodes P of rank l + i and dimension
j, which is nonnegative for geometric lattices.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property

from .errors import StructuralError
from .linalg import DEFAULT_SUBSPACE_CAP
from .qmatroid import QMatroid


class CycleLattice:
    """q-cycles of M* ordered by inclusion; rank of a node = its nullity.

    Input entry i is F^perp for the i-th q-flat F of ``qflats()``:
    ``dims[i]`` is its dimension, ``nullities[i]`` its nullity and
    ``covers[i]`` the entries it covers, whose transitive closure is the
    order.  The nodes are the entries reordered by (nullity, dimension,
    place in the input): node i is the complement of q-flat ``flat_ids[i]``,
    ``covers`` and ``below`` hold node indices, and the subspaces are formed
    when ``nodes`` is first read.
    """

    def __init__(self, matroid: QMatroid, dims, nullities, covers):
        self.matroid = matroid
        self.n = matroid.n
        self.q = matroid.q
        self.k = matroid.full_rank
        order = sorted(range(len(dims)), key=lambda i: (nullities[i], dims[i]))
        at = sorted(range(len(order)), key=order.__getitem__)
        self.nullity = [nullities[i] for i in order]
        self.dims = [dims[i] for i in order]
        self.covers = [[at[j] for j in covers[i]] for i in order]
        self.flat_ids = order
        self.below = self._closed_below()
        self._validate()

    @cached_property
    def nodes(self):
        flats = self.matroid.qflats(cap=None)  # the walk is kept: no cap applies
        return [flats[i].complement() for i in self.flat_ids]

    def _closed_below(self):
        """below[i], the nodes strictly below i, in one pass in index order.

        A valid edge drops the nullity by one, so it points to an earlier
        node, whose down-set is already known.  An edge to a later node
        fails Jordan-Dedekind, which ``_validate`` reports, so only its
        own index joins the down-set here.
        """
        below = []
        for i, edges in enumerate(self.covers):
            below.append(frozenset(edges).union(*(below[j] for j in edges if j < i)))
        return below

    # -- structure checks ----------------------------------------------

    def _validate(self):
        """Zero bottom, Jordan-Dedekind on the covers, unique meets, height, top.

        If each cover edge adds one to the nullity, every edge points to an
        earlier node, below[i] closes the edges of i, and a chain of covers
        gives nullity[j] < nullity[i] for every j below i: the index order
        is a linear extension.  Every node but node 0 covers one, so a chain
        of covers down from any node ends at node 0, the one node of
        nullity 0, which is the bottom; a node of nullity 1 covers the bottom
        alone.  So the top bit m of the common lower bounds c = down[i] &
        down[j] is maximal in c; a unique maximal element of a finite poset
        is its maximum, so the meet is unique iff c == down[m], which holds
        whenever i or j has nullity below 2.  Only the nodes of nullity >= 2
        keep a bitset: node i's has i bits, and one per node would take about
        120 MB on U(3,9), whose nodes are almost all of nullity 1.  The
        down-set of a node m of nullity <= 1 is m and at most the bottom,
        bit 0, so it is formed only while c with top bit m is compared.
        So the order is a meet-semilattice; with the last node, of nullity k
        by the height, above all others as its top, it is a lattice: the
        join of i and j is the meet of their upper bounds.
        """
        if not self.dims or self.dims[0] != 0 or self.nullity[0] != 0:
            raise StructuralError("lattice must have the zero subspace as unique bottom")
        if sum(1 for r in self.nullity if r == 0) != 1:
            raise StructuralError("more than one rank-0 node")
        for i, edges in enumerate(self.covers):
            for j in edges:
                if self.nullity[i] != self.nullity[j] + 1:
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
        if not all(self.covers[1:]):
            raise StructuralError("a lattice node other than the bottom covers no node")
        if len(self.below[-1]) != len(self) - 1:
            raise StructuralError("lattice has no top: the last node is not above all others")

    # -- Moebius functions ----------------------------------------------

    def mobius(self, l: int) -> list[int]:
        """mu of the l-collapsed lattice from the bottom to every node.

        Nodes of rank <= l are identified with the bottom (mu = 1 there),
        and mu(0, P) = -1 - sum of mu(0, Y) over the surviving Y below P.
        The nullities are sorted, so the survivors are the nodes from
        ``start`` on, and the index order is a linear extension: one
        forward sweep meets every Y before P.
        """
        if not (0 <= l <= self.k):
            raise StructuralError(f"elongation level {l} out of range")
        start = bisect_right(self.nullity, l)
        mu = [1] * len(self)
        for i in range(start, len(self)):
            mu[i] = -1 - sum(mu[j] for j in self.below[i] if j >= start)
        return mu

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
        mu = L.mobius(l)
        for idx in range(len(L)):
            r = L.nullity[idx]
            if r <= l:
                continue
            i = r - l
            value = (-1) ** i * mu[idx]
            if value < 0 or (l == 0 and value == 0):
                raise StructuralError(
                    f"Moebius sign alternation failed at node dim={L.dims[idx]}, "
                    f"rank={r}, l={l}: signed value {value}"
                )
            key = (l, i, L.dims[idx])
            entries[key] = entries.get(key, 0) + value
    return BettiTable(L.n, L.q, L.k, entries)
