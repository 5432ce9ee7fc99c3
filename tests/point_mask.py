"""Test references for the q-flats and the cycle lattice.

``line_steps`` ranks the covers F + L of a subspace one line at a time,
``is_qflat`` decides one subspace by those line steps, and
``PointMaskLattice`` orders given subspaces by containment of their
projective points.  The package finds the same flats and the same order
from one walk over the covers of its subspace table; the tests and
``benchmarks/bench_qflats.py`` compare the two.
"""

from functools import cache
from itertools import product

from rankspectra import CycleLattice, enumerate_subspaces


def lines(M) -> tuple:
    """The one-dimensional subspaces of F_q^n in enumeration order."""
    return _lines(M.gf, M.n)


@cache
def _lines(gf, n):
    return tuple(enumerate_subspaces(gf, n, 1, cap=None))


def line_steps(M, F):
    """(L, rho(F + L) - rho(F)) for one line L of each cover F + L of F.

    F + L depends only on the row of L reduced modulo F, so each cover is
    ranked once, keyed by that row scaled to a leading 1.
    """
    rF, seen = M.rank(F), set()
    for L in lines(M):
        col, v = F.gf.lead_row(F.gf.reduce_row(F.rows, F.pivots, L.rows[0]))
        if col >= 0 and v not in seen:
            seen.add(v)
            yield L, M.rank(F.sum(L)) - rF


def is_qflat(M, F) -> bool:
    """True iff adjoining any outside line changes the rank of F in M."""
    return all(step for _, step in line_steps(M, F))


def point_mask(X, index) -> int:
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


class PointMaskLattice(CycleLattice):
    """``CycleLattice`` over given subspaces, ordered by point-mask containment.

    The nodes are sorted by (nullity, dimension, place in the input), as
    the package sorts them.  X contains Y iff every projective point of Y
    lies in X.  Strictly below i: a smaller node whose points lie in i's,
    or an equal copy of i.  The cover edges handed to the package's check
    are the nodes below i that lie below no node below i, listed in the
    iteration order of ``below[i]``.
    """

    def __init__(self, matroid, nodes, nullities):
        order = sorted(range(len(nodes)), key=lambda i: (nullities[i], nodes[i].dim))
        self.nodes = [nodes[i] for i in order]
        index = {P.rows[0]: t for t, P in enumerate(lines(matroid))}
        masks = [point_mask(X, index) for X in self.nodes]
        copies: dict[int, list[int]] = {}
        by_dim: dict[int, list[int]] = {}
        for j, (mj, X) in enumerate(zip(masks, self.nodes)):
            copies.setdefault(mj, []).append(j)
            by_dim.setdefault(X.dim, []).append(j)
        below = []
        for i, (mi, X) in enumerate(zip(masks, self.nodes)):
            lower = [j for d in range(X.dim) for j in by_dim.get(d, ())
                     if masks[j] & mi == masks[j]]
            below.append(frozenset(lower + [j for j in copies[mi] if j != i]))
        self._point_below = below
        covers = []
        for below_i in below:
            deeper = set().union(*(below[t] for t in below_i))
            covers.append([j for j in below_i if j not in deeper])
        super().__init__(matroid, [X.dim for X in self.nodes],
                         [nullities[i] for i in order], covers)

    def _closed_below(self):
        """The point-mask order itself, which ``ReferenceLattice`` reads; it
        is the closure of the cover edges whenever they pass Jordan-Dedekind."""
        return self._point_below
