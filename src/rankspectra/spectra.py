"""Generalized rank weights, weight polynomials, and spectra.

Two independent routes to the s-th weight polynomial are provided: the
Betti-table route (elongation differences of alternating sums, polynomial
in the lattice size) and the Moebius-inversion route (a sum over the rank
profile, the count of subspaces by dimension and rank, exponential in n).
They must agree coefficientwise; the profile route doubles as a check.
Evaluating the polynomials at powers of Q gives the rank-weight
distribution of every extension code at once, and a triangular system
turns those values into the higher weight spectra.
"""

from __future__ import annotations

from .errors import InputError, StructuralError
from .lattice import BettiTable
from .linalg import (
    DEFAULT_SUBSPACE_CAP,
    binom2,
    gaussian_binomial,
    matrix_count,
)
from .qmatroid import QMatroid


class WeightPolynomial:
    """Dense integer polynomial; coefficient index = power of X."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(int(x) for x in coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, WeightPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"WeightPolynomial({list(self.coeffs)})"


# -- weight polynomials ------------------------------------------------


def weight_poly_betti(table: BettiTable, s: int) -> WeightPolynomial:
    """Coefficient of X^l is phi^(l)_s - phi^(l-1)_s (phi^(-1) = 0)."""
    if not (0 <= s <= table.n):
        raise InputError(f"weight index {s} out of range")
    coeffs = []
    prev = 0
    for l in range(table.k + 1):
        cur = table.phi(l, s)
        coeffs.append(cur - prev)
        prev = cur
    return WeightPolynomial(coeffs)


def weight_polys_betti(table: BettiTable):
    return [weight_poly_betti(table, s) for s in range(table.n + 1)]


def weight_poly_mobius(M: QMatroid, s: int,
                       cap: int | None = DEFAULT_SUBSPACE_CAP) -> WeightPolynomial:
    """Signed sum over V <= U, dim U = s, of q^C(dimU-dimV,2) X^{conullity(V)},
    grouped by d = dim V^perp: V lies in [d, j]_q such U, j = dim U - dim V =
    s - n + d, and conullity(V) = k - rho(V^perp).  Exact for any rank function."""
    k, q = M.full_rank, M.q
    coeffs = [0] * (k + 1)
    for (d, r), count in M.rank_profile(cap).items():
        j = s - M.n + d
        if j >= 0:
            coeffs[k - r] += (-1) ** j * q ** binom2(j) * gaussian_binomial(d, j, q) * count
    return WeightPolynomial(coeffs)


# -- distributions -----------------------------------------------------


def weight_distribution(polys, Qtilde: int):
    """A_s = P_s(Qtilde) for every s; exact integers."""
    return [P(Qtilde) for P in polys]


def higher_spectra(polys, Q: int, k: int):
    """Solve A_w(Q^r) = sum_s matrix_count(r, s, Q) A^(s)_w for all w.

    Forward substitution in increasing subcode dimension; every division
    must be exact (a remainder indicates an upstream bug).
    """
    n = len(polys) - 1
    rows = [[0] * (n + 1) for _ in range(k + 1)]
    for w in range(n + 1):
        for r in range(k + 1):
            total = polys[w](Q**r)
            acc = 0
            for s in range(r):
                acc += matrix_count(r, s, Q) * rows[s][w]
            denom = matrix_count(r, r, Q)
            num = total - acc
            if num % denom:
                raise StructuralError(
                    f"higher-spectra system is not integral at (r={r}, w={w})"
                )
            value = num // denom
            if r <= k and value < 0:
                raise StructuralError(
                    f"negative subcode count at (r={r}, w={w}): {value}"
                )
            rows[r][w] = value
    return rows


# -- generalized weights ----------------------------------------------


def weights_conullity(M: QMatroid, cap: int | None = DEFAULT_SUBSPACE_CAP):
    """d_r = min dim X with conullity(X) = k - rho(X^perp) >= r, r = 1..k, that is
    n - max{d : c(d, rho) > 0 for some rho <= k - r} over the rank profile c."""
    k, profile = M.full_rank, M.rank_profile(cap)
    if k and min(rho for _, rho in profile) > 0:
        raise StructuralError("conullity never reaches the matroid rank")
    return tuple(M.n - max(d for d, rho in profile if rho <= k - r) for r in range(1, k + 1))


def weights_betti(table: BettiTable):
    """d_r = min j with a nonzero (0, r, j) entry."""
    out = []
    for r in range(1, table.k + 1):
        j = table.min_nonzero_dim(r, l=0)
        if j is None:
            raise StructuralError(f"no Betti support at homological index {r}")
        out.append(j)
    return tuple(out)


def weights_flats(M: QMatroid, cap: int | None = DEFAULT_SUBSPACE_CAP):
    """d_r = n - (largest dimension of a q-flat of rank k - r), read off
    the ranks of the flats of each dimension (``QMatroid.flat_covers``)."""
    k = M.full_rank
    max_dim = {}
    for s, rank in enumerate(M.flat_covers(cap=cap)[1]):
        max_dim.update(dict.fromkeys(rank.tolist(), s))  # s ascends
    out = []
    for r in range(1, k + 1):
        if k - r not in max_dim:
            raise StructuralError(f"no q-flat of rank {k - r}")
        out.append(M.n - max_dim[k - r])
    return tuple(out)


def weights_from_polys(polys):
    """d_i = min s with deg P_s = i; zero rows carry no degree and are skipped."""
    degrees = {}
    for s, P in enumerate(polys):
        d = P.degree
        if d is not None and d not in degrees:
            degrees[d] = s
    k = max(degrees)
    out = []
    for i in range(1, k + 1):
        if i not in degrees:
            raise StructuralError(f"no weight polynomial of degree {i}")
        out.append(degrees[i])
    return tuple(out)


def cross_checked_weights(M: QMatroid, table: BettiTable, polys,
                          cap: int | None = DEFAULT_SUBSPACE_CAP):
    """All four weight extraction methods; disagreement is a structural error."""
    results = {
        "conullity": weights_conullity(M, cap=cap),
        "betti": weights_betti(table),
        "flats": weights_flats(M, cap=cap),
        "polys": weights_from_polys(polys),
    }
    distinct = set(results.values())
    if len(distinct) != 1:
        raise StructuralError(f"generalized-weight methods disagree: {results}")
    return results["conullity"]


# -- MRD / uniform closed forms ---------------------------------------


def mrd_closed_form(n: int, k: int, q: int, m: int):
    """Rank-weight distribution of an MRD code, A_0..A_n, in closed form."""
    if not (k <= n <= m):
        raise InputError(f"MRD closed form needs k <= n <= m, got k={k}, n={n}, m={m}")
    d = n - k + 1
    out = [0] * (n + 1)
    out[0] = 1
    if k == 0:
        return out
    for r in range(d, n + 1):
        acc = 0
        for i in range(r - d + 1):
            acc += ((-1) ** i * q ** binom2(i) * gaussian_binomial(r, i, q)
                    * (q ** (m * k - m * (n + i - r)) - 1))
        out[r] = gaussian_binomial(n, r, q) * acc
    return out


def uniform_h_sequence(n: int, k: int, q: int, l: int = 0):
    """Bottom Moebius values on the l-collapsed cycle lattice of U(k, n)*.

    The nullity-i cycles all have dimension d + l + i - 1 (d = n - k + 1)
    on the collapsed lattice, and a nullity-(l+i) cycle contains
    [d+l+i-1 over i-j]_q cycles of nullity l+j, giving the recursion
    h_i = -1 - sum_j [d+l+i-1 over i-j]_q h_j.
    """
    d = n - k + 1
    hs = []
    for i in range(1, k - l + 1):
        acc = -1
        dim_i = d + l + i - 1
        for j in range(1, i):
            acc -= gaussian_binomial(dim_i, i - j, q) * hs[j - 1]
        hs.append(acc)
    return hs


def uniform_betti_table(n: int, k: int, q: int) -> BettiTable:
    """Closed-form Betti table of U(k, n): entry (l, i, d+l+i-1) = [n over d+l+i-1] |h_i|."""
    d = n - k + 1
    entries = {}
    for l in range(k + 1):
        hs = uniform_h_sequence(n, k, q, l)
        for i in range(1, k - l + 1):
            dim_i = d + l + i - 1
            if dim_i > n:
                continue
            entries[(l, i, dim_i)] = gaussian_binomial(n, dim_i, q) * abs(hs[i - 1])
    return BettiTable(n, q, k, entries)
