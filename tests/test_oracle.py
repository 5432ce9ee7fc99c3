import gc
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankspectra import (
    GF,
    CycleLattice,
    GabidulinCode,
    QMatroid,
    Subspace,
    InputError,
    ResourceLimitError,
    StructuralError,
    _kernels,
    build_cycle_lattice,
    cli,
    enumerate_subspaces,
    gaussian_binomial,
    higher_spectra,
    linalg,
    oracle,
    prime_field,
    qmatroid_from_code,
    rank_weight,
    uniform_qmatroid,
    virtual_betti_table,
    weight_distribution,
    weight_poly_mobius,
    weight_polys_betti,
)
from rankspectra.linalg import DEFAULT_SUBSPACE_CAP
from rankspectra.oracle import (
    ClassicalMatroid,
    brute_higher,
    brute_spectrum,
    inclusion_exclusion_poly,
    verify_lattice_isomorphism,
)

DATA = Path(__file__).parent / "data"


def test_brute_spectrum_example_r1(example_code):
    assert brute_spectrum(example_code, 1) == [1, 15, 420, 2460, 1200]


def _random_code(tower, k, n, rng):
    # a random full-rank k x n generator over the top field of the tower
    while True:
        try:
            return GabidulinCode(tower, 0, 1, [[rng.randrange(tower.size()) for _ in range(n)]
                                               for _ in range(k)])
        except InputError:
            continue


def _enumerated_spectrum(code, r):
    # rank_weight of the codeword of every message of F_{Q^r}^k, zero included
    tower = code.tower
    ext = tower if r == 1 else tower.extend(tower.find_irreducible(r, 1))
    level = ext.top_level
    counts = [0] * (code.n + 1)
    for message in product(range(ext.size(level)), repeat=code.k):
        word = [0] * code.n
        for u, row in zip(message, code.G):
            for j in range(code.n):
                word[j] = ext.add(word[j], ext.mul(u, row[j], level), level)
        counts[rank_weight(ext, level, 0, word)] += 1
    return counts


def test_brute_spectrum_binary_path_matches_scalar():
    # compare the packed kernel (and the unit-message codewords it spans)
    # with rank_weight applied to every codeword; m=2 < n, so no codeword
    # reaches rank n, and n=65 entries do not fit in one 64-bit word
    tower = prime_field(2).extend([1, 1, 1])
    small = GabidulinCode(tower, 0, 1, [[1, 2, 3], [0, 1, 1]])
    wide = GabidulinCode(tower, 0, 1, [[j % 4 for j in range(65)]])
    for code, weights in ((small, [0, 1, 2]), (wide, [0, 2])):
        for r in (1, 2):
            counts = _enumerated_spectrum(code, r)
            assert [w for w, c in enumerate(counts) if c] == weights
            assert brute_spectrum(code, r) == counts


@pytest.mark.parametrize("modulus, k, n, r", [
    pytest.param([1, 0, 1], 2, 3, 1, id="F9_k2_r1"),
    pytest.param([1, 0, 1], 3, 3, 1, id="F9_k3_r1"),
    pytest.param([1, 0, 1], 2, 3, 2, id="F9_k2_r2"),
    pytest.param([1, 2, 0, 1], 2, 3, 1, id="F27_k2_r1"),
    pytest.param([1, 2, 0, 1], 1, 4, 2, id="F27_k1_r2"),
])
def test_brute_spectrum_odd_q_matches_enumeration(modulus, k, n, r):
    # the odd-q path ranks one message per projective class; the reference
    # ranks every message of F_{Q^r}^k
    code = _random_code(prime_field(3).extend(modulus), k, n,
                        random.Random(f"{modulus}/{k}/{n}/{r}"))
    assert brute_spectrum(code, r) == _enumerated_spectrum(code, r)


# binary code field -> modulus of F_Q over F_2, little-endian
BINARY_FIELDS = {4: [1, 1, 1], 8: [1, 1, 0, 1], 16: [1, 1, 0, 0, 1]}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(Q=st.sampled_from(sorted(BINARY_FIELDS)), r=st.integers(1, 3),
       k=st.integers(1, 3), n=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_brute_spectrum_classes_match_whole_range(Q, r, k, n, seed):
    # one message per projective class, weighted by Q^r - 1, against the
    # kernel over every message index of the same extension basis;
    # Q^(rk) <= 2^16
    k = min(k, 16 // (r * (Q.bit_length() - 1)))
    n = max(n, k)
    code = _random_code(prime_field(2).extend(BINARY_FIELDS[Q]), k, n, random.Random(seed))
    ext, level = oracle._extension_setup(code, r)
    whole = _kernels.spectrum_counts(oracle._binary_basis(code, ext, level))
    assert brute_spectrum(code, r) == [int(c) for c in whole]


def test_brute_spectrum_cap(example_code):
    with pytest.raises(ResourceLimitError) as err:
        brute_spectrum(example_code, 2, cap=1000)
    assert err.value.required == 16**6


def test_brute_spectrum_mrd(mrd_code):
    from rankspectra import mrd_closed_form
    assert brute_spectrum(mrd_code, 1) == mrd_closed_form(4, 2, 2, 4)


def test_brute_spectrum_char3():
    tower = __import__("rankspectra").prime_field(3).extend([1, 0, 1])
    code = GabidulinCode(tower, 0, 1, [[1, 3]])
    counts = brute_spectrum(code, 1)
    assert sum(counts) == 9
    assert counts[0] == 1


def test_brute_higher_example(example_code, example_table):
    polys = weight_polys_betti(example_table)
    rows = higher_spectra(polys, 16, 3)
    assert brute_higher(example_code, 0) == rows[0]
    assert brute_higher(example_code, 1) == rows[1]
    assert brute_higher(example_code, 2) == rows[2]


def test_brute_higher_totals(example_code):
    for i in range(4):
        assert sum(brute_higher(example_code, i)) == gaussian_binomial(3, i, 16)


def test_brute_higher_mrd(mrd_code):
    # the d+1 column of the top row is the full Gaussian count
    assert brute_higher(mrd_code, 2) == [0, 0, 0, 0, 1]


def random_code_over(m, k, n, seed=1):
    tower = prime_field(2)
    tower = tower.extend(tower.find_irreducible(m))
    rng = random.Random(seed)
    while True:
        try:
            return GabidulinCode(tower, 0, 1, [[rng.randrange(2**m) for _ in range(n)]
                                               for _ in range(k)])
        except InputError:
            continue


@pytest.mark.parametrize("m, k, i, rows", [
    (8, 3, 1, None),  # 65,793 rows on the tables
    (8, 3, 2, None),
    (12, 2, 1, None),  # 4097 rows on the tables
    (10, 2, 2, None),  # one subcode, two rows
    (9, 3, 1, None),  # 262,657 rows on the tables
    (10, 3, 1, 1049601),
    (10, 3, 2, 1049601),
    (13, 2, 1, None),  # 8193 rows on tower arithmetic
    (13, 3, 1, 67117057),
])
def test_brute_higher_tower_rows_checked_before_enumeration(monkeypatch, m, k, i, rows):
    # a code over F_{2^m} counts the message rows it would expand,
    # min([k, 1]_Q, i [k, i]_Q), before any subcode, against the limit of
    # its arithmetic: the exp/log tables up to F_4096, the tower past it
    def enumerate_nothing(*args, **kwargs):
        enumerated.append(i)
        return iter(())

    enumerated = []
    code = random_code_over(m, k, 5)
    monkeypatch.setattr(oracle, "enumerate_subspaces", enumerate_nothing)
    if rows is None:
        assert brute_higher(code, i) == [0] * 6
        assert enumerated == [i]
    else:
        with pytest.raises(ResourceLimitError) as err:
            brute_higher(code, i)
        limit = 10**4 if m > 12 else 3 * 10**5
        assert (err.value.required, err.value.cap) == (rows, limit)
        assert enumerated == []
    assert brute_higher(code, 0) == [1, 0, 0, 0, 0, 0]


def uncached_higher(code, i):
    """``brute_higher`` with every basis codeword ranked where it occurs."""
    counts = [0] * (code.n + 1)
    for D in enumerate_subspaces(code.gf_code, code.k, i):
        support = Subspace.zero(code.gf_q, code.n)
        for message in D.rows:
            support = support.sum(linalg.rank_support(
                code.tower, code.code_level, code.q_level, code.codeword(message)))
        counts[support.dim] += 1
    return counts


@pytest.mark.parametrize("name,ranked", [("example_code.json", 273), ("mrd_2_4.json", 17)])
def test_brute_higher_ranks_each_message_row_once(monkeypatch, name, ranked):
    # the rows of the RREF bases over F_16^k with a leading 1: 1 + 16 + 256
    # for k = 3, shared by the 273 lines and the 273 planes; 1 + 16 for k = 2
    code = cli.parse_spec_source((DATA / name).read_bytes())[0].code
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return linalg.rank_support(*args)

    monkeypatch.setattr(oracle, "rank_support", counted)
    counts = [brute_higher(code, i) for i in range(3)]
    assert calls == ranked
    assert counts == [uncached_higher(code, i) for i in range(3)]


def test_row_supports_live_as_long_as_their_code():
    # the oracle keeps the supports per code, and drops them with the code
    code = cli.parse_spec_source((DATA / "mrd_2_4.json").read_bytes())[0].code
    before = len(oracle._row_supports)
    brute_higher(code, 1)
    assert len(oracle._row_supports[code]) == 17
    del code
    gc.collect()
    assert len(oracle._row_supports) == before


def test_classical_matroid_ranks(uniform24):
    cl = ClassicalMatroid(uniform24)
    assert cl.size == 15
    assert cl.rank(0) == 0
    assert cl.full_rank == 2
    assert cl.rank(0b11) == 2


def test_classical_matroid_closure_flats(uniform24):
    cl = ClassicalMatroid(uniform24)
    flats = cl.flats()
    # rank-1 flats are the 15 singletons; plus the empty set and everything
    singles = [F for F in flats if bin(F).count("1") == 1]
    assert len(singles) == 15
    assert 0 in flats and cl.full_mask in flats
    assert len(flats) == 17


def test_classical_dual_cycles_uniform(uniform24):
    cl = ClassicalMatroid(uniform24)
    cycles = cl.dual_cycles()
    sizes = sorted(bin(mask).count("1") for mask, _ in cycles)
    assert sizes == [0] + [14] * 15 + [15]


class ScalarClassical:
    """Reference classical matroid: one span per mask by a memoized walk,
    flats grown by closures from the bottom, dual cycles by a full scan."""

    def __init__(self, M):
        self.M = M
        self.points = list(enumerate_subspaces(M.gf, M.n, 1, cap=None))
        self.size = len(self.points)
        self.full_mask = (1 << self.size) - 1
        self._span_memo = {0: Subspace.zero(M.gf, M.n)}
        self._rank_memo = {0: 0}
        self.full_rank = self.rank(self.full_mask)

    def _span(self, mask):
        span = self._span_memo.get(mask)
        if span is None:
            t = (mask & -mask).bit_length() - 1
            span = self._span(mask ^ 1 << t).sum(self.points[t])
            self._span_memo[mask] = span
        return span

    def rank(self, mask):
        value = self._rank_memo.get(mask)
        if value is None:
            value = self.M.rank(self._span(mask))
            self._rank_memo[mask] = value
        return value

    def dual_rank(self, mask):
        return bin(mask).count("1") + self.rank(self.full_mask ^ mask) - self.full_rank

    def dual_nullity(self, mask):
        return bin(mask).count("1") - self.dual_rank(mask)

    def closure(self, mask):
        r = self.rank(mask)
        out = mask
        for t in range(self.size):
            if not (mask >> t & 1) and self.rank(mask | 1 << t) == r:
                out |= 1 << t
        return out

    def flats(self):
        found = {self.closure(0)}
        frontier = list(found)
        while frontier:
            nxt = []
            for F in frontier:
                for t in range(self.size):
                    if not F >> t & 1:
                        G = self.closure(F | 1 << t)
                        if G not in found:
                            found.add(G)
                            nxt.append(G)
            frontier = nxt
        return sorted(found)

    def dual_cycles(self):
        out = [(0, 0)]
        for mask in range(1, self.full_mask + 1):
            r = self.dual_rank(mask)
            if bin(mask).count("1") == r:
                continue
            if all(self.dual_rank(mask ^ 1 << t) == r
                   for t in range(self.size) if mask >> t & 1):
                out.append((mask, self.dual_nullity(mask)))
        return out


def scalar_inclusion_exclusion(M, U):
    # the subset alternation one mask at a time, on the reference matroid
    if U.dim == 0:
        return (1,)
    restricted = M.restrict(U)
    cl = ScalarClassical(restricted)
    coeffs = [0] * (restricted.full_rank + 1)
    for mask in range(cl.full_mask + 1):
        sign = (-1) ** (cl.size + bin(mask).count("1"))
        coeffs[cl.dual_nullity(mask)] += sign
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@pytest.fixture(params=["uniform24", "example", "mrd", "U13_F3"])
def classical_case(request, uniform24, example_code, mrd_code):
    # fresh matroids, so both walks start from a cold rank memo
    return {"uniform24": lambda: uniform24,
            "example": lambda: qmatroid_from_code(example_code),
            "mrd": lambda: qmatroid_from_code(mrd_code),
            "U13_F3": lambda: uniform_qmatroid(1, 3, 3)}[request.param]()


def test_classical_matroid_matches_scalar_walk(classical_case):
    M = classical_case
    cl, ref = ClassicalMatroid(M), ScalarClassical(M)
    assert cl.points == ref.points
    assert cl.full_rank == ref.full_rank
    assert [cl.rank(m) for m in range(cl.full_mask + 1)] == \
        [ref.rank(m) for m in range(ref.full_mask + 1)]
    assert cl.dual_cycles() == ref.dual_cycles()
    assert cl.flats() == ref.flats()
    for s in range(min(2, M.n) + 1):
        for U in enumerate_subspaces(M.gf, M.n, s):
            assert inclusion_exclusion_poly(M, U).coeffs == scalar_inclusion_exclusion(M, U)


def test_classical_matroid_work_bounded(monkeypatch, example_code):
    # a cold ground makes one sum per (known span, point) and the matroid
    # one rank per span: the 67 subspaces of F_2^4 times 15 points; one sum
    # per mask would be 32767.  A second matroid on F_2^4 reuses the ground
    oracle._ground.cache_clear()
    M = qmatroid_from_code(example_code)
    sums = ranks = 0
    original_sum, original_rank = Subspace.sum, M._rank_fn

    def counted_sum(self, other):
        nonlocal sums
        sums += 1
        return original_sum(self, other)

    def counted_rank(X):
        nonlocal ranks
        ranks += 1
        return original_rank(X)

    monkeypatch.setattr(Subspace, "sum", counted_sum)
    M._rank_fn = counted_rank
    cl = ClassicalMatroid(M)
    assert cl.size == 15
    assert 0 < sums <= 67 * 15
    assert 0 < ranks <= 67
    sums = 0
    again = ClassicalMatroid(qmatroid_from_code(example_code))
    assert sums == 0
    assert np.array_equal(again._ranks, cl._ranks)


class Enumerated(Exception):
    """Raised by a stand-in for the enumerations: the oracle got past its
    size checks."""


def test_classical_ground_set_capped_before_enumeration(monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise Enumerated

    monkeypatch.setattr(oracle, "enumerate_subspaces", enumerate_nothing)
    oracle._ground.cache_clear()  # a cached F_2^4 ground enumerates nothing
    # 2^30 - 1 points of F_2^30 are counted, not listed
    with pytest.raises(ResourceLimitError) as err:
        ClassicalMatroid(uniform_qmatroid(1, 30, 2))
    assert (err.value.required, err.value.cap) == (2**30 - 1, oracle._BITMASK_GROUND_LIMIT)
    with pytest.raises(Enumerated):
        ClassicalMatroid(uniform_qmatroid(2, 4, 2))


def test_inclusion_exclusion_capped_before_build(monkeypatch):
    # a plane over F_q has q + 1 points: refused before the restriction's
    # classical matroid walks its 2^(q+1) masks
    def build_nothing(*args, **kwargs):
        raise Enumerated

    planes = {q: (uniform_qmatroid(1, 2, q), Subspace.full(GF.of_order(q), 2))
              for q in (16, 32)}
    monkeypatch.setattr(oracle, "enumerate_subspaces", build_nothing)
    monkeypatch.setattr(oracle, "ClassicalMatroid", build_nothing)
    for q, limits in ((16, (17, 15)), (32, (33, oracle._BITMASK_GROUND_LIMIT))):
        with pytest.raises(ResourceLimitError) as err:
            inclusion_exclusion_poly(*planes[q])
        assert (err.value.required, err.value.cap) == limits
    monkeypatch.setattr(oracle, "_INCLUSION_EXCLUSION_LIMIT", 17)
    with pytest.raises(Enumerated):
        inclusion_exclusion_poly(*planes[16])


def test_lattice_isomorphism_uniform(uniform24):
    report = verify_lattice_isomorphism(build_cycle_lattice(uniform24))
    assert report["ok"] and report["flats"] == 17


def test_lattice_isomorphism_example(example_lattice):
    report = verify_lattice_isomorphism(example_lattice)
    assert report["ok"]
    assert report["cycles"] == 46


def test_lattice_isomorphism_rejects_order_breaking_correspondence(monkeypatch, example_code):
    # swap the down-sets of two nodes of one dimension and nullity whose
    # down-sets differ: the lattice still passes its own checks, every
    # image is still a classical dual cycle of the right nullity, and the
    # images still biject, but inclusion is not preserved
    M = example_code.qmatroid()
    L = build_cycle_lattice(M)
    a, b = next((a, b) for a in range(len(L)) for b in range(a)
                if (L.nullity[a], L.dims[a]) == (L.nullity[b], L.dims[b])
                and L.below[a] != L.below[b])
    closed_below = CycleLattice._closed_below

    def swapped(self):
        below = closed_below(self)
        below[a], below[b] = below[b], below[a]
        return below

    monkeypatch.setattr(CycleLattice, "_closed_below", swapped)
    with pytest.raises(StructuralError, match="inclusion order not preserved"):
        verify_lattice_isomorphism(build_cycle_lattice(M))


def test_inclusion_exclusion_zero_space(example_matroid):
    U = next(enumerate_subspaces(example_matroid.gf, 4, 0))
    assert inclusion_exclusion_poly(example_matroid, U).coeffs == (1,)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_inclusion_exclusion_matches_mobius(example_matroid, s):
    M = example_matroid
    total = [0] * 4
    for U in enumerate_subspaces(M.gf, 4, s):
        for e, c in enumerate(inclusion_exclusion_poly(M, U).coeffs):
            total[e] += c
    while total and total[-1] == 0:
        total.pop()
    assert tuple(total) == weight_poly_mobius(M, s).coeffs


def test_inclusion_exclusion_aggregate_value(example_matroid):
    M = example_matroid
    value = 0
    for U in enumerate_subspaces(M.gf, 4, 2):
        value += inclusion_exclusion_poly(M, U)(16)
    assert value == 420


def test_oracle_agreement_uniform_codes(tower16, mrd_code):
    M = mrd_code.qmatroid()
    polys = weight_polys_betti(virtual_betti_table(build_cycle_lattice(M)))
    assert brute_spectrum(mrd_code, 1) == weight_distribution(polys, 16)


# code field -> (characteristic, modulus of F_Q over F_p, little-endian)
CODE_FIELDS = {4: (2, [1, 1, 1]), 8: (2, [1, 1, 0, 1]), 9: (3, [1, 0, 1]),
               16: (2, [1, 1, 0, 0, 1])}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(Q=st.sampled_from(sorted(CODE_FIELDS)), k=st.integers(1, 3), n=st.integers(1, 4),
       seed=st.integers(0, 2**32))
def test_pipeline_matches_brute_force(Q, k, n, seed):
    # a random full-rank k x n generator over F_Q, k <= n <= 4: the analyze
    # spectrum and higher spectra i <= 2 against codeword and subcode enumeration
    p, modulus = CODE_FIELDS[Q]
    n = max(n, k)
    rng = random.Random(seed)
    while True:
        doc = {"p": p, "m_extension": modulus, "n": n,
               "generator": [[rng.randrange(Q) for _ in range(n)] for _ in range(k)]}
        try:
            model = cli.parse_spec(doc)
            break
        except InputError:
            continue
    report = cli.analyze_model(model, 1, DEFAULT_SUBSPACE_CAP)
    assert report["spectrum"]["A"] == brute_spectrum(model.code, 1)
    for i in range(min(2, k) + 1):
        assert report["higher"][i] == brute_higher(model.code, i)


def test_spot_check_reads_every_pair_of_three_points():
    # submodularity fails on the points {P0}, {P1} alone: rho(P0 + P1) + rho(0)
    # = 1 > rho(P0) + rho(P1) = 0, seen by 2 of the 64 ordered mask pairs
    gf = GF.of_order(2)
    P0, P1, _ = enumerate_subspaces(gf, 2, 1)
    M = QMatroid(gf, 2, lambda X: 0 if X.dim == 0 or X in (P0, P1) else 1)
    with pytest.raises(StructuralError, match="submodularity"):
        ClassicalMatroid(M)


def test_spot_check_reads_every_pair_of_four_points():
    # the four points of F_3^2: submodularity fails on {P0}, {P1} alone,
    # seen by 2 of the 256 ordered mask pairs
    gf = GF.of_order(3)
    P0, P1, _, _ = enumerate_subspaces(gf, 2, 1)
    M = QMatroid(gf, 2, lambda X: 0 if X.dim == 0 or X in (P0, P1) else 1)
    with pytest.raises(StructuralError, match="submodularity"):
        ClassicalMatroid(M)


def test_axiom_check_reads_every_pair_of_seven_points():
    # the seven points of F_2^3: submodularity fails on {P0}, {P1} alone,
    # 2 of the 16,384 ordered mask pairs; 256 pairs drawn from
    # random.Random(0), as a spot check would, miss both
    gf = GF.of_order(2)
    P0, P1, *_ = enumerate_subspaces(gf, 3, 1)
    M = QMatroid(gf, 3, lambda X: 0 if X.dim == 0 or X in (P0, P1) else 1)
    with pytest.raises(StructuralError, match="submodularity"):
        ClassicalMatroid(M)


def test_axiom_check_ranks_the_zero_span():
    # rho = 1 on every subspace, the zero space included: with the empty
    # set read as rank 0 this would pass as the uniform rank-1 matroid
    gf = GF.of_order(2)
    with pytest.raises(StructuralError, match="empty set"):
        ClassicalMatroid(QMatroid(gf, 2, lambda X: 1))
