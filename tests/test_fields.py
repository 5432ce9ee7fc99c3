from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankspectra import InputError, linalg, prime_field
from rankspectra.fields import FieldTower


@pytest.fixture(scope="module")
def f16():
    return prime_field(2).extend([1, 1, 0, 0, 1])


@pytest.fixture(scope="module")
def f9():
    # x^2 + 1 is irreducible over F_3
    return prime_field(3).extend([1, 0, 1])


def test_prime_field_rejects_composite():
    with pytest.raises(InputError):
        prime_field(6)


def test_sizes_and_degrees(f16):
    assert f16.sizes == (2, 16)
    assert f16.ext_degree(1, 0) == 4


def test_encoding_zero_and_one(f16):
    assert f16.add(0, 5, 1) == 5
    assert f16.mul(1, 9, 1) == 9
    assert f16.mul(0, 9, 1) == 0


def test_char2_addition_is_xor(f16):
    for a in range(16):
        for b in range(16):
            assert f16.add(a, b, 1) == a ^ b


def test_f16_generator_order(f16):
    # enc(a) = 2 must generate the multiplicative group
    seen = set()
    x = 1
    for _ in range(15):
        x = f16.mul(x, 2, 1)
        seen.add(x)
    assert len(seen) == 15


@given(a=st.integers(0, 15), b=st.integers(0, 15), c=st.integers(0, 15))
@settings(max_examples=60)
def test_field_axioms_f16(a, b, c):
    f = prime_field(2).extend([1, 1, 0, 0, 1])
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_inverse_roundtrip(f9):
    for a in range(1, 9):
        assert f9.mul(a, f9.inv(a, 1), 1) == 1


def test_frobenius_fixes_base_and_is_additive(f16):
    for a in range(2):
        assert f16.frobenius(a, 1, 0) == a
    for a in range(16):
        for b in range(16):
            lhs = f16.frobenius(f16.add(a, b, 1), 1, 0)
            rhs = f16.add(f16.frobenius(a, 1, 0), f16.frobenius(b, 1, 0), 1)
            assert lhs == rhs


def test_coords_roundtrip(f16):
    for x in range(16):
        coords = f16.coords(x, 1, 0)
        assert len(coords) == 4
        assert f16.from_coords(coords, 1, 0) == x
    # little-endian bit convention
    assert f16.coords(2, 1, 0) == (0, 1, 0, 0)


class RecursiveTower:
    """The arithmetic of a tower by its recursive definition, the reference
    for ``FieldTower``: a level-``i`` element is its digits over level
    ``i-1``, a sum is the digit-wise sum one level down, and a product is
    the polynomial product over level ``i-1``, reduced from the top down by
    x^deg = -(the low-order coefficients of the monic modulus)."""

    def __init__(self, tower):
        self.p, self.moduli, self.degrees, self.sizes = (
            tower.p, tower.moduli, tower.degrees, tower.sizes)

    def split(self, x, level):
        base, digits = self.sizes[level - 1], []
        for _ in range(self.degrees[level - 1]):
            x, digit = divmod(x, base)
            digits.append(digit)
        return digits

    def join(self, digits, level):
        x = 0
        for c in reversed(digits):
            x = x * self.sizes[level - 1] + c
        return x

    def add(self, a, b, level):
        if level == 0:
            return (a + b) % self.p
        pairs = zip(self.split(a, level), self.split(b, level))
        return self.join([self.add(x, y, level - 1) for x, y in pairs], level)

    def neg(self, a, level):
        if level == 0:
            return (-a) % self.p
        return self.join([self.neg(x, level - 1) for x in self.split(a, level)], level)

    def sub(self, a, b, level):
        return self.add(a, self.neg(b, level), level)

    def mul(self, a, b, level):
        if level == 0:
            return (a * b) % self.p
        deg = self.degrees[level - 1]
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(self.split(a, level)):
            for j, y in enumerate(self.split(b, level)):
                prod[i + j] = self.add(prod[i + j], self.mul(x, y, level - 1), level - 1)
        modulus = self.moduli[level - 1]
        for i in range(len(prod) - 1, deg - 1, -1):
            c, prod[i] = prod[i], 0
            for j in range(deg):
                term = self.mul(c, modulus[j], level - 1)
                prod[i - deg + j] = self.sub(prod[i - deg + j], term, level - 1)
        return self.join(prod[:deg], level)


def coords_reference(tower, x, level, sublevel):
    """The recursive definition: split into level-1 digits, expand each."""
    if level == sublevel:
        return (x,)
    out = []
    for digit in RecursiveTower(tower).split(x, level):
        out.extend(coords_reference(tower, digit, level - 1, sublevel))
    return tuple(out)


def _three_level(p, modulus):
    tower = prime_field(p).extend(modulus)
    return tower.extend(tower.find_irreducible(2, 1))


@pytest.mark.parametrize("tower", [
    pytest.param(_three_level(2, [1, 1, 1]), id="F2_F4_F16"),
    pytest.param(_three_level(3, [1, 0, 1]), id="F3_F9_F81"),
])
def test_coords_match_recursive_definition(tower):
    assert tower.top_level == 2
    for level in range(3):
        for sublevel in range(level + 1):
            for x in range(tower.sizes[level]):
                coords = tower.coords(x, level, sublevel)
                assert coords == coords_reference(tower, x, level, sublevel)
                assert tower.from_coords(coords, level, sublevel) == x
        for sublevel in range(level + 1, 3):
            with pytest.raises(InputError):
                tower.coords(0, level, sublevel)
            with pytest.raises(InputError):
                tower.from_coords((0,), level, sublevel)
    with pytest.raises(InputError):
        tower.from_coords((0,) * 3, 2, 0)


def _r2_extension():
    # the tower of the r = 2 brute run of the golden F_16 code
    f16 = prime_field(2).extend([1, 1, 0, 0, 1])
    return f16.extend(f16.find_irreducible(2, 1))


REFERENCE_TOWERS = {
    "F256": linalg.GF.of_order(256).tower,
    "F729": prime_field(3).extend([2, 1, 0, 0, 0, 0, 1]),
    "F2^31": linalg.GF.of_order(2**31).tower,
    "F2_F4_F16": _three_level(2, [1, 1, 1]),
    "F3_F9_F81": _three_level(3, [1, 0, 1]),
    "F16^2": _r2_extension(),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_TOWERS))
@given(data=st.data())
@settings(derandomize=True, deadline=None, max_examples=40)
def test_tower_arithmetic_matches_recursive_reference(name, data):
    # the digit-wise sums and the one polynomial product against the
    # recursive definition, at every level of the tower
    tower = REFERENCE_TOWERS[name]
    ref = RecursiveTower(tower)
    level = data.draw(st.integers(0, tower.top_level), label="level")
    a, b = (data.draw(st.integers(0, tower.sizes[level] - 1)) for _ in range(2))
    assert tower.add(a, b, level) == ref.add(a, b, level)
    assert tower.sub(a, b, level) == ref.sub(a, b, level)
    assert tower.neg(a, level) == ref.neg(a, level)
    assert tower.mul(a, b, level) == ref.mul(a, b, level)
    if a:  # the inverse is the one element whose reference product with a is 1
        assert ref.mul(a, tower.inv(a, level), level) == 1


def test_embedding_preserves_encoding(f16):
    tower = f16.extend(f16.find_irreducible(2, 1))
    assert tower.sizes[-1] == 256
    for a in range(16):
        for b in range(16):
            assert tower.mul(a, b, 2) == f16.mul(a, b, 1)


def test_reducible_modulus_rejected():
    t = prime_field(2)
    with pytest.raises(InputError):
        t.extend([1, 0, 0, 0, 1])  # x^4 + 1 = (x+1)^4 over F_2


def test_nonmonic_modulus_rejected():
    with pytest.raises(InputError):
        prime_field(3).extend([1, 0, 2])


def test_find_irreducible_deterministic():
    t = prime_field(2)
    f = t.find_irreducible(4)
    assert f == (1, 1, 0, 0, 1)


def gcd_only_irreducible(tower, degree, level):
    # the candidate scan with the gcd test alone, no root filter
    size = tower.sizes[level]
    for enc in range(size**degree):
        f = tuple((enc // size**i) % size for i in range(degree)) + (1,)
        if tower._reducible_factor_degree(f, level) is None:
            return f
    return None


@pytest.mark.parametrize("tower", [
    pytest.param(prime_field(2), id="F2"),
    pytest.param(prime_field(3), id="F3"),
    pytest.param(prime_field(2).extend([1, 1, 1]), id="F4"),
    pytest.param(prime_field(2).extend([1, 1, 0, 0, 1]), id="F16"),
])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_find_irreducible_matches_gcd_scan(tower, degree):
    level = tower.top_level
    assert tower.find_irreducible(degree, level) == gcd_only_irreducible(tower, degree, level)


@pytest.mark.parametrize("tower", [
    pytest.param(prime_field(2), id="F2"),
    pytest.param(prime_field(2).extend([1, 1, 1]), id="F4"),
    pytest.param(prime_field(2).extend([1, 1, 0, 0, 1]), id="F16"),
    pytest.param(prime_field(3), id="F3"),
    pytest.param(prime_field(3).extend([1, 0, 1]), id="F9"),
])
def test_root_filter_tables_match_tower_arithmetic(monkeypatch, tower):
    # the root filter evaluates through the exp/log tables of linalg; with
    # their limit at 1 and the tower's cached GFs dropped, every level
    # falls back to the recursive tower arithmetic
    level = tower.top_level
    fast = [tower.find_irreducible(degree, level) for degree in (2, 3, 4)]
    monkeypatch.setattr(linalg, "_TABLE_LIMIT", 1)
    tower._gfs.clear()
    assert fast == [tower.find_irreducible(degree, level) for degree in (2, 3, 4)]


@pytest.mark.parametrize("name,level", [("F729", 1), ("F2^31", 1), ("F16^2", 2)])
def test_product_runs_on_the_coefficient_field(monkeypatch, name, level):
    # a product at level L >= 1 computes through the GF of level L - 1, its
    # exp/log tables here: once that is built, a product makes one level
    # check and no tower arithmetic call per coefficient
    tower = REFERENCE_TOWERS[name]
    a, b = tower.sizes[level] - 2, tower.sizes[level] // 3
    tower.mul(a, b, level)
    calls = Counter()
    for method in ("add", "sub", "neg", "mul", "inv", "_idx"):
        def counted(*args, _call=getattr(FieldTower, method), _name=method, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(FieldTower, method, counted)
    product = tower.mul(a, b, level)
    monkeypatch.undo()
    assert calls == {"mul": 1, "_idx": 1}
    assert product == RecursiveTower(tower).mul(a, b, level)


@pytest.mark.parametrize("tower,degree,expected", [
    pytest.param(prime_field(2).extend([1, 1, 0, 0, 1]), 2, (8, 1, 1), id="F16-2"),
    pytest.param(prime_field(2).extend([1, 1, 0, 0, 1]), 3, (2, 0, 0, 1), id="F16-3"),
    pytest.param(prime_field(2).extend([1, 1, 0, 0, 0, 0, 1]), 2, (32, 1, 1), id="F64-2"),
    pytest.param(prime_field(3).extend([1, 0, 1]), 3, (3, 1, 0, 1), id="F9-3"),
    pytest.param(prime_field(3), 6, (2, 1, 0, 0, 0, 0, 1), id="F3-6"),
    pytest.param(prime_field(2), 13, (1, 1, 0, 1, 1) + (0,) * 8 + (1,), id="F2-13"),
    pytest.param(REFERENCE_TOWERS["F16^2"], 2, (128, 1, 1), id="F16^2-2"),
])
def test_find_irreducible_pinned(tower, degree, expected):
    # the encoding-minimal irreducible over the top level; the r-extensions
    # of the brute oracle and GF.of_order are built from these
    assert tower.find_irreducible(degree) == expected
