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


def coords_reference(tower, x, level, sublevel):
    """The recursive definition: split into level-1 digits, expand each."""
    if level == sublevel:
        return (x,)
    out = []
    for digit in tower._split(x, level):
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
    # the root filter evaluates through the dense tables of linalg; with
    # their limit at 1 it falls back to the recursive tower arithmetic
    level = tower.top_level
    fast = [tower.find_irreducible(degree, level) for degree in (2, 3, 4)]
    monkeypatch.setattr(linalg, "_TABLE_LIMIT", 1)
    assert fast == [tower.find_irreducible(degree, level) for degree in (2, 3, 4)]
