"""GF(2^k) field arithmetic against direct polynomial-reduction oracles."""
import random

import numpy as np
import pytest

from gf2lab.gf2k import (
    GF2kField,
    MODULUS_TABLE,
    clmul,
    is_irreducible_rabin,
    load_modulus_table,
    modulus_table_text,
    polymod,
)
from reference import is_irreducible_bruteforce


def coefficient_list_mul_oracle(a: int, b: int, modulus: int) -> int:
    """Long multiplication and long division on explicit coefficient lists."""
    k = modulus.bit_length() - 1
    prod = [0] * (2 * k)
    for i in range(k):
        for j in range(k):
            prod[i + j] ^= ((a >> i) & 1) & ((b >> j) & 1)
    mod_bits = [(modulus >> i) & 1 for i in range(k + 1)]
    for deg in range(2 * k - 1, k - 1, -1):
        if prod[deg]:
            for i in range(k + 1):
                prod[deg - k + i] ^= mod_bits[i]
    return sum(bit << i for i, bit in enumerate(prod[:k]))


def test_modulus_table_certified():
    for k, p in MODULUS_TABLE.items():
        assert p.bit_length() - 1 == k
        assert is_irreducible_bruteforce(p)


@pytest.mark.parametrize("k", range(12))
def test_rabin_matches_trial_division(k):
    for p in range(1 << k, 1 << (k + 1)):
        assert is_irreducible_rabin(p) == is_irreducible_bruteforce(p), hex(p)


def test_caller_modulus_certified_beyond_shipped_degrees():
    assert GF2kField(32, modulus=0x10000008d).k == 32
    # the square of the shipped k = 16 modulus 0x1002b
    with pytest.raises(ValueError, match="reducible"):
        GF2kField(32, modulus=0x100000445)


def test_table_round_trip():
    assert load_modulus_table(modulus_table_text()) == MODULUS_TABLE


def test_reducible_rejected():
    with pytest.raises(ValueError):
        GF2kField(4, modulus=0b10101)  # x^4+x^2+1 = (x^2+x+1)^2
    with pytest.raises(ValueError):
        load_modulus_table("4:15")


def test_multiplicative_identity():
    rng = random.Random(50)
    for k in (1, 4, 8, 16):
        f = GF2kField(k)
        for _ in range(20):
            a = rng.getrandbits(k)
            assert f.mul(a, 1) == a
            assert f.mul(1, a) == a
            assert f.mul(a, 0) == 0


def test_gf16_generator_square():
    # GF(2^4), modulus x^4+x+1: g = x (0010 as a bit string), g^2 = x^2
    f = GF2kField(4)
    assert f.modulus == 0b10011
    assert f.mul(0b0010, 0b0010) == 0b0100


def test_pow3():
    f = GF2kField(8)
    assert f.pow3(0) == 0
    assert f.pow3(1) == 1
    rng = random.Random(51)
    for _ in range(20):
        a = rng.getrandbits(8)
        assert f.pow3(a) == f.pow(a, 3)


def test_against_coefficient_list_oracle():
    rng = random.Random(52)
    for k in (2, 3, 4, 5, 8):
        f = GF2kField(k)
        for _ in range(50):
            a, b = rng.getrandbits(k), rng.getrandbits(k)
            expect = coefficient_list_mul_oracle(a, b, f.modulus)
            assert f.mul(a, b) == expect
            assert polymod(clmul(a, b), f.modulus) == expect


def test_field_axioms_spot():
    rng = random.Random(53)
    f = GF2kField(6)
    for _ in range(50):
        a, b, c = (rng.getrandbits(6) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_every_nonzero_invertible():
    f = GF2kField(5)
    order = (1 << 5) - 1
    for a in range(1, 1 << 5):
        assert f.pow(a, order) == 1  # Lagrange: a^(2^k - 1) = 1


def test_nonzero_element_indexing():
    f = GF2kField(4)
    assert f.nonzero_element(0) == 1
    assert f.nonzero_element(14) == 15
    with pytest.raises(ValueError):
        f.nonzero_element(15)


def test_basis_elements():
    f = GF2kField(4)
    assert [f.basis_element(i) for i in range(1, 5)] == [1, 2, 4, 8]


@pytest.mark.parametrize("k", range(1, 9))
def test_product_table_matches_mul_on_every_pair(k):
    f = GF2kField(k)
    table = f.product_table()
    assert table.shape == (1 << k, 1 << k) and not table.flags.writeable
    assert table.tolist() == [[f.mul(a, b) for b in range(1 << k)]
                              for a in range(1 << k)]
    assert f.product_table() is table  # built once per field


def test_product_table_capped():
    with pytest.raises(ValueError):
        GF2kField(9).product_table()


@pytest.mark.parametrize("k", (4, 9, 13, 24))
def test_mul_array_matches_mul(k):
    rng = random.Random(54 + k)
    f = GF2kField(k)
    a = [rng.getrandbits(k) for _ in range(200)] + [0, (1 << k) - 1]
    b = [rng.getrandbits(k) for _ in range(200)] + [(1 << k) - 1, (1 << k) - 1]
    got = f.mul_array(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
    assert got.tolist() == [f.mul(x, y) for x, y in zip(a, b)]
