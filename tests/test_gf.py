"""Field arithmetic tests: axioms, inverses, vector kernels."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convertbw.gf import (_IRREDUCIBLE, BinaryField, PrimeField, field,
                          is_prime)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 11, 13, 16]
LARGE_ORDERS = [32, 64, 128, 251, 256]


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_axioms_exhaustive_small_fields(q):
    f = field(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.sub(0, a)) == 0
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", LARGE_ORDERS)
def test_axioms_random_triples_large_fields(q):
    import random
    f = field(q)
    rng = random.Random(q)
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_ORDERS + LARGE_ORDERS)
def test_every_nonzero_element_invertible(q):
    f = field(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@given(a=st.integers(0, 10**6), b=st.integers(0, 10**6))
def test_prime_field_matches_int_arithmetic(a, b):
    f = field(13)
    assert f.add(a % 13, b % 13) == (a + b) % 13
    assert f.mul(a % 13, b % 13) == (a * b) % 13


def test_unsupported_orders_rejected():
    for q in (0, 1, 6, 9, 10, 12, 25, 27):
        with pytest.raises(ValueError):
            field(q)
    with pytest.raises(ValueError):
        field(257)  # prime above the supported limit
    with pytest.raises(ValueError):
        field(512)  # 2^9 above the supported degree


def test_field_kinds():
    assert isinstance(field(5), PrimeField)
    assert isinstance(field(2), PrimeField)
    assert isinstance(field(4), BinaryField)
    assert field(7) is field(7)  # cached
    assert not is_prime(1) and is_prime(2) and not is_prime(9)


def _clmul_mod(a, b, m):
    """a * b as polynomials over GF(2), reduced modulo _IRREDUCIBLE[m]."""
    prod = 0
    for i in range(m):
        if (b >> i) & 1:
            prod ^= a << i
    for i in range(2 * m - 2, m - 1, -1):
        if (prod >> i) & 1:
            prod ^= _IRREDUCIBLE[m] << (i - m)
    return prod


@pytest.mark.parametrize("m", range(1, 9))
def test_binary_mul_is_carryless_product_mod_fixed_modulus(m):
    f = BinaryField(m)
    q = 1 << m
    # The exp table walks every nonzero element once: x is primitive.
    assert sorted(f._exp_list[:q - 1]) == list(range(1, q))
    if m <= 4:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(m)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        assert f.mul(a, b) == _clmul_mod(a, b, m)


@pytest.mark.parametrize("q", [5, 16])
def test_array_kernels_match_scalar_ops(q):
    import random
    f = field(q)
    rng = random.Random(7)
    u = np.array([rng.randrange(q) for _ in range(20)], dtype=np.int64)
    c = rng.randrange(1, q)
    assert [f.mul(int(a), c) for a in u] == f.arr_scale(u, c).tolist()
    block = np.array([[rng.randrange(q) for _ in range(6)] for _ in range(4)],
                     dtype=np.int64)
    row = np.array([rng.randrange(q) for _ in range(6)], dtype=np.int64)
    coeffs = np.array([rng.randrange(q) for _ in range(4)], dtype=np.int64)
    upd = f.arr_submul(block, row, coeffs)
    for i in range(4):
        for j in range(6):
            want = f.sub(int(block[i, j]), f.mul(int(coeffs[i]), int(row[j])))
            assert upd[i, j] == want
    # Array sub (used by the test reference elimination) against scalar
    # sub and add.
    other = block[::-1]
    diff = f.sub(block, other)
    assert diff.tolist() == [[f.sub(int(a), int(b)) for a, b in zip(r, s)]
                             for r, s in zip(block, other)]
    assert [[f.add(int(d), int(b)) for d, b in zip(r, s)]
            for r, s in zip(diff, other)] == block.tolist()
    # Array add against scalar add.
    assert f.add(block, other).tolist() == [
        [f.add(int(a), int(b)) for a, b in zip(r, s)]
        for r, s in zip(block, other)]
    # The list kernel row_submul against scalar sub and mul, c = 0 too.
    x, y = block[0].tolist(), row.tolist()
    for c in (0, 1, rng.randrange(2, q)):
        assert f.row_submul(x, y, c) == [f.sub(a, f.mul(c, b))
                                         for a, b in zip(x, y)]


@pytest.mark.parametrize("q", [7, 8])
def test_arr_matmul_matches_naive_product(q):
    import random
    f = field(q)
    rng = random.Random(3)
    a = np.array([[rng.randrange(q) for _ in range(4)] for _ in range(3)],
                 dtype=np.int64)
    b = np.array([[rng.randrange(q) for _ in range(5)] for _ in range(4)],
                 dtype=np.int64)
    got = f.arr_matmul(a, b)
    for i in range(3):
        for j in range(5):
            acc = 0
            for k in range(4):
                acc = f.add(acc, f.mul(int(a[i, k]), int(b[k, j])))
            assert got[i, j] == acc
