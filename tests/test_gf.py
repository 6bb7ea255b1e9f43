"""Field arithmetic tests: axioms, inverses, vector kernels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convertbw.gf import BinaryField, PrimeField, field, is_prime

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


def test_reducible_binary_modulus_rejected():
    # x^4 + 1 = (x + 1)^4 over GF(2)
    with pytest.raises(ValueError):
        BinaryField(4, poly=0b10001)


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
    # Array sub (the kernel of linalg._reduce) against scalar sub and add.
    other = block[::-1]
    diff = f.sub(block, other)
    assert diff.tolist() == [[f.sub(int(a), int(b)) for a, b in zip(r, s)]
                             for r, s in zip(block, other)]
    assert [[f.add(int(d), int(b)) for d, b in zip(r, s)]
            for r, s in zip(diff, other)] == block.tolist()


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
