"""Field arithmetic tests: axioms, inverses, vector kernels."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from convertbw.gf import (_IRREDUCIBLE, BinaryField, PrimeField, field,
                          is_prime)
from convertbw.linalg import Matrix
from support import add, sub

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 11, 13, 16]
LARGE_ORDERS = [32, 64, 128, 251, 256]


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_axioms_exhaustive_small_fields(q):
    f = field(q)
    els = list(f.elements())
    for a in els:
        assert add(f, a, 0) == a
        assert f.mul(a, 1) == a
        assert add(f, a, sub(f, 0, a)) == 0
    for a in els:
        for b in els:
            assert add(f, a, b) == add(f, b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert add(f, add(f, a, b), c) == add(f, a, add(f, b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, add(f, b, c)) == add(f, f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", LARGE_ORDERS)
def test_axioms_random_triples_large_fields(q):
    import random
    f = field(q)
    rng = random.Random(q)
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, add(f, b, c)) == add(f, f.mul(a, b), f.mul(a, c))


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
    assert add(f, a % 13, b % 13) == (a + b) % 13
    assert f.mul(a % 13, b % 13) == (a * b) % 13


def test_unsupported_orders_rejected():
    for q in (0, 1, 6, 9, 10, 12, 25, 27):
        with pytest.raises(ValueError):
            field(q)
    with pytest.raises(ValueError):
        field(257)  # prime above the supported limit
    with pytest.raises(ValueError):
        field(512)  # 2^9 above the supported degree
    field(8)  # cached: a float 8.0 must not find it by hash
    for q in (7.5, 8.0, 5.0, True, "5"):
        with pytest.raises(ValueError, match="must be an int"):
            field(q)


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
    assert sorted(f._exp[:q - 1]) == list(range(1, q))
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
            want = sub(f, int(block[i, j]), f.mul(int(coeffs[i]), int(row[j])))
            assert upd[i, j] == want
    # Array sub (used by the test reference elimination) against scalar
    # sub and add.
    other = block[::-1]
    diff = sub(f, block, other)
    assert diff.tolist() == [[sub(f, int(a), int(b)) for a, b in zip(r, s)]
                             for r, s in zip(block, other)]
    assert [[add(f, int(d), int(b)) for d, b in zip(r, s)]
            for r, s in zip(diff, other)] == block.tolist()
    # Array add against scalar add.
    assert add(f, block, other).tolist() == [
        [add(f, int(a), int(b)) for a, b in zip(r, s)]
        for r, s in zip(block, other)]
    # The packed kernel's combine against scalar add and mul, c = 0 too.
    x, y = block[0].tolist(), row.tolist()
    pk = f.packing(len(x))
    for c in (0, 1, rng.randrange(2, q)):
        assert pk.unpack(pk.combine([1, c], [pk.pack_bytes(x), pk.pack_bytes(y)])) \
            == tuple(add(f, a, f.mul(c, b)) for a, b in zip(x, y))


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
                acc = add(f, acc, f.mul(int(a[i, k]), int(b[k, j])))
            assert got[i, j] == acc


@pytest.mark.parametrize("q", [2, 5, 127, 131, 251, 8, 256])
def test_write_path_product_matches_arr_matmul(q):
    # Matrix.vecmul, the product matmul and the write path run, is the
    # row vector c times m on the rows m packs once; numpy's arr_matmul
    # is the reference.  The orders cover both lane widths over GF(p) (8 bits
    # below 128, 16 from 131) and GF(2^m).
    f = field(q)
    rng = random.Random(q)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1)] + [
        (rng.randrange(1, 13), rng.randrange(1, 13)) for _ in range(40)]
    cases = []
    for rows, cols in shapes:
        m = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        for r in range(rows):
            if rng.random() < 0.2:
                m[r] = [0] * cols
        cases.append((m, cols, [rng.choice([0, rng.randrange(q)])
                                for _ in range(rows)]))
    # Over GF(p), 300 products of entry q - 1 and coefficient 1 sum to
    # 300 * (q - 1), far past one lane, and with coefficient q - 1 each
    # product is 1: each of the 300 terms is folded back below q.
    top = q - 1
    for c in (top, 1):
        cases.append(([[top] * 5] * 300, 5, [c] * 300))
    for m, cols, coeffs in cases:
        mat = Matrix._of_rows(f, m, cols)
        want = f.arr_matmul(np.array(coeffs, dtype=np.int64).reshape(1, len(m)),
                            np.array(m, dtype=np.int64).reshape(len(m), cols))
        assert mat.vecmul(coeffs) == tuple(want[0].tolist())
        # The packed rows are built on the first product and kept.
        packed = mat.packed()
        assert packed[0] is f.packing(cols) and mat.packed() is packed


@pytest.mark.parametrize("q", [251, 8])
def test_combine_refuses_coefficients_of_another_length(q):
    # One coefficient per packed row: a short or long vector raises
    # instead of being cut to the shorter length, in the kernel and
    # through Matrix.vecmul.
    pk = field(q).packing(2)
    rows = [pk.pack_bytes([1, 2]), pk.pack_bytes([3, 4])]
    m = Matrix(field(q), [[1, 2], [3, 4]])
    for coeffs in ([5], [5, 1, 1]):
        with pytest.raises(ValueError, match="coefficients for 2 rows"):
            pk.combine(coeffs, rows)
        with pytest.raises(ValueError, match="coefficients for 2 rows"):
            m.vecmul(coeffs)


def test_product_tables_are_built_on_first_use():
    for f in (PrimeField(251), BinaryField(8)):
        assert not any(f._products)
        pk = f.packing(2)
        rows = [pk.pack_bytes([1, 2]), pk.pack_bytes([3, 4])]
        assert pk.unpack(pk.combine([0, 7], rows)) == (f.mul(7, 3), f.mul(7, 4))
        assert [c for c, t in enumerate(f._products) if t] == [7]


def _object_array(*items):
    out = np.empty(len(items), dtype=object)
    for i, x in enumerate(items):
        out[i] = x
    return out


# Field.as_elements on inputs at the edge of its flat fast path: each
# row is (input, values and shape or None, error text or None), the
# error text with {f} for the field's repr.  The table was recorded
# before the fast path existed; flat data and the walker must agree.
AS_ELEMENTS_TABLE = [
    (lambda q: np.zeros((0, 5), dtype=np.int64), ([], (0, 5)), None),
    (lambda q: np.zeros(0, dtype=np.int64), ([], (0,)), None),
    (lambda q: [], ([], (0,)), None),
    (lambda q: [[], []], ([[], []], (2, 0)), None),
    (lambda q: [True, False, True], ([1, 0, 1], (3,)), None),
    (lambda q: np.array([True, False]), ([1, 0], (2,)), None),
    (lambda q: _object_array(1, 2, 3), ([1, 2, 3], (3,)), None),
    (lambda q: _object_array([1, 2], [3, 4]), None, "non-integer entries for {f}"),
    (lambda q: _object_array([1, 2], [3]), None, "ragged entries for {f}"),
    (lambda q: np.array([1, 2, 3], dtype=np.uint8), ([1, 2, 3], (3,)), None),
    (lambda q: np.uint8(3), (3, ()), None),
    (lambda q: [np.int64(3), np.uint8(1)], ([3, 1], (2,)), None),
    (lambda q: np.array([[1, 2], [3, 4]]), ([[1, 2], [3, 4]], (2, 2)), None),
    (lambda q: [1.0, 2.0, 0.0], ([1, 2, 0], (3,)), None),
    (lambda q: [1, 5.5], None, "non-integer entries for {f}"),
    (lambda q: [1, -1], None, "entries outside [0, {q}) for {f}"),
    (lambda q: [0, q], None, "entries outside [0, {q}) for {f}"),
    (lambda q: [[1, 2], [3]], None, "ragged entries for {f}"),
    (lambda q: [1, None], None, "non-integer entries for {f}"),
    (lambda q: "12", None, "non-integer entries for {f}"),
    (lambda q: (1, 2, 3), ([1, 2, 3], (3,)), None),
    (lambda q: range(3), ([0, 1, 2], (3,)), None),
    (lambda q: 4, (4, ()), None),
]


def _plain(values):
    """values with every int checked to be a plain int (no bool)."""
    if isinstance(values, list):
        return [_plain(v) for v in values]
    assert type(values) is int, type(values)
    return values


@pytest.mark.parametrize("q", [7, 8])
@pytest.mark.parametrize("row", range(len(AS_ELEMENTS_TABLE)))
def test_as_elements_table(q, row):
    make, want, error = AS_ELEMENTS_TABLE[row]
    f = field(q)
    if error is None:
        values, shape = f.as_elements(make(q))
        assert (_plain(values), shape) == want
    else:
        with pytest.raises(ValueError) as err:
            f.as_elements(make(q))
        assert str(err.value) == error.format(f=f, q=q)
