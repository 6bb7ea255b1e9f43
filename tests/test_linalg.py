"""Matrix machinery tests: rank, span, canonical forms, subspace menus."""

import random

import numpy as np
import pytest

from convertbw.gf import field
from convertbw.linalg import (Matrix, enumerate_subspaces, in_span,
                              mat_inverse, mat_rank, randbelow, rank_pair,
                              random_invertible, random_matrix, rref,
                              solve_left, vstack)
from plain_elimination import (ref_basis, ref_inverse, ref_rank, ref_rref,
                               ref_solve_left)
from support import gaussian_binomial

F5 = field(5)
F2 = field(2)
F3 = field(3)
F4 = field(4)


def test_rank_identity():
    assert mat_rank(Matrix.identity(F5, 3)) == 3


def test_rank_zero_matrix():
    assert mat_rank(Matrix.zeros(F5, 2, 2)) == 0


def test_rank_dependent_rows():
    # row2 = 2 * row1 over GF(5)
    assert mat_rank(Matrix(F5, [[1, 2], [2, 4]])) == 1


def test_rank_empty_shapes():
    assert mat_rank(Matrix.zeros(F5, 0, 4)) == 0
    assert mat_rank(Matrix.zeros(F5, 4, 0)) == 0


@pytest.mark.parametrize("fld", [F5, F4])
def test_rank_invariant_under_invertible_row_ops(fld):
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(fld, 4, 6, rng)
        t = random_invertible(fld, 4, rng)
        assert mat_rank(t @ m) == mat_rank(m)
        perm = list(range(4))
        rng.shuffle(perm)
        assert mat_rank(Matrix(m.field, m.array[perm])) == mat_rank(m)


@pytest.mark.parametrize("fld", [F5, F2])
def test_rank_subadditive_on_stacks(fld):
    rng = random.Random(23)
    for _ in range(40):
        a = random_matrix(fld, rng.randint(0, 4), 5, rng)
        b = random_matrix(fld, rng.randint(0, 4), 5, rng)
        joint = mat_rank(vstack([a, b]))
        assert joint <= mat_rank(a) + mat_rank(b)
        assert joint >= max(mat_rank(a), mat_rank(b))


def test_rank_pair_agrees_with_direct_ranks():
    rng = random.Random(5)
    for fld in (F5, F4):
        for _ in range(30):
            a = random_matrix(fld, rng.randint(0, 4), 5, rng)
            b = random_matrix(fld, rng.randint(0, 4), 5, rng)
            ra, rj = rank_pair(a, b)
            assert ra == mat_rank(a)
            assert rj == mat_rank(vstack([a, b]))


def test_in_span_reflexive():
    m = Matrix(F5, [[1, 2, 3], [0, 1, 4]])
    assert in_span(m, m)


def test_in_span_zero_row():
    assert in_span(Matrix.zeros(F5, 1, 3), Matrix(F5, [[1, 2, 3]]))


def test_in_span_counterexample():
    assert not in_span(Matrix(F2, [[0, 1]]), Matrix(F2, [[1, 0]]))


def test_in_span_dimension_mismatch():
    with pytest.raises(ValueError):
        in_span(Matrix(F2, [[1]]), Matrix(F2, [[1, 0]]))


def test_rref_is_idempotent_and_canonical():
    rng = random.Random(9)
    for _ in range(20):
        m = random_matrix(F3, 4, 5, rng)
        r = rref(m)
        assert rref(r) == r
        assert mat_rank(r) == r.rows == mat_rank(m)
        assert in_span(r, m) and in_span(m, r)


def test_mat_inverse_round_trip():
    rng = random.Random(2)
    for fld in (F5, F4):
        m = random_invertible(fld, 4, rng)
        assert (m @ mat_inverse(m)) == Matrix.identity(fld, 4)
    with pytest.raises(ValueError):
        mat_inverse(Matrix(F5, [[1, 2], [2, 4]]))


def test_solve_left_consistency():
    rng = random.Random(4)
    basis = random_matrix(F5, 3, 6, rng)
    coeffs = random_matrix(F5, 2, 3, rng)
    target = coeffs @ basis
    t = solve_left(target, basis)
    assert t is not None and (t @ basis) == target


def test_solve_left_unsolvable_returns_none():
    basis = Matrix(F5, [[1, 0, 0], [0, 1, 0]])
    assert solve_left(Matrix(F5, [[0, 0, 1]]), basis) is None


def test_solve_left_empty_basis():
    assert solve_left(Matrix.zeros(F5, 2, 3), Matrix.zeros(F5, 0, 3)) is not None
    assert solve_left(Matrix(F5, [[1, 0, 0]]), Matrix.zeros(F5, 0, 3)) is None


def _random_of_rank(fld, rows, cols, rank, rng):
    """A rows x cols matrix of rank at most `rank` (almost always equal)."""
    return random_matrix(fld, rows, rank, rng) @ random_matrix(fld, rank, cols, rng)


@pytest.mark.parametrize("q", [2, 5, 127, 131, 251, 8, 256])
def test_packed_kernel_matches_plain_elimination(q):
    # Every lane width and fold: 8-bit lanes up to GF(127), 16-bit ones
    # from GF(131), XOR lanes over GF(8) and GF(256).  Entries of q - 1
    # give the largest lane sums before a fold.  Basis rows must equal
    # the scalar reference's, and rank, rref, solve_left, mat_inverse and
    # products numpy elimination's, entry for entry.
    fld = field(q)
    rng = random.Random(q)
    top = q - 1
    mats = [Matrix.zeros(fld, 0, 5), Matrix.zeros(fld, 4, 0),
            Matrix.zeros(fld, 0, 0), Matrix(fld, [[top] * 16]),
            Matrix(fld, [[top] * 16] * 16), Matrix(fld, [[top] * 9] * 3),
            Matrix(fld, [[top * (i == j) for j in range(16)] for i in range(16)]),
            random_matrix(fld, 1, 16, rng), random_matrix(fld, 16, 16, rng),
            _random_of_rank(fld, 16, 16, 11, rng)]
    for _ in range(20):
        rows, cols = rng.randint(1, 16), rng.randint(1, 16)
        mats.append(_random_of_rank(fld, rows, cols,
                                    rng.randint(0, min(rows, cols)), rng))
    for m in mats:
        pk = fld.packing(m.cols)
        basis = pk.insert([], [pk.pack(r) for r in m.data])
        assert [(s // pk.bits, list(pk.unpack(r))) for s, r, _ in basis] == \
            ref_basis(fld, m.data)
        assert all(b == pk.pack_bytes(pk.unpack(r)) for _, r, b in basis)
        # insert runs reduce's loop inline, so the two are pinned to each
        # other: the rows inserted in two calls, the second into a
        # non-empty basis, give the one-call basis, and a row joins
        # exactly when reduce leaves something of it.
        rows = [pk.pack(r) for r in m.data]
        half = (len(rows) + 1) // 2
        assert pk.insert(pk.insert([], rows[:half]), rows[half:]) == basis
        grown = []
        for x in rows:
            rest, size = pk.reduce(grown, x), len(grown)
            assert (len(pk.insert(grown, [x])) > size) == (rest != 0)
        assert grown == basis
        assert mat_rank(m) == len(basis) == ref_rank(m)
        assert rref(m) == ref_rref(m)
        for target in (random_matrix(fld, 3, m.rows, rng) @ m,
                       random_matrix(fld, 2, m.cols, rng),
                       Matrix(fld, [[top] * m.cols] * 2)):
            assert solve_left(target, m) == ref_solve_left(target, m)
        a = vstack([Matrix(fld, [[top] * m.rows] * 2),
                    random_matrix(fld, 1, m.rows, rng)])
        assert np.array_equal((a @ m).array, fld.arr_matmul(a.array, m.array))
        if m.rows == m.cols:
            want = ref_inverse(m)
            if want is None:
                with pytest.raises(ValueError, match="singular"):
                    mat_inverse(m)
            else:
                assert mat_inverse(m) == want


def test_randbelow_draws_what_randrange_and_randint_draw():
    # Same values and the same use of the stream, so seeded outputs
    # (the verify JSON, the search's parity mixes) do not move.
    for n in range(1, 257):
        a, b, c = random.Random(n), random.Random(n), random.Random(n)
        assert randbelow(a, n, 40) == [b.randrange(n) for _ in range(40)] \
            == [c.randint(0, n - 1) for _ in range(40)]
        assert a.getstate() == b.getstate() == c.getstate()
    assert randbelow(random.Random(0), 5, 0) == []


def test_matrix_hash_is_kept_and_matches_equal_matrices():
    m = Matrix._of_rows(F5, [[1, 2], [3, 4]], 2)
    assert hash(m) == hash(m) == hash(Matrix(F5, [[1, 2], [3, 4]]))
    assert {m: 1}[Matrix(F5, [[1, 2], [3, 4]])] == 1
    assert hash(Matrix.zeros(F5, 0, 2)) != hash(Matrix.zeros(F5, 0, 3))


@pytest.mark.parametrize("q", [7, 8])
def test_rank_kernel_matches_plain_elimination(q):
    # Differential test of the packed kernel behind mat_rank and rank_pair
    # against numpy elimination, up to the 16 x 14 stacks of the verify
    # grid: 0 rows, 0 columns, 1 row, rank-deficient and full-rank.
    fld = field(q)
    rng = random.Random(100 + q)
    shapes = [(0, 5), (4, 0), (0, 0), (1, 1), (1, 7), (16, 14), (14, 16)]
    shapes += [(rng.randint(0, 16), rng.randint(1, 14)) for _ in range(120)]
    for i, (rows, cols) in enumerate(shapes):
        if i % 3 == 0:
            m = random_matrix(fld, rows, cols, rng)
        else:
            m = _random_of_rank(fld, rows, cols,
                                rng.randint(0, min(rows, cols)), rng)
        assert mat_rank(m) == ref_rank(m)
        extra = random_matrix(fld, rng.randint(0, 4), cols, rng)
        if i % 2 and m.rows:
            extra = random_matrix(fld, extra.rows, rows, rng) @ m
        assert rank_pair(m, extra) == (ref_rank(m),
                                       ref_rank(vstack([m, extra])))


@pytest.mark.parametrize("q", [7, 8])
def test_span_layer_matches_plain_elimination(q):
    # Differential test of the span functions against numpy plain
    # elimination: 0-row, 0-column, rank-deficient and full-rank bases,
    # targets inside and outside the span.  rref, solve_left and
    # mat_inverse must equal the reference entry for entry.
    fld = field(q)
    rng = random.Random(q)
    for case in range(80):
        cols = rng.randint(1, 6) if case % 8 else 0
        rows = case % 6
        basis = _random_of_rank(fld, rows, cols,
                                rng.randint(0, min(rows, cols)), rng)
        n_target = rng.randint(0, 3)
        if case % 2:
            target = random_matrix(fld, n_target, rows, rng) @ basis
        else:
            target = random_matrix(fld, n_target, cols, rng)
        rb, rj = rank_pair(basis, target)
        assert (rb, rj) == (ref_rank(basis), ref_rank(vstack([basis, target])))
        assert in_span(target, basis) == (rb == rj)
        t = solve_left(target, basis)
        assert t == ref_solve_left(target, basis)
        if rb == rj:
            assert t is not None and t.shape == (n_target, rows)
            assert (t @ basis) == target
        else:
            assert t is None
        r = rref(basis)
        assert r == ref_rref(basis) and r.shape == (rb, cols)
        assert rref(r) == r
        assert rref(vstack([basis, target])) == ref_rref(vstack([basis, target]))

        n = case % 5
        m = _random_of_rank(fld, n, n, rng.randint(max(0, n - 1), n), rng)
        inv = ref_inverse(m)
        if inv is not None:
            assert mat_inverse(m) == inv
            assert (m @ inv) == (inv @ m) == Matrix.identity(fld, n)
        else:
            with pytest.raises(ValueError, match="singular"):
                mat_inverse(m)


@pytest.mark.parametrize("q", [7, 8])
def test_row_form_matches_numpy(q):
    # Differential test of the tuple-row Matrix against numpy: products
    # against the arr_matmul kernel, take_cols, transpose and vstack
    # against numpy slicing, .T and np.vstack, with 0-row, 0-column and
    # 0-inner shapes.  Entries must stay plain ints (JSON writes them).
    fld = field(q)
    rng = random.Random(300 + q)
    shapes = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (2, 0, 0),
              (0, 0, 2), (1, 1, 1), (8, 8, 16)]
    shapes += [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(80)]
    for m, k, n in shapes:
        a = random_matrix(fld, m, k, rng)
        b = random_matrix(fld, k, n, rng)
        ab = a @ b
        assert ab.shape == (m, n)
        assert np.array_equal(ab.array, fld.arr_matmul(a.array, b.array))
        assert all(type(x) is int for x in ab.flat())
        idx = [rng.randrange(k) for _ in range(rng.randint(0, 5))] if k else []
        picked = a.take_cols(idx)
        assert picked.shape == (m, len(idx))
        assert np.array_equal(picked.array, a.array[:, idx])
        assert a.transpose().shape == (k, m)
        assert np.array_equal(a.transpose().array, a.array.T)
        c = random_matrix(fld, rng.randint(0, 3), k, rng)
        stacked = vstack([a, c, a])
        assert stacked.shape == (2 * m + c.rows, k)
        assert np.array_equal(stacked.array,
                              np.vstack([a.array, c.array, a.array]))


def test_matrix_copies_input_and_exports_read_only():
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    m = Matrix(F5, a)
    a[0, 0] = 4
    assert m.data == ((1, 2), (3, 4))
    assert m == Matrix(F5, [[1, 2], [3, 4]])
    assert hash(m) == hash(Matrix(F5, [[1, 2], [3, 4]]))
    out = m.array
    assert out.dtype == np.int64 and out.shape == (2, 2)
    assert not out.flags.writeable
    with pytest.raises(ValueError):
        out[0, 0] = 0
    assert Matrix.zeros(F5, 0, 3).array.shape == (0, 3)
    assert Matrix.zeros(F5, 3, 0).array.shape == (3, 0)


def test_subspace_count_examples():
    # One shared, immutable tuple per (ambient dim, field, dim).
    assert type(enumerate_subspaces(2, F2, 1)) is tuple
    assert enumerate_subspaces(2, F2, 1) is enumerate_subspaces(2, F2, 1)
    assert len(enumerate_subspaces(2, F2, 1)) == 3
    assert len(enumerate_subspaces(2, F3, 1)) == 4
    assert len(enumerate_subspaces(3, F2, 0)) == 1
    assert enumerate_subspaces(3, F2, 0)[0].rows == 0


@pytest.mark.parametrize("n,fld", [(3, F2), (3, F3), (2, F5), (4, F2)])
def test_subspace_counts_match_gaussian_binomial(n, fld):
    for d in range(n + 1):
        subs = enumerate_subspaces(n, fld, d)
        assert len(subs) == gaussian_binomial(n, d, fld.q)
        # canonical bases: full row rank, reduced echelon, pairwise distinct
        assert all(s.rows == d and mat_rank(s) == d for s in subs)
        assert all(rref(s) == s for s in subs)
        assert len({s for s in subs}) == len(subs)


def test_total_subspace_count_sums_over_dimensions():
    total = sum(len(enumerate_subspaces(3, F3, d)) for d in range(4))
    assert total == sum(gaussian_binomial(3, d, 3) for d in range(4))


def test_subspaces_are_distinct_as_row_spaces():
    subs = enumerate_subspaces(3, F2, 2)
    for i, a in enumerate(subs):
        for b in subs[i + 1:]:
            assert not (in_span(a, b) and in_span(b, a))


def test_each_nonzero_vector_hits_predicted_subspace_count():
    # Every nonzero vector lies in exactly gb(n-1, d-1, q) d-dim subspaces.
    n, d = 4, 2
    subs = enumerate_subspaces(n, F2, d)
    want = gaussian_binomial(n - 1, d - 1, 2)
    for raw in range(1, 2 ** n):
        vec = Matrix(F2, [[(raw >> i) & 1 for i in range(n)]])
        hits = sum(1 for s in subs if in_span(vec, s))
        assert hits == want


def test_subspace_dim_out_of_range():
    with pytest.raises(ValueError):
        enumerate_subspaces(2, F2, 3)
    with pytest.raises(ValueError):
        enumerate_subspaces(2, F2, -1)


def test_matrix_basics():
    m = Matrix(F5, [[1, 4], [0, 2]])
    assert m.data == ((1, 4), (0, 2))
    for bad in ([[6, 4]], [[1, -1]]):  # prime entries are not reduced mod p
        with pytest.raises(ValueError, match="outside"):
            Matrix(F5, bad)
    assert m.flat() == [1, 4, 0, 2]
    assert m.transpose().data == ((1, 0), (4, 2))
    with pytest.raises(ValueError):
        Matrix(F5, [1, 2, 3])  # not 2-D
    with pytest.raises(ValueError):
        Matrix(F4, [[9, 0]])  # out of range for a binary field
    for bad in ([[1.9, 2]], [[float("nan"), 0]]):  # never truncated
        with pytest.raises(ValueError, match="non-integer"):
            Matrix(F5, bad)
    assert Matrix(F5, [[2.0, 1]]).data == ((2, 1),)
    with pytest.raises(ValueError):
        Matrix(F5, [[1]]) @ Matrix(F5, [[1, 2], [3, 4]])
