"""Matrix machinery tests: rank, span, canonical forms, subspace menus."""

import random

import pytest

from convertbw.gf import field
from convertbw.linalg import (Matrix, enumerate_subspaces, gaussian_binomial,
                              in_span, mat_inverse, mat_rank, rank_pair,
                              random_invertible, random_matrix, rref,
                              solve_left, vstack)

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


@pytest.mark.parametrize("q", [7, 8])
def test_span_layer_matches_plain_elimination(q):
    # Differential test of the reduced-basis span functions against
    # mat_rank's plain elimination: 0-row, rank-deficient and full-rank
    # bases, targets inside and outside the span.
    fld = field(q)
    rng = random.Random(q)
    for case in range(80):
        cols = rng.randint(1, 6)
        rows = case % 6
        basis = _random_of_rank(fld, rows, cols,
                                rng.randint(0, min(rows, cols)), rng)
        n_target = rng.randint(0, 3)
        if case % 2:
            target = random_matrix(fld, n_target, rows, rng) @ basis
        else:
            target = random_matrix(fld, n_target, cols, rng)
        rb, rj = rank_pair(basis, target)
        assert (rb, rj) == (mat_rank(basis), mat_rank(vstack([basis, target])))
        assert in_span(target, basis) == (rb == rj)
        t = solve_left(target, basis)
        if rb == rj:
            assert t is not None and t.shape == (n_target, rows)
            assert (t @ basis) == target
        else:
            assert t is None
        r = rref(basis)
        assert rref(r) == r and r.rows == mat_rank(r) == rb

        n = case % 5
        m = _random_of_rank(fld, n, n, rng.randint(max(0, n - 1), n), rng)
        if mat_rank(m) == n:
            inv = mat_inverse(m)
            assert (m @ inv) == (inv @ m) == Matrix.identity(fld, n)
        else:
            with pytest.raises(ValueError, match="singular"):
                mat_inverse(m)


def test_subspace_count_examples():
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
    assert m.tolist() == [[1, 4], [0, 2]]
    for bad in ([[6, 4]], [[1, -1]]):  # prime entries are not reduced mod p
        with pytest.raises(ValueError, match="outside"):
            Matrix(F5, bad)
    assert m.flat() == [1, 4, 0, 2]
    assert m.transpose().tolist() == [[1, 0], [4, 2]]
    with pytest.raises(ValueError):
        Matrix(F5, [1, 2, 3])  # not 2-D
    with pytest.raises(ValueError):
        Matrix(F4, [[9, 0]])  # out of range for a binary field
    for bad in ([[1.9, 2]], [[float("nan"), 0]]):  # never truncated
        with pytest.raises(ValueError, match="non-integer"):
            Matrix(F5, bad)
    assert Matrix(F5, [[2.0, 1]]).tolist() == [[2, 1]]
    with pytest.raises(ValueError):
        Matrix(F5, [[1]]) @ Matrix(F5, [[1, 2], [3, 4]])
