"""Matrix machinery tests: rank, span, canonical forms, subspace menus."""

import random
from types import MappingProxyType

import numpy as np
import pytest

from convertbw.gf import RowPacking, field
from convertbw.linalg import (Matrix, enumerate_subspaces, in_span,
                              mat_inverse, mat_rank, randint,
                              rank_pair, random_invertible, random_map_rows,
                              random_matrix, rref, shuffle, solve_left,
                              subspace_index, vstack)
from plain_elimination import (ref_basis, ref_inverse, ref_rank, ref_relations,
                               ref_rref, ref_solve_left)
from support import add, gaussian_binomial, sub

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
        # The rows inserted in two calls, the second into a non-empty
        # basis, give the one-call basis, and none of them joins a copy
        # of the whole basis.
        rows = [pk.pack(r) for r in m.data]
        assert [pk.unpack(r) for r in pk.reduced(rows)] == list(ref_rref(m).data)
        half = (len(rows) + 1) // 2
        assert pk.insert(pk.insert([], rows[:half]), rows[half:]) == basis
        assert pk.insert(list(basis), rows) == basis
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


def _scalar_remainder(fld, pk, basis, row):
    """row minus the multiple of each basis row, in order, that clears
    it at that row's pivot, by scalar field operations."""
    row = list(row)
    for shift, b, _ in basis:
        c = row[shift // pk.bits]
        row = [sub(fld, x, fld.mul(c, y)) for x, y in zip(row, pk.unpack(b))]
    return row


@pytest.mark.parametrize("q", [5, 131, 16])
def test_rows_joining_a_basis_copy_are_the_rows_modulo_it(q):
    # The search's residual form: the rows that join a copy of a basis
    # (pk.modulo) leave the basis unchanged, are the scalar remainders of
    # the rows inserted in turn (so zero at every basis pivot), and count
    # the rank the rows add to the basis.
    fld = field(q)
    rng = random.Random(q)
    m = _random_of_rank(fld, 6, 9, 4, rng)
    pk = fld.packing(9)
    basis = pk.insert([], [pk.pack(r) for r in m.data])
    assert len(basis) == 4
    top = q - 1
    rows = ([(0,) * 9, (top,) * 9] + list((random_matrix(fld, 3, 6, rng) @ m).data)
            + list(random_matrix(fld, 4, 9, rng).data))
    rng.shuffle(rows)
    before = list(basis)
    joined = pk.insert(list(basis), [pk.pack(r) for r in rows])[len(basis):]
    assert pk.modulo(basis, [pk.pack(r) for r in rows]) == [x for _, x, _ in joined]
    assert basis == before
    assert [(s // pk.bits, list(pk.unpack(x))) for s, x, _ in joined] == \
        ref_basis(fld, [_scalar_remainder(fld, pk, basis, r) for r in rows])
    assert all(x >> s & pk.mask == 0 for s, _, _ in basis for _, x, _ in joined)
    both = vstack([m, Matrix(fld, rows)])
    assert len(joined) == ref_rank(both) - len(basis) > 0
    assert [pk.unpack(r) for r in pk.reduced([pk.pack(r) for r in both.data])] == \
        list(ref_rref(both).data)
    in_span = [pk.pack(r) for r in (random_matrix(fld, 3, 6, rng) @ m).data]
    assert pk.insert(list(basis), in_span) == basis
    assert pk.insert(list(basis), []) == basis
    assert pk.modulo(basis, in_span) == pk.modulo(basis, []) == []
    assert basis == before


def test_random_matrix_draws_what_randrange_draws():
    # Same values and the same use of the stream, so seeded outputs
    # (the verify JSON, the search's parity mixes) do not move.
    for q in SUPPORTED_QS:
        fld = field(q)
        for rows, cols in ((5, 8), (0, 3), (3, 0)):
            a, b = random.Random(q), random.Random(q)
            assert random_matrix(fld, rows, cols, a).data == tuple(
                tuple(b.randrange(q) for _ in range(cols)) for _ in range(rows))
            assert a.getstate() == b.getstate()


def test_randint_draws_what_random_randint_draws():
    # Spans 1..300: each power of two 2^k and its neighbours 2^k +- 1 are in.
    for span in range(1, 301):
        for a in (0, -7, span):
            b = a + span - 1
            ours, ref = random.Random(span * 3 + a), random.Random(span * 3 + a)
            assert [randint(ours, a, b) for _ in range(30)] == \
                [ref.randint(a, b) for _ in range(30)]
            assert ours.getstate() == ref.getstate()


def test_shuffle_draws_what_random_shuffle_draws():
    for n in range(13):
        for seed in range(20):
            ours, ref = random.Random(seed), random.Random(seed)
            x, y = list(range(n)), list(range(n))
            assert shuffle(ours, x) is None
            ref.shuffle(y)
            assert x == y and sorted(x) == list(range(n))
            assert ours.getstate() == ref.getstate()


def test_draws_interleaved_with_random_keep_the_stream():
    # The trials' pattern: shuffle, randint, coin flips, map draws, more
    # randint; both sides must stay in step for the whole sequence.
    ours, ref = random.Random(2024), random.Random(2024)
    fld = field(7)
    for step in range(400):
        n = step % 12
        x, y = [f"v{i}" for i in range(n)], [f"v{i}" for i in range(n)]
        shuffle(ours, x)
        ref.shuffle(y)
        assert x == y
        hi = step % 300 + 1
        assert randint(ours, 1, hi) == ref.randint(1, hi)
        assert randint(ours, hi, hi) == ref.randint(hi, hi) == hi
        assert [ours.random() < 0.4 for _ in range(n)] == \
            [ref.random() < 0.4 for _ in range(n)]
        assert random_map_rows(fld, step % 3, ours) == \
            random_matrix(fld, ref.randint(0, step % 3), step % 3, ref).data
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("draw", [
    lambda rng: randint(rng, 0, -1),
    lambda rng: randint(rng, 0, -4),
    lambda rng: randint(rng, 1, 0),
    lambda rng: randint(rng, 5, -5),
    lambda rng: random_map_rows(F5, -1, rng),
    lambda rng: random_map_rows(F5, -4, rng),
])
def test_empty_ranges_are_refused_before_any_draw(draw):
    # getrandbits(0) is 0, never below an n < 1: without the refusal the
    # rejection loop would never end.  randrange raises on an empty range.
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="empty range"):
        draw(rng)
    assert rng.getstate() == state


SUPPORTED_QS = [q for q in range(2, 257)
                if all(q % d for d in range(2, q)) or q & (q - 1) == 0]


def test_random_map_rows_draws_what_randint_and_random_matrix_draw():
    # The verify suite draws its random download maps as rows; they must
    # be the rows, and leave the stream where, the Matrix draw left it.
    assert len(SUPPORTED_QS) == 54 + 7   # primes <= 251, then 2^2 .. 2^8
    for q in SUPPORTED_QS:
        fld = field(q)
        for alpha in (1, 2, 3):
            a, b = random.Random(q * 10 + alpha), random.Random(q * 10 + alpha)
            for _ in range(20):
                want = random_matrix(fld, b.randint(0, alpha), alpha, b).data
                assert random_map_rows(fld, alpha, a) == want
            assert a.getstate() == b.getstate()


def test_matrix_hash_is_kept_and_matches_equal_matrices():
    m = Matrix._of_rows(F5, [[1, 2], [3, 4]], 2)
    assert hash(m) == hash(m) == hash(Matrix(F5, [[1, 2], [3, 4]]))
    assert {m: 1}[Matrix(F5, [[1, 2], [3, 4]])] == 1
    assert hash(Matrix.zeros(F5, 0, 2)) != hash(Matrix.zeros(F5, 0, 3))


@pytest.mark.parametrize("q", [7, 131, 8])
def test_a_matrix_packs_its_rows_once(q, monkeypatch):
    # Products and eliminations read one cache (Matrix.packed), whichever
    # of them touches the matrix first.
    calls = []
    pack_rows = RowPacking.pack_rows

    def spy(pk, rows):
        calls.append(rows)
        return pack_rows(pk, rows)

    monkeypatch.setattr(RowPacking, "pack_rows", spy)
    fld = field(q)
    uses = [lambda m: m.packed(), mat_rank, rref,
            lambda m: rank_pair(m, m), lambda m: m.vecmul([1, 2, 0])]
    for first in range(len(uses)):
        m = random_matrix(fld, 3, 4, random.Random(first))
        calls.clear()
        for use in uses[first:] + uses[:first]:
            use(m)
        assert calls == [m.data]


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


@pytest.mark.parametrize("q", [5, 7, 8, 16, 131])
def test_relations_match_plain_elimination(q):
    # The linear relations of rows modulo a basis's span (the search's
    # tight-node solve), over 8-bit prime lanes, XOR lanes and the 16-bit
    # lanes of GF(131): an empty basis, a partial and a full one; no
    # rows, zero rows, rows of q - 1, rows in the span, rank-deficient
    # and random rows.  Each must equal numpy elimination's and leave the
    # basis as it was.
    fld = field(q)
    rng = random.Random(q)
    cols, top = 7, q - 1
    pk = fld.packing(cols)
    bases = [Matrix.zeros(fld, 0, cols), _random_of_rank(fld, 4, cols, 3, rng),
             random_matrix(fld, 2, cols, rng), Matrix.identity(fld, cols)]
    for b in bases:
        basis = pk.insert([], [pk.pack(r) for r in b.data])
        before = list(basis)
        row_sets = [Matrix.zeros(fld, 0, cols), Matrix.zeros(fld, 2, cols),
                    Matrix(fld, [[top] * cols] * 3),
                    random_matrix(fld, 3, b.rows, rng) @ b if b.rows else
                    Matrix.zeros(fld, 3, cols),
                    _random_of_rank(fld, 3, cols, 2, rng),
                    vstack([random_matrix(fld, 2, cols, rng),
                            random_matrix(fld, 1, b.rows, rng) @ b if b.rows else
                            Matrix.zeros(fld, 1, cols)]),
                    random_matrix(fld, 1, cols, rng), random_matrix(fld, 3, cols, rng)]
        for m in row_sets:
            rows = [pk.pack(r) for r in m.data]
            got = pk.relations(basis, rows)
            assert got == ref_relations(fld, cols, b.data, m.data)
            assert basis == before
            if not m.rows:
                assert got == ()
                continue
            # Linear: rows moved by elements of the span keep their
            # relations, and rows t @ m have the relations w @ t^-1.
            moved = Matrix(fld, add(fld, m.array, (random_matrix(fld, m.rows, b.rows, rng)
                                                   @ b).array)) if b.rows else m
            assert pk.relations(basis, [pk.pack(r) for r in moved.data]) == got
            t = random_invertible(fld, m.rows, rng)
            want = rref(Matrix(fld, got) @ mat_inverse(t)).data if got else ()
            assert pk.relations(basis, [pk.pack(r) for r in (t @ m).data]) == want
            assert basis == before


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_subspace_index_maps_each_basis_to_its_entry(alpha, q):
    # Each enumerate_subspaces entry maps back to its own index, and so
    # does the canonical form of a random other basis of it.
    fld = field(q)
    rng = random.Random(10 * q + alpha)
    for d in range(alpha + 1):
        subs = enumerate_subspaces(alpha, fld, d)
        index = subspace_index(alpha, fld, d)
        assert len(index) == len(subs)
        for i, m in enumerate(subs):
            assert index[m.data] == i
            other = random_invertible(fld, d, rng) @ m
            assert index[rref(other).data] == i


def test_subspace_index_is_shared_and_immutable():
    index = subspace_index(2, F5, 1)
    assert index is subspace_index(2, F5, 1)
    assert type(index) is MappingProxyType
    with pytest.raises(TypeError):
        index[((1, 0),)] = 1
    assert index[((1, 0),)] == 0


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
