"""Dense exact linear algebra over the fields in :mod:`convertbw.gf`.

A Matrix couples a Field with a tuple of row tuples of Python ints and
a column count.  Outside data enters through Matrix(field, rows), 2-D,
or Matrix.from_flat, a row-major entry list (messages, JSON), whose
entries Field.as_elements checks; results computed in the package are
built unchecked by Matrix._of_rows.  numpy is used only for output:
_frozen and the read-only Matrix.array.

All arithmetic runs on Python lists, since most matrices here have a
few rows, and its field kernel is Field.row_submul: a product adds
c * row for each nonzero coefficient c as row_submul(acc, row, -c).
Field.lincomb, the other kernel, serves only the write path in mds and
convertible, whose matrices are fixed and packed once in caches.
Matrix.matmul and the elimination here stay on row_submul because their
right-hand operands are transient: each would be packed for one use.
Measured on a prototype that sent every product through packed lanes,
that cost verify-grid 3-4 % and certify-deep about 1.5 % of throughput,
and convert-gf2m gained 22-30 % instead of 40-48 %.
_insert_rows keeps an echelon basis in insertion order: (pivot column,
row) pairs, each row scaled to 1 at its pivot (its first nonzero entry)
and zero at the pivots of the rows before it.  Ranks count the rows that
join; _reduce_row leaves nothing of exactly the rows in the span; rref,
mat_inverse and solve_left back-substitute the basis sorted by pivot
(_rref_rows), so results are canonical.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf import Field


def _frozen(values, *shape: int) -> np.ndarray:
    """values as a new read-only int64 array of the given shape."""
    out = np.array(values, dtype=np.int64).reshape(shape)
    out.setflags(write=False)
    return out


class Matrix:
    """Immutable matrix over a finite field: row tuples `data`, `cols`."""

    __slots__ = ("field", "data", "cols")

    def __init__(self, field: Field, rows):
        values, shape = field.as_elements(rows)
        if len(shape) != 2:
            raise ValueError(f"matrix data must be 2-D, got shape {shape}")
        self.field = field
        self.data = tuple(map(tuple, values))
        self.cols = shape[1]

    @classmethod
    def _of_rows(cls, field: Field, rows, cols: int) -> "Matrix":
        """Unchecked: rows are sequences of field elements, cols long."""
        m = object.__new__(cls)
        m.field = field
        m.data = tuple(map(tuple, rows))
        m.cols = cols
        return m

    @classmethod
    def from_flat(cls, field: Field, flat, rows: int, cols: int, what: str) -> "Matrix":
        """The rows x cols matrix whose row-major entries (Matrix.flat)
        are flat, a sequence checked by Field.as_elements."""
        values, shape = field.as_elements(flat)
        if shape != (rows * cols,):
            raise ValueError(f"{what}: expected {rows * cols} entries, got shape {shape}")
        return cls._of_rows(field, [values[i * cols:(i + 1) * cols]
                                    for i in range(rows)], cols)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._of_rows(field, [(0,) * cols] * rows, cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._of_rows(field, [[int(i == j) for j in range(n)]
                                    for i in range(n)], n)

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.data), self.cols

    @property
    def array(self) -> np.ndarray:
        """The entries as a new read-only int64 array."""
        return _frozen(self.data, *self.shape)

    def take_cols(self, indices: Sequence[int]) -> "Matrix":
        idx = list(indices)
        return Matrix._of_rows(self.field, [[r[i] for i in idx]
                                            for r in self.data], len(idx))

    def transpose(self) -> "Matrix":
        cols = zip(*self.data) if self.data else [()] * self.cols
        return Matrix._of_rows(self.field, cols, len(self.data))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("matrix product across different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        fld = self.field
        zero = (0,) * other.cols
        out = []
        for row in self.data:
            acc = zero
            for c, b in zip(row, other.data):
                if c:   # acc - (-c) b = acc + c b
                    acc = fld.row_submul(acc, b, fld.sub(0, c))
            out.append(acc)
        return Matrix._of_rows(fld, out, other.cols)

    __matmul__ = matmul

    def flat(self) -> list[int]:
        """Row-major flat entry list."""
        return [x for r in self.data for x in r]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.field.q, self.cols, self.data))

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


def vstack(mats: Sequence[Matrix]) -> Matrix:
    """Stack matrices with equal column counts on top of one another."""
    if not mats:
        raise ValueError("vstack needs at least one matrix")
    field = mats[0].field
    cols = mats[0].cols
    for m in mats[1:]:
        if m.field != field:
            raise ValueError("vstack across different fields")
        if m.cols != cols:
            raise ValueError(f"column mismatch: {m.cols} != {cols}")
    return Matrix._of_rows(field, [r for m in mats for r in m.data], cols)


def _reduce_row(field: Field, basis: list, r: list) -> list:
    """r minus the multiple of each basis row, in insertion order, that
    clears r at that row's pivot: zero at every pivot, and zero exactly
    when r lies in the span of the basis."""
    for p, b in basis:
        c = r[p]
        if c:
            r = field.row_submul(r, b, c)
    return r


def _insert_rows(field: Field, basis: list, rows: list) -> list:
    """Extend basis, (pivot column, row) pairs, by rows; return it.  The
    nonzero remainder of a row under _reduce_row joins, scaled to 1 at
    its first nonzero column (its pivot)."""
    for r in rows:
        r = _reduce_row(field, basis, r)
        for p, x in enumerate(r):
            if x:
                if x != 1:   # r - (1 - 1/x) r = r / x
                    r = field.row_submul(r, r, field.sub(1, field.inv(x)))
                basis.append((p, r))
                break
    return basis


def _rref_rows(field: Field, rows: list) -> list:
    """The reduced row-echelon basis of the span of rows, as (pivot,
    row) pairs sorted by pivot: the inserted rows, each cleared at the
    larger pivots from the last pivot up."""
    out: list = []
    for p, r in sorted(_insert_rows(field, [], rows),
                       key=lambda pr: pr[0], reverse=True):
        out.append((p, _reduce_row(field, out, r)))
    out.reverse()
    return out


def _check_span_args(target: Matrix, basis: Matrix) -> None:
    if target.field != basis.field or target.cols != basis.cols:
        raise ValueError(f"span question across {target!r} and {basis!r}")


def rank_pair(basis: Matrix, extra: Matrix) -> tuple[int, int]:
    """(rank(basis), rank(basis stacked with extra)) in one pass: the
    extra rows are inserted into the basis rows' echelon form."""
    _check_span_args(extra, basis)
    rows = _insert_rows(basis.field, [], basis.data)
    return len(rows), len(_insert_rows(basis.field, rows, extra.data))


def mat_rank(m: Matrix) -> int:
    """Rank of m over its field."""
    return len(_insert_rows(m.field, [], m.data))


def rref(m: Matrix) -> Matrix:
    """Reduced row-echelon basis of the row space (zero rows dropped)."""
    return Matrix._of_rows(m.field, [r for _, r in _rref_rows(m.field, m.data)],
                           m.cols)


def in_span(target: Matrix, basis: Matrix) -> bool:
    """True iff every row of target lies in the row space of basis."""
    rb, rj = rank_pair(basis, target)
    return rb == rj


def mat_inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError(f"cannot invert non-square matrix {m.shape}")
    n = m.rows
    eye = Matrix.identity(m.field, n).data
    rows = _rref_rows(m.field, [r + e for r, e in zip(m.data, eye)])
    # [m | I] always has rank n; m is invertible iff every pivot is in m.
    if [p for p, _ in rows] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix._of_rows(m.field, [r[n:] for _, r in rows], n)


def solve_left(target: Matrix, basis: Matrix) -> Matrix | None:
    """Find T with T @ basis = target, or None if some row is outside
    the row space of basis."""
    _check_span_args(target, basis)
    field = basis.field
    n, k = basis.cols, basis.rows
    # Each reduced row R | T0 of [basis | I] has R = T0 @ basis, and the
    # rows with a pivot below n are the reduced basis of the row space
    # of basis.  Clearing t | 0 at their pivots subtracts t[p] * (R | T0)
    # for each, leaving t - T @ basis | -T, with T = sum of t[p] * T0.
    eye = Matrix.identity(field, k).data
    span = [(p, r) for p, r in _rref_rows(
        field, [b + e for b, e in zip(basis.data, eye)]) if p < n]
    out = []
    for t in target.data:
        r = _reduce_row(field, span, t + (0,) * k)
        if any(r[:n]):
            return None
        out.append([field.sub(0, x) for x in r[n:]])
    return Matrix._of_rows(field, out, k)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(dim_ambient: int, field: Field, dim_sub: int) -> list[Matrix]:
    """All subspaces of F_q^dim_ambient of dimension dim_sub, one
    canonical reduced-echelon basis each, in a fixed deterministic order.
    """
    n = dim_ambient
    d = dim_sub
    if not 0 <= d <= n:
        raise ValueError(f"subspace dimension {d} out of range [0, {n}]")
    from itertools import combinations, product

    out: list[Matrix] = []
    elems = list(field.elements())
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        # Free coordinates: non-pivot columns to the right of each pivot.
        free_slots = [
            (i, c)
            for i, p in enumerate(pivots)
            for c in range(p + 1, n)
            if c not in pivot_set
        ]
        for values in product(elems, repeat=len(free_slots)):
            a = [[int(c == p) for c in range(n)] for p in pivots]
            for (i, c), v in zip(free_slots, values):
                a[i][c] = v
            out.append(Matrix._of_rows(field, a, n))
    return out


def random_matrix(field: Field, rows: int, cols: int, rng) -> Matrix:
    """Uniformly random matrix, driven by a random.Random instance."""
    q = field.q
    return Matrix._of_rows(field, [[rng.randrange(q) for _ in range(cols)]
                                   for _ in range(rows)], cols)


def random_invertible(field: Field, n: int, rng) -> Matrix:
    """Uniformly-seeded invertible n x n matrix (rejection sampling)."""
    while True:
        m = random_matrix(field, n, n, rng)
        if n == 0 or mat_rank(m) == n:
            return m
