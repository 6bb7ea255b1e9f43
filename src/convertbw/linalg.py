"""Dense exact linear algebra over the fields in :mod:`convertbw.gf`.

A Matrix couples a Field with an immutable 2-D numpy int64 array; its
constructor rejects non-integer entries and entries outside [0, q).

Elimination scales each pivot row by the inverse of its pivot, the first
nonzero entry in column order, so results are reproducible.  Every span
question goes through _reduced_basis (reduced row-echelon basis and its
pivot columns) and _reduce (rows minus their pivot-column coordinates
times that basis: zero exactly on rows in the span).  mat_rank keeps
plain elimination, the independent reference of the tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf import Field


class Matrix:
    """Immutable rectangular matrix over a finite field."""

    __slots__ = ("field", "_a")

    def __init__(self, field: Field, rows):
        a = field.as_elements(rows)
        if a.ndim != 2:
            raise ValueError(f"matrix data must be 2-D, got shape {a.shape}")
        a.setflags(write=False)
        self.field = field
        self._a = a

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only numpy array."""
        return self._a

    def take_cols(self, indices: Sequence[int]) -> "Matrix":
        return Matrix(self.field, self._a[:, list(indices)])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self._a.T)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("matrix product across different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        return Matrix(self.field, self.field.arr_matmul(self._a, other._a))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.matmul(other)

    def tolist(self) -> list[list[int]]:
        return self._a.tolist()

    def flat(self) -> list[int]:
        """Row-major flat entry list."""
        return [int(x) for x in self._a.reshape(-1)]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.shape == other.shape
                and np.array_equal(self._a, other._a))

    def __hash__(self) -> int:
        return hash((self.field.q, self.shape, self._a.tobytes()))

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
    return Matrix(field, np.vstack([m.array for m in mats]))


def _echelon_inplace(field: Field, a: np.ndarray, reduced: bool = False) -> list[int]:
    """Echelonize *a* in place; returns the pivot columns (pivot i in row i).

    Pivot rows are scaled to 1 and eliminated below; with reduced=True the
    result is the reduced row-echelon form (each pivot also the only
    nonzero entry in its column).
    """
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        v = int(a[r, c])
        if v != 1:
            a[r, :] = field.arr_scale(a[r, :], field.inv(v))
        if r + 1 < m:
            a[r + 1:, :] = field.arr_submul(a[r + 1:, :], a[r, :], a[r + 1:, c])
        if reduced and r > 0:
            a[:r, :] = field.arr_submul(a[:r, :], a[r, :], a[:r, c])
        pivots.append(c)
        r += 1
    return pivots


def _reduced_basis(field: Field, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The reduced row-echelon basis of a's row space (a new array, zero
    rows dropped) and its pivot columns."""
    a = a.copy()
    pivots = _echelon_inplace(field, a, reduced=True)
    return a[: len(pivots)], pivots


def _reduce(field: Field, rows: np.ndarray, basis: np.ndarray,
            pivots: list[int]) -> np.ndarray:
    """rows minus their pivot-column coordinates times the reduced
    basis: a new array with zeros in every pivot column, zero exactly
    where a row lies in the span of basis."""
    return field.sub(rows, field.arr_matmul(rows[:, pivots], basis))


def _check_span_args(target: Matrix, basis: Matrix) -> None:
    if target.field != basis.field or target.cols != basis.cols:
        raise ValueError(f"span question across {target!r} and {basis!r}")


def rank_pair(basis: Matrix, extra: Matrix) -> tuple[int, int]:
    """(rank(basis), rank(basis stacked with extra)) in one pass: the
    extra rows reduced against the basis add the rank of their residual."""
    _check_span_args(extra, basis)
    field = basis.field
    b, pivots = _reduced_basis(field, basis.array)
    residual = _reduce(field, extra.array, b, pivots)
    return len(pivots), len(pivots) + len(_echelon_inplace(field, residual))


def mat_rank(m: Matrix) -> int:
    """Rank of m over its field, by plain (non-reduced) elimination."""
    return len(_echelon_inplace(m.field, m.array.copy()))


def rref(m: Matrix) -> Matrix:
    """Reduced row-echelon basis of the row space (zero rows dropped)."""
    return Matrix(m.field, _reduced_basis(m.field, m.array)[0])


def in_span(target: Matrix, basis: Matrix) -> bool:
    """True iff every row of target lies in the row space of basis."""
    _check_span_args(target, basis)
    b, pivots = _reduced_basis(basis.field, basis.array)
    return not _reduce(basis.field, target.array, b, pivots).any()


def mat_inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError(f"cannot invert non-square matrix {m.shape}")
    n = m.rows
    a, pivots = _reduced_basis(
        m.field, np.hstack([m.array, np.eye(n, dtype=np.int64)]))
    # [m | I] always has rank n; m is invertible iff every pivot is in m.
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(m.field, a[:, n:])


def solve_left(target: Matrix, basis: Matrix) -> Matrix | None:
    """Find T with T @ basis = target, or None if some row is outside
    the row space of basis."""
    _check_span_args(target, basis)
    field = basis.field
    n = basis.cols
    # Reducing [basis | I] tracks the transform: each row R | T0 of the
    # result has R = T0 @ basis, and the rows with a pivot below n span
    # the row space of basis.
    a, pivots = _reduced_basis(
        field, np.hstack([basis.array, np.eye(basis.rows, dtype=np.int64)]))
    pivots = [c for c in pivots if c < n]
    red, t0 = a[: len(pivots), :n], a[: len(pivots), n:]
    if _reduce(field, target.array, red, pivots).any():
        return None
    return Matrix(field, field.arr_matmul(target.array[:, pivots], t0))


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
    if d == 0:
        return [Matrix.zeros(field, 0, n)]
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
        base = np.zeros((d, n), dtype=np.int64)
        for i, p in enumerate(pivots):
            base[i, p] = 1
        for values in product(elems, repeat=len(free_slots)):
            a = base.copy()
            for (i, c), v in zip(free_slots, values):
                a[i, c] = v
            out.append(Matrix(field, a))
    return out


def random_matrix(field: Field, rows: int, cols: int, rng) -> Matrix:
    """Uniformly random matrix, driven by a random.Random instance."""
    a = np.array(
        [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    ).reshape(rows, cols)
    return Matrix(field, a)


def random_invertible(field: Field, n: int, rng) -> Matrix:
    """Uniformly-seeded invertible n x n matrix (rejection sampling)."""
    while True:
        m = random_matrix(field, n, n, rng)
        if n == 0 or mat_rank(m) == n:
            return m
