"""Dense exact linear algebra over the fields in :mod:`convertbw.gf`.

A Matrix couples a Field with a tuple of row tuples of Python ints and
a column count.  Outside data enters through Matrix(field, rows), 2-D,
or Matrix.from_flat, a row-major entry list (JSON), whose entries
Field.as_elements checks; results computed in the package are built
unchecked by Matrix._of_rows.  (A message is checked by
Field.as_elements alone and multiplied as the list it returns.)  numpy
is used only for array output (_frozen: Matrix.array, encode,
decode_from, run_conversion), and is imported on the first such call,
not with the package.

All arithmetic runs on packed rows (Field.packing), whose lane format
only convertbw.gf knows: a row operation is one bytes.translate and one
big-int operation over every lane at once.  A matrix packs its rows
once, on the first product or elimination, and keeps them
(Matrix.packed, through RowPacking.pack_rows): as bytes for
Matrix.vecmul, a row vector times the matrix, through which matmul and
the write path (mds, convertible) multiply, and as ints for mat_rank,
rank_pair and rref, which unpack their results.  The oracle and the
search keep their rows packed and extend echelon bases with
RowPacking.insert directly.  Ranks count the rows that join a basis.
rref reads RowPacking.reduced, the reduced basis sorted by pivot, so
results are canonical.  solve_left reduces the rows of [basis | I],
each packed from its tuple, reads the pivots and the transform off the
unpacked rows and each solution off one Matrix.vecmul of that reduced
basis; mat_inverse is solve_left against I.

The random draws (randint, shuffle, random_map_rows) each inline the
getrandbits rejection loop of CPython's
random.Random._randbelow_with_getrandbits, with no stdlib method frame
per value: on a random.Random they return what rng.randint, rng.shuffle
and random_matrix return and leave the stream where those leave it, so
every seeded output is the same either way.  random_matrix, and
random_invertible through it, draws each entry with randint(rng, 0,
q - 1), what rng.randrange(q) draws; the randomized verify trials draw
through all three.  An empty range raises ValueError before any draw,
as randrange does.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from .gf import Field, RowPacking

if TYPE_CHECKING:
    import numpy as np


def _frozen(values, *shape: int) -> np.ndarray:
    """values as a new read-only int64 array of the given shape, a view
    of a read-only array, so neither it nor a view of it can be made
    writeable again."""
    import numpy as np
    out = np.array(values, dtype=np.int64)
    out.setflags(write=False)
    return out.reshape(shape)


class Matrix:
    """Immutable matrix over a finite field: row tuples `data`, `cols`."""

    __slots__ = ("field", "data", "cols", "_hash", "_pack")

    def __init__(self, field: Field, rows):
        values, shape = field.as_elements(rows)
        if len(shape) != 2:
            raise ValueError(f"matrix data must be 2-D, got shape {shape}")
        self.field = field
        self.data = tuple(map(tuple, values))
        self.cols = shape[1]
        self._hash = self._pack = None

    @classmethod
    def _of_rows(cls, field: Field, rows, cols: int) -> "Matrix":
        """Unchecked: rows are sequences of field elements, cols long."""
        m = object.__new__(cls)
        m.field = field
        m.data = tuple(map(tuple, rows))
        m.cols = cols
        m._hash = m._pack = None
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
        return Matrix._of_rows(self.field, map(other.vecmul, self.data), other.cols)

    __matmul__ = matmul

    def packed(self) -> tuple[RowPacking, tuple[int, ...], tuple[bytes, ...]]:
        """(Field.packing(cols), the rows packed, the rows as bytes)
        (RowPacking.pack_rows): the ints the eliminations rank and the
        bytes vecmul multiplies by, built on the first call and kept."""
        if self._pack is None:
            pk = self.field.packing(self.cols)
            self._pack = pk, *pk.pack_rows(self.data)
        return self._pack

    def vecmul(self, v) -> tuple[int, ...]:
        """The row vector v (field elements, one per row) times this
        matrix; a v of another length raises ValueError."""
        pk, _, rows = self._pack or self.packed()
        return pk.unpack(pk.combine(v, rows))

    def flat(self) -> list[int]:
        """Row-major flat entry list."""
        return [x for r in self.data for x in r]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self) -> int:
        # Matrices key value caches (verify_mds, the write path's plans),
        # so the hash of the entries is taken once.
        if self._hash is None:
            self._hash = hash((self.field.q, self.cols, self.data))
        return self._hash

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


def _check_span_args(target: Matrix, basis: Matrix) -> None:
    if target.field != basis.field or target.cols != basis.cols:
        raise ValueError(f"span question across {target!r} and {basis!r}")


def rank_pair(basis: Matrix, extra: Matrix) -> tuple[int, int]:
    """(rank(basis), rank(basis stacked with extra)) in one pass: the
    extra rows are inserted into the basis rows' echelon form."""
    _check_span_args(extra, basis)
    pk, rows, _ = basis.packed()
    rows = pk.insert([], rows)
    return len(rows), len(pk.insert(rows, extra.packed()[1]))


def mat_rank(m: Matrix) -> int:
    """Rank of m over its field."""
    pk, rows, _ = m.packed()
    return len(pk.insert([], rows))


def rref(m: Matrix) -> Matrix:
    """Reduced row-echelon basis of the row space (zero rows dropped)."""
    pk, rows, _ = m.packed()
    return Matrix._of_rows(m.field, map(pk.unpack, pk.reduced(rows)), m.cols)


def in_span(target: Matrix, basis: Matrix) -> bool:
    """True iff every row of target lies in the row space of basis."""
    rb, rj = rank_pair(basis, target)
    return rb == rj


def mat_inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError(f"cannot invert non-square matrix {m.shape}")
    # T @ m = I has a solution iff m is invertible, and it is m's inverse.
    inverse = solve_left(Matrix.identity(m.field, m.rows), m)
    if inverse is None:
        raise ValueError("matrix is singular")
    return inverse


def solve_left(target: Matrix, basis: Matrix) -> Matrix | None:
    """Find T with T @ basis = target, or None if some row is outside
    the row space of basis."""
    _check_span_args(target, basis)
    field, n, k = basis.field, basis.cols, basis.rows
    # Each reduced row R | T0 of [basis | I] has R = T0 @ basis, and the
    # rows with a pivot in basis's first n columns are the reduced basis
    # of the row space of basis.  The sum of t[p] * (R | T0) over them is
    # t' | T with t' = T @ basis, and t' is the one vector of that span
    # with t's entries at the pivots: t is in it iff t' = t.
    pk = field.packing(n + k)
    eye = Matrix.identity(field, k).data
    reduced = map(pk.unpack, pk.reduced([pk.pack(r + e) for r, e in zip(basis.data, eye)]))
    rows = [r for r in reduced if any(r[:n])]
    pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
    span = Matrix._of_rows(field, rows, n + k)
    out = []
    for t in target.data:
        x = span.vecmul([t[j] for j in pivots])
        if x[:n] != t:
            return None
        out.append(x[n:])
    return Matrix._of_rows(field, out, k)


@lru_cache(maxsize=64)
def enumerate_subspaces(dim_ambient: int, field: Field,
                        dim_sub: int) -> tuple[Matrix, ...]:
    """All subspaces of F_q^dim_ambient of dimension dim_sub, one
    canonical reduced-echelon basis each, in a fixed deterministic order.
    The tuple is built once per (dim_ambient, field, dim_sub) and shared:
    a search takes its menus from it for every code pair it searches.
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
    return tuple(out)


@lru_cache(maxsize=64)
def subspace_index(dim_ambient: int, field: Field,
                   dim_sub: int) -> Mapping[tuple, int]:
    """The index of each subspace in enumerate_subspaces(dim_ambient,
    field, dim_sub), keyed by its canonical basis (the entry's data, the
    rows rref returns for any basis of it): a read-only mapping, built
    once per (dim_ambient, field, dim_sub) and shared."""
    return MappingProxyType({m.data: i for i, m in enumerate(
        enumerate_subspaces(dim_ambient, field, dim_sub))})


def randint(rng, a: int, b: int) -> int:
    """What rng.randint(a, b) returns; b < a raises ValueError."""
    n = b - a + 1
    if n < 1:
        raise ValueError(f"empty range for randint({a}, {b})")
    bits = rng.getrandbits
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return a + r


def shuffle(rng, x: list) -> None:
    """Shuffle the list x in place as rng.shuffle(x) does."""
    bits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = bits(k)
        while j >= n:
            j = bits(k)
        x[i], x[j] = x[j], x[i]


def random_map_rows(field: Field, cols: int, rng) -> tuple[tuple[int, ...], ...]:
    """The coefficient rows (Matrix.data) of a random download map with
    cols columns: what random_matrix(field, rng.randint(0, cols), cols,
    rng).data returns.  cols < 0 raises ValueError."""
    n = cols + 1
    if n < 1:
        raise ValueError(f"empty range for the row count of a map with {cols} columns")
    bits = rng.getrandbits
    k = n.bit_length()
    count = bits(k)
    while count >= n:
        count = bits(k)
    q = field.q
    kq = q.bit_length()
    rows = []
    for _ in range(count):
        row = []
        for _ in range(cols):
            x = bits(kq)
            while x >= q:
                x = bits(kq)
            row.append(x)
        rows.append(tuple(row))
    return tuple(rows)


def random_matrix(field: Field, rows: int, cols: int, rng) -> Matrix:
    """Uniformly random matrix, driven by a random.Random instance."""
    top = field.q - 1
    return Matrix._of_rows(field, [[randint(rng, 0, top) for _ in range(cols)]
                                   for _ in range(rows)], cols)


def random_invertible(field: Field, n: int, rng) -> Matrix:
    """Uniformly-seeded invertible n x n matrix (rejection sampling)."""
    while True:
        m = random_matrix(field, n, n, rng)
        if n == 0 or mat_rank(m) == n:
            return m
