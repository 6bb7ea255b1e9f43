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

All arithmetic runs on packed rows (Field.packing): each row of
elements is one int, column j in lane j, and a row operation is one
bytes.translate and one big-int operation over every lane at once (see
convertbw.gf).  Matrix.vecmul, a row vector times a matrix, runs on
rows the matrix packs on its first product and keeps (Matrix.packed);
matmul and the write path (mds, convertible) multiply through it.  The
elimination functions pack their rows on entry, uncached (their
matrices mostly serve one call), and unpack their results.  The oracle
and the search keep their rows packed and extend echelon bases with
RowPacking.insert directly.  Such a basis is kept in insertion order:
(shift, row, bytes) entries, each row scaled to 1 at its pivot (its
first nonzero entry) and zero at the pivots of the rows before it.
Ranks count the rows that join; rref, mat_inverse and solve_left
back-substitute the basis sorted by pivot (_rref_rows), so results are
canonical, and solve_left reads each solution off one
RowPacking.combine of that reduced basis.

The random draws (randbelow, randint, shuffle, random_map_rows) each
inline the getrandbits rejection loop of CPython's
random.Random._randbelow_with_getrandbits, with no stdlib method frame
per value: on a random.Random they return what rng.randrange,
rng.randint, rng.shuffle and random_matrix return and leave the stream
where those leave it, so every seeded output is the same either way.
randbelow is the bulk form that random_matrix and random_invertible
draw through; the randomized verify trials draw through the other three.
An empty range raises ValueError before any draw, as randrange does.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

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

    def packed(self) -> tuple[RowPacking, tuple[bytes, ...]]:
        """(Field.packing(cols), the rows as bytes): the form vecmul
        multiplies by, built on the first call and kept."""
        if self._pack is None:
            pk = self.field.packing(self.cols)
            self._pack = pk, tuple(map(pk.pack_bytes, self.data))
        return self._pack

    def vecmul(self, v) -> tuple[int, ...]:
        """The row vector v (field elements, one per row) times this
        matrix; a v of another length raises ValueError."""
        pk, rows = self._pack or self.packed()
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


def _packed(m: Matrix):
    """(the packing of m's rows, m's rows packed)."""
    pk = m.field.packing(m.cols)
    return pk, [pk.pack(r) for r in m.data]


def _rref_rows(pk: RowPacking, rows) -> list:
    """The reduced row-echelon basis of the span of rows, as (shift,
    row, bytes) entries sorted by pivot: the inserted rows, each cleared
    at the larger pivots from the last pivot up."""
    out: list = []
    for _, r, _ in sorted(pk.insert([], rows), key=itemgetter(0), reverse=True):
        pk.insert(out, [r])   # r is 1 at its pivot, which no row in out has
    out.reverse()
    return out


def _rref_with_identity(m: Matrix) -> tuple[RowPacking, int, list]:
    """(pk, shift, rows): the _rref_rows of [m | I] packed by pk, where
    shift is the first bit of I's lanes."""
    pk = m.field.packing(m.cols + m.rows)
    shift = pk.bits * m.cols
    return pk, shift, _rref_rows(pk, [pk.pack(r) | 1 << shift + pk.bits * i
                                      for i, r in enumerate(m.data)])


def _check_span_args(target: Matrix, basis: Matrix) -> None:
    if target.field != basis.field or target.cols != basis.cols:
        raise ValueError(f"span question across {target!r} and {basis!r}")


def rank_pair(basis: Matrix, extra: Matrix) -> tuple[int, int]:
    """(rank(basis), rank(basis stacked with extra)) in one pass: the
    extra rows are inserted into the basis rows' echelon form."""
    _check_span_args(extra, basis)
    pk, rows = _packed(basis)
    rows = pk.insert([], rows)
    return len(rows), len(pk.insert(rows, map(pk.pack, extra.data)))


def mat_rank(m: Matrix) -> int:
    """Rank of m over its field."""
    pk, rows = _packed(m)
    return len(pk.insert([], rows))


def rref(m: Matrix) -> Matrix:
    """Reduced row-echelon basis of the row space (zero rows dropped)."""
    pk, rows = _packed(m)
    return Matrix._of_rows(m.field, [pk.unpack(r) for _, r, _ in _rref_rows(pk, rows)],
                           m.cols)


def in_span(target: Matrix, basis: Matrix) -> bool:
    """True iff every row of target lies in the row space of basis."""
    rb, rj = rank_pair(basis, target)
    return rb == rj


def mat_inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError(f"cannot invert non-square matrix {m.shape}")
    pk, shift, rows = _rref_with_identity(m)
    # [m | I] always has rank n; m is invertible iff every pivot is in m.
    if [s for s, _, _ in rows] != list(range(0, shift, pk.bits)):
        raise ValueError("matrix is singular")
    inverse = m.field.packing(m.rows)
    return Matrix._of_rows(m.field, [inverse.unpack(r >> shift) for _, r, _ in rows],
                           m.rows)


def solve_left(target: Matrix, basis: Matrix) -> Matrix | None:
    """Find T with T @ basis = target, or None if some row is outside
    the row space of basis."""
    _check_span_args(target, basis)
    field = basis.field
    # Each reduced row R | T0 of [basis | I] has R = T0 @ basis, and the
    # rows with a pivot in basis's columns (below shift) are the reduced
    # basis of the row space of basis.  The sum of t[p] * (R | T0) over
    # them is t' | T with t' = T @ basis, and t' is the one vector of
    # that span with t's entries at the pivots: t is in it iff t' = t.
    pk, shift, rows = _rref_with_identity(basis)
    pivots = [s // pk.bits for s, _, _ in rows if s < shift]
    span = [b for s, _, b in rows if s < shift]
    low, coords = (1 << shift) - 1, field.packing(basis.rows)
    out = []
    for t in target.data:
        r = pk.combine([t[j] for j in pivots], span)
        if r & low != pk.pack(t):
            return None
        out.append(coords.unpack(r >> shift))
    return Matrix._of_rows(field, out, basis.rows)


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


def randbelow(rng, n: int, count: int) -> list[int]:
    """count uniform draws from range(n): what count calls of
    rng.randrange(n) return.  count == 0 draws nothing; n < 1 with
    count > 0 raises ValueError, as randrange does."""
    if n < 1 and count > 0:
        raise ValueError(f"empty range for randbelow({n})")
    bits = rng.getrandbits
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(r)
    return out


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
    flat = randbelow(rng, field.q, rows * cols)
    return Matrix._of_rows(field, [flat[i * cols:(i + 1) * cols]
                                   for i in range(rows)], cols)


def random_invertible(field: Field, n: int, rng) -> Matrix:
    """Uniformly-seeded invertible n x n matrix (rejection sampling)."""
    while True:
        m = random_matrix(field, n, n, rng)
        if n == 0 or mat_rank(m) == n:
            return m
