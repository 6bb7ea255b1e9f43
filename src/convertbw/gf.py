"""Exact arithmetic over small finite fields.

Field elements are plain Python ints in [0, q).  Two families are
supported:

- prime fields GF(p) for primes p <= 251, using modular arithmetic;
- binary extension fields GF(2^m) for m <= 8, using a polynomial basis
  modulo one fixed primitive polynomial per degree, with exp/log lookup
  tables over the powers of x.

Every product and elimination runs on one row kernel, Field.packing(cols),
a RowPacking: a row of cols elements is one Python int, column j in bits
[w*j, w*j + w), with w = 8 over GF(2^m) and for primes below 128 and
w = 16 for the primes 131..251; rows the kernel multiplies are also kept
as bytes.  Each term multiplies every entry of a row at once: one
bytes.translate of the row through the field's 256-byte table of
products by a coefficient (built on first use), then one big-int
operation.  Over GF(2^m) that is one XOR.  Over GF(p) it is one add,
each lane then below 2q, folded back below q with no carry across lanes.
RowPacking.insert is the one elimination primitive (convertbw.linalg,
the oracle and the search), one call per row list: it extends an
echelon basis by the nonzero remainders of the rows, running the loop
inline with one set of locals per call.  RowPacking.modulo returns the
rows that join a copy of a basis, which are the rows modulo its span in
echelon form (the search's residuals), RowPacking.reduced the reduced
row-echelon basis of a span (linalg.rref and solve_left), and
RowPacking.relations the linear relations of rows modulo a span (the
search's tight nodes), all through insert.  RowPacking.combine, a row
vector times a matrix whose rows were packed once, serves
Matrix.vecmul, through which Matrix.matmul, linalg.solve_left and the
write path (encode, run_conversion, decode_from) multiply.

Only this module knows the lane format and the layout of a basis
entry: other modules pack and unpack rows through RowPacking and treat
a basis as an opaque list, which they copy, slice and count.
RowPacking.pack_rows makes both forms of a row list at once, the ints
insert ranks and the bytes combine multiplies by; a Matrix packs its
rows through it once (linalg.Matrix.packed), and the oracle keeps its
blocks' packed rows from there.  Outside entries and counts are
checked in plain Python (Field.as_elements, as_count).  numpy is
imported only inside the arr_* reference kernels, which build their
arrays when called; nothing else here needs it.
"""

from __future__ import annotations

PRIME_LIMIT = 251
BINARY_DEGREE_LIMIT = 8

# Primitive polynomials over GF(2), one per degree: each is irreducible
# and x has order 2^m - 1 modulo it.  Bit i is the coefficient of x^i;
# bit m (the degree) is always set.
_IRREDUCIBLE = {
    1: 0b11,         # x + 1
    2: 0b111,        # x^2 + x + 1
    3: 0b1011,       # x^3 + x + 1
    4: 0b10011,      # x^4 + x + 1
    5: 0b100101,     # x^5 + x^2 + 1
    6: 0b1000011,    # x^6 + x + 1
    7: 0b10000011,   # x^7 + x + 1
    8: 0b100011101,  # x^8 + x^4 + x^3 + x^2 + 1
}


def as_count(x, what: str, lo: int = 0) -> int:
    """x if it is a plain int >= lo: a bool, a float 2.0 or a string
    "2" is refused, never cast."""
    if type(x) is not int or x < lo:
        need = f">= {lo}" if lo else "a nonnegative integer"
        kind = "" if type(x) is int else f" (a {type(x).__name__}; it must be an int)"
        raise ValueError(f"{what} must be {need}, got {x!r}{kind}")
    return x


class RowPacking:
    """Rows of `cols` elements of one field, each packed into one int:
    column j in bits [bits*j, bits*j + bits).  Get one from
    Field.packing, which keeps one per column count.

    An echelon basis is a list of (shift, row, row bytes) entries in
    the order the rows joined (insert): shift is bits * the row's pivot
    column, its lowest nonzero lane, where the row is 1, and the row is
    zero at the pivots of the rows before it.  insert clears each row at
    each basis pivot in turn and appends what is left; combine is a row
    vector times a matrix whose rows are given as bytes (pack_bytes).
    Each family implements both.  Each term of either is one translate
    of a row's bytes through a product table, then one XOR over GF(2^m)
    or, over GF(p), one add and one fold of every lane back below q.
    """

    __slots__ = ("field", "cols", "bits", "mask", "nbytes", "_tables", "_inverse")

    def __init__(self, field: "Field", cols: int, bits: int):
        self.field = field
        self.cols = cols
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.nbytes = cols * bits // 8
        self._tables = field._products
        self._inverse = [0, *map(field.inv, range(1, field.q))]

    def pack_bytes(self, row) -> bytes:
        """The little-endian bytes of row's packed int (row: elements)."""
        if self.bits == 8:
            return bytes(row)
        out = bytearray(2 * len(row))
        out[::2] = bytes(row)
        return bytes(out)

    def pack(self, row) -> int:
        return int.from_bytes(self.pack_bytes(row), "little")

    def pack_rows(self, rows) -> tuple[tuple[int, ...], tuple[bytes, ...]]:
        """(rows packed, rows as bytes): both forms of rows of elements,
        the ints that insert ranks and the bytes that combine multiplies
        by."""
        rows = tuple(map(self.pack_bytes, rows))
        return tuple(int.from_bytes(b, "little") for b in rows), rows

    def unpack(self, x: int) -> tuple[int, ...]:
        """The cols elements of the packed row x."""
        b = x.to_bytes(self.nbytes, "little")
        return tuple(b if self.bits == 8 else b[::2])

    def insert(self, basis: list, rows) -> list:
        """Extend the echelon basis by rows and return it: each row x,
        minus the multiple of each basis row, in order, that clears x at
        that row's pivot, joins if nonzero, scaled to 1 at its pivot.
        Ranks count the rows that join, and the rows that join a copy of
        a basis, insert(list(basis), rows)[len(basis):], are zero at its
        pivots and span rows modulo its span."""
        raise NotImplementedError

    def modulo(self, basis: list, rows) -> list[int]:
        """The rows that join a copy of basis, as packed ints: rows
        modulo the span of basis, in echelon form and zero at its
        pivots.  basis is left as it was."""
        return [r for _, r, _ in self.insert(list(basis), rows)[len(basis):]]

    def reduced(self, rows) -> list[int]:
        """The reduced row-echelon basis of the span of rows, as packed
        ints sorted by pivot: the inserted rows, each cleared at the
        larger pivots from the last pivot up."""
        out: list = []
        for _, r, _ in sorted(self.insert([], rows), reverse=True):
            self.insert(out, [r])   # r is 1 at its pivot, which no row in out has
        return [r for _, r, _ in reversed(out)]

    def relations(self, basis: list, rows) -> tuple[tuple[int, ...], ...]:
        """The linear relations of rows modulo the span of basis: the
        reduced row-echelon basis, as element tuples sorted by pivot, of
        the space of coefficient vectors x with sum_i x[i] * rows[i] in
        that span.  Row i, with a 1 in lane cols + i, joins a copy of
        basis in the packing of cols + len(rows) columns, whose first
        cols lanes are this packing's, so the basis clears them as they
        are; the rows that join with their pivot past lane cols carry
        such vectors there and span them (one of them is already
        reduced, 1 at its pivot).  basis is left as it was."""
        low = self.bits * self.cols
        wide = self.field.packing(self.cols + len(rows))
        joined = wide.insert(list(basis), [x | 1 << low + self.bits * i
                                           for i, x in enumerate(rows)])[len(basis):]
        found = [x >> low for shift, x, _ in joined if shift >= low]
        coeffs = self.field.packing(len(rows))
        return tuple(map(coeffs.unpack, coeffs.reduced(found) if len(found) > 1 else found))

    def combine(self, coeffs, rows) -> int:
        """sum_j coeffs[j] * row j, the rows given as bytes; coeffs of
        another length than rows raise ValueError."""
        raise NotImplementedError

    def _table(self, c: int) -> bytes:
        return self._tables[c] or self.field._product_table(c)


class _PrimePacking(RowPacking):
    """Over GF(p) a lane holds at most 2q - 2 between an add and its
    fold, below 2^bits: adding 2^(bits-1) - q to a lane sets its top bit
    exactly when the lane is at least q, and q is taken off those lanes."""

    __slots__ = ("_fold_add", "_fold_bit")

    def __init__(self, field: "Field", cols: int):
        super().__init__(field, cols, 8 if field.q < 128 else 16)
        ones = ((1 << self.bits * cols) - 1) // self.mask   # 1 in every lane
        half = 1 << (self.bits - 1)
        self._fold_add = (half - field.q) * ones
        self._fold_bit = half * ones

    def insert(self, basis, rows):
        q, mask, top, lane, nbytes = self.field.q, self.mask, self.bits - 1, \
            -self.bits, self.nbytes
        add, bit, tables, inverse, from_bytes = self._fold_add, self._fold_bit, \
            self._tables, self._inverse, int.from_bytes
        for x in rows:
            for shift, _, b in basis:
                c = x >> shift & mask
                if c:   # x - c b = x + (q - c) b
                    c = q - c
                    y = x + from_bytes(b.translate(tables[c] or self._table(c)), "little")
                    x = y - (((y + add) & bit) >> top) * q
            if x:
                shift = ((x & -x).bit_length() - 1) & lane   # the pivot lane's first bit
                c = x >> shift & mask
                b = x.to_bytes(nbytes, "little")
                if c != 1:
                    c = inverse[c]
                    b = b.translate(tables[c] or self._table(c))
                    x = from_bytes(b, "little")
                basis.append((shift, x, b))
        return basis

    def combine(self, coeffs, rows):
        if len(coeffs) != len(rows):
            raise ValueError(f"{len(coeffs)} coefficients for {len(rows)} rows")
        q, top = self.field.q, self.bits - 1
        add, bit, tables, from_bytes = self._fold_add, self._fold_bit, \
            self._tables, int.from_bytes
        x = 0
        for c, b in zip(coeffs, rows):
            if c:
                y = x + from_bytes(b.translate(tables[c] or self._table(c)), "little")
                x = y - (((y + add) & bit) >> top) * q
        return x


class _BinaryPacking(RowPacking):
    """Over GF(2^m) subtraction is XOR, which never carries."""

    __slots__ = ()

    def __init__(self, field: "Field", cols: int):
        super().__init__(field, cols, 8)

    def insert(self, basis, rows):
        nbytes, tables, inverse, from_bytes = self.nbytes, self._tables, \
            self._inverse, int.from_bytes
        for x in rows:
            for shift, _, b in basis:
                c = x >> shift & 255
                if c:
                    x ^= from_bytes(b.translate(tables[c] or self._table(c)), "little")
            if x:
                shift = ((x & -x).bit_length() - 1) & -8   # the pivot lane's first bit
                c = x >> shift & 255
                b = x.to_bytes(nbytes, "little")
                if c != 1:
                    c = inverse[c]
                    b = b.translate(tables[c] or self._table(c))
                    x = from_bytes(b, "little")
                basis.append((shift, x, b))
        return basis

    def combine(self, coeffs, rows):
        if len(coeffs) != len(rows):
            raise ValueError(f"{len(coeffs)} coefficients for {len(rows)} rows")
        tables, from_bytes = self._tables, int.from_bytes
        x = 0
        for c, b in zip(coeffs, rows):
            if c:
                x ^= from_bytes(b.translate(tables[c] or self._table(c)), "little")
        return x


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """Interface shared by both field families.

    Scalar operations take and return ints in [0, q).
    packing(cols) is the one row kernel: every elimination and product
    in convertbw.linalg, the oracle, the search and the write path runs
    on it.  Each term is one bytes.translate of a packed row through the
    256-byte table of products by its coefficient (built on first use)
    and one big-int operation over all lanes at once.  The arr_* kernels
    (on reduced int64 arrays) serve only the tests' reference and
    perfbench/spans.py, which wraps them by name.
    """

    q: int
    degree: int

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.q)

    def as_elements(self, data) -> tuple[list | int, tuple[int, ...]]:
        """(values, shape): data's entries as Python ints in [0, q),
        nested in lists as data nests them (lists, tuples, ranges; a
        numpy array or scalar through .tolist()), and its numpy shape.

        A bool counts as 0 or 1 and an integral float as its integer; a
        float 5.5 is refused, not truncated to 5, nothing is reduced
        modulo q, and ragged nesting is refused.  Flat data, a non-empty
        list of plain ints in [0, q) or a 1-D array whose .tolist() is
        one, returns after that one pass, the list as is (callers copy
        what they keep); anything else is walked entry by entry.
        """
        q = self.q
        x = data.tolist() if hasattr(data, "tolist") else data
        if type(x) is list and x and all(type(y) is int and 0 <= y < q for y in x):
            return x, (len(x),)

        def walk(x):
            if hasattr(x, "tolist"):
                x = x.tolist()
            if type(x) is list and all(type(y) is int and 0 <= y < q for y in x):
                return x, (len(x),)
            if isinstance(x, (list, tuple, range)):
                items = [walk(y) for y in x]
                inner = {s for _, s in items} or {()}
                if len(inner) > 1:
                    raise ValueError(f"ragged entries for {self!r}")
                return [v for v, _ in items], (len(items), *inner.pop())
            if isinstance(x, float) and x.is_integer():
                x = int(x)
            if not isinstance(x, int):
                raise ValueError(f"non-integer entries for {self!r}")
            if not 0 <= x < q:
                raise ValueError(f"entries outside [0, {q}) for {self!r}")
            return int(x), ()

        values, shape = walk(x)
        full = getattr(data, "shape", shape)   # keeps a numpy array's empty axes
        if full[:len(shape)] != shape:         # an object array of sequences
            raise ValueError(f"non-integer entries for {self!r}")
        return values, full

    # Array kernels.

    def arr_scale(self, v, c: int):
        raise NotImplementedError

    def arr_submul(self, block, row, coeffs):
        """Return block - coeffs[:, None] * row, the elimination update."""
        raise NotImplementedError

    def arr_matmul(self, a, b):
        raise NotImplementedError

    def packing(self, cols: int) -> RowPacking:
        """The packed-row kernel for rows of cols elements, made once per
        cols."""
        pk = self._packings.get(cols)
        if pk is None:
            pk = self._packings[cols] = self._packing_type(self, cols)
        return pk

    def _product_table(self, c: int) -> bytes:
        """The table of c * x for every byte x (bytes >= q, which no
        lane holds, map to 0), built and kept on the first kernel term
        with coefficient c."""
        table = self._products[c] = bytes(
            self.mul(c, x) if x < self.q else 0 for x in range(256))
        return table

    def __repr__(self) -> str:
        if self.degree == 1:
            return f"GF({self.q})"
        return f"GF(2^{self.degree})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and type(self) is type(other) \
            and self.q == other.q

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.q))


class PrimeField(Field):
    """GF(p) for a prime p <= 251."""

    _packing_type = _PrimePacking

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field order {p} is not prime")
        if p > PRIME_LIMIT:
            raise ValueError(f"prime fields supported up to {PRIME_LIMIT}, got {p}")
        self.q = p
        self.degree = 1
        self._products: list[bytes | None] = [None] * p
        self._packings: dict[int, RowPacking] = {}

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return pow(a, -1, self.q)

    def arr_scale(self, v, c):
        return (v * c) % self.q

    def arr_submul(self, block, row, coeffs):
        return (block - coeffs[:, None] * row[None, :]) % self.q

    def arr_matmul(self, a, b):
        # Entries < 251 and inner dimensions stay desk-scale, so the
        # int64 accumulator cannot overflow.
        return (a @ b) % self.q


class BinaryField(Field):
    """GF(2^m) in a polynomial basis, m <= 8, modulo the fixed primitive
    polynomial _IRREDUCIBLE[m].

    Since the modulus is primitive, x (the element 2) generates the
    multiplicative group, so the exp/log tables are one walk over the
    powers of x.  The tables are Python lists; the arr_* kernels make
    numpy arrays of them when called.
    """

    _packing_type = _BinaryPacking

    def __init__(self, degree: int):
        if not (1 <= degree <= BINARY_DEGREE_LIMIT):
            raise ValueError(
                f"binary extension degree must be in [1, {BINARY_DEGREE_LIMIT}], got {degree}")
        q = 1 << degree
        poly = _IRREDUCIBLE[degree]
        self.q = q
        self.degree = degree
        # exp holds two periods so that log[a] + log[b] needs no reduction.
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = exp[i + q - 1] = x
            log[x] = i
            x <<= 1
            if x & q:
                x ^= poly
        self._exp = exp
        self._log = log
        self._products: list[bytes | None] = [None] * q
        self._packings: dict[int, RowPacking] = {}

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        log = self._log
        return self._exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[(self.q - 1) - self._log[a]]

    def arr_scale(self, v, c):
        import numpy as np
        exp, log = np.array(self._exp), np.array(self._log)
        out = np.zeros_like(v)
        if c:
            np.copyto(out, exp[log[v] + log[c]], where=v != 0)
        return out

    def arr_submul(self, block, row, coeffs):
        import numpy as np
        exp, log = np.array(self._exp), np.array(self._log)
        mask = (coeffs[:, None] != 0) & (row[None, :] != 0)
        prod = np.zeros((coeffs.shape[0], row.shape[0]), dtype=np.int64)
        np.copyto(prod, exp[log[coeffs][:, None] + log[row][None, :]], where=mask)
        return block ^ prod

    def arr_matmul(self, a, b):
        import numpy as np
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for k in range(a.shape[1]):
            out = self.arr_submul(out, b[k, :], a[:, k])
        return out


_FIELD_CACHE: dict[int, Field] = {}


def field(q: int) -> Field:
    """Return the field of order q.

    Supported orders: primes up to 251 and powers of two up to 256.
    Other prime powers, and any q that is not a plain int (a float 8.0,
    a bool), raise ValueError.
    """
    if as_count(q, "field order", 2) in _FIELD_CACHE:
        return _FIELD_CACHE[q]
    if is_prime(q):
        f: Field = PrimeField(q)
    elif q & (q - 1) == 0:
        f = BinaryField(q.bit_length() - 1)
    else:
        raise ValueError(
            f"unsupported field order {q}: need a prime <= {PRIME_LIMIT} "
            f"or a power of two <= {1 << BINARY_DEGREE_LIMIT}")
    _FIELD_CACHE[q] = f
    return f
