"""Exact arithmetic over small finite fields.

Field elements are plain Python ints in [0, q).  Two families are
supported:

- prime fields GF(p) for primes p <= 251, using modular arithmetic;
- binary extension fields GF(2^m) for m <= 8, using a polynomial basis
  modulo one fixed primitive polynomial per degree, with exp/log lookup
  tables over the powers of x.

Each field has one kernel on Python lists, row_submul, behind all its
arithmetic in the package.  Outside entries and counts are checked in
plain Python (Field.as_elements, as_count); numpy appears only in the
arr_* reference kernels and the int64 tables they read.
"""

from __future__ import annotations

import numpy as np

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

    Scalar operations take and return ints in [0, q); add and sub are
    elementwise, so they also take two arrays of elements.
    row_submul(row, b, c), row - c * b as a new list, is the kernel of
    every elimination and product in convertbw.linalg and the search.
    The arr_* kernels (on reduced int64 arrays) serve only the tests'
    reference and perfbench/spans.py, which wraps them by name.
    """

    q: int
    degree: int

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

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
        modulo q, and ragged nesting is refused.  A list of plain ints
        is returned as is after one pass; callers copy what they keep.
        """
        q = self.q

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

        values, shape = walk(data)
        full = getattr(data, "shape", shape)   # keeps a numpy array's empty axes
        if full[:len(shape)] != shape:         # an object array of sequences
            raise ValueError(f"non-integer entries for {self!r}")
        return values, full

    # Array kernels.

    def arr_scale(self, v: np.ndarray, c: int) -> np.ndarray:
        raise NotImplementedError

    def arr_submul(self, block: np.ndarray, row: np.ndarray,
                   coeffs: np.ndarray) -> np.ndarray:
        """Return block - coeffs[:, None] * row, the elimination update."""
        raise NotImplementedError

    def arr_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def row_submul(self, row: list[int], b: list[int], c: int) -> list[int]:
        raise NotImplementedError

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

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field order {p} is not prime")
        if p > PRIME_LIMIT:
            raise ValueError(f"prime fields supported up to {PRIME_LIMIT}, got {p}")
        self.q = p
        self.degree = 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

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

    def row_submul(self, row, b, c):
        q = self.q
        return [(x - c * y) % q for x, y in zip(row, b)]


class BinaryField(Field):
    """GF(2^m) in a polynomial basis, m <= 8, modulo the fixed primitive
    polynomial _IRREDUCIBLE[m].

    Since the modulus is primitive, x (the element 2) generates the
    multiplicative group, so the exp/log tables are one walk over the
    powers of x.  The scalar ops and row_submul read the tables as
    Python lists, the arr_* kernels as int64 arrays.
    """

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
        self._exp_list = exp
        self._log_list = log
        self._exp = np.array(exp, dtype=np.int64)
        self._log = np.array(log, dtype=np.int64)

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        log = self._log_list
        return self._exp_list[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp_list[(self.q - 1) - self._log_list[a]]

    def arr_scale(self, v, c):
        if c == 0:
            return np.zeros_like(v)
        out = np.zeros_like(v)
        mask = v != 0
        np.copyto(out, self._exp[self._log[v] + self._log[c]], where=mask)
        return out

    def arr_submul(self, block, row, coeffs):
        mask = (coeffs[:, None] != 0) & (row[None, :] != 0)
        prod = np.zeros((coeffs.shape[0], row.shape[0]), dtype=np.int64)
        s = self._log[coeffs][:, None] + self._log[row][None, :]
        np.copyto(prod, self._exp[s], where=mask)
        return block ^ prod

    def arr_matmul(self, a, b):
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for k in range(a.shape[1]):
            out = self.arr_submul(out, b[k, :], a[:, k])
        return out

    def row_submul(self, row, b, c):
        if c == 0:
            return list(row)
        exp, log = self._exp_list, self._log_list
        lc = log[c]
        return [x ^ exp[lc + log[y]] if y else x for x, y in zip(row, b)]


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
