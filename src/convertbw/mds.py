"""Systematic MDS vector codes.

A code is held as its generator in systematic form: a (k*alpha) x
(n*alpha) matrix acting on row-vector messages, where node i owns the
alpha columns [i*alpha, (i+1)*alpha).  Codes are built as alpha
independent copies of a scalar systematic generalized Reed-Solomon
layer, which is MDS whenever q >= n.

The write path multiplies only by fixed matrices, through Matrix.vecmul,
so each packs its rows once: the generator, once per code object, which
encodes and cross-checks decodes, and one inverse per node set, kept in
the value-keyed _decoder cache.  A VectorCode hashes once, when built,
so a cache lookup does not rehash its generator.  Per call, encode makes
one product and decode_from one, or two with extra nodes; each checks
its message or each node's symbols in one Field.as_elements pass.

verify_mds ranks the square node-block minors of the parity block P of
the generator [I | P], smallest first, and stops at the first singular
one.  The systematic check and node_block read the generator's rows
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from .gf import Field, as_count, field as make_field
from .linalg import Matrix, _frozen, mat_inverse, mat_rank


class CorruptDataError(ValueError):
    """Supplied node symbols are inconsistent with any single message."""


def _check_dims(n: int, k: int, alpha: int) -> None:
    n, k = as_count(n, "n"), as_count(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    as_count(alpha, "alpha", 1)


@dataclass(frozen=True)
class VectorCode:
    """An [n, k, alpha] vector code over a finite field, systematic on
    its first k nodes: data node j stores message block j."""

    n: int
    k: int
    alpha: int
    field: Field
    generator: Matrix

    def __post_init__(self) -> None:
        _check_dims(self.n, self.k, self.alpha)
        ka = self.k * self.alpha
        na = self.n * self.alpha
        if self.generator.field != self.field:
            raise ValueError(f"generator is over {self.generator.field!r}, "
                             f"not {self.field!r}")
        if self.generator.shape != (ka, na):
            raise ValueError(
                f"generator shape {self.generator.shape} != ({ka}, {na})")
        zeros = (0,) * ka
        if any(r[:ka] != zeros[:i] + (1,) + zeros[i + 1:]
               for i, r in enumerate(self.generator.data)):
            raise ValueError(
                f"generator is not systematic on nodes 0..{self.k - 1}")
        # Codes key value caches (_decoder, verify_mds, the conversion
        # plans), so the hash is taken once; the generator's is of ints.
        object.__setattr__(self, "_hash", hash(
            (self.n, self.k, self.alpha, self.generator)))

    def __hash__(self) -> int:
        return self._hash

    def node_cols(self, i: int) -> list[int]:
        if not 0 <= i < self.n:
            raise ValueError(f"node index {i} out of range [0, {self.n})")
        return list(range(i * self.alpha, (i + 1) * self.alpha))

    def node_block(self, i: int) -> Matrix:
        """Node i's stored subsymbols as linear functions of the message,
        one row per subsymbol (an alpha x k*alpha matrix)."""
        rows = self.generator.data
        return Matrix._of_rows(self.field, [[r[c] for r in rows]
                                            for c in self.node_cols(i)], len(rows))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "alpha": self.alpha,
            "q": self.field.q,
            "generator": self.generator.flat(),
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "VectorCode":
        for key in ("q", "n", "k", "alpha", "generator"):
            if not isinstance(d, Mapping) or key not in d:
                raise ValueError(f"code JSON must be an object with a {key!r} entry")
        fld = make_field(as_count(d["q"], "q"))
        n, k, alpha = (as_count(d[key], key) for key in ("n", "k", "alpha"))
        return cls(n, k, alpha, fld, Matrix.from_flat(
            fld, d["generator"], k * alpha, n * alpha, "generator"))


def _scalar_systematic_grs(n: int, k: int, fld: Field) -> Matrix:
    """Scalar [n, k] systematic generator from a Vandermonde matrix on
    the evaluation points 0..n-1."""
    rows = [[1] * n]
    for _ in range(1, k):
        rows.append([fld.mul(x, j) for j, x in enumerate(rows[-1])])
    vm = Matrix._of_rows(fld, rows, n)
    head = vm.take_cols(range(k))
    return mat_inverse(head) @ vm


def make_systematic_mds(n: int, k: int, alpha: int, fld: Field) -> VectorCode:
    """Systematic [n, k, alpha] MDS code; requires q >= n."""
    _check_dims(n, k, alpha)
    if fld.q < n:
        raise ValueError(
            f"field order {fld.q} < n = {n}: this construction cannot "
            f"guarantee the MDS property")
    scalar = _scalar_systematic_grs(n, k, fld)
    # Copy s of the scalar code acts on subsymbol s of every node.
    gen = [[x if s == t else 0 for x in row for t in range(alpha)]
           for row in scalar.data for s in range(alpha)]
    return VectorCode(n, k, alpha, fld, Matrix._of_rows(fld, gen, n * alpha))


def _codeword(code: VectorCode, message: Sequence[int]) -> tuple[int, ...]:
    """The n*alpha symbols of the codeword of a message, which is
    validated here."""
    values, shape = code.field.as_elements(message)
    if shape != (code.k * code.alpha,):
        raise ValueError(f"message length: expected {code.k * code.alpha} "
                         f"entries, got shape {shape}")
    return code.generator.vecmul(values)


def encode(code: VectorCode, message: Sequence[int]):
    """Encode a message of k*alpha subsymbols; returns an (n, alpha)
    read-only array of node symbols."""
    return _frozen(_codeword(code, message), code.n, code.alpha)


@lru_cache(maxsize=256)
def _decoder(code: VectorCode, nodes: tuple[int, ...]) -> Matrix:
    """The inverse of the generator's columns of k nodes, shared (with
    its packed rows) by every decode from the same node set of an equal
    code."""
    cols = [c for i in nodes for c in code.node_cols(i)]
    return mat_inverse(code.generator.take_cols(cols))


def decode_from(code: VectorCode, available: Mapping[int, Sequence[int]]):
    """Recover the message from node symbols.

    Needs at least k distinct nodes; the first k (in index order) fix the
    message through their cached inverse (_decoder), any extras are
    cross-checked against the slices of the message's codeword and a
    mismatch raises CorruptDataError.  Every call validates its own
    symbols, one Field.as_elements pass per node, and node indices by
    the count rule and by range, before any product.
    """
    idx = sorted(as_count(i, "node index") for i in available)
    k, a = code.k, code.alpha
    if len(idx) < k:
        raise ValueError(f"need at least k={k} nodes, got {len(idx)}")
    fld = code.field
    symbols = []
    for i in idx:
        s, shape = fld.as_elements(available[i])
        if shape != (a,):
            raise ValueError(f"node {i}: expected {a} subsymbols")
        symbols.append(s)
    if idx[-1] >= code.n:
        raise ValueError(f"node index {idx[-1]} out of range [0, {code.n})")
    msg = _decoder(code, tuple(idx[:k])).vecmul([x for s in symbols[:k] for x in s])
    if len(idx) > k:
        cw = code.generator.vecmul(msg)
        for i, s in zip(idx[k:], symbols[k:]):
            if cw[i * a:(i + 1) * a] != tuple(s):
                raise CorruptDataError(
                    f"node {i} symbols are inconsistent with the other nodes")
    return _frozen(msg, len(msg))


@lru_cache(maxsize=256)
def verify_mds(code: VectorCode) -> bool:
    """True iff every k-subset of node column blocks has full rank;
    cached by value, as a drawn code is checked again by its ensemble.

    The generator is [I | P], so the k nodes made of the parity nodes T
    and the data nodes outside D (|T| = |D| = t) have full rank iff the
    t*alpha x t*alpha block of P at D's rows and T's columns does
    (MacWilliams and Sloane, ch. 11, Thm 8, node block by node block):
    these are the same C(n, k) node sets, each ranked on t*alpha columns
    instead of k*alpha, and t = 0 needs no rank.  Smallest t first, the
    first singular minor ends the check.
    """
    k, a, rows = code.k, code.alpha, code.generator.data
    for t in range(1, min(k, code.n - k) + 1):
        for parities in combinations(range(k, code.n), t):
            cols = [c for i in parities for c in range(i * a, (i + 1) * a)]
            section = [[r[c] for c in cols] for r in rows]
            for data in combinations(range(k), t):
                minor = [section[s] for j in data for s in range(j * a, (j + 1) * a)]
                if mat_rank(Matrix._of_rows(code.field, minor, t * a)) != t * a:
                    return False
    return True
