"""Systematic MDS vector codes.

A code is held as its generator in systematic form: a (k*alpha) x
(n*alpha) matrix acting on row-vector messages, where node i owns the
alpha columns [i*alpha, (i+1)*alpha).  Codes are built as alpha
independent copies of a scalar systematic generalized Reed-Solomon
layer, which is MDS whenever q >= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .gf import Field, field as make_field
from .linalg import Matrix, _frozen, mat_inverse, mat_rank


class CorruptDataError(ValueError):
    """Supplied node symbols are inconsistent with any single message."""


def json_count(x, what: str) -> int:
    """x if it is a plain nonnegative int: a float 7.9, a bool or a
    string "3" read from JSON is refused, not cast."""
    if type(x) is not int or x < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {x!r}")
    return x


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
        ka = self.k * self.alpha
        na = self.n * self.alpha
        if self.generator.shape != (ka, na):
            raise ValueError(
                f"generator shape {self.generator.shape} != ({ka}, {na})")
        if self.generator.take_cols(range(ka)) != \
                Matrix.identity(self.generator.field, ka):
            raise ValueError(
                f"generator is not systematic on nodes 0..{self.k - 1}")

    def node_cols(self, i: int) -> list[int]:
        if not 0 <= i < self.n:
            raise ValueError(f"node index {i} out of range [0, {self.n})")
        return list(range(i * self.alpha, (i + 1) * self.alpha))

    def node_block(self, i: int) -> Matrix:
        """Node i's stored subsymbols as linear functions of the message,
        one row per subsymbol (an alpha x k*alpha matrix)."""
        return self.generator.take_cols(self.node_cols(i)).transpose()

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
        fld = make_field(json_count(d["q"], "q"))
        n, k, alpha = (json_count(d[key], key) for key in ("n", "k", "alpha"))
        flat = list(d["generator"])
        if len(flat) != k * alpha * n * alpha:
            raise ValueError("generator entry count does not match n, k, alpha")
        gen = Matrix(fld, np.asarray(flat).reshape(k * alpha, n * alpha))
        return cls(n, k, alpha, fld, gen)


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
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if fld.q < n:
        raise ValueError(
            f"field order {fld.q} < n = {n}: this construction cannot "
            f"guarantee the MDS property")
    scalar = _scalar_systematic_grs(n, k, fld)
    # Copy s of the scalar code acts on subsymbol s of every node.
    gen = [[x if s == t else 0 for x in row for t in range(alpha)]
           for row in scalar.data for s in range(alpha)]
    return VectorCode(n, k, alpha, fld, Matrix._of_rows(fld, gen, n * alpha))


def _codeword(code: VectorCode, message: Sequence[int]) -> Matrix:
    """The codeword of a validated message: one row of n*alpha symbols."""
    msg = code.field.as_elements(list(message))
    if msg.shape != (code.k * code.alpha,):
        raise ValueError(
            f"message length {msg.shape[0] if msg.ndim == 1 else msg.shape} "
            f"!= k*alpha = {code.k * code.alpha}")
    row = Matrix._of_rows(code.field, [msg.tolist()], msg.shape[0])
    return row @ code.generator


def encode(code: VectorCode, message: Sequence[int]) -> np.ndarray:
    """Encode a message of k*alpha subsymbols; returns an (n, alpha)
    read-only array of node symbols."""
    return _frozen(_codeword(code, message).data[0], code.n, code.alpha)


def decode_from(code: VectorCode, available: Mapping[int, Sequence[int]]) -> np.ndarray:
    """Recover the message from node symbols.

    Needs at least k distinct nodes; the first k (in index order) fix the
    message, any extras are cross-checked and a mismatch raises
    CorruptDataError.
    """
    idx = sorted(available)
    if len(idx) < code.k:
        raise ValueError(f"need at least k={code.k} nodes, got {len(idx)}")
    fld = code.field
    symbols = {}
    for i in idx:
        s = fld.as_elements(list(available[i]))
        if s.shape != (code.alpha,):
            raise ValueError(f"node {i}: expected {code.alpha} subsymbols")
        symbols[i] = tuple(s.tolist())
    use = idx[: code.k]
    cols = [c for i in use for c in code.node_cols(i)]
    y = Matrix._of_rows(fld, [[x for i in use for x in symbols[i]]], len(cols))
    msg = y @ mat_inverse(code.generator.take_cols(cols))
    for i in idx[code.k:]:
        if (msg @ code.generator.take_cols(code.node_cols(i))).data[0] \
                != symbols[i]:
            raise CorruptDataError(
                f"node {i} symbols are inconsistent with the other nodes")
    return _frozen(msg.data[0], len(cols))


def verify_mds(code: VectorCode) -> bool:
    """True iff every k-subset of node column blocks has full rank."""
    ka = code.k * code.alpha
    for subset in combinations(range(code.n), code.k):
        cols = [c for i in subset for c in code.node_cols(i)]
        if mat_rank(code.generator.take_cols(cols)) != ka:
            return False
    return True
