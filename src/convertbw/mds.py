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
from .linalg import Matrix, mat_inverse, mat_rank


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
        if not np.array_equal(self.generator.array[:, :ka],
                              np.eye(ka, dtype=np.int64)):
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
    v = np.zeros((k, n), dtype=np.int64)
    for j in range(n):
        acc = 1
        for i in range(k):
            v[i, j] = acc
            acc = fld.mul(acc, j)
    vm = Matrix(fld, v)
    head = vm.take_cols(list(range(k)))
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
    gen = Matrix(fld, np.kron(scalar.array, np.eye(alpha, dtype=np.int64)))
    return VectorCode(n, k, alpha, fld, gen)


def encode(code: VectorCode, message: Sequence[int]) -> np.ndarray:
    """Encode a message of k*alpha subsymbols; returns an (n, alpha)
    array of node symbols."""
    msg = code.field.as_elements(list(message))
    if msg.shape != (code.k * code.alpha,):
        raise ValueError(
            f"message length {msg.shape[0] if msg.ndim == 1 else msg.shape} "
            f"!= k*alpha = {code.k * code.alpha}")
    cw = code.field.arr_matmul(msg[None, :], code.generator.array)[0]
    out = cw.reshape(code.n, code.alpha)
    out.setflags(write=False)
    return out


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
        symbols[i] = s
    use = idx[: code.k]
    cols = [c for i in use for c in code.node_cols(i)]
    gsub = code.generator.take_cols(cols)
    y = np.concatenate([symbols[i] for i in use])
    msg = fld.arr_matmul(y[None, :], mat_inverse(gsub).array)[0]
    for i in idx[code.k:]:
        expect = fld.arr_matmul(msg[None, :],
                                code.generator.take_cols(code.node_cols(i)).array)[0]
        if not np.array_equal(expect, symbols[i]):
            raise CorruptDataError(
                f"node {i} symbols are inconsistent with the other nodes")
    msg.setflags(write=False)
    return msg


def verify_mds(code: VectorCode) -> bool:
    """True iff every k-subset of node column blocks has full rank."""
    ka = code.k * code.alpha
    for subset in combinations(range(code.n), code.k):
        cols = [c for i in subset for c in code.node_cols(i)]
        if mat_rank(code.generator.take_cols(cols)) != ka:
            return False
    return True
