"""Conversion schemes, feasibility, and concrete conversion runs.

A scheme fixes, for every initial-codeword node, the linear map the
coordinator applies to that node's stored subsymbols before download.
Maps are kept in canonical form: full row rank, reduced row-echelon.
The read cost of a scheme is simply the total number of downloaded
rows; writes always materialize the lf*rf new parity nodes in full.

run_conversion multiplies only through Matrix.vecmul, by matrices
solved once per (params, code pair, scheme) in the value-keyed
_conversion_plan cache, each of which packs its rows on its first
product: each downloading node's map and the matrix that takes the
downloaded values to the new parities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .ensemble import (LinearEnsemble, _check_code_pair, final_parity_rows,
                       mapped_rows)
from .linalg import Matrix, _frozen, in_span, rref, solve_left, vstack
from .gf import as_count
from .mds import VectorCode, _codeword, make_systematic_mds
from .params import SplitParams, rational_json


class InfeasibleSchemeError(ValueError):
    """The downloaded rows cannot produce the final parity nodes."""


@dataclass(frozen=True)
class ConversionScheme:
    """Per-node download maps for one conversion.

    maps[i] applies to node i of the initial codeword, in node order:
    data nodes 0..ki-1 (beta_j x alpha), then initial parities
    ki..ni-1 (sigma_i x alpha).  The JSON form splits them at ki into
    A (data maps) and B (parity maps).  All maps are canonical
    reduced-echelon bases of their row spaces.
    """

    params: SplitParams
    maps: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        # A tuple, so that equal schemes hash equal however they were built.
        object.__setattr__(self, "maps", tuple(self.maps))
        p = self.params
        if len(self.maps) != p.ni:
            raise ValueError(f"expected {p.ni} download maps, got {len(self.maps)}")
        for m in self.maps:
            if m.cols != p.alpha:
                raise ValueError(f"download map has {m.cols} columns, expected {p.alpha}")
            if m.rows > p.alpha:
                raise ValueError("download map cannot exceed alpha rows")
            if rref(m) != m:
                raise ValueError("download maps must be canonical full-row-rank bases")

    @property
    def beta(self) -> tuple[int, ...]:
        return tuple(m.rows for m in self.maps[:self.params.ki])

    @property
    def sigma(self) -> tuple[int, ...]:
        return tuple(m.rows for m in self.maps[self.params.ki:])

    @property
    def read_total(self) -> int:
        return sum(m.rows for m in self.maps)

    def to_json_dict(self) -> dict:
        ki = self.params.ki
        return {
            "beta": list(self.beta),
            "sigma": list(self.sigma),
            "A": [m.flat() for m in self.maps[:ki]],
            "B": [m.flat() for m in self.maps[ki:]],
        }

    @classmethod
    def from_json_dict(cls, params: SplitParams, d) -> "ConversionScheme":
        if len(d["A"]) != len(d["beta"]) or len(d["B"]) != len(d["sigma"]):
            raise ValueError("scheme needs one A map per beta entry and "
                             "one B map per sigma entry")
        for key, want, what in (("A", params.ki, "info"), ("B", params.ri, "parity")):
            if len(d[key]) != want:
                raise ValueError(f"expected {want} {what} maps, got {len(d[key])}")
        return cls(params, tuple(
            Matrix.from_flat(params.field(), flat, as_count(rows, f"{dim} entry"),
                             params.alpha, f"{key} map")
            for key, dim in (("A", "beta"), ("B", "sigma"))
            for flat, rows in zip(d[key], d[dim])))


@dataclass(frozen=True)
class BandwidthReport:
    """Read/write accounting for one scheme, in subsymbols."""

    params: SplitParams
    beta: tuple[int, ...]
    sigma: tuple[int, ...]

    @property
    def read_total(self) -> int:
        return sum(self.beta) + sum(self.sigma)

    @property
    def write_total(self) -> int:
        p = self.params
        return p.lf * p.rf * p.alpha

    @property
    def ratio_vs_default(self) -> Fraction:
        """Read cost relative to re-encoding from all data nodes."""
        p = self.params
        return Fraction(self.read_total, p.lf * p.kf * p.alpha)

    def to_json_dict(self) -> dict:
        return {
            "beta": list(self.beta),
            "sigma": list(self.sigma),
            "read_total": self.read_total,
            "write_total": self.write_total,
            "ratio_vs_default": rational_json(self.ratio_vs_default),
        }


@lru_cache(maxsize=128)
def default_scheme(params: SplitParams) -> ConversionScheme:
    """Re-encoding scheme: download every data node in full, no parities.

    Feasible for every systematic code pair, with read cost ki*alpha.
    Built once per params and shared (ConversionScheme is immutable).
    """
    fld = params.field()
    full = Matrix.identity(fld, params.alpha)
    empty = Matrix.zeros(fld, 0, params.alpha)
    return ConversionScheme(params, (full,) * params.ki + (empty,) * params.ri)


def scheme_bandwidth(scheme: ConversionScheme) -> BandwidthReport:
    return BandwidthReport(scheme.params, scheme.beta, scheme.sigma)


def _check_scheme_params(p: SplitParams, scheme: ConversionScheme) -> None:
    """The scheme was built for the conversion point p; its maps' field
    is checked where they enter the oracle (ensemble._map_rows) or are
    multiplied (Matrix.matmul)."""
    sp = scheme.params
    if (sp.lf, sp.kf, sp.rf, sp.ri, sp.alpha) != (p.lf, p.kf, p.rf, p.ri, p.alpha):
        raise ValueError(
            f"scheme is for {sp.as_dict()}, conversion is for {p.as_dict()}")


def check_feasible(ens: LinearEnsemble, scheme: ConversionScheme) -> bool:
    """True iff the downloaded rows span every final parity row, i.e.
    the coordinator can deterministically produce all new nodes."""
    _check_scheme_params(ens.params, scheme)
    maps = dict(zip(ens.initial_nodes, scheme.maps))
    downloads = mapped_rows(ens, maps, ens.initial_nodes)
    targets = ens.stack(ens.final_parities)
    return in_span(targets, downloads)


@lru_cache(maxsize=128)
def canonical_codes(params: SplitParams) -> tuple[VectorCode, VectorCode]:
    """The layered Reed-Solomon initial/final code pair for params,
    built once per params and shared (VectorCode is immutable): the
    bound covers every point of verify.default_grid(), whose suite and
    every parity mix (search.random_mds_pair) start from this pair."""
    fld = params.field()
    initial = make_systematic_mds(params.ni, params.ki, params.alpha, fld)
    final = make_systematic_mds(params.nf, params.kf, params.alpha, fld)
    return initial, final


@lru_cache(maxsize=64)
def _conversion_plan(p: SplitParams, initial: VectorCode, final: VectorCode,
                     scheme: ConversionScheme):
    """The message-independent part of a conversion: the downloading
    nodes in node order, each with its map transposed (so that it
    multiplies the node's row of stored symbols), and the transposed
    solution that takes the row of their downloaded values, in that
    order, to the new parities.  Raises InfeasibleSchemeError (never
    cached) when there is none."""
    fld = initial.field
    used = tuple((i, m) for i, m in enumerate(scheme.maps) if m.rows)
    downloads = vstack([Matrix.zeros(fld, 0, p.message_dim)]
                       + [m @ initial.node_block(i) for i, m in used])
    solution = solve_left(final_parity_rows(p, final), downloads)
    if solution is None:
        raise InfeasibleSchemeError(
            "downloaded rows do not span the final parity rows")
    return tuple((i, m.transpose()) for i, m in used), solution.transpose()


def run_conversion(params: SplitParams, initial: VectorCode, final: VectorCode,
                   scheme: ConversionScheme, message: Sequence[int]):
    """Execute one conversion.

    Returns (final_codewords, BandwidthReport) where final_codewords is
    a list of lf arrays of shape (nf, alpha).  Node i of the initial
    codeword is read through scheme.maps[i].  Data nodes of the final
    codewords are the unchanged initial data nodes; new parity values
    are produced only from the downloaded values, through a plan
    (_conversion_plan) solved once per code pair and scheme.

    Raises InfeasibleSchemeError when the scheme cannot produce the
    final parities.  The codes are assumed to satisfy the MDS property
    (see verify_mds); shapes, fields, scheme parameters and feasibility
    are validated here.
    """
    p = params
    _check_code_pair(p, initial, final)
    _check_scheme_params(p, scheme)
    stored = _codeword(initial, message)
    maps, to_parities = _conversion_plan(p, initial, final, scheme)
    a = p.alpha
    values = [v for i, m in maps for v in m.vecmul(stored[i * a:(i + 1) * a])]
    new = to_parities.vecmul(values)

    kfa, rfa = p.kf * p.alpha, p.rf * p.alpha
    return [_frozen(stored[t * kfa:(t + 1) * kfa] + new[t * rfa:(t + 1) * rfa],
                    p.nf, p.alpha) for t in range(p.lf)], scheme_bandwidth(scheme)
