"""Conversion schemes, feasibility, and concrete conversion runs.

A scheme fixes, for every initial-codeword node, the linear map the
coordinator applies to that node's stored subsymbols before download.
Maps are kept in canonical form: full row rank, reduced row-echelon.
The read cost of a scheme is simply the total number of downloaded
rows; writes always materialize the lf*rf new parity nodes in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .ensemble import (LinearEnsemble, _check_code_pair, _scheme_maps,
                       final_parity_rows, mapped_rows)
from .linalg import Matrix, _frozen, in_span, rref, solve_left, vstack
from .mds import VectorCode, _codeword, json_count, make_systematic_mds
from .params import SplitParams


class InfeasibleSchemeError(ValueError):
    """The downloaded rows cannot produce the final parity nodes."""


@dataclass(frozen=True)
class ConversionScheme:
    """Per-node download maps for one conversion.

    info_maps[j] applies to data node j (shape beta_j x alpha);
    parity_maps[i] applies to initial parity node i (sigma_i x alpha).
    All maps are canonical reduced-echelon bases of their row spaces.
    """

    params: SplitParams
    info_maps: tuple[Matrix, ...]
    parity_maps: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        p = self.params
        if len(self.info_maps) != p.ki:
            raise ValueError(f"expected {p.ki} info maps, got {len(self.info_maps)}")
        if len(self.parity_maps) != p.ri:
            raise ValueError(f"expected {p.ri} parity maps, got {len(self.parity_maps)}")
        for m in (*self.info_maps, *self.parity_maps):
            if m.cols != p.alpha:
                raise ValueError(f"download map has {m.cols} columns, expected {p.alpha}")
            if m.rows > p.alpha:
                raise ValueError("download map cannot exceed alpha rows")
            if rref(m) != m:
                raise ValueError("download maps must be canonical full-row-rank bases")

    @classmethod
    def from_maps(cls, params: SplitParams, info_maps: Sequence[Matrix],
                  parity_maps: Sequence[Matrix]) -> "ConversionScheme":
        """Canonicalize arbitrary (possibly rank-deficient) maps."""
        return cls(params,
                   tuple(rref(m) for m in info_maps),
                   tuple(rref(m) for m in parity_maps))

    @property
    def beta(self) -> tuple[int, ...]:
        return tuple(m.rows for m in self.info_maps)

    @property
    def sigma(self) -> tuple[int, ...]:
        return tuple(m.rows for m in self.parity_maps)

    @property
    def read_total(self) -> int:
        return sum(self.beta) + sum(self.sigma)

    def to_json_dict(self) -> dict:
        return {
            "beta": list(self.beta),
            "sigma": list(self.sigma),
            "A": [m.flat() for m in self.info_maps],
            "B": [m.flat() for m in self.parity_maps],
        }

    @classmethod
    def from_json_dict(cls, params: SplitParams, d) -> "ConversionScheme":
        fld = params.field()
        alpha = params.alpha

        def unflatten(flat, rows, what):
            rows = json_count(rows, what)
            return Matrix(fld, np.asarray(list(flat)).reshape(rows, alpha))

        if len(d["A"]) != len(d["beta"]) or len(d["B"]) != len(d["sigma"]):
            raise ValueError("scheme needs one A map per beta entry and "
                             "one B map per sigma entry")
        info = tuple(unflatten(f, b, "beta entry")
                     for f, b in zip(d["A"], d["beta"]))
        parity = tuple(unflatten(f, s, "sigma entry")
                       for f, s in zip(d["B"], d["sigma"]))
        return cls(params, info, parity)


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
            "ratio_vs_default": {"num": self.ratio_vs_default.numerator,
                                 "den": self.ratio_vs_default.denominator},
        }


def default_scheme(params: SplitParams) -> ConversionScheme:
    """Re-encoding scheme: download every data node in full, no parities.

    Feasible for every systematic code pair, with read cost ki*alpha.
    """
    fld = params.field()
    full = Matrix.identity(fld, params.alpha)
    empty = Matrix.zeros(fld, 0, params.alpha)
    return ConversionScheme(params,
                            tuple(full for _ in range(params.ki)),
                            tuple(empty for _ in range(params.ri)))


def empty_scheme(params: SplitParams) -> ConversionScheme:
    fld = params.field()
    empty = Matrix.zeros(fld, 0, params.alpha)
    return ConversionScheme(params,
                            tuple(empty for _ in range(params.ki)),
                            tuple(empty for _ in range(params.ri)))


def scheme_bandwidth(scheme: ConversionScheme) -> BandwidthReport:
    return BandwidthReport(scheme.params, scheme.beta, scheme.sigma)


def _check_scheme_params(p: SplitParams, scheme: ConversionScheme) -> None:
    """The scheme was built for the conversion point p (any field)."""
    sp = scheme.params
    if (sp.lf, sp.kf, sp.rf, sp.ri, sp.alpha) != (p.lf, p.kf, p.rf, p.ri, p.alpha):
        raise ValueError(
            f"scheme is for {sp.as_dict()}, conversion is for {p.as_dict()}")


def check_feasible(ens: LinearEnsemble, scheme: ConversionScheme) -> bool:
    """True iff the downloaded rows span every final parity row, i.e.
    the coordinator can deterministically produce all new nodes."""
    _check_scheme_params(ens.params, scheme)
    maps = _scheme_maps(ens, scheme)
    downloads = mapped_rows(ens, maps, list(ens.info_nodes) + list(ens.initial_parities))
    targets = ens.stack(ens.final_parities)
    return in_span(targets, downloads)


def canonical_codes(params: SplitParams) -> tuple[VectorCode, VectorCode]:
    """The layered Reed-Solomon initial/final code pair for params."""
    fld = params.field()
    initial = make_systematic_mds(params.ni, params.ki, params.alpha, fld)
    final = make_systematic_mds(params.nf, params.kf, params.alpha, fld)
    return initial, final


def run_conversion(params: SplitParams, initial: VectorCode, final: VectorCode,
                   scheme: ConversionScheme, message: Sequence[int]):
    """Execute one conversion.

    Returns (final_codewords, BandwidthReport) where final_codewords is
    a list of lf arrays of shape (nf, alpha).  Data nodes of the final
    codewords are the unchanged initial data nodes; new parity values
    are produced only from the downloaded rows.

    Raises InfeasibleSchemeError when the scheme cannot produce the
    final parities.  The codes are assumed to satisfy the MDS property
    (see verify_mds); shapes, fields, scheme parameters and feasibility
    are validated here.
    """
    p = params
    _check_code_pair(p, initial, final)
    _check_scheme_params(p, scheme)
    fld = initial.field
    stored = _codeword(initial, message)

    # Downloading nodes in node order (data nodes, then parities); the
    # coefficient rows and the stored values both follow this order.
    used = [(i, m) for i, m in enumerate(scheme.info_maps + scheme.parity_maps)
            if m.rows]
    downloads = vstack([Matrix.zeros(fld, 0, p.message_dim)]
                       + [m @ initial.node_block(i) for i, m in used])
    combine = solve_left(final_parity_rows(p, final), downloads)
    if combine is None:
        raise InfeasibleSchemeError(
            "downloaded rows do not span the final parity rows")
    values = vstack([Matrix.zeros(fld, 0, 1)] + [
        m @ stored.take_cols(initial.node_cols(i)).transpose() for i, m in used])
    new = [x for (x,) in (combine @ values).data]

    old, kfa, rfa = stored.data[0], p.kf * p.alpha, p.rf * p.alpha
    return [_frozen(old[t * kfa:(t + 1) * kfa] + tuple(new[t * rfa:(t + 1) * rfa]),
                    p.nf, p.alpha) for t in range(p.lf)], scheme_bandwidth(scheme)
