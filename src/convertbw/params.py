"""Parameter tuple for split-mode code conversion.

A single initial codeword over lf*kf data nodes is converted into lf
final codewords of kf data nodes each.  All other quantities derive
from (lf, kf, rf, ri, alpha); the field order q is optional and only
needed when concrete codes are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import gf


def rational_json(x: Fraction) -> dict:
    """The JSON form of an exact rational: {"num": ..., "den": ...}."""
    return {"num": x.numerator, "den": x.denominator}


@dataclass(frozen=True)
class SplitParams:
    """Conversion parameters.

    lf: number of final codewords (>= 2)
    kf: data nodes per final codeword
    rf: parity nodes per final codeword
    ri: parity nodes of the initial codeword
    alpha: subsymbols stored per node
    q: field order, optional until codes are constructed

    Every count, and q when given, must be a plain int.
    """

    lf: int
    kf: int
    rf: int
    ri: int
    alpha: int = 1
    q: int | None = None

    def __post_init__(self) -> None:
        for name, lo in (("lf", 0), ("kf", 1), ("rf", 0), ("ri", 0), ("alpha", 1)):
            gf.as_count(getattr(self, name), name, lo)
        if self.lf < 2:
            raise ValueError(f"split conversion requires lf >= 2, got {self.lf}")
        if self.q is not None:
            fld = gf.field(self.q)  # validates the order
            need = max(self.ni, self.nf)
            if fld.q < need:
                raise ValueError(
                    f"q={self.q} too small for the code construction; "
                    f"need q >= max(ni, nf) = {need}")
        # Params key value caches (default_scheme, canonical_codes, the
        # write path's plans), so the hash is taken once, from ints alone.
        object.__setattr__(self, "_hash", hash((
            self.lf, self.kf, self.rf, self.ri, self.alpha, self.q or 0)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def ki(self) -> int:
        """Data nodes of the initial codeword (= lf * kf)."""
        return self.lf * self.kf

    @property
    def ni(self) -> int:
        return self.ki + self.ri

    @property
    def nf(self) -> int:
        return self.kf + self.rf

    @property
    def message_dim(self) -> int:
        """Message length in field subsymbols."""
        return self.ki * self.alpha

    def field(self) -> gf.Field:
        if self.q is None:
            raise ValueError("these parameters carry no field order q")
        return gf.field(self.q)

    def as_dict(self) -> dict:
        d = {"lf": self.lf, "kf": self.kf, "rf": self.rf, "ri": self.ri,
             "alpha": self.alpha}
        if self.q is not None:
            d["q"] = self.q
        return d
