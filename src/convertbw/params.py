"""Parameter tuple for split-mode code conversion.

A single initial codeword over lf*kf data nodes is converted into lf
final codewords of kf data nodes each.  All other quantities derive
from (lf, kf, rf, ri, alpha); the field order q is optional and only
needed when concrete codes are built.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf


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
        for name in ("lf", "kf", "rf", "ri", "alpha"):
            v = getattr(self, name)
            if type(v) is not int:   # no float 2.0, no bool True
                raise ValueError(f"{name} must be an int, got {v!r}")
        if self.lf < 2:
            raise ValueError(f"split conversion requires lf >= 2, got {self.lf}")
        if self.kf < 1:
            raise ValueError(f"kf must be >= 1, got {self.kf}")
        if self.rf < 0 or self.ri < 0:
            raise ValueError("parity counts must be nonnegative")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.q is not None:
            fld = gf.field(self.q)  # validates the order
            need = max(self.ni, self.nf)
            if fld.q < need:
                raise ValueError(
                    f"q={self.q} too small for the code construction; "
                    f"need q >= max(ni, nf) = {need}")

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

    def with_q(self, q: int) -> "SplitParams":
        return SplitParams(self.lf, self.kf, self.rf, self.ri, self.alpha, q)

    def as_dict(self) -> dict:
        d = {"lf": self.lf, "kf": self.kf, "rf": self.rf, "ri": self.ri,
             "alpha": self.alpha}
        if self.q is not None:
            d["q"] = self.q
        return d
