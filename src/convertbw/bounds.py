"""Exact lower bounds on split-mode conversion read bandwidth.

Every function returns a Fraction computed from the integer parameters
alone; no floating point is used anywhere in this module.  The main
entry point is theorem_bound, which classifies the parameter point into
its case, evaluates the matching closed form, and reports the three
candidate components L1, L2, L3 together with a tightness flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .params import SplitParams, rational_json

REGIME_RF_GE_KF = "rF>=kF"
REGIME_INCREASING = "rI<=rF<kF"
REGIME_DECREASING_HIGH_MOD = "rF<rI<=kI,b>=rF"
REGIME_DECREASING_LOW_MOD = "rF<rI<=kI,b<rF"
REGIME_RI_GT_KI = "rI>kI,rF<kF"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def bound_trivial(p: SplitParams) -> Fraction:
    """Writes alone force lf * min(kf, rf) * alpha downloaded subsymbols."""
    return Fraction(p.lf * min(p.kf, p.rf) * p.alpha)


def bound_I(p: SplitParams) -> Fraction:
    """lf*kf*alpha - min(ri, ki)*alpha*(kf/rf - 1); needs 1 <= rf < kf."""
    if p.rf < 1 or p.rf >= p.kf:
        raise ValueError(f"bound_I requires 1 <= rf < kf, got rf={p.rf}, kf={p.kf}")
    return Fraction(p.lf * p.kf * p.alpha) \
        - min(p.ri, p.ki) * p.alpha * (Fraction(p.kf, p.rf) - 1)


def bound_II(p: SplitParams) -> Fraction:
    """Piecewise bound for 1 <= rf < kf and rf < ri <= ki, split on
    b = ri mod kf against rf."""
    if not (1 <= p.rf < p.kf):
        raise ValueError(f"bound_II requires 1 <= rf < kf, got rf={p.rf}, kf={p.kf}")
    if not (p.rf < p.ri <= p.ki):
        raise ValueError(
            f"bound_II requires rf < ri <= ki, got ri={p.ri}, ki={p.ki}")
    b = p.ri % p.kf
    if b >= p.rf:
        t = p.lf - _ceil_div(p.ri, p.kf)
        return Fraction(p.lf * p.rf * p.alpha) * Fraction(t * p.kf + p.ri,
                                                          t * p.rf + p.ri)
    t = p.ri // p.kf
    return Fraction(p.lf * p.kf * p.alpha) - Fraction(p.lf * p.ri * p.alpha) \
        * Fraction(p.kf - p.rf, (p.lf - t) * p.rf + t * p.kf)


def entropy_V_lb(p: SplitParams, theta1: int) -> Fraction:
    """Lower bound on the entropy downloaded from the data nodes, for a
    chosen theta1 in [1, lf]; clamps to 0 when the numerator dies."""
    if not 1 <= theta1 <= p.lf:
        raise ValueError(f"theta1 must be in [1, {p.lf}], got {theta1}")
    if p.rf >= p.kf or p.rf >= p.ri:
        raise ValueError("entropy_V_lb requires rf < kf and rf < ri")
    theta2 = max(0, p.ri - theta1 * p.kf)
    num = (p.lf - theta1) * p.rf - theta2
    if num <= 0:
        return Fraction(0)
    return Fraction(p.lf * p.kf * p.alpha) * Fraction(num, num + p.ri)


def uniform_cost_bound(p: SplitParams) -> Fraction:
    """The earlier bound derived under per-node-uniform downloads."""
    if p.rf == 0:
        return Fraction(0)
    if p.ri <= p.lf * p.rf:
        slack = max(Fraction(p.kf, p.rf) - 1, Fraction(0))
        return Fraction(p.lf * p.kf * p.alpha) - p.ri * p.alpha * slack
    return Fraction(p.lf * min(p.rf, p.kf) * p.alpha)


def achievable_decreasing(p: SplitParams) -> Fraction:
    """Read cost of the known redundancy-decreasing constructions;
    needs 1 <= rf < kf and rf < ri."""
    if p.rf < 1 or p.rf >= p.kf or p.rf >= p.ri:
        raise ValueError(
            f"achievable_decreasing requires 1 <= rf < kf and rf < ri, "
            f"got rf={p.rf}, kf={p.kf}, ri={p.ri}")
    a = p.lf - 1
    return Fraction(p.lf * p.rf * p.alpha) * Fraction(a * p.kf + p.ri,
                                                      a * p.rf + p.ri)


def _classify(p: SplitParams) -> str:
    if p.rf >= p.kf:
        return REGIME_RF_GE_KF
    if p.ri <= p.rf:
        return REGIME_INCREASING
    if p.ri > p.ki:
        return REGIME_RI_GT_KI
    if p.ri % p.kf >= p.rf:
        return REGIME_DECREASING_HIGH_MOD
    return REGIME_DECREASING_LOW_MOD


@dataclass(frozen=True)
class BoundReport:
    """Classified bound value with its contributing components."""

    params: SplitParams
    regime: str
    value: Fraction
    L1: Fraction | None
    L2: Fraction | None
    L3: Fraction
    tight: bool
    matching_construction_cost: Fraction | None

    def to_json_dict(self) -> dict:
        def rat(x):
            return None if x is None else rational_json(x)

        return {
            "params": self.params.as_dict(),
            "regime": self.regime,
            "value": rat(self.value),
            "L1": rat(self.L1),
            "L2": rat(self.L2),
            "L3": rat(self.L3),
            "tight": self.tight,
            "matching_construction_cost": rat(self.matching_construction_cost),
        }


def known_achievable(p: SplitParams) -> Fraction:
    """Best known construction read cost (an upper bound on the optimum)."""
    if p.rf == 0:
        return Fraction(0)
    if p.rf >= p.kf:
        return Fraction(p.lf * p.kf * p.alpha)
    if p.ri <= p.rf:
        return bound_I(p)
    return achievable_decreasing(p)


def theorem_bound(p: SplitParams) -> BoundReport:
    """Classify the point and evaluate the main piecewise bound.

    The value always equals the maximum of whichever of L1 (bound_II),
    L2 (bound_I), L3 (bound_trivial) are defined at the point.
    """
    l3 = bound_trivial(p)
    l2 = bound_I(p) if 1 <= p.rf < p.kf else None
    l1 = bound_II(p) if (1 <= p.rf < p.kf and p.rf < p.ri <= p.ki) else None
    regime = _classify(p)
    if regime in (REGIME_DECREASING_HIGH_MOD, REGIME_DECREASING_LOW_MOD):
        value = l1 if l1 is not None else Fraction(0)
    elif regime == REGIME_INCREASING:
        value = l2 if l2 is not None else Fraction(0)  # rf == 0 degenerates
    else:
        value = l3
    tight = p.rf >= p.kf or p.ri <= p.kf
    ach = known_achievable(p)
    return BoundReport(
        params=p,
        regime=regime,
        value=value,
        L1=l1,
        L2=l2,
        L3=l3,
        tight=tight,
        matching_construction_cost=ach if tight else None,
    )


def dominance_check(p: SplitParams) -> bool:
    """Confirm which component carries the maximum in the decreasing
    redundancy cases: L1 when ri <= ki, else strictly L3 over L2."""
    if not (1 <= p.rf < p.kf and p.rf < p.ri):
        raise ValueError(
            "dominance check applies when 1 <= rf < kf and rf < ri")
    l2 = bound_I(p)
    l3 = bound_trivial(p)
    if p.ri <= p.ki:
        l1 = bound_II(p)
        return l1 >= l2 and l1 >= l3
    return l3 > l2


def sweep_rows(lf_range, kf_range, rf_range, alpha_range, ri_range=None):
    """Yield one report per grid point, row-major in (lf, kf, rf, ri,
    alpha) order; ri defaults to [1, 2*ki] per point."""
    for lf in lf_range:
        for kf in kf_range:
            ki = lf * kf
            ris = ri_range if ri_range is not None else range(1, 2 * ki + 1)
            for rf in rf_range:
                for ri in ris:
                    for alpha in alpha_range:
                        p = SplitParams(lf, kf, rf, ri, alpha)
                        yield theorem_bound(p)
