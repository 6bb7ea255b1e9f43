"""Exact lower bounds on split-mode conversion read bandwidth.

Every function returns a Fraction computed from the integer parameters
alone; no floating point is used anywhere in this module.  Each bound
with rf < kf is one tradeoff step applied to a lower bound h on H(V).
theorem_bound classifies the point, evaluates the step at
data_entropy_lb, and reports L1, L2, L3, a tightness flag, uniform_cost
(uniform_cost_bound) and achievable (known_achievable).
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


def tradeoff(p: SplitParams, h_v: Fraction | int) -> Fraction:
    """lf*rf*alpha + (kf - rf)/kf * h_v: the least read cost of a scheme
    that downloads H(V) = h_v from the data nodes; valid when rf < kf."""
    return p.lf * p.rf * p.alpha + Fraction(p.kf - p.rf, p.kf) * h_v


def bound_trivial(p: SplitParams) -> Fraction:
    """Writes alone force lf * min(kf, rf) * alpha downloaded subsymbols."""
    return Fraction(p.lf * min(p.kf, p.rf) * p.alpha)


def bound_I(p: SplitParams) -> Fraction:
    """The tradeoff step at h = lf*kf*alpha - min(ri, ki)*alpha*kf/rf;
    needs 1 <= rf < kf."""
    if p.rf < 1 or p.rf >= p.kf:
        raise ValueError(f"bound_I requires 1 <= rf < kf, got rf={p.rf}, kf={p.kf}")
    return tradeoff(p, p.lf * p.kf * p.alpha
                    - Fraction(min(p.ri, p.ki) * p.alpha * p.kf, p.rf))


def bound_II(p: SplitParams) -> Fraction:
    """The tradeoff step at h = data_entropy_lb, for 1 <= rf < kf and
    rf < ri <= ki."""
    if not (1 <= p.rf < p.kf):
        raise ValueError(f"bound_II requires 1 <= rf < kf, got rf={p.rf}, kf={p.kf}")
    if not (p.rf < p.ri <= p.ki):
        raise ValueError(
            f"bound_II requires rf < ri <= ki, got ri={p.ri}, ki={p.ki}")
    return tradeoff(p, data_entropy_lb(p))


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


def data_entropy_lb(p: SplitParams) -> Fraction:
    """h: a lower bound on H(V), the entropy every scheme downloads from
    the data nodes; needs 1 <= rf < kf.  Past ri > ki it is 0."""
    if p.rf < 1 or p.rf >= p.kf:
        raise ValueError(
            f"data_entropy_lb requires 1 <= rf < kf, got rf={p.rf}, kf={p.kf}")
    if p.ri <= p.rf:
        return p.lf * p.kf * p.alpha - Fraction(p.ri * p.alpha * p.kf, p.rf)
    return max(entropy_V_lb(p, t1) for t1 in range(1, p.lf + 1))


def uniform_cost_bound(p: SplitParams) -> Fraction:
    """The earlier bound derived under per-node-uniform downloads: the
    tradeoff step at bound_I's h, floored by the writes."""
    return max(bound_trivial(p), bound_I(p)) if 1 <= p.rf < p.kf else bound_trivial(p)


def achievable_decreasing(p: SplitParams) -> Fraction:
    """Read cost lf*rf*alpha * (t*kf + ri) / (t*rf + ri), t = lf - 1, of
    the known redundancy-decreasing constructions; needs 1 <= rf < kf
    and rf < ri."""
    if p.rf < 1 or p.rf >= p.kf or p.rf >= p.ri:
        raise ValueError(
            f"achievable_decreasing requires 1 <= rf < kf and rf < ri, "
            f"got rf={p.rf}, kf={p.kf}, ri={p.ri}")
    t = p.lf - 1
    return Fraction(p.lf * p.rf * p.alpha * (t * p.kf + p.ri), t * p.rf + p.ri)


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
    """One point's bound, its components, uniform_cost and achievable."""

    params: SplitParams
    regime: str
    value: Fraction
    L1: Fraction | None
    L2: Fraction | None
    L3: Fraction
    tight: bool
    matching_construction_cost: Fraction | None
    uniform_cost: Fraction
    achievable: Fraction

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
            "uniform_cost": rat(self.uniform_cost), "achievable": rat(self.achievable),
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
    """Classify the point and evaluate the main bound: the tradeoff step
    at data_entropy_lb when 1 <= rf < kf, else L3.

    The value always equals the maximum of whichever of L1 (bound_II),
    L2 (bound_I), L3 (bound_trivial) are defined at the point.
    """
    l3 = bound_trivial(p)
    chain = 1 <= p.rf < p.kf
    value = tradeoff(p, data_entropy_lb(p)) if chain else l3
    tight = p.rf >= p.kf or p.ri <= p.kf
    ach = known_achievable(p)
    return BoundReport(
        params=p, regime=_classify(p), value=value,
        L1=value if chain and p.rf < p.ri <= p.ki else None,   # = bound_II(p)
        L2=bound_I(p) if chain else None, L3=l3, tight=tight,
        matching_construction_cost=ach if tight else None,
        uniform_cost=uniform_cost_bound(p), achievable=ach)


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
