"""Bound formula tests: frozen hand-derived values and cross-identities."""

from fractions import Fraction as F

import pytest

from convertbw.bounds import (REGIME_DECREASING_HIGH_MOD,
                              REGIME_DECREASING_LOW_MOD, REGIME_INCREASING,
                              REGIME_RF_GE_KF, REGIME_RI_GT_KI,
                              achievable_decreasing, bound_I, bound_II,
                              bound_trivial, dominance_check, entropy_V_lb,
                              known_achievable, sweep_rows, theorem_bound,
                              uniform_cost_bound)
from convertbw.params import SplitParams
from support import (best_entropy_V_lb, default_theta1,
                     reference_access_bound, reference_merge_bound)


def P(lf, kf, rf, ri, alpha=1):
    return SplitParams(lf, kf, rf, ri, alpha)


# Floor forced by the new parity nodes.

def test_bound_trivial_values():
    assert bound_trivial(P(2, 2, 3, 1)) == 4
    assert bound_trivial(P(2, 2, 0, 1)) == 0
    assert bound_trivial(P(3, 4, 2, 1, 2)) == 12


# Bound from the downloaded-entropy tradeoff (rf < kf).

def test_bound_I_values():
    assert bound_I(P(2, 3, 2, 1, 2)) == 11          # 12 - 2*(1/2)
    assert bound_I(P(2, 2, 1, 1, 1)) == 3           # 4 - 1*1
    assert bound_I(P(2, 3, 1, 0, 2)) == 12          # no parity help


def test_bound_I_preconditions():
    with pytest.raises(ValueError):
        bound_I(P(2, 2, 2, 1))
    with pytest.raises(ValueError):
        bound_I(P(2, 2, 0, 1))


# Piecewise bound for rf < ri <= ki.

def test_bound_II_first_branch():
    assert bound_II(P(2, 3, 1, 2, 3)) == 10


def test_bound_II_second_branch():
    assert bound_II(P(2, 4, 3, 5, 7)) == 46


def test_bound_II_matches_single_step_form_when_ri_small():
    # With ri <= kf the ceiling collapses to 1 and the branch formula
    # equals the plain decreasing-redundancy expression.
    p = P(2, 3, 1, 2, 3)
    conj = F(p.lf * p.rf * p.alpha) * F((p.lf - 1) * p.kf + p.ri,
                                        (p.lf - 1) * p.rf + p.ri)
    assert bound_II(p) == conj == 10


def test_bound_II_preconditions():
    with pytest.raises(ValueError):
        bound_II(P(2, 2, 1, 1))   # ri == rf
    with pytest.raises(ValueError):
        bound_II(P(2, 2, 1, 5))   # ri > ki
    with pytest.raises(ValueError):
        bound_II(P(2, 2, 2, 3))   # rf >= kf


# Lower bound on the data-node download entropy.

def test_entropy_V_lb_values():
    assert entropy_V_lb(P(2, 3, 1, 2, 3), 1) == 6
    assert entropy_V_lb(P(2, 4, 3, 5, 7), 1) == 16
    # theta1 = lf with huge ri: numerator clamps to zero.
    assert entropy_V_lb(P(2, 3, 1, 7), 2) == 0


def test_entropy_V_lb_validation():
    with pytest.raises(ValueError):
        entropy_V_lb(P(2, 3, 1, 2), 0)
    with pytest.raises(ValueError):
        entropy_V_lb(P(2, 3, 1, 2), 3)
    with pytest.raises(ValueError):
        entropy_V_lb(P(2, 3, 2, 1), 1)  # ri <= rf


def test_bound_II_consistent_with_entropy_lb_derivation():
    # The piecewise form equals plugging the chosen theta1's entropy
    # bound into the read-cost inequality.
    for lf in (2, 3, 4):
        for kf in range(2, 6):
            for rf in range(1, kf):
                for ri in range(rf + 1, lf * kf + 1):
                    for alpha in (1, 3):
                        p = P(lf, kf, rf, ri, alpha)
                        lhs = bound_II(p)
                        hv = entropy_V_lb(p, default_theta1(p))
                        rhs = F(kf - rf, kf) * hv + lf * rf * alpha
                        assert lhs == rhs, p


def test_best_entropy_V_lb_dominates_default_choice():
    for lf in (2, 3):
        for kf in (2, 4):
            for rf in range(1, kf):
                for ri in range(rf + 1, 2 * lf * kf + 1):
                    p = P(lf, kf, rf, ri)
                    _, best = best_entropy_V_lb(p)
                    assert best >= entropy_V_lb(p, min(default_theta1(p), lf))


# Regime classification and the assembled report.

def test_theorem_bound_case1():
    rep = theorem_bound(P(2, 3, 1, 2, 3))
    assert rep.value == 10
    assert rep.regime == REGIME_DECREASING_HIGH_MOD
    assert rep.tight  # ri <= kf
    assert rep.matching_construction_cost == 10


def test_theorem_bound_ri_above_ki():
    rep = theorem_bound(P(2, 2, 1, 5, 1))
    assert rep.value == 2
    assert rep.regime == REGIME_RI_GT_KI
    assert not rep.tight
    assert rep.L1 is None
    assert rep.matching_construction_cost is None


def test_theorem_bound_rf_dominant():
    rep = theorem_bound(P(2, 2, 3, 1, 1))
    assert rep.value == 4
    assert rep.regime == REGIME_RF_GE_KF
    assert rep.tight
    assert rep.L2 is None


def test_theorem_bound_increasing_redundancy():
    rep = theorem_bound(P(2, 4, 2, 1, 1))
    assert rep.regime == REGIME_INCREASING
    assert rep.value == bound_I(rep.params) == 7


def test_theorem_bound_low_mod_case():
    rep = theorem_bound(P(2, 4, 3, 5, 7))
    assert rep.regime == REGIME_DECREASING_LOW_MOD
    assert rep.value == 46


def test_theorem_bound_rf_zero_degenerate():
    for ri in (0, 1, 9):
        rep = theorem_bound(P(2, 2, 0, ri))
        assert rep.value == 0


def test_theorem_bound_json_shape():
    doc = theorem_bound(P(2, 3, 1, 2, 3)).to_json_dict()
    assert doc["value"] == {"num": 10, "den": 1}
    assert doc["regime"] == REGIME_DECREASING_HIGH_MOD
    assert doc["tight"] is True
    assert doc["L2"] == {"num": 6, "den": 1}


# The uniform-download bound and the achievable construction cost.

def test_uniform_cost_values():
    assert uniform_cost_bound(P(2, 2, 1, 1, 1)) == 3
    assert uniform_cost_bound(P(2, 2, 1, 3, 1)) == 2
    assert uniform_cost_bound(P(2, 2, 3, 1, 1)) == 4  # max term vanishes
    assert uniform_cost_bound(P(2, 2, 0, 0, 1)) == 0


def test_achievable_decreasing_values():
    assert achievable_decreasing(P(2, 3, 1, 2, 3)) == 10
    assert achievable_decreasing(P(2, 4, 3, 5, 7)) == F(378, 8)
    assert achievable_decreasing(P(3, 2, 1, 2, 1)) == F(9, 2)


def test_achievable_decreasing_preconditions():
    with pytest.raises(ValueError):
        achievable_decreasing(P(2, 2, 1, 1))
    with pytest.raises(ValueError):
        achievable_decreasing(P(2, 2, 2, 3))


def test_known_achievable_matches_bound_in_tight_regimes():
    assert known_achievable(P(2, 2, 3, 1)) == 4
    assert known_achievable(P(2, 3, 2, 1, 2)) == 11
    assert known_achievable(P(2, 3, 1, 2, 3)) == 10


# Reference bounds for other conversion shapes.

def test_reference_access_bound():
    assert reference_access_bound(ki=4, ri=1, kf=2, rf=2, li=1, lf=2) == 4
    assert reference_access_bound(ki=2, ri=2, kf=4, rf=1, li=2, lf=1) == 2
    assert reference_access_bound(ki=3, ri=2, kf=2, rf=2, li=2, lf=3) == 6
    with pytest.raises(ValueError):
        reference_access_bound(ki=2, ri=1, kf=2, rf=1, li=1, lf=1)


def test_reference_merge_bound():
    assert reference_merge_bound(ki=3, ri=2, rf=1, li=2, alpha=1) == 2
    assert reference_merge_bound(ki=2, ri=1, rf=2, li=2, alpha=2) == 8
    assert reference_merge_bound(ki=2, ri=1, rf=3, li=2, alpha=1) == 4
    with pytest.raises(ValueError):
        reference_merge_bound(ki=2, ri=1, rf=1, li=1, alpha=1)


# Appendix dominance facts.

def test_dominance_examples():
    p = P(2, 3, 1, 2, 3)
    rep = theorem_bound(p)
    assert rep.L1 == 10 and rep.L2 == 6 and rep.L3 == 6
    assert rep.L1 >= rep.L2 and rep.L1 >= rep.L3
    assert dominance_check(p)
    p2 = P(2, 2, 1, 5, 1)
    rep = theorem_bound(p2)
    assert rep.L3 == 2 > rep.L2 == 0
    assert dominance_check(p2)


def test_dominance_preconditions():
    with pytest.raises(ValueError):
        dominance_check(P(2, 2, 1, 1))


def test_sweep_consistency_small_grid():
    for rep in sweep_rows(range(2, 4), range(1, 5), range(1, 5), range(1, 3)):
        p = rep.params
        apps = [x for x in (rep.L1, rep.L2, rep.L3) if x is not None]
        assert rep.value == max(apps), p
        if 1 <= p.rf < p.kf and p.rf < p.ri:
            assert dominance_check(p), p
        cand = [rep.L3] + ([rep.L2] if rep.L2 is not None else [])
        assert max(cand) == uniform_cost_bound(p), p
        if p.rf >= 1:
            assert known_achievable(p) >= rep.value, p


def test_values_are_exact_fractions():
    rep = theorem_bound(P(3, 5, 2, 7, 1))
    assert isinstance(rep.value, F)
    assert isinstance(bound_trivial(rep.params), F)
