"""Verification-suite aggregator tests."""

import random

import pytest

from convertbw.convertible import canonical_codes
from convertbw.ensemble import ensemble_from_codes
from convertbw.params import SplitParams
from convertbw.verify import (corollary_trial, default_grid, lemma_mi_trial,
                              lemma_min_avg_trial, plant_corruption,
                              run_randomized_checks, run_suite,
                              verify_instance)


def test_default_grid_respects_filters():
    grid = default_grid()
    assert grid
    for p in grid:
        assert p.ni <= 8
        assert p.q >= max(p.ni, p.nf)
    # The q=5 grid cannot host ni > 5 points.
    assert not [p for p in grid if p.q == 5 and p.ni > 5]


def test_default_grid_empty_when_overconstrained():
    assert default_grid(qs=(5,), lfs=(5,), kfs=(8,)) == []


def test_verify_instance_all_pass():
    p = SplitParams(2, 2, 1, 2, 1, 7)
    reports = verify_instance(p, trials=40, seed=0)
    assert reports
    assert all(r["status"] == "pass" for r in reports)
    names = [r["check"] for r in reports]
    assert names == sorted(names)
    for want in ("storage-axioms", "initial-joint-entropy", "parity-iid",
                 "mds-reconstruction", "stability", "cond-entropy-split",
                 "mi-bound-random", "min-avg-random", "mi-chain1-random",
                 "mi-chain2-random"):
        assert want in names


def test_randomized_counts_add_up():
    p = SplitParams(2, 2, 1, 2, 1, 7)
    ens = ensemble_from_codes(p, *canonical_codes(p))
    reports = run_randomized_checks(ens, trials=80, rng=random.Random(0))
    total = 0
    for r in reports:
        c = r["counts"]
        assert c["violations"] == 0
        total += c["evaluated"] + c["precondition_failures"] + c["skipped"]
    assert total == 80


def test_trials_are_seed_reproducible():
    p = SplitParams(2, 1, 1, 2, 1, 5)
    a = verify_instance(p, trials=60, seed=7)
    b = verify_instance(p, trials=60, seed=7)
    assert a == b


def test_single_trials():
    p = SplitParams(2, 2, 2, 3, 2, 11)
    ens = ensemble_from_codes(p, *canonical_codes(p))
    rng = random.Random(1)
    results = {lemma_mi_trial(ens, rng) for _ in range(30)}
    assert results <= {"ok", "precondition"}
    results = {lemma_min_avg_trial(ens, rng) for _ in range(30)}
    assert results <= {"ok", "precondition"}
    assert {corollary_trial(ens, rng, 1) for _ in range(15)} == {"ok"}
    assert {corollary_trial(ens, rng, 2) for _ in range(15)} <= {"ok", "skipped"}


def test_corollary2_skipped_when_ri_exceeds_ki():
    p = SplitParams(2, 1, 1, 3, 1, 7)
    ens = ensemble_from_codes(p, *canonical_codes(p))
    rng = random.Random(2)
    assert {corollary_trial(ens, rng, 2) for _ in range(5)} == {"skipped"}


def test_skipped_chain2_trial_maps_no_node(monkeypatch):
    # A chain-2 trial with ri > ki draws its maps, so the rng stream (and
    # the verify JSON) stay as they were, but maps and ranks nothing
    # before reporting "skipped".
    from convertbw import ensemble
    p = SplitParams(2, 1, 1, 3, 1, 5)
    ens = ensemble_from_codes(p, *canonical_codes(p))
    real, mapped = ensemble._mapped, []

    def spy(e, maps, v):
        mapped.append(v)
        return real(e, maps, v)

    monkeypatch.setattr(ensemble, "_mapped", spy)
    rng = random.Random(2)
    assert corollary_trial(ens, rng, 2) == "skipped"
    assert mapped == []
    assert corollary_trial(ens, rng, 1) == "ok"
    assert len(mapped) == p.ni


def test_plant_duplicate_parity_fails_parity_iid():
    p = SplitParams(2, 1, 1, 2, 1, 5)
    reports = verify_instance(p, trials=0, seed=0, plant="duplicate-parity")
    failing = {r["check"] for r in reports if r["status"] == "fail"}
    assert "parity-iid" in failing
    failing_report = next(r for r in reports
                          if r["check"] == "parity-iid" and r["status"] == "fail")
    assert failing_report.get("counterexample")


def test_plant_parity_copy_fails_stability():
    p = SplitParams(2, 2, 1, 2, 1, 7)
    reports = verify_instance(p, trials=0, seed=0, plant="parity-copy")
    failing = {r["check"] for r in reports if r["status"] == "fail"}
    assert "stability" in failing


def test_plant_skips_inapplicable_instances():
    p = SplitParams(2, 2, 1, 1, 1, 5)  # ri = 1: nothing to duplicate
    assert verify_instance(p, trials=0, seed=0, plant="duplicate-parity") == []


def test_plant_unknown_kind_rejected():
    p = SplitParams(2, 1, 1, 2, 1, 5)
    ens = ensemble_from_codes(p, *canonical_codes(p))
    with pytest.raises(ValueError):
        plant_corruption(ens, "nonsense")


def test_run_suite_aggregates():
    pts = default_grid(qs=(5,), alphas=(1,))
    reports, ok = run_suite(pts, trials=8, seed=0)
    assert ok
    assert len(reports) >= len(pts)
    bad_reports, bad_ok = run_suite([SplitParams(2, 1, 1, 2, 1, 5)],
                                    trials=0, seed=0, plant="duplicate-parity")
    assert not bad_ok
