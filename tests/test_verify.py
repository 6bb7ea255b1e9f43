"""Verification-suite aggregator tests."""

import hashlib
import json
import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest

from convertbw.convertible import canonical_codes
from convertbw.ensemble import (IndependencePreconditionError, check_mi_bound,
                                check_min_avg, ensemble_from_codes, mapped_rows,
                                random_corollary1_tuple, random_corollary2_set)
from convertbw.linalg import mat_rank, random_matrix
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
    real, mapped = ensemble.LinearEnsemble.times, []

    def spy(e, coeffs, v):
        mapped.append(v)
        return real(e, coeffs, v)

    monkeypatch.setattr(ensemble.LinearEnsemble, "times", spy)
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
    p = SplitParams(2, 1, 0, 1, 1, 5)  # rf = 0: no final parity to overwrite
    assert verify_instance(p, trials=0, seed=0, plant="parity-copy") == []


@pytest.mark.parametrize("trials", [-3, True, 2.0])
def test_verify_instance_refuses_trial_counts_that_are_not_counts(trials):
    # -3 once ran no randomized check and True ran one.
    with pytest.raises(ValueError, match="trials must be"):
        verify_instance(SplitParams(2, 1, 1, 1, 1, 5), trials=trials)


@pytest.mark.parametrize("grid", [{"qs": (5, 0)}, {"max_ni": -1},
                                  {"kfs": (0, 1), "max_ni": 0},
                                  {"ris": (1, 99.5)}, {"lfs": (2, 9.5)}])
def test_default_grid_checks_inputs_the_filters_drop(grid):
    # Each of these once returned the points that survived the filters.
    with pytest.raises(ValueError):
        default_grid(**grid)


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


# sha256 of json.dumps(reports) + "\n" for seeded suites the CLI
# golden digests miss: the GF(4)/GF(8) grid, whose map draws reject
# about half their bits, the benchmark's shape (every default point,
# 100 trials) and both planted ensembles with trials, whose failing
# reports must stay as they are too (a row's "plant" goes to run_suite,
# the rest of its dict to default_grid).  Any draw that leaves the
# stdlib's stream moves them.
@pytest.mark.parametrize("grid, trials, seed, count, digest", [
    (dict(qs=(4, 8)), 40, 3, 560,
     "7390deba41e5620bd6b060054099ae5aaa5fb8ef68ed9702460f439d6a783d90"),
    ({}, 100, 0, 1080,
     "addd4ced07d44c38b35dec43817307dacd36e4f2f4b7d142cf547e3df8e4b6f0"),
    (dict(plant="duplicate-parity"), 40, 0, 640,
     "47de8e9a92e45a652ebb81453c6630f3dfed3df40048b7f0be469c76bec005cf"),
    (dict(plant="parity-copy"), 40, 0, 1080,
     "320d99c17379f8a05030cab9beb4ddadf8961c5fafb5cf153359bada321ae0cc"),
])
def test_seeded_trial_streams_are_pinned(grid, trials, seed, count, digest):
    grid = dict(grid)
    plant = grid.pop("plant", None)
    reports, ok = run_suite(default_grid(**grid), trials=trials, seed=seed,
                            plant=plant)
    assert ok == (plant is None) and len(reports) == count
    assert hashlib.sha256((json.dumps(reports) + "\n").encode()).hexdigest() == digest


# -- the row path against the Matrix path ------------------------------------
#
# A test-local copy of each random trial that draws through the stdlib
# (Matrix maps with rng.randint and random_matrix; node orders, sizes and
# admissible tuples with rng.shuffle and rng.randint) and asks the
# oracle's public Matrix entry points (check_mi_bound, check_min_avg;
# mapped_rows ranked by mat_rank for the download-MI chains).

def _ref_map(ens, rng):
    return random_matrix(ens.field, rng.randint(0, ens.params.alpha),
                         ens.params.alpha, rng)


def _ref_mi_trial(ens, rng):
    nodes = list(ens.all_nodes())
    rng.shuffle(nodes)
    na = rng.randint(1, min(3, len(nodes) - 1))
    nb = rng.randint(1, min(3, len(nodes) - na))
    a_set, b_set = nodes[:na], nodes[na:na + nb]
    f_a = {v: _ref_map(ens, rng) for v in a_set}
    f_b = {v: _ref_map(ens, rng) for v in b_set}
    d1 = [v for v in a_set if rng.random() < 0.4]
    d2 = [v for v in b_set if rng.random() < 0.4]
    try:
        return "ok" if check_mi_bound(ens, f_a, f_b, d1, d2) else "violation"
    except IndependencePreconditionError:
        return "precondition"


def _ref_min_avg_trial(ens, rng):
    nodes = list(ens.all_nodes())
    rng.shuffle(nodes)
    b = rng.randint(2, min(4, len(nodes)))
    family = [(v, _ref_map(ens, rng)) for v in nodes[:b]]
    try:
        ok = check_min_avg(ens, family, rng.randint(1, b))
    except IndependencePreconditionError:
        return "precondition"
    return "ok" if ok else "violation"


def _ref_corollary1_tuple(ens, rng):
    p = ens.params
    while True:
        s1 = [v for v in ens.initial_parities if rng.random() < 0.5]
        b1 = rng.randint(0, min(p.ri, len(s1)))
        b2 = p.ri - b1
        if b2 <= p.ki:
            pool = list(ens.info_nodes)
            rng.shuffle(pool)
            return s1, sorted(pool[:rng.randint(b2, p.ki)]), b1, b2


def _ref_corollary2_set(ens, rng):
    p = ens.params
    if p.ri > p.ki:
        return None
    pool = list(ens.info_nodes)
    rng.shuffle(pool)
    return sorted(pool[:rng.randint(p.ri, p.ki)])


def _ref_corollary_trial(ens, rng, which):
    p = ens.params
    maps = {v: _ref_map(ens, rng) for v in ens.initial_nodes}

    def h(nodes):
        return mat_rank(mapped_rows(ens, maps, nodes))

    def min_h(pool, size):
        return min(h(c) for c in combinations(pool, size)) if size else 0

    mi = h(ens.initial_parities) + h(ens.info_nodes) - h(ens.initial_nodes)
    if which == 1:
        s1, s2, b1, b2 = _ref_corollary1_tuple(ens, rng)
        minsum = min_h(s1, b1) + min_h(s2, b2)
        avg = (Fraction(b1, len(s1) or 1) * sum(h([v]) for v in s1)
               + Fraction(b2, len(s2) or 1) * h(s2))
        ok = mi <= minsum <= avg
    else:
        s = _ref_corollary2_set(ens, rng)
        if s is None:
            return "skipped"
        mn = min_h(s, p.ri)
        ok = mi <= mn <= Fraction(p.ri, len(s)) * h(s)
    return "ok" if ok else "violation"


@pytest.mark.parametrize("point", [(2, 1, 1, 2, 1, 5), (3, 2, 2, 2, 1, 11),
                                   (2, 3, 1, 3, 2, 11), (2, 1, 1, 3, 1, 5)])
def test_admissible_draws_match_the_stdlib_draws(point):
    p = SplitParams(*point)
    ens = ensemble_from_codes(p, *canonical_codes(p))
    ours, ref = random.Random(sum(point)), random.Random(sum(point))
    for _ in range(60):
        assert random_corollary1_tuple(ens, ours) == _ref_corollary1_tuple(ens, ref)
        assert random_corollary2_set(ens, ours) == _ref_corollary2_set(ens, ref)
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("point", [
    (2, 1, 1, 2, 1, 5), (2, 2, 1, 1, 2, 5), (2, 2, 2, 3, 2, 7),
    (3, 1, 2, 2, 1, 7), (3, 2, 1, 2, 1, 11), (2, 2, 1, 2, 2, 8),
    (2, 1, 1, 3, 2, 8),
])
def test_row_trials_match_matrix_trials(point):
    p = SplitParams(*point)
    ens = ensemble_from_codes(p, *canonical_codes(p))
    pairs = [(lemma_mi_trial, _ref_mi_trial),
             (lemma_min_avg_trial, _ref_min_avg_trial),
             (partial(corollary_trial, which=1), partial(_ref_corollary_trial, which=1)),
             (partial(corollary_trial, which=2), partial(_ref_corollary_trial, which=2))]
    seen = set()
    for seed, (trial, ref) in enumerate(pairs):
        rows_rng, ref_rng = random.Random(seed), random.Random(seed)
        got = [trial(ens, rows_rng) for _ in range(40)]
        assert got == [ref(ens, ref_rng) for _ in range(40)], trial
        assert rows_rng.getstate() == ref_rng.getstate()
        seen.update(got)
    assert {"ok", "precondition"} <= seen and "violation" not in seen
    assert ("skipped" in seen) == (p.ri > p.ki)
