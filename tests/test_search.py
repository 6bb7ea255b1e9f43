"""Scheme-search tests: exhaustive minimization, certification, audits."""

import json
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from convertbw.bounds import entropy_V_lb
from convertbw.convertible import (ConversionScheme, InfeasibleSchemeError,
                                   canonical_codes, check_feasible,
                                   default_scheme)
from convertbw.ensemble import ensemble_from_codes
from convertbw.linalg import Matrix, enumerate_subspaces, rank_pair, vstack
from convertbw.mds import VectorCode, verify_mds
from convertbw.params import SplitParams
from convertbw.search import (SearchBudget, SearchOutcome, _compositions,
                              _cut_sets, _CutTable, _SchemeSpace,
                              certify_bound,
                              check_scheme_inequalities,
                              min_bandwidth_exhaustive, random_mds_pair)
from support import empty_scheme


def build(lf, kf, rf, ri, alpha, q):
    p = SplitParams(lf, kf, rf, ri, alpha, q)
    return p, ensemble_from_codes(p, *canonical_codes(p))


def brute_force_min_gamma(p, ens):
    """Independent oracle: try every scheme combination outright and
    take the smallest feasible read cost."""
    fld = ens.field
    menus = []
    for _ in range(p.ki + p.ri):
        options = []
        for d in range(p.alpha + 1):
            options.extend(enumerate_subspaces(p.alpha, fld, d))
        menus.append(options)
    best = None
    for picks in product(*menus):
        scheme = ConversionScheme(p, picks)
        if check_feasible(ens, scheme):
            g = scheme.read_total
            if best is None or g < best:
                best = g
    return best


@pytest.mark.parametrize("lf,kf,rf,ri,alpha,q", [
    (2, 1, 1, 1, 1, 5), (2, 1, 2, 1, 1, 5), (2, 2, 1, 1, 1, 5),
    (2, 1, 1, 2, 1, 5), (3, 1, 1, 1, 1, 5),
])
def test_search_matches_brute_force_oracle(lf, kf, rf, ri, alpha, q):
    p, ens = build(lf, kf, rf, ri, alpha, q)
    out = min_bandwidth_exhaustive(ens, SearchBudget())
    assert out.found
    assert out.gamma == brute_force_min_gamma(p, ens)
    assert check_feasible(ens, out.scheme)
    assert out.scheme.read_total == out.gamma


def test_smallest_instance_minimum_is_two():
    p, ens = build(2, 1, 1, 1, 1, 5)
    out = min_bandwidth_exhaustive(ens, SearchBudget())
    assert out.gamma == 2 == p.lf * min(p.kf, p.rf) * p.alpha


def test_no_new_parities_needs_no_downloads():
    p, ens = build(2, 1, 0, 1, 1, 5)
    out = min_bandwidth_exhaustive(ens, SearchBudget())
    assert out.gamma == 0
    assert out.scheme.read_total == 0


def test_default_scheme_caps_the_minimum():
    p, ens = build(2, 2, 1, 2, 1, 7)
    out = min_bandwidth_exhaustive(ens, SearchBudget())
    assert out.gamma <= p.ki * p.alpha


def test_budget_exhaustion_reported_distinctly():
    p, ens = build(2, 2, 1, 1, 2, 5)
    out = min_bandwidth_exhaustive(ens, SearchBudget(max_visits=50))
    assert not out.found and out.status == "max-visits"
    assert out.visited == 50
    out2 = min_bandwidth_exhaustive(ens, SearchBudget(max_total_dim=4))
    assert not out2.found and out2.status == "max-total-dim"


def reference_search(ens, budget):
    """The enumerator the incremental walk replaced, kept as the plain
    reference path: one full rank_pair of the whole download stack per
    scheme, in enumeration order."""
    p = ens.params
    space = _SchemeSpace(ens)
    slots = len(space.nodes)
    cap = p.ki * p.alpha
    if budget.max_total_dim is not None:
        cap = min(cap, budget.max_total_dim)
    visited = 0
    for gamma in range(space.target_rank, cap + 1):
        for profile in _compositions(gamma, slots, p.alpha):
            for combo in _combos(space, profile):
                visited += 1
                if visited > budget.max_visits:
                    return SearchOutcome("max-visits", visited=visited - 1)
                if _feasible(space, profile, combo):
                    return SearchOutcome("found", gamma=gamma,
                                         scheme=space.scheme_for(profile, combo),
                                         visited=visited)
    return SearchOutcome("max-total-dim", visited=visited)


def _combos(space, profile):
    return product(*[range(len(space.subspaces[d])) for d in profile])


def _mapped(space, s, d, i):
    """Subspace i of dimension d applied to slot s's node block."""
    return space.subspaces[d][i] @ space.ens.block(space.nodes[s])


def _targets(space):
    return space.ens.stack(space.ens.final_parities)


def _stack(space, mats):
    return vstack([Matrix.zeros(space.ens.field, 0, space.params.message_dim),
                   *mats])


def _feasible(space, profile, combo):
    """Whether the scheme's downloads span the target rows: one full
    rank_pair of the whole download stack."""
    mats = [_mapped(space, s, d, i) for s, (d, i) in enumerate(zip(profile, combo))]
    rd, rj = rank_pair(_stack(space, mats), _targets(space))
    return rd == rj


def _differential_cases():
    # Every certified point with the canonical pair and seeded random
    # pairs (two pairs only at (2,2,1,1,2,5), where the reference takes
    # seconds per pair), two more alpha = 2 points, one GF(8) point, and
    # both budget caps.  At (2,2,1,1,2,5) the levels end at visits 7570,
    # 19846 and 27416, and the caps 7571, 19846 and 27416 fall inside
    # profiles the cut table skips whole.  Level 7 walks two profiles,
    # (1,1,2,2,1) at visits 27879-28094 and (2,2,1,1,1) at 29463-29678,
    # each with free slots around fixed ones: the caps 27900 and 29500
    # fall inside subtrees the rank bound skips, 27921 and 29550 on
    # visited leaves.  The free-slot pair (pair "free") is found at visit
    # 27942 in (1,1,2,2,1), after nine subtrees the rank bound skips at
    # depth 2: a skip that miscounts there moves the find past the cap
    # 27942, and the cap 27930 falls inside the skip over 27927-27932.
    points = [((2, 1, 1, 1, 1, 5), 3), ((2, 1, 2, 1, 1, 5), 3),
              ((2, 2, 1, 1, 1, 5), 3), ((2, 2, 1, 1, 2, 5), 2),
              ((2, 3, 2, 2, 1, 8), 3), ((2, 1, 1, 1, 2, 5), 3),
              ((2, 1, 1, 1, 2, 8), 3)]
    cases = [(pt, k, SearchBudget()) for pt, pairs in points for k in range(pairs)]
    cases += [((2, 2, 1, 1, 2, 5), 0, SearchBudget(max_visits=v))
              for v in (1, 50, 7570, 7571, 19846, 27416, 27900, 27921,
                        29500, 29550, 29696, 29697)]
    cases += [((2, 2, 1, 1, 2, 5), "free", SearchBudget(max_visits=v))
              for v in (27930, 27941, 27942)]
    cases += [((2, 2, 1, 1, 2, 5), 0, SearchBudget(max_total_dim=d))
              for d in (6, 7)]
    return [pytest.param(pt, k, b, id="-".join(map(str, pt)) + f"/pair{k}/"
                         f"visits{b.max_visits}/dim{b.max_total_dim}")
            for pt, k, b in cases]


def pair_ensemble(point, pair):
    """The canonical pair (pair 0), the pair-th seeded random pair, or
    the seed-0 random_systematic_pair (pair "free")."""
    p = SplitParams(*point)
    rng = random.Random(0)
    if pair == "free":
        return ensemble_from_codes(p, *random_systematic_pair(p, rng))
    codes = canonical_codes(p)
    for _ in range(pair):
        codes = random_mds_pair(p, rng)
    return ensemble_from_codes(p, *codes)


@pytest.mark.parametrize("point,pair,budget", _differential_cases())
def test_search_matches_reference_enumerator(point, pair, budget):
    ens = pair_ensemble(point, pair)
    got = min_bandwidth_exhaustive(ens, budget)
    want = reference_search(ens, budget)
    assert (got.status, got.gamma, got.visited, got.scheme) == \
        (want.status, want.gamma, want.visited, want.scheme)


def random_systematic_pair(p, rng):
    """A seeded pair of systematic codes with uniformly drawn parity
    blocks, each redrawn until it is MDS.  With ri = rf = 1 a parity mix
    keeps the parity node's row space, so every mixed pair searches like
    the canonical one; these pairs do not."""
    fld = p.field()
    codes = []
    for n, k in ((p.ni, p.ki), (p.nf, p.kf)):
        ka, ra = k * p.alpha, (n - k) * p.alpha
        while True:
            code = VectorCode(n, k, p.alpha, fld, Matrix(fld, [
                [int(i == j) for j in range(ka)] + [rng.randrange(fld.q)
                                                    for _ in range(ra)]
                for i in range(ka)]))
            if verify_mds(code):
                codes.append(code)
                break
    return codes


def test_search_rebuilds_fixed_slots_between_free_ones():
    # Found at gamma 7 in profile (1,1,2,2,1): the full slots 2 and 3
    # join once and take index 0 between the walked free slots 0, 1, 4.
    p = SplitParams(2, 2, 1, 1, 2, 5)
    ens = ensemble_from_codes(p, *random_systematic_pair(p, random.Random(0)))
    got = min_bandwidth_exhaustive(ens, SearchBudget())
    want = reference_search(ens, SearchBudget())
    assert (got.status, got.gamma, got.visited, got.scheme) == \
        (want.status, want.gamma, want.visited, want.scheme)
    subspaces = _SchemeSpace(ens).subspaces
    assert [(m.rows, subspaces[m.rows].index(m)) for m in got.scheme.maps] == \
        [(1, 1), (1, 4), (2, 0), (2, 0), (1, 3)]
    assert (got.gamma, got.visited) == (7, 27942)


@pytest.mark.parametrize("total,slots,maxv", [
    (0, 0, 2), (1, 0, 2), (0, 3, 2), (4, 3, 2), (7, 3, 2), (7, 5, 2),
    (3, 4, 1), (5, 3, 3)])
def test_compositions_are_the_lex_filtered_product(total, slots, maxv):
    got = _compositions(total, slots, maxv)
    assert type(got) is tuple and all(type(c) is tuple for c in got)
    assert list(got) == [c for c in product(range(maxv + 1), repeat=slots)
                         if sum(c) == total]
    assert _compositions(total, slots, maxv) is got   # one shared table


@pytest.mark.parametrize("pair", [0, 1])
@pytest.mark.parametrize("point", [(2, 2, 1, 1, 1, 5), (2, 3, 2, 2, 1, 8),
                                   (2, 2, 1, 1, 2, 5)])
def test_cut_table_rejects_only_infeasible_profiles(point, pair):
    """need(A) matches a from-scratch rank, no profile the table rejects
    holds a feasible scheme (by the reference's full rank test), and
    some profile survives at the level where the search succeeds."""
    ens = pair_ensemble(point, pair)
    space = _SchemeSpace(ens)
    table = _CutTable(space)
    alpha = ens.params.alpha
    slots = len(space.nodes)
    sets = range(1, 1 << slots)
    need = {}
    for a in sets:
        # Rank of the targets modulo the full blocks outside A, from scratch.
        outside = [_mapped(space, s, alpha, 0) for s in range(slots) if not a >> s & 1]
        rb, rbt = rank_pair(_stack(space, outside), _targets(space))
        need[a] = rbt - rb
        assert table.need(a) == need[a]
    gamma = min_bandwidth_exhaustive(ens, SearchBudget()).gamma
    for level in range(space.target_rank, gamma + 1):
        survivors = 0
        for profile in _compositions(level, slots, alpha):
            rejected = table.rejects(profile)
            # rejects() tries only some sets; it must agree with all of them.
            assert rejected == any(
                sum(d for s, d in enumerate(profile) if a >> s & 1) < need[a]
                for a in sets)
            if not rejected:
                survivors += 1
                continue
            assert not any(_feasible(space, profile, combo)
                           for combo in _combos(space, profile))
        assert survivors or level < gamma


def test_parameter_only_values_are_shared_and_immutable():
    p = SplitParams(2, 2, 1, 1, 2, 5)
    assert canonical_codes(p) is canonical_codes(SplitParams(2, 2, 1, 1, 2, 5))
    assert default_scheme(p) is default_scheme(p)
    assert type(canonical_codes(p)) is tuple and type(default_scheme(p).maps) is tuple
    sets = _cut_sets((0, 1, 2, 1, 2), 2)
    assert type(sets) is tuple and sets is _cut_sets((0, 1, 2, 1, 2), 2)
    # Z = {slot 0}; slots 1 and 3 partial: every subset of them joins Z.
    assert sets == ((1, 0), (3, 1), (9, 1), (11, 2))


def test_certify_is_unchanged_by_warm_caches():
    p = SplitParams(2, 2, 1, 1, 2, 5)

    def certify():
        return json.dumps([r.to_json_dict() for r in certify_bound(p, trials=3)])

    for cached in (canonical_codes, default_scheme, enumerate_subspaces, _cut_sets):
        cached.cache_clear()
    cold = certify()
    for point in [(2, 2, 1, 1, 1, 5), (2, 3, 2, 2, 1, 8), (2, 1, 1, 1, 2, 7)]:
        certify_bound(SplitParams(*point), trials=2)
    assert certify() == cold


def test_search_is_deterministic():
    p, ens = build(2, 2, 1, 1, 1, 5)
    a = min_bandwidth_exhaustive(ens, SearchBudget())
    b = min_bandwidth_exhaustive(ens, SearchBudget())
    assert a.gamma == b.gamma and a.scheme == b.scheme


def test_certify_small_point_sound_and_achieving():
    p = SplitParams(2, 1, 1, 1, 1, 5)
    reports = certify_bound(p, trials=4, seed=0)
    assert [r.pair for r in reports][0] == "canonical"
    for r in reports:
        assert r.verdict == "sound"
        assert r.min_gamma == 2 and r.bound == 2 and r.achieved
        assert r.audit_checked >= 2 and not r.audit_failures


def test_certify_alpha1_point_min_may_exceed_bound():
    p = SplitParams(2, 2, 1, 1, 1, 5)
    reports = certify_bound(p, trials=3, seed=1)
    for r in reports:
        assert r.verdict == "sound"
        assert Fraction(r.min_gamma) >= r.bound == 3


def test_certify_requires_field():
    with pytest.raises(ValueError):
        certify_bound(SplitParams(2, 1, 1, 1), trials=1)


def test_each_drawn_code_is_checked_for_mds_once(monkeypatch):
    # The parity mix checks each candidate code and ensemble_from_codes
    # checks the accepted pair again; the second check is a cache hit.
    from convertbw import ensemble, search
    asked = []

    def spy(code):
        asked.append(code)
        return verify_mds(code)

    monkeypatch.setattr(search, "verify_mds", spy)
    monkeypatch.setattr(ensemble, "verify_mds", spy)
    verify_mds.cache_clear()
    certify_bound(SplitParams(2, 3, 2, 2, 1, 8), trials=3)
    assert len(asked) > len(set(asked))
    assert verify_mds.cache_info().misses == len(set(asked))


def test_random_pairs_are_mds_and_systematic():
    p = SplitParams(2, 2, 1, 2, 1, 7)
    rng = random.Random(123)
    seen = set()
    for _ in range(5):
        initial, final = random_mds_pair(p, rng)
        assert verify_mds(initial) and verify_mds(final)
        assert np.array_equal(initial.generator.array[:, :p.ki],
                              np.eye(p.ki, dtype=np.int64))
        seen.add(initial.generator)
    assert len(seen) > 1  # mixes genuinely vary


def test_scheme_inequalities_frozen_example():
    p, ens = build(2, 3, 1, 2, 3, 11)
    audit = check_scheme_inequalities(ens, default_scheme(p))
    assert audit.ok
    assert audit.h_v == 18 and audit.h_u == 0
    assert entropy_V_lb(p, 1) == 6  # dominated by H(V) = 18
    by_name = {it["name"]: it for it in audit.items}
    # (rf/kf) H(V) + H(U) = 6 meets lf*rf*alpha = 6 with equality.
    tradeoff = by_name["parity-download-tradeoff"]
    assert tradeoff["lhs"] == "6" and tradeoff["rhs"] == "6" and tradeoff["ok"]
    assert by_name["data-download-entropy-theta1"]["rhs"] == "6"


def test_scheme_inequalities_gated_when_parities_dominate():
    # rf >= kf: each codeword's parities carry only kf*alpha of entropy,
    # so the parity-download tradeoff does not apply; the covering
    # inequality still does.
    p, ens = build(2, 1, 2, 1, 1, 5)
    out = min_bandwidth_exhaustive(ens, SearchBudget())
    assert out.gamma == 2  # one data row plus one parity row suffice
    audit = check_scheme_inequalities(ens, out.scheme)
    assert audit.ok
    names = {it["name"] for it in audit.items}
    assert names == {"downloads-cover-new-parities"}


def test_scheme_inequalities_hold_for_all_feasible_schemes_small():
    p, ens = build(2, 1, 1, 1, 1, 5)
    fld = ens.field
    menus = []
    for _ in range(p.ki + p.ri):
        options = []
        for d in range(p.alpha + 1):
            options.extend(enumerate_subspaces(p.alpha, fld, d))
        menus.append(options)
    n_feasible = 0
    for picks in product(*menus):
        scheme = ConversionScheme(p, picks)
        if check_feasible(ens, scheme):
            n_feasible += 1
            assert check_scheme_inequalities(ens, scheme).ok
    assert n_feasible > 0


def test_scheme_inequalities_reject_infeasible():
    p, ens = build(2, 2, 1, 1, 1, 5)
    with pytest.raises(InfeasibleSchemeError):
        check_scheme_inequalities(ens, empty_scheme(p))


def test_budget_validation():
    for kwargs in ({"max_visits": 0}, {"max_total_dim": -1},
                   {"max_visits": 50.0}, {"max_visits": True},
                   {"max_visits": "50"}, {"max_total_dim": 6.0},
                   {"max_total_dim": False}, {"max_total_dim": "6"}):
        with pytest.raises(ValueError):
            SearchBudget(**kwargs)


@pytest.mark.parametrize("trials", [0, -1, 1.0, True, "1", None])
def test_certify_rejects_trials_that_are_not_positive_ints(trials):
    with pytest.raises(ValueError):
        certify_bound(SplitParams(2, 1, 1, 1, 1, 5), trials=trials)
