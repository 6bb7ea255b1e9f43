"""Scheme-search tests: exhaustive minimization, certification, audits."""

import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

from convertbw.bounds import (data_entropy_lb, entropy_V_lb, theorem_bound,
                              tradeoff)
from convertbw.convertible import (ConversionScheme, InfeasibleSchemeError,
                                   canonical_codes, check_feasible,
                                   default_scheme)
from convertbw.ensemble import ensemble_from_codes
from convertbw.gf import field
from convertbw.linalg import (Matrix, enumerate_subspaces, in_span,
                              random_matrix, rank_pair, subspace_index, vstack)
from convertbw.mds import VectorCode, verify_mds
from convertbw.params import SplitParams
from convertbw import search as search_module
from convertbw.search import (SearchBudget, _CutTable, _level, _subspaces_within,
                              certify_bound, check_scheme_inequalities,
                              min_bandwidth_exhaustive, random_mds_pair)
from plain_elimination import ref_rank
from plain_walk import plain_walk
from support import empty_scheme, from_maps


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
    reference path, with budget as its caps.  Returns (status, gamma,
    visited, scheme), the fields of the search's SearchOutcome."""
    level_ends, (found_gamma, found_at, scheme) = _reference_trace(ens)
    cap = ens.params.ki * ens.params.alpha
    if budget.max_total_dim is not None:
        cap = min(cap, budget.max_total_dim)
    end = found_at if found_gamma <= cap else level_ends.get(cap, 0)
    if end > budget.max_visits:
        return "max-visits", None, budget.max_visits, None
    if found_gamma <= cap:
        return "found", found_gamma, found_at, scheme
    return "max-total-dim", None, end, None


@lru_cache(maxsize=None)
def _reference_trace(ens):
    """One uncapped pass of the reference enumerator: one full rank_pair
    of the whole download stack per scheme, in enumeration order, up to
    the first feasible scheme (the re-encoding scheme is feasible at
    ki*alpha).  Returns ({gamma: position at which level gamma ends} for
    the levels before the find, (gamma, position, scheme) of the find)."""
    p = ens.params
    menus = _menus(ens)
    slots = len(ens.initial_nodes)
    level_ends, visited = {}, 0
    for gamma in range(ref_rank(_targets(ens)), p.ki * p.alpha + 1):
        for profile in _profiles(gamma, slots, p.alpha):
            for combo in _combos(menus, profile):
                visited += 1
                picks = [menus[d][i] for d, i in zip(profile, combo)]
                if _feasible(ens, picks):
                    return level_ends, (gamma, visited, ConversionScheme(p, picks))
        level_ends[gamma] = visited
    raise AssertionError("the re-encoding scheme is always feasible")


def _outcome(out):
    return out.status, out.gamma, out.visited, out.scheme


def _menus(ens):
    """menus[d][i]: canonical subspace i of dimension d."""
    alpha = ens.params.alpha
    return [enumerate_subspaces(alpha, ens.field, d) for d in range(alpha + 1)]


def _profiles(total, slots, alpha):
    """Download profiles (dimension per slot) summing to total, lex order."""
    return [c for c in product(range(alpha + 1), repeat=slots) if sum(c) == total]


def _combos(menus, profile):
    return product(*[range(len(menus[d])) for d in profile])


def _targets(ens):
    return ens.stack(ens.final_parities)


def _stack(ens, mats):
    return vstack([Matrix.zeros(ens.field, 0, ens.params.message_dim), *mats])


def _feasible(ens, picks):
    """Whether the downloads of picks (one map per slot; slot s is node
    s of the initial codeword) span the target rows: one full rank_pair
    of the whole download stack."""
    mats = [m @ ens.block(v) for m, v in zip(picks, ens.initial_nodes)]
    rd, rj = rank_pair(_stack(ens, mats), _targets(ens))
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


@lru_cache(maxsize=None)
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
    assert _outcome(min_bandwidth_exhaustive(ens, budget)) == reference_search(ens, budget)


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
    ens = pair_ensemble((2, 2, 1, 1, 2, 5), "free")
    got = min_bandwidth_exhaustive(ens, SearchBudget())
    assert _outcome(got) == reference_search(ens, SearchBudget())
    menus = _menus(ens)
    assert [(m.rows, menus[m.rows].index(m)) for m in got.scheme.maps] == \
        [(1, 1), (1, 4), (2, 0), (2, 0), (1, 3)]
    assert (got.gamma, got.visited) == (7, 27942)


def test_deep_uncapped_search_is_pinned():
    # The canonical pair at ni = 8 over GF(8), too large for the
    # reference enumerator: the walk crosses many subtrees the rank
    # bound skips before the find, 22,121,678 schemes into the order.
    p, ens = build(2, 2, 1, 4, 2, 8)
    got = min_bandwidth_exhaustive(ens, SearchBudget(max_visits=10**9))
    assert (got.status, got.gamma, got.visited) == ("found", 7, 22_121_678)
    assert got.scheme.to_json_dict() == {
        "beta": [0, 1, 1, 1], "sigma": [1, 1, 1, 1],
        "A": [[], [1, 0], [1, 1], [1, 1]], "B": [[1, 2], [1, 7], [1, 5], [1, 7]]}
    assert check_feasible(ens, got.scheme)


UNCAPPED = SearchBudget(max_visits=10**15)


@lru_cache(maxsize=None)
def plain_trace(point, pair, budget=UNCAPPED):
    """The outcome of the menu-by-menu walk (tests/plain_walk.py) on
    pair_ensemble(point, pair), and its record of the tight nodes."""
    tight = []
    out = plain_walk(pair_ensemble(point, pair), budget, tight)
    return _outcome(out), tight


# Larger q, where a tight node skips most of a menu by count: the
# canonical pair and one random parity mix at each alpha = 2 point, over
# prime fields and GF(16), and the canonical pair at alpha = 3.
TIGHT_CASES = [(pt, pair) for pt in [(2, 2, 1, 2, 2, 13), (2, 2, 1, 2, 2, 17),
                                     (2, 2, 1, 1, 2, 31), (2, 3, 2, 2, 2, 13),
                                     (2, 2, 1, 3, 2, 8), (2, 2, 1, 2, 2, 16)]
               for pair in (0, 1)] + [((2, 2, 1, 2, 3, 7), 0)]


@pytest.mark.parametrize("point,pair", TIGHT_CASES)
def test_tight_node_step_matches_the_plain_walk(point, pair):
    got = min_bandwidth_exhaustive(pair_ensemble(point, pair), UNCAPPED)
    assert _outcome(got) == plain_trace(point, pair)[0]


def _capped_runs(tight):
    """Caps at the first tight node (in the plain walk's record) with
    two or more entries the rank bound rejects right before one it
    passes: inside that run, at its end and on the entry after it; and
    inside the first run of two or more rejected entries that ends a
    tight node's menu after an entry that passes."""
    before = after = None
    for start, entries in tight:
        ends = [start] + [end for _, end, _ in entries]
        pruned = [p for _, _, p in entries]
        for k in range(2, len(entries)):
            if before is None and pruned[k - 2] and pruned[k - 1] and not pruned[k]:
                a = k - 1
                while a and pruned[a - 1]:
                    a -= 1
                before = [ends[a] + 1, ends[k] - 1, ends[k], ends[k] + 1]
        tail = len(entries)
        while tail and pruned[tail - 1]:
            tail -= 1
        if after is None and tail and len(entries) - tail >= 2:
            after = [ends[tail] + 1, ends[-1] - 1]
    assert before is not None and after is not None
    return before + after


# The alpha = 3 point's tight nodes begin at visit 975,691,013, and its
# trace stops soon after, at 976,000,000.
@pytest.mark.parametrize("point,pair,budget", [
    ((2, 2, 1, 2, 2, 13), 1, UNCAPPED), ((2, 2, 1, 2, 2, 16), 1, UNCAPPED),
    ((2, 2, 1, 1, 3, 5), 0, SearchBudget(max_visits=976_000_000))])
def test_tight_node_skips_stop_where_the_plain_walk_stops(point, pair, budget):
    # A cap inside a batch of entries skipped by count stops the search
    # at the cap, as the plain walk's entry-by-entry skips do; a cap on
    # the entry after the batch stops it inside that entry's subtree.
    ens = pair_ensemble(point, pair)
    for cap in _capped_runs(plain_trace(point, pair, budget)[1]):
        capped = SearchBudget(max_visits=cap)
        assert _outcome(min_bandwidth_exhaustive(ens, capped)) == \
            _outcome(plain_walk(ens, capped)), cap


@pytest.mark.parametrize("alpha,q", [(1, 5), (2, 2), (2, 5), (3, 2), (3, 3), (3, 4)])
def test_subspaces_within_a_span_are_the_entries_inside_it(alpha, q):
    # The tight-node step's entries for every span w and dimension d:
    # none when w is smaller, w itself, the lines of a plane, and every
    # entry when w is the whole space.
    fld = field(q)
    for k in range(alpha + 1):
        for w in enumerate_subspaces(alpha, fld, k):
            for d in range(alpha + 1):
                assert _subspaces_within(alpha, fld, d, w.data) == tuple(
                    i for i, s in enumerate(enumerate_subspaces(alpha, fld, d))
                    if in_span(s, w))


def _sizes(q, alpha):
    """The number of canonical subspaces of each dimension d <= alpha."""
    return tuple(len(enumerate_subspaces(alpha, field(q), d)) for d in range(alpha + 1))


def level_ledger(gamma, slots, alpha, sizes):
    """Check the shared level table of download total gamma entry by
    entry against the definitions of its fields; return its schemes."""
    level = _level(gamma, slots, alpha, sizes)
    assert type(level) is tuple and level is _level(gamma, slots, alpha, sizes)
    assert [e[0] for e in level] == _profiles(gamma, slots, alpha)
    for profile, schemes, masks, sums, free, left, below in level:
        assert type(profile) is tuple
        assert schemes == math.prod(sizes[d] for d in profile)
        # Cut sets: every A with Z <= A <= the non-full slots, where Z
        # is the empty slots (so Z with each subset of the partial
        # slots), each with the profile's sum over A.
        empty = tuple(s for s, d in enumerate(profile) if d == 0)
        partial = [s for s, d in enumerate(profile) if 0 < d < alpha]
        want = [empty + extra for r in range(len(partial) + 1)
                for extra in combinations(partial, r)]
        assert len(set(masks)) == len(masks) == len(sums)
        assert sorted(zip(masks, sums)) == sorted(
            (sum(1 << s for s in a), sum(profile[s] for s in a)) for a in want)
        assert free == tuple(partial)
        assert left == tuple(sum(profile[s] for s in free[j:])
                             for j in range(len(free)))
        assert below == tuple(math.prod(sizes[profile[s]] for s in free[j:])
                              for j in range(len(free)))
        assert schemes == (below[0] if free else 1)
    return sum(e[1] for e in level)


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("q", [2, 5, 8])
def test_level_tables_are_a_visit_ledger(q, alpha):
    """Per level and profile, in lex order: the profile, its scheme
    count prod of sizes[d], its cut sets and the walk's free slots and
    counts (level_ledger); the counts over all levels of a slot count,
    none above slots * alpha, sum to every scheme, (sum of sizes) ** slots."""
    sizes = _sizes(q, alpha)
    for slots in range(9):
        assert sum(level_ledger(gamma, slots, alpha, sizes)
                   for gamma in range(slots * alpha + 2)) == sum(sizes) ** slots


@pytest.mark.parametrize("total,slots,maxv", [
    (0, 0, 2), (1, 0, 2), (0, 3, 2), (4, 3, 2), (7, 3, 2), (7, 5, 2),
    (3, 4, 1), (5, 3, 3)])
def test_compositions_are_the_lex_filtered_product(total, slots, maxv):
    # The level ledger at no slots, totals above slots * maxv and maxv 3.
    level_ledger(total, slots, maxv, _sizes(2, maxv))


@pytest.mark.parametrize("pair", [0, 1])
@pytest.mark.parametrize("point", [(2, 2, 1, 1, 1, 5), (2, 3, 2, 2, 1, 8),
                                   (2, 2, 1, 1, 2, 5)])
def test_cut_table_rejects_only_infeasible_profiles(point, pair):
    """need(A) matches a from-scratch rank, no profile the table rejects
    holds a feasible scheme (by the reference's full rank test), and
    some profile survives at the level where the search succeeds."""
    ens = pair_ensemble(point, pair)
    pk = ens.packing
    targets = [r for _, r, _ in pk.insert(
        [], [r for v in ens.final_parities for r in ens.packed(v)])]
    assert len(targets) == ref_rank(_targets(ens))
    table = _CutTable(pk, [ens.packed(v) for v in ens.initial_nodes], targets)
    alpha = ens.params.alpha
    slots = len(ens.initial_nodes)
    menus = _menus(ens)
    sizes = tuple(map(len, menus))
    sets = range(1, 1 << slots)
    need = {}
    for a in sets:
        # Rank of the targets modulo the full blocks outside A, from scratch.
        outside = [ens.block(v) for s, v in enumerate(ens.initial_nodes)
                   if not a >> s & 1]
        rb, rbt = rank_pair(_stack(ens, outside), _targets(ens))
        need[a] = rbt - rb
        assert table[a] == need[a]
    gamma = min_bandwidth_exhaustive(ens, SearchBudget()).gamma
    for level in range(len(targets), gamma + 1):
        survivors = 0
        for profile, _, masks, sums, *_ in _level(level, slots, alpha, sizes):
            # The search's test: need(A) above the profile's sum over A
            # for one of the level table's cut sets A.
            rejected = any(table[a] > t for a, t in zip(masks, sums))
            # The cut sets are only some sets; they must agree with all.
            assert rejected == any(
                sum(d for s, d in enumerate(profile) if a >> s & 1) < need[a]
                for a in sets)
            if not rejected:
                survivors += 1
                continue
            assert not any(_feasible(ens, [menus[d][i] for d, i in zip(profile, combo)])
                           for combo in _combos(menus, profile))
        assert survivors or level < gamma


def test_parameter_only_values_are_shared_and_immutable():
    p = SplitParams(2, 2, 1, 1, 2, 5)
    assert canonical_codes(p) is canonical_codes(SplitParams(2, 2, 1, 1, 2, 5))
    assert default_scheme(p) is default_scheme(p)
    assert type(canonical_codes(p)) is tuple and type(default_scheme(p).maps) is tuple
    # q = 5, alpha = 2: one subspace of dimension 0 and 2 each, six lines.
    level = _level(6, 5, 2, (1, 6, 1))
    assert type(level) is tuple and level is _level(6, 5, 2, (1, 6, 1))
    profile, schemes, masks, sums, free, left, below = \
        level[[e[0] for e in level].index((0, 1, 2, 1, 2))]
    assert profile == (0, 1, 2, 1, 2) and schemes == 36
    # Z = {slot 0}; slots 1 and 3 partial: every subset of them joins Z.
    assert tuple(zip(masks, sums)) == ((1, 0), (3, 1), (9, 1), (11, 2))
    assert (free, left, below) == ((1, 3), (2, 1), (36, 6))


def test_certify_is_unchanged_by_warm_caches():
    p = SplitParams(2, 2, 1, 1, 2, 5)

    def certify():
        return json.dumps([r.to_json_dict() for r in certify_bound(p, trials=3)])

    for cached in (canonical_codes, default_scheme, enumerate_subspaces, _level,
                   subspace_index, _subspaces_within):
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


def test_new_parities_are_reduced_once_per_pair(monkeypatch):
    # The search's targets and both audits' new-parity rows are one
    # echelon per ensemble, equal to a fresh reduction of the rows.
    from convertbw import ensemble
    p = SplitParams(2, 2, 1, 1, 2, 5)
    built = []
    build_ensemble = ensemble.ensemble_from_codes

    def spy(*args):
        built.append(build_ensemble(*args))
        return built[-1]

    monkeypatch.setattr(search_module, "ensemble_from_codes", spy)
    packing = type(p.field().packing(p.message_dim))
    modulo = packing.modulo

    def parity_rows(ens):
        return [r for v in ens.final_parities for r in ens.packed(v)]

    parity_reductions = []

    def counted(pk, basis, rows):
        rows = list(rows)
        if not basis and any(rows == parity_rows(ens) for ens in built):
            parity_reductions.append(rows)
        return modulo(pk, basis, rows)

    monkeypatch.setattr(packing, "modulo", counted)
    reports = certify_bound(p, trials=3)
    assert [r.verdict for r in reports] == ["sound"] * 3
    assert len(built) == len(parity_reductions) == 3
    for ens in built:
        echelon = ens.new_parity_echelon
        assert isinstance(echelon, tuple) and echelon is ens.new_parity_echelon
        assert list(echelon) == modulo(ens.packing, [], parity_rows(ens))
        assert len(echelon) == ref_rank(ens.stack(ens.final_parities)) == 4


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


# (point, pair, then gamma, H(V), h, slack(ii), slack(iii) on the pair's
# lex-first optimal scheme, and need(data)).  pair is pair_ensemble's:
# 0 the canonical pair, t the t-th parity mix of certify_bound(seed=0),
# its random-t, and "free" the seed-0 random_systematic_pair.
GAP_SPLITS = [
    ((2, 2, 1, 1, 1, 5), 0, (4, 3, 2, "1/2", "1/2", 2)),
    ((2, 2, 1, 1, 2, 5), 0, (8, 6, 4, 1, 1, 4)),
    ((2, 2, 1, 2, 2, 7), 0, (6, 4, "8/3", 0, "2/3", 4)),
    ((2, 3, 2, 2, 2, 8), 0, (12, 8, 6, "4/3", "2/3", 6)),
    ((2, 3, 1, 2, 2, 8), 0, (10, 6, 4, 2, "4/3", 2)),
    ((2, 2, 1, 3, 1, 7), 0, (3, 2, 0, 0, 1, 1)),
    ((2, 2, 1, 3, 2, 7), 0, (6, 4, 0, 0, 2, 2)),
    ((2, 2, 1, 4, 2, 8), 0, (7, 3, 0, "3/2", "3/2", 0)),
    ((3, 2, 1, 3, 1, 11), 0, (6, 3, "3/2", "3/2", "3/4", 3)),
    ((2, 2, 1, 1, 1, 5), 1, (4, 3, 2, "1/2", "1/2", 2)),
    ((2, 2, 1, 1, 1, 5), 2, (4, 3, 2, "1/2", "1/2", 2)),
    ((2, 2, 1, 1, 2, 5), 1, (8, 6, 4, 1, 1, 4)),
    ((2, 2, 1, 1, 2, 5), 2, (8, 6, 4, 1, 1, 4)),
    ((2, 2, 1, 2, 2, 7), 1, (6, 4, "8/3", 0, "2/3", 4)),
    ((2, 2, 1, 2, 2, 7), 2, (7, 5, "8/3", "1/2", "7/6", 4)),
    ((2, 3, 2, 2, 2, 8), 1, (12, 8, 6, "4/3", "2/3", 6)),
    ((2, 3, 2, 2, 2, 8), 2, (12, 8, 6, "4/3", "2/3", 6)),
    ((2, 2, 1, 2, 1, 7), 1, (4, 2, "4/3", 1, "1/3", 2)),
    ((2, 2, 1, 2, 1, 7), 2, (4, 2, "4/3", 1, "1/3", 2)),
    ((3, 2, 1, 1, 2, 7), 1, (12, 10, 8, 1, 1, 6)),
    ((3, 2, 1, 1, 2, 7), 2, (12, 10, 8, 1, 1, 6)),
    ((2, 2, 1, 1, 1, 5), "free", (3, 2, 2, 0, 0, 2)),
    ((2, 2, 1, 1, 2, 5), "free", (7, 6, 4, 0, 1, 4)),
    ((2, 2, 1, 2, 2, 7), "free", (7, 5, "8/3", "1/2", "7/6", 4)),
    ((2, 3, 2, 2, 2, 8), "free", (11, 9, 6, 0, 1, 7)),
    ((2, 2, 1, 3, 2, 7), "free", (6, 4, 0, 0, 2, 2)),
    ((2, 2, 1, 2, 1, 7), "free", (4, 2, "4/3", 1, "1/3", 1)),
    ((3, 2, 1, 1, 2, 7), "free", (11, 10, 8, 0, 1, 6)),
]


def data_need(ens):
    """need(data): the rank of the new parities modulo every initial
    parity block, the cut table's entry for the set of all data slots."""
    pk = ens.packing
    targets = [r for _, r, _ in pk.insert(
        [], [r for v in ens.final_parities for r in ens.packed(v)])]
    table = _CutTable(pk, [ens.packed(v) for v in ens.initial_nodes], targets)
    return table[(1 << ens.params.ki) - 1]


@pytest.mark.parametrize("point, pair, want", GAP_SPLITS, ids=[
    str(point) + ("" if pair == 0 else "-free" if pair == "free" else f"-random-{pair}")
    for point, pair, _ in GAP_SPLITS])
def test_gap_split_is_nonnegative_and_adds_up(point, pair, want):
    # gamma - bound splits into the tradeoff step's slack, at the
    # scheme's own H(V), and the H(V) bound's slack; both are >= 0.
    # need(data) is a per-pair floor: every feasible scheme downloads
    # H(V) >= need(data), so gamma >= the tradeoff step at need(data).
    ens = pair_ensemble(point, pair)
    p = ens.params
    out = min_bandwidth_exhaustive(ens, SearchBudget(max_visits=10**10))
    assert out.found
    h_v = check_scheme_inequalities(ens, out.scheme).h_v
    h = data_entropy_lb(p)
    slack_ii = out.gamma - tradeoff(p, h_v)
    slack_iii = Fraction(p.kf - p.rf, p.kf) * (h_v - h)
    need = data_need(ens)
    assert slack_ii >= 0 and slack_iii >= 0
    assert slack_ii + slack_iii == out.gamma - theorem_bound(p).value
    assert need <= h_v and out.gamma >= math.ceil(tradeoff(p, need))
    assert (out.gamma, h_v, h, slack_ii, slack_iii, need) == tuple(map(Fraction, want))


def reference_audit(ens, scheme):
    """(feasible, audit JSON) of check_scheme_inequalities, from Matrix
    stacks of each node's map times its block, ranked by the plain
    elimination of tests/plain_elimination.py."""
    p = ens.params
    maps = dict(zip(ens.initial_nodes, scheme.maps))

    def downloads(nodes):
        return vstack([Matrix.zeros(ens.field, 0, p.message_dim),
                       *(maps[v] @ ens.block(v) for v in nodes)])

    both = downloads(ens.initial_nodes)
    targets = ens.stack(ens.final_parities)
    h_v = ref_rank(downloads(ens.info_nodes))
    h_u = ref_rank(downloads(ens.initial_parities))
    h_uv = ref_rank(both)
    feasible = ref_rank(vstack([both, targets])) == h_uv
    gamma = scheme.read_total
    base = p.lf * p.rf * p.alpha
    items = [("downloads-cover-new-parities", h_uv, ref_rank(targets))]
    if p.rf < p.kf:
        items += [("parity-download-tradeoff", Fraction(p.rf, p.kf) * h_v + h_u, base),
                  ("read-cost-vs-data-entropy", gamma,
                   Fraction(p.kf - p.rf, p.kf) * h_v + base)]
    if p.rf < p.ri and p.rf < p.kf:
        items += [(f"data-download-entropy-theta{t}", h_v, entropy_V_lb(p, t))
                  for t in range(1, p.lf + 1)]
    items = [{"name": name, "lhs": str(Fraction(lhs)), "rhs": str(Fraction(rhs)),
              "ok": lhs >= rhs} for name, lhs, rhs in items]
    return feasible, {"gamma": gamma, "H_V": h_v, "H_U": h_u,
                      "ok": all(it["ok"] for it in items), "items": items}


def _audited_schemes(p, ens, rng):
    """The re-encoding and empty schemes, the search's scheme when it
    finds one within a small budget, and random schemes that mostly
    download whole nodes, so that both verdicts occur."""
    schemes = [default_scheme(p), empty_scheme(p)]
    found = min_bandwidth_exhaustive(ens, SearchBudget(max_visits=100_000))
    if found.found:
        schemes.append(found.scheme)
    for _ in range(16):
        schemes.append(from_maps(p, [
            random_matrix(ens.field, rng.choice([p.alpha, p.alpha, rng.randint(0, p.alpha)]),
                          p.alpha, rng)
            for _ in range(p.ni)]))
    return schemes


@pytest.mark.parametrize("pair", [0, 1, "free"])
@pytest.mark.parametrize("point", [(2, 2, 1, 1, 2, 5), (2, 3, 2, 2, 2, 8),
                                   (2, 2, 1, 1, 1, 131), (2, 2, 0, 1, 2, 5),
                                   (2, 1, 0, 2, 1, 7), (2, 2, 1, 0, 2, 5),
                                   (3, 1, 1, 0, 1, 5)])
def test_packed_audit_matches_matrix_reference(point, pair):
    # The audit ranks each node's mapped rows packed; the reference
    # stacks Matrix products and ranks them by plain elimination.  It
    # raises InfeasibleSchemeError exactly where the reference's
    # downloads miss a new parity row.
    ens = pair_ensemble(point, pair)
    p = ens.params
    verdicts = set()
    for scheme in _audited_schemes(p, ens, random.Random(repr((point, pair)))):
        feasible, want = reference_audit(ens, scheme)
        verdicts.add(feasible)
        assert check_feasible(ens, scheme) == feasible
        if not feasible:
            with pytest.raises(InfeasibleSchemeError):
                check_scheme_inequalities(ens, scheme)
            continue
        assert check_scheme_inequalities(ens, scheme).to_json_dict() == want
    # Every new parity is a function of the data, so the re-encoding
    # scheme is feasible; with rf = 0 there is nothing to produce, so
    # every scheme is.
    assert verdicts == ({True} if p.rf == 0 else {True, False})


def test_scheme_audit_refuses_a_scheme_for_other_parameters():
    p, ens = build(2, 2, 1, 2, 1, 7)
    other = default_scheme(SplitParams(2, 1, 1, 1, 1, 7))
    for check in (check_feasible, check_scheme_inequalities):
        with pytest.raises(ValueError, match="scheme is for") as exc:
            check(ens, other)
        assert type(exc.value) is ValueError


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
