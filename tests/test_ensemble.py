"""Entropy-oracle tests: exact rank entropies and the structural checks."""

import random
from itertools import combinations, product

import pytest

from convertbw.convertible import canonical_codes, check_feasible, default_scheme
from convertbw.ensemble import (IndependencePreconditionError, LinearEnsemble,
                                NodeId, check_cond_entropy_final,
                                check_joint_entropy, check_mds_reconstruction,
                                check_mi_bound,
                                check_min_avg, check_prop_parity_iid,
                                check_stability, check_storage_axioms,
                                cond_entropy, corollary1_holds,
                                corollary2_holds, ensemble_from_codes, entropy,
                                final_parity_node, info_node,
                                initial_parity_node, mutual_info)
from convertbw.gf import field
from convertbw.linalg import Matrix, random_invertible, random_matrix, rank_pair
from convertbw.mds import VectorCode, make_systematic_mds
from convertbw.params import SplitParams
from convertbw.search import check_scheme_inequalities
from support import check_corollaries, from_maps


def build(lf, kf, rf, ri, alpha, q):
    p = SplitParams(lf, kf, rf, ri, alpha, q)
    return p, ensemble_from_codes(p, *canonical_codes(p))


def default_maps(ens):
    """The re-encoding scheme's maps keyed by initial-code node."""
    return dict(zip(ens.initial_nodes, default_scheme(ens.params).maps))


@pytest.fixture(scope="module")
def small():
    return build(2, 1, 1, 1, 1, 5)


@pytest.fixture(scope="module")
def medium():
    return build(2, 2, 1, 2, 1, 7)


def test_block_counts_forced_by_parameters(small):
    p, ens = small
    assert len(ens.info_nodes) == 2
    assert len(ens.initial_parities) == 1
    assert len(ens.final_parities) == 2
    assert all(ens.block(v).rows == p.alpha for v in ens.all_nodes())


def test_oracle_reads_each_blocks_packed_rows(medium):
    # The ensemble keeps the rows each block packed (Matrix.packed), so
    # an ensemble built from another's blocks reuses them.
    p, ens = medium
    for v in ens.all_nodes():
        assert ens.packed(v) is ens.block(v).packed()[1]
    blocks = {v: ens.block(v) for v in ens.all_nodes()}
    blocks[final_parity_node(0)] = blocks[initial_parity_node(0)]
    copied = LinearEnsemble(p, ens.field, blocks)
    assert copied.packed(final_parity_node(0)) is ens.packed(initial_parity_node(0))
    assert all(copied.packed(v) is ens.packed(v) for v in ens.info_nodes)


def test_info_blocks_stack_to_full_rank(medium):
    p, ens = medium
    assert entropy(ens, ens.info_nodes) == p.ki * p.alpha


def test_final_parity_supported_on_own_codeword(medium):
    p, ens = medium
    for t in range(p.lf):
        lo, hi = t * p.kf * p.alpha, (t + 1) * p.kf * p.alpha
        for v in ens.final_parities_of_codeword(t):
            arr = ens.block(v).array
            outside = [c for c in range(p.message_dim) if not lo <= c < hi]
            assert not arr[:, outside].any()


def test_single_info_node_entropy_is_alpha(medium):
    p, ens = medium
    assert entropy(ens, [ens.info_nodes[0]]) == p.alpha


def test_joint_entropy_of_initial_codeword(medium):
    p, ens = medium
    joint = entropy(ens, ens.initial_nodes)
    assert joint == p.ki * p.alpha
    assert check_joint_entropy(ens).ok


def test_empty_set_entropy_zero(medium):
    _, ens = medium
    assert entropy(ens, []) == 0


def test_parities_determined_by_data(medium):
    _, ens = medium
    assert cond_entropy(ens, ens.initial_parities, ens.info_nodes) == 0
    assert cond_entropy(ens, ens.final_parities, ens.info_nodes) == 0


def test_mutual_info_with_self_is_entropy(medium):
    _, ens = medium
    a = [ens.initial_parities[0]]
    assert mutual_info(ens, a, a) == entropy(ens, a)


def test_codewords_are_independent(medium):
    _, ens = medium
    assert mutual_info(ens, ens.info_of_codeword(0), ens.info_of_codeword(1)) == 0


def test_entropy_values_bounded(medium):
    p, ens = medium
    rng = random.Random(0)
    nodes = list(ens.all_nodes())
    for _ in range(30):
        rng.shuffle(nodes)
        sub = nodes[: rng.randint(0, len(nodes))]
        h = entropy(ens, sub)
        assert 0 <= h <= p.ki * p.alpha


@pytest.mark.parametrize("point,plant", [
    ((2, 2, 1, 2, 1, 7), None),
    ((2, 1, 2, 2, 2, 5), None),
    ((2, 2, 1, 2, 1, 8), None),
    ((2, 1, 1, 3, 2, 8), None),
    ((2, 2, 1, 2, 1, 7), "duplicate-parity"),
    ((2, 1, 1, 3, 2, 8), "duplicate-parity"),
    ((2, 2, 1, 2, 1, 7), "parity-copy"),
    ((2, 1, 2, 2, 2, 8), "parity-copy"),
])
def test_entropy_matches_plain_elimination_of_stacked_blocks(point, plant, monkeypatch):
    # entropy ranks the ensemble's packed rows on a miss and reads its
    # cache on a hit; both must give numpy plain elimination's rank of
    # the stacked blocks, for every node subset, and neither stacks.
    from convertbw.verify import plant_corruption
    from plain_elimination import ref_rank

    p, ens = build(*point)
    if plant is not None:
        ens = plant_corruption(ens, plant)
    nodes = ens.all_nodes()
    subsets = [sub for size in range(len(nodes) + 1)
               for sub in combinations(nodes, size)]
    want = {sub: ref_rank(ens.stack(sub)) for sub in subsets}
    if plant is not None:   # the planted copy of parity 0 adds nothing
        copy = {"duplicate-parity": initial_parity_node(1),
                "parity-copy": final_parity_node(0)}[plant]
        assert want[(initial_parity_node(0), copy)] == p.alpha
    monkeypatch.setattr(LinearEnsemble, "stack", None)
    for sub in subsets:                       # misses
        assert entropy(ens, sub) == want[sub], sub
    assert len(ens._entropy_cache) == len(subsets)
    ens.packing = None                        # a hit ranks nothing
    for sub in subsets:
        assert entropy(ens, reversed(sub)) == want[sub], sub
    assert len(ens._entropy_cache) == len(subsets)


def test_parameter_mismatch_rejected():
    p = SplitParams(2, 1, 1, 1, 1, 5)
    good_i, good_f = canonical_codes(p)
    wrong = make_systematic_mds(4, 2, 1, field(5))
    with pytest.raises(ValueError):
        ensemble_from_codes(p, wrong, good_f)
    with pytest.raises(ValueError):
        ensemble_from_codes(p, good_i, wrong)


def test_field_mismatch_rejected():
    # A GF(7) pair relabelled as GF(5) would be ranked over the wrong
    # field: entries 5 and 6 are not GF(5) elements at all.
    p7, ens7 = build(2, 1, 1, 2, 1, 7)
    p5 = SplitParams(2, 1, 1, 2, 1, 5)
    initial, _ = canonical_codes(p7)
    assert ens7.block(initial_parity_node(1)).data == ((5, 3),)
    assert entropy(ens7, [info_node(0), initial_parity_node(1)]) == 2
    with pytest.raises(ValueError, match="generator is over"):
        VectorCode(initial.n, initial.k, initial.alpha, field(5),
                   initial.generator)
    blocks = {v: ens7.block(v) for v in ens7.all_nodes()}
    with pytest.raises(ValueError, match="is over"):
        LinearEnsemble(p5, field(5), blocks)


@pytest.mark.parametrize("entry", [3, 6])
def test_download_maps_over_another_field_rejected(entry):
    # A GF(7) map on a GF(5) ensemble: entry 3 would be read as a GF(5)
    # element and give a verdict, entry 6 would index past GF(5)'s
    # product tables.  Every oracle entry point refuses the map instead.
    p5, ens = build(2, 2, 1, 1, 2, 5)
    p7 = SplitParams(2, 2, 1, 1, 2, 7)
    m = Matrix(field(7), [[1, entry]])
    scheme = from_maps(p7, [m] * p7.ni)
    maps = dict(zip(ens.initial_nodes, scheme.maps))
    x0, x1 = info_node(0), info_node(1)
    calls = [
        lambda: check_feasible(ens, scheme),
        lambda: check_scheme_inequalities(ens, scheme),
        lambda: check_mi_bound(ens, {x0: m}, {x1: m}, [x0], [x1]),
        lambda: check_min_avg(ens, [(x0, m), (x1, m)], 1),
        lambda: check_cond_entropy_final(ens, maps, [0]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"map for .* is over GF\(7\), not GF\(5\)"):
            call()


def test_parity_iid_check_passes(medium):
    _, ens = medium
    rep = check_prop_parity_iid(ens)
    assert rep.ok and not rep.failures


def test_parity_iid_flags_duplicated_parity(medium):
    p, ens = medium
    blocks = {v: ens.block(v) for v in ens.all_nodes()}
    blocks[initial_parity_node(1)] = blocks[initial_parity_node(0)]
    corrupted = LinearEnsemble(p, ens.field, blocks)
    rep = check_prop_parity_iid(corrupted)
    assert not rep.ok
    assert any(f["subset"] == [0, 1] for f in rep.failures)


def test_storage_axioms(medium):
    assert check_storage_axioms(medium[1]).ok


def test_mds_reconstruction(medium):
    assert check_mds_reconstruction(medium[1]).ok


def test_mi_bound_trivial_full_downloads(medium):
    p, ens = medium
    full = Matrix.identity(ens.field, p.alpha)
    f_a = {v: full for v in ens.info_of_codeword(0)}
    f_b = {v: full for v in ens.info_of_codeword(1)}
    # D1 = A, D2 = B: bound is the entropy sum, always true.
    assert check_mi_bound(ens, f_a, f_b, list(f_a), list(f_b))
    # Independent cross-codeword data with empty D sets: MI = 0 <= 0.
    assert check_mi_bound(ens, f_a, f_b, [], [])


def test_mi_bound_precondition_failure_distinct(medium):
    p, ens = medium
    full = Matrix.identity(ens.field, p.alpha)
    # A final parity together with its own codeword's data is dependent.
    f_a = {info_node(0): full, info_node(1): full, final_parity_node(0): full}
    f_b = {info_node(2): full}
    with pytest.raises(IndependencePreconditionError):
        check_mi_bound(ens, f_a, f_b, [], [])


def test_mi_bound_randomized(medium):
    _, ens = medium
    p = ens.params
    rng = random.Random(42)
    nodes = list(ens.all_nodes())
    evaluated = 0
    for _ in range(150):
        rng.shuffle(nodes)
        na = rng.randint(1, 3)
        nb = rng.randint(1, 3)
        f_a = {v: random_matrix(ens.field, rng.randint(0, p.alpha), p.alpha, rng)
               for v in nodes[:na]}
        f_b = {v: random_matrix(ens.field, rng.randint(0, p.alpha), p.alpha, rng)
               for v in nodes[na:na + nb]}
        d1 = [v for v in f_a if rng.random() < 0.5]
        d2 = [v for v in f_b if rng.random() < 0.5]
        try:
            assert check_mi_bound(ens, f_a, f_b, d1, d2)
            evaluated += 1
        except IndependencePreconditionError:
            pass
    assert evaluated > 0


def test_min_avg_symmetric_equality(medium):
    p, ens = medium
    full = Matrix.identity(ens.field, p.alpha)
    family = [(v, full) for v in ens.initial_parities]
    # Identical full-rank maps on iid blocks: min equals the average.
    assert check_min_avg(ens, family, a=1)
    assert check_min_avg(ens, family, a=2)


def test_min_avg_zero_map(medium):
    p, ens = medium
    full = Matrix.identity(ens.field, p.alpha)
    zero = Matrix.zeros(ens.field, 0, p.alpha)
    family = [(ens.info_nodes[0], zero)] + \
        [(v, full) for v in ens.info_nodes[1:3]]
    assert check_min_avg(ens, family, a=1)


def test_min_avg_exhaustive_random_maps(medium):
    p, ens = medium
    rng = random.Random(3)
    pool = list(ens.initial_parities) + list(ens.info_nodes)
    for _ in range(40):
        rng.shuffle(pool)
        b = rng.randint(2, 4)
        family = [(v, random_matrix(ens.field, rng.randint(0, p.alpha),
                                    p.alpha, rng)) for v in pool[:b]]
        for a in range(1, b + 1):
            try:
                assert check_min_avg(ens, family, a)
            except IndependencePreconditionError:
                pass


def test_ratio_bounds_match_fraction_arithmetic(medium, monkeypatch):
    # check_min_avg and the two corollaries compare ratio bounds by
    # integer cross-multiplication.  With the ranks replaced by small
    # made-up values whose averages are not integers (a node's rank is
    # h, plus 1 for an odd index), each verdict must equal the exact
    # Fraction comparison, at equality and one off either side.  The
    # subset minimum is faked at _min_h, the seam every minimum passes
    # through whether it is read from the ranks held or searched, so
    # best stays free of the made-up ranks at every size.
    from fractions import Fraction
    from convertbw import ensemble as E
    p, ens = medium
    full = Matrix.identity(ens.field, p.alpha)
    nodes = list(ens.initial_nodes)
    infos, parities = ens.info_nodes, ens.initial_parities
    monkeypatch.setattr(E, "_nodes_independent", lambda ens, vs: True)

    def subsets(pool):
        return [c for n in range(len(pool) + 1) for c in combinations(pool, n)]

    for h, best in product(range(3), range(6)):
        def fake_h(pk, rows, vs):
            return sum(h + v.index % 2 for v in vs)

        monkeypatch.setattr(E, "_h_rows", fake_h)
        monkeypatch.setattr(E, "_min_h", lambda pk, rows, pool, size, held:
                            best if size else 0)
        for b in range(2, 5):
            singles = fake_h(None, None, nodes[:b])
            for a in range(b + 1):
                assert check_min_avg(ens, [(v, full) for v in nodes[:b]], a) \
                    == (Fraction(best if a else 0) <= Fraction(a, b) * singles)
        for s2 in subsets(infos):
            if len(s2) >= p.ri:
                assert corollary2_holds(ens, {}, 0, s2) == (
                    Fraction(best) <= Fraction(p.ri, len(s2)) * fake_h(None, None, s2))
            for s1 in subsets(parities):
                for b1 in range(min(p.ri, len(s1)) + 1):
                    b2 = p.ri - b1
                    if b2 > len(s2):
                        continue
                    minsum = (best if b1 else 0) + (best if b2 else 0)
                    avg1 = Fraction(b1, len(s1)) * sum(
                        fake_h(None, None, [v]) for v in s1) if s1 else 0
                    avg2 = Fraction(b2, len(s2)) * fake_h(None, None, s2) \
                        if s2 else 0
                    assert corollary1_holds(ens, {}, 0, s1, s2, b1, b2) == \
                        (minsum <= avg1 + avg2)


def test_min_avg_rejects_bad_family(medium):
    p, ens = medium
    full = Matrix.identity(ens.field, p.alpha)
    with pytest.raises(ValueError):
        check_min_avg(ens, [(info_node(0), full), (info_node(0), full)], 1)


def test_corollaries_exhaustive_default_scheme(medium):
    p, ens = medium
    rep = check_corollaries(ens, default_maps(ens))
    assert rep.ok, rep.failures


def test_corollaries_exhaustive_random_schemes(medium):
    p, ens = medium
    rng = random.Random(17)
    for _ in range(8):
        maps = {v: random_matrix(ens.field, rng.randint(0, p.alpha), p.alpha, rng)
                for v in ens.initial_nodes}
        rep = check_corollaries(ens, maps)
        assert rep.ok, rep.failures


def test_corollary2_full_download_reading(medium):
    # S = all data nodes with full downloads: the chain caps MI by
    # (ri/ki) * ki * alpha = ri * alpha.
    p, ens = medium
    from convertbw.ensemble import _map_rows, _rows_mi, corollary2_holds
    rows = {v: ens.times(m, v) for v, m in _map_rows(ens, default_maps(ens)).items()}
    mi = _rows_mi(ens.packing, rows, ens.initial_parities, ens.info_nodes)
    assert mi <= p.ri * p.alpha
    assert corollary2_holds(ens, rows, mi, list(ens.info_nodes))


def test_stability_values():
    p, ens = build(2, 2, 1, 2, 1, 7)
    rep = check_stability(ens)
    assert rep.ok, rep.failures
    for t in range(p.lf):
        xs = list(ens.info_of_codeword(t))
        for yi in ens.initial_parities:
            assert mutual_info(ens, xs, [yi]) == 0
        for yf in ens.final_parities_of_codeword(t):
            assert mutual_info(ens, xs, [yf]) == p.alpha


def test_stability_flags_planted_parity_copy():
    # Final parity 0 := initial parity 0, and final parity 1 := T @
    # initial parity 1 for a random invertible T: the same row space as
    # another block, not the same rows.  Both lane widths over GF(p) and
    # GF(2^m).
    for q in (7, 8, 131):
        p, ens = build(2, 2, 1, 2, 2, q)
        blocks = {v: ens.block(v) for v in ens.all_nodes()}
        blocks[final_parity_node(0)] = blocks[initial_parity_node(0)]
        t = random_invertible(ens.field, 2, random.Random(q))
        moved = blocks[final_parity_node(1)] = t @ blocks[initial_parity_node(1)]
        assert moved != blocks[initial_parity_node(1)]
        rep = check_stability(LinearEnsemble(p, ens.field, blocks))
        coincide = [(f["initial"], f["final"]) for f in rep.failures
                    if f["kind"] == "parity-row-space-coincidence"]
        assert coincide == [(0, 0), (1, 1)], q
        assert "final-parity-mi" in {f["kind"] for f in rep.failures}


def _replaced(ens, new_blocks):
    """ens with the blocks of new_blocks' nodes replaced."""
    return LinearEnsemble(ens.params, ens.field, {
        v: new_blocks.get(v, ens.block(v)) for v in ens.all_nodes()})


def test_stability_flags_an_initial_parity_that_copies_an_info_node(medium):
    # Initial parity 0 := info node 0 leaks one symbol about codeword 0
    # and nothing about codeword 1; every other fact still holds.
    _, ens = medium
    leaky = _replaced(ens, {initial_parity_node(0): ens.block(info_node(0))})
    assert check_stability(leaky).failures == [
        {"kind": "initial-parity-leak", "codeword": 0, "parity": 0,
         "mi": 1, "expected": 0}]


def test_deterministic_checks_flag_zeroed_blocks(medium):
    # Info node 1 and both initial parities zeroed: each check reports
    # its own failure entries, keys in this order.
    p, ens = medium
    zero = Matrix(ens.field, [[0] * p.message_dim])
    broken = _replaced(ens, {v: zero for v in (
        info_node(1), initial_parity_node(0), initial_parity_node(1))})
    assert check_storage_axioms(broken).failures == [
        {"node": "info:1", "entropy": 0}]
    assert check_joint_entropy(broken).failures == [
        {"entropy": 3, "expected": 4}]
    assert check_stability(broken).failures == [
        {"kind": "final-parity-mi", "codeword": 0, "parity": 0,
         "mi": 0, "expected": 1}]
    initial = [([0], [0, 1, 2]), ([0], [0, 1, 3]), ([0], [1, 2, 3]),
               ([1], [0, 1, 2]), ([1], [0, 1, 3]), ([1], [1, 2, 3]),
               ([0, 1], [0, 1]), ([0, 1], [0, 2]), ([0, 1], [0, 3]),
               ([0, 1], [1, 2]), ([0, 1], [1, 3]), ([0, 1], [2, 3])]
    failures = check_mds_reconstruction(broken).failures
    assert failures == [
        {"side": "initial", "parities": a, "infos": b} for a, b in initial] + [
        {"side": "final", "codeword": 0, "parities": [0], "infos": [1]}]
    assert [list(f) for f in failures[-2:]] == [
        ["side", "parities", "infos"], ["side", "codeword", "parities", "infos"]]


@pytest.mark.parametrize("lf,kf,rf,ri,alpha,q", [
    (2, 1, 1, 1, 1, 5), (3, 1, 1, 2, 1, 7), (2, 2, 2, 1, 2, 7),
    (4, 1, 1, 1, 1, 7),
])
def test_cond_entropy_split_exhaustive_subsets(lf, kf, rf, ri, alpha, q):
    p, ens = build(lf, kf, rf, ri, alpha, q)
    rng = random.Random(q)
    schemes = [default_maps(ens)]
    for _ in range(2):
        schemes.append({v: random_matrix(ens.field, rng.randint(0, p.alpha),
                                         p.alpha, rng)
                        for v in ens.info_nodes})
    for scheme in schemes:
        for mask in range(1 << p.lf):
            s = [t for t in range(p.lf) if (mask >> t) & 1]
            assert check_cond_entropy_final(ens, scheme, s)


def test_cond_entropy_split_singleton_is_identity(small):
    p, ens = small
    assert check_cond_entropy_final(ens, default_maps(ens), [0])


def test_cond_entropy_split_full_download_both_sides_zero(small):
    p, ens = small
    from convertbw.ensemble import mapped_rows
    maps = default_maps(ens)
    v_rows = mapped_rows(ens, maps, ens.info_nodes)
    h_v, h_vy = rank_pair(v_rows, ens.stack(ens.final_parities))
    assert h_vy - h_v == 0


@pytest.mark.parametrize("lf,kf,rf,ri,alpha,q", [
    (2, 1, 1, 1, 1, 5), (2, 2, 1, 2, 1, 7), (3, 1, 1, 2, 1, 7),
    (2, 2, 2, 1, 2, 7),
])
def test_cond_entropy_split_matches_plain_elimination(lf, kf, rf, ri, alpha, q):
    # Reference: rank of mapped_rows stacked with the final parities of
    # the same codewords, by numpy plain elimination.
    from convertbw.ensemble import mapped_rows
    from convertbw.linalg import vstack
    from convertbw.verify import plant_corruption
    from plain_elimination import ref_rank

    p, clean = build(lf, kf, rf, ri, alpha, q)
    rng = random.Random(q * lf)

    def ref_lhs(ens, maps, ts):
        v_rows = mapped_rows(ens, maps,
                             [v for t in ts for v in ens.info_of_codeword(t)])
        yf = ens.stack([v for t in ts for v in ens.final_parities_of_codeword(t)])
        return ref_rank(vstack([v_rows, yf])) - ref_rank(v_rows)

    outcomes = []
    for ens in (clean, plant_corruption(clean, "parity-copy")):
        schemes = [default_maps(ens)]
        schemes += [{v: random_matrix(ens.field, rng.randint(0, p.alpha),
                                      p.alpha, rng) for v in ens.info_nodes}
                    for _ in range(3)]
        for i, maps in enumerate(schemes):
            for mask in range(1, 1 << p.lf):
                s = [t for t in range(p.lf) if (mask >> t) & 1]
                want = ref_lhs(ens, maps, s) == sum(ref_lhs(ens, maps, [t])
                                                    for t in s)
                got = check_cond_entropy_final(ens, maps, s)
                assert got == want, (s, maps)
                outcomes.append((ens is clean, i, s, got))
    assert all(got for is_clean, _, _, got in outcomes if is_clean)
    if (lf, kf, rf, ri, alpha) == (2, 2, 1, 2, 1):
        # The default scheme on the parity-copy ensemble breaks the split.
        assert (False, 0, [0, 1], False) in outcomes


def test_download_checks_map_each_node_once(monkeypatch):
    from convertbw import ensemble as E
    from convertbw.verify import corollary_trial
    p, ens = build(2, 2, 1, 3, 1, 7)
    initial = list(ens.initial_nodes)
    maps = default_maps(ens)
    seen = []   # every node LinearEnsemble.times maps
    times = E.LinearEnsemble.times

    def counting(ens, coeffs, v):
        seen.append(v)
        return times(ens, coeffs, v)

    monkeypatch.setattr(E.LinearEnsemble, "times", counting)
    rep = check_corollaries(ens, maps)
    assert rep.ok and sorted(seen) == initial
    rng = random.Random(3)
    for which in (1, 2, 1, 2):
        seen.clear()
        assert corollary_trial(ens, rng, which) == "ok"
        assert sorted(seen) == initial
    for s in ([0], [1], [0, 1]):
        seen.clear()
        assert check_cond_entropy_final(ens, maps, s)
        assert len(seen) == len(set(seen))
        assert set(seen) == {v for t in s for v in ens.info_of_codeword(t)}


def test_node_id_validation():
    with pytest.raises(ValueError):
        NodeId("bogus", 0)
    # The index is a count: a float or a bool is refused, never cast.
    for index in (-1, 2.5, 1.0, True, "1"):
        with pytest.raises(ValueError):
            NodeId("info", index)


def test_node_id_order_equality_and_copies():
    import copy
    import pickle
    nodes = [final_parity_node(0), initial_parity_node(2), info_node(1),
             initial_parity_node(0), info_node(0), final_parity_node(3)]
    assert sorted(nodes) == [info_node(0), info_node(1),
                             initial_parity_node(0), initial_parity_node(2),
                             final_parity_node(0), final_parity_node(3)]
    v = NodeId("initial-parity", 2)
    assert v == initial_parity_node(2) and v != final_parity_node(2)
    assert hash(v) == hash(initial_parity_node(2))
    assert len({v, initial_parity_node(2), info_node(2)}) == 2
    assert (v.kind, v.index) == ("initial-parity", 2)
    assert repr(v) == "NodeId(kind='initial-parity', index=2)"
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(w) is NodeId and w == v and (w.kind, w.index) == (v.kind, v.index)


@pytest.mark.parametrize("q", [7, 8])
def test_oracle_ranks_match_plain_elimination(q, monkeypatch):
    # The download checks rank each node's mapped rows packed; every
    # rank they use must equal numpy plain elimination of
    # mapped_rows for the same nodes, and every subset minimum (_min_h,
    # read from held single and whole-set ranks where it can) the
    # brute-force minimum of those ranks.  Maps are seeded, 0-row ones
    # included.
    from convertbw import ensemble as E
    from convertbw.ensemble import (corollary1_holds, corollary2_holds,
                                    mapped_rows, random_corollary1_tuple,
                                    random_corollary2_set)
    from plain_elimination import ref_rank

    p, ens = build(2, 2, 1, 2, 2, q)
    fld = ens.field
    nodes = list(ens.all_nodes())
    rng = random.Random(q)

    def ref(maps, vs):
        return ref_rank(mapped_rows(ens, maps, vs))

    def ref_mi(maps, a, b):
        return ref(maps, a) + ref(maps, b) - ref(maps, [*a, *b])

    used = []   # (nodes, rank) and ("mi", MI) as the checks compute them
    minima = []   # (pool, size, minimum) as the checks compute them
    h_rows, rows_mi, min_h = E._h_rows, E._rows_mi, E._min_h

    def recording_h(f, rows, vs):
        vs = list(vs)
        used.append((vs, h_rows(f, rows, vs)))
        return used[-1][1]

    def recording_mi(f, rows, a, b):
        used.append(("mi", rows_mi(f, rows, a, b)))
        return used[-1][1]

    def recording_min(f, rows, pool, size, held):
        minima.append((list(pool), size, min_h(f, rows, pool, size, held)))
        return minima[-1][2]

    monkeypatch.setattr(E, "_h_rows", recording_h)
    monkeypatch.setattr(E, "_rows_mi", recording_mi)
    monkeypatch.setattr(E, "_min_h", recording_min)
    zero_rows = evaluated = 0
    for _ in range(12):
        maps = {v: random_matrix(fld, rng.randint(0, p.alpha), p.alpha, rng)
                for v in nodes}
        zero_rows += sum(not m.rows for m in maps.values())
        rows = {v: ens.times(m, v) for v, m in E._map_rows(ens, maps).items()}
        for size in range(4):
            for sub in combinations(nodes, size):
                assert h_rows(ens.packing, rows, sub) == ref(maps, sub)
        mi = rows_mi(ens.packing, rows, ens.initial_parities, ens.info_nodes)
        assert mi == ref_mi(maps, ens.initial_parities, ens.info_nodes)

        rng.shuffle(nodes)
        a_set, b_set = nodes[:rng.randint(1, 3)], nodes[3:3 + rng.randint(1, 3)]
        used.clear()
        try:
            check_mi_bound(ens, {v: maps[v] for v in a_set},
                           {v: maps[v] for v in b_set}, a_set[:1], b_set[1:])
            evaluated += 1
            assert [h for vs, h in used if vs == "mi"] == [
                ref_mi(maps, a_set, b_set)]
        except IndependencePreconditionError:
            pass
        b = rng.randint(2, 4)
        try:
            check_min_avg(ens, [(v, maps[v]) for v in nodes[:b]],
                          rng.randint(1, b))
            evaluated += 1
        except IndependencePreconditionError:
            pass
        s1, s2, b1, b2 = random_corollary1_tuple(ens, rng)
        corollary1_holds(ens, rows, mi, s1, s2, b1, b2)
        corollary2_holds(ens, rows, mi, random_corollary2_set(ens, rng))
        assert all(h == ref(maps, vs) for vs, h in used if vs != "mi")
        assert all(m == min((ref(maps, c) for c in combinations(pool, size)))
                   for pool, size, m in minima if size)
        minima.clear()
    assert zero_rows > 0 and evaluated > 6


@pytest.mark.parametrize("grid", [{}, {"qs": (4, 8)}], ids=["default", "gf2m"])
def test_reused_values_match_plain_path_on_grids(grid, monkeypatch):
    # What an ensemble computes once against the plain path, at every
    # point of the grid: each product LinearEnsemble.times returns (its
    # table kept, read back for repeated rows and across nodes sharing a
    # row) against RowPacking.combine; each subset minimum the checks
    # read from ranks they hold (_min_h, over a run of random trials)
    # against brute-force _min_h_rows; and every verdict of the one-pass
    # split (_cond_entropy_splits) against per-subset ranks of Matrix
    # products, on the canonical ensemble and both planted ones.
    from convertbw import ensemble as E
    from convertbw.linalg import vstack
    from convertbw.verify import (PLANT_KINDS, default_grid, plant_corruption,
                                  run_randomized_checks)

    brute, min_h = E._min_h_rows, E._min_h
    minima = []

    def checked_min_h(pk, rows, pool, size, held):
        got = min_h(pk, rows, pool, size, held)
        assert got == brute(pk, rows, pool, size), (pool, size, held)
        minima.append((size, len(pool), tuple(sorted(held))))
        return got

    monkeypatch.setattr(E, "_min_h", checked_min_h)
    splits = 0
    for i, p in enumerate(default_grid(**grid)):
        clean = ensemble_from_codes(p, *canonical_codes(p))
        fld, rng = clean.field, random.Random(i)
        nodes = clean.all_nodes()
        # Every node maps the same rows, repeated, and a 0-row map too.
        draw = [tuple(rng.randrange(fld.q) for _ in range(p.alpha))
                for _ in range(6)]
        coeffs = draw + draw[::2]
        for v in nodes:
            rows_bytes = clean.block(v).packed()[2]
            want = [clean.packing.combine(c, rows_bytes) for c in coeffs]
            assert clean.times(coeffs, v) == want
            assert clean.times(coeffs[::-1], v) == want[::-1]
            assert clean.times((), v) == []
        run_randomized_checks(clean, 12, rng)

        subsets = [[t for t in range(p.lf) if (mask >> t) & 1]
                   for mask in range(1 << p.lf)]
        for ens in [clean] + [plant_corruption(clean, k) for k in PLANT_KINDS]:
            if ens is None:
                continue
            schemes = [default_maps(ens)] + [
                {v: random_matrix(fld, rng.randint(0, p.alpha), p.alpha, rng)
                 for v in ens.info_nodes} for _ in range(2)]
            for maps in schemes:
                def lhs(ts):
                    infos = [v for t in ts for v in ens.info_of_codeword(t)]
                    v_rows = vstack([maps[v] @ ens.block(v) for v in infos])
                    h_v, h_vy = rank_pair(v_rows, ens.stack(
                        [y for t in ts for y in ens.final_parities_of_codeword(t)]))
                    return h_vy - h_v

                want = [lhs(s) == sum(lhs([t]) for t in s) if s else True
                        for s in subsets]
                got = E._cond_entropy_splits(ens, E._map_rows(ens, maps), subsets)
                assert got == want, (p, subsets)
                splits += want.count(False)
    # Both reuses were exercised, and so was a 2-subset minimum searched
    # with the singles at hand; some planted split failed.
    assert any(size == 1 and held == (1,) for size, _, held in minima)
    assert any(size == n > 1 and held == (n,) for size, n, held in minima)
    assert any(size == 2 < n and held == (1,) for size, n, held in minima)
    assert splits > 0
