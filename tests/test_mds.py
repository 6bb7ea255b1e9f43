"""Systematic MDS vector code tests."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convertbw import mds
from convertbw.gf import field
from convertbw.linalg import Matrix
from convertbw.mds import (CorruptDataError, VectorCode, decode_from, encode,
                           make_systematic_mds, verify_mds)
from plain_elimination import ref_inverse, ref_is_mds, ref_rank
from support import add, sub

F5 = field(5)
F7 = field(7)


def test_all_column_pairs_invertible_via_determinants():
    code = make_systematic_mds(4, 2, 1, F5)
    g = code.generator.array
    for i, j in combinations(range(4), 2):
        det = sub(F5, F5.mul(int(g[0, i]), int(g[1, j])),
                  F5.mul(int(g[0, j]), int(g[1, i])))
        assert det != 0


def test_full_rate_code_is_identity():
    code = make_systematic_mds(3, 3, 2, F5)
    assert np.array_equal(code.generator.array, np.eye(6, dtype=np.int64))
    assert verify_mds(code)


def test_verify_mds_exhaustive_subset_check():
    assert verify_mds(make_systematic_mds(6, 4, 1, F7))


@pytest.mark.parametrize("n,k,alpha,q", [(4, 2, 1, 5), (5, 3, 2, 5),
                                         (6, 4, 1, 7), (5, 2, 2, 8)])
def test_construction_passes_mds(n, k, alpha, q):
    assert verify_mds(make_systematic_mds(n, k, alpha, field(q)))


def test_construction_rejects_small_field():
    with pytest.raises(ValueError):
        make_systematic_mds(6, 2, 1, F5)


def test_construction_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        make_systematic_mds(3, 0, 1, F5)
    with pytest.raises(ValueError):
        make_systematic_mds(3, 4, 1, F5)
    with pytest.raises(ValueError):
        make_systematic_mds(3, 2, 0, F5)


@pytest.mark.parametrize("n,k,alpha,flat,match", [
    (1, 2, 1, [1, 0], "need 1 <= k <= n"),
    (0, 0, 1, [], "need 1 <= k <= n"),
    (2, 0, 1, [], "need 1 <= k <= n"),
    (2, 1, 0, [], "alpha must be >= 1"),
])
def test_impossible_dimensions_rejected(n, k, alpha, flat, match):
    # Refused before any shape or systematic check indexes the
    # generator, so k > n is a ValueError rather than an IndexError.
    doc = {"n": n, "k": k, "alpha": alpha, "q": 5, "generator": flat}
    with pytest.raises(ValueError, match=match):
        VectorCode.from_json_dict(doc)
    with pytest.raises(ValueError, match=match):
        VectorCode(n, k, alpha, F5, Matrix.zeros(F5, k * alpha, n * alpha))


def test_encode_zero_message():
    code = make_systematic_mds(4, 2, 1, F5)
    assert encode(code, [0, 0]).tolist() == [[0]] * 4


def test_encode_systematic_projection():
    code = make_systematic_mds(4, 2, 1, F5)
    cw = encode(code, [1, 0])
    assert cw[0].tolist() == [1] and cw[1].tolist() == [0]


def test_encode_unit_message_reads_generator_row():
    code = make_systematic_mds(5, 3, 1, F7)
    cw = encode(code, [1, 0, 0])
    assert cw.reshape(-1).tolist() == code.generator.array[0].tolist()


def test_encode_rejects_wrong_length():
    code = make_systematic_mds(4, 2, 1, F5)
    with pytest.raises(ValueError):
        encode(code, [1, 2, 3])
    for bad in ([5, 0], [0, -1]):  # not reduced modulo p
        with pytest.raises(ValueError, match="outside"):
            encode(code, bad)


def test_decode_from_systematic_nodes():
    code = make_systematic_mds(5, 3, 2, F7)
    msg = [1, 2, 3, 4, 5, 6]
    cw = encode(code, msg)
    got = decode_from(code, {i: cw[i] for i in range(3)})
    assert got.tolist() == msg


@pytest.mark.parametrize("n,k,alpha,q", [(4, 2, 1, 5), (5, 3, 1, 7),
                                         (6, 4, 1, 7), (4, 2, 2, 5)])
def test_decode_round_trips_every_k_subset(n, k, alpha, q):
    fld = field(q)
    code = make_systematic_mds(n, k, alpha, fld)
    rng = random.Random(q * n)
    msg = [rng.randrange(q) for _ in range(k * alpha)]
    cw = encode(code, msg)
    for subset in combinations(range(n), k):
        assert decode_from(code, {i: cw[i] for i in subset}).tolist() == msg


def test_decode_rejects_too_few_nodes():
    code = make_systematic_mds(4, 2, 1, F5)
    cw = encode(code, [1, 2])
    with pytest.raises(ValueError):
        decode_from(code, {0: cw[0]})


def test_decode_reports_corruption_with_extra_node():
    code = make_systematic_mds(4, 2, 1, F5)
    cw = encode(code, [1, 2])
    tampered = {0: cw[0], 1: cw[1], 2: [(int(cw[2][0]) + 1) % 5]}
    # A clean decode caches the inverse of nodes 0 and 1; the extra node
    # is still cross-checked on every later call.
    assert decode_from(code, {i: cw[i] for i in range(4)}).tolist() == [1, 2]
    for _ in range(2):
        with pytest.raises(CorruptDataError):
            decode_from(code, tampered)
    # Raising a symbol by p is tampering too, not the same symbol mod p.
    code7 = make_systematic_mds(7, 4, 1, F7)
    cw7 = encode(code7, [1, 2, 3, 4])
    raised = {i: cw7[i] for i in range(7)}
    raised[4] = cw7[4] + 7
    with pytest.raises(ValueError, match="outside"):
        decode_from(code7, raised)
    # Over GF(8) with alpha = 2 and over GF(251), one tampered subsymbol
    # of the last node is caught on the cold call, which packs the
    # inverse and the generator, and on the warm call, which reuses them.
    for args in ((5, 3, 2, field(8)), (6, 3, 2, field(251))):
        n, k, alpha, f = args
        msg = [f.q - 1 - j for j in range(k * alpha)]
        cw = encode(make_systematic_mds(*args), msg)
        tampered = {i: cw[i].tolist() for i in range(n)}
        tampered[n - 1][-1] = add(f, tampered[n - 1][-1], 1)
        # A freshly built code has not packed its generator yet.
        code = make_systematic_mds(*args)
        mds._decoder.cache_clear()
        for _ in ("cold", "warm"):
            with pytest.raises(CorruptDataError, match=f"node {n - 1} "):
                decode_from(code, tampered)
        assert decode_from(code, {i: cw[i] for i in range(n)}).tolist() == msg


@pytest.mark.parametrize("n,k,alpha,q", [(5, 3, 2, 7), (4, 2, 2, 16)])
def test_cached_decode_matches_plain_inverse(n, k, alpha, q):
    # Each k-subset's inverse is computed on the cold pass and reused on
    # the warm one; both decode to y @ (plain-elimination inverse).
    code = make_systematic_mds(n, k, alpha, field(q))
    subsets = list(combinations(range(n), k))
    rng = random.Random(q)
    mds._decoder.cache_clear()
    for _ in ("cold", "warm"):
        msg = [rng.randrange(q) for _ in range(k * alpha)]
        cw = encode(code, msg)
        for sub in subsets:
            cols = [c for i in sub for c in code.node_cols(i)]
            y = Matrix(code.field, [[int(x) for i in sub for x in cw[i]]])
            want = (y @ ref_inverse(code.generator.take_cols(cols))).data[0]
            got = decode_from(code, {i: cw[i] for i in sub})
            assert tuple(got.tolist()) == want == tuple(msg)
    info = mds._decoder.cache_info()
    assert (info.misses, info.hits) == (len(subsets), len(subsets))


def test_singular_subset_raises_on_every_decode():
    # Nodes 2 and 3 of this non-MDS code store the same column; a failed
    # inverse is not cached, so every decode from them raises.
    g = make_systematic_mds(4, 2, 1, F5).generator.array.copy()
    g[:, 3] = g[:, 2]
    dup = VectorCode(4, 2, 1, F5, Matrix(F5, g))
    cw = encode(dup, [1, 2])
    for _ in range(2):
        with pytest.raises(ValueError, match="matrix is singular"):
            decode_from(dup, {2: cw[2], 3: cw[3]})


def test_non_integer_symbols_rejected():
    code = make_systematic_mds(4, 2, 1, F5)
    cw = encode(code, [1, 2])
    with pytest.raises(ValueError, match="non-integer"):
        decode_from(code, {0: [1.9], 1: cw[1]})  # not read as 1
    with pytest.raises(ValueError, match="non-integer"):
        encode(code, [1, 2.5])


def test_verify_mds_fails_on_duplicated_parity_column():
    code = make_systematic_mds(4, 2, 1, F5)
    g = code.generator.array.copy()
    g[:, 3] = g[:, 2]
    dup = VectorCode(4, 2, 1, F5, Matrix(F5, g))
    assert not verify_mds(dup)


def _systematic_code(fld, n, k, alpha, rng):
    """[I | P] with a uniformly drawn parity block P."""
    ka, ra = k * alpha, (n - k) * alpha
    return VectorCode(n, k, alpha, fld, Matrix(fld, [
        [int(i == j) for j in range(ka)] + [rng.randrange(fld.q) for _ in range(ra)]
        for i in range(ka)]))


# (n, k, alpha): r = 0, k = 1, and min(k, r) = 1, 2 and 3.
MINOR_SHAPES = [(3, 3, 2), (4, 1, 2), (3, 1, 3), (3, 2, 3), (4, 2, 1), (5, 3, 2),
                (4, 2, 2), (6, 3, 1), (7, 4, 1), (6, 3, 2)]


@pytest.mark.parametrize("q", [5, 7, 8, 16])
def test_verify_mds_matches_every_node_set(q):
    # The minor criterion against the C(n, k) definition, uncached, on
    # seeded random parity blocks: both verdicts occur, and so do codes
    # whose every alpha-minor is nonsingular but a larger one is not.
    fld, rng = field(q), random.Random(q)
    verdicts, late = set(), 0
    for n, k, alpha in MINOR_SHAPES:
        for _ in range(12):
            code = _systematic_code(fld, n, k, alpha, rng)
            want = ref_is_mds(code)
            assert verify_mds.__wrapped__(code) == want, (n, k, alpha, code.generator.data)
            verdicts.add(want)
            if not want and all(ref_rank(code.generator.take_cols(
                    [c for i in nodes for c in code.node_cols(i)])) == k * alpha
                    for nodes in combinations(range(n), k)
                    if sum(i >= k for i in nodes) == 1):
                late += 1
    assert verdicts == {True, False}
    assert late


def test_verify_mds_matches_every_node_set_on_grid_and_mixes():
    from convertbw.convertible import canonical_codes
    from convertbw.search import random_mds_pair
    from convertbw.params import SplitParams
    from convertbw.verify import default_grid
    codes = {c for p in default_grid() for c in canonical_codes(p)}
    rng = random.Random(0)
    for _ in range(20):
        codes.update(random_mds_pair(SplitParams(2, 2, 1, 1, 2, 5), rng))
    for code in codes:
        assert verify_mds.__wrapped__(code) and ref_is_mds(code)


def test_verify_mds_stops_at_the_first_singular_minor(monkeypatch):
    # A zero block at data node 0's rows and parity node k's columns is
    # the first minor ranked.
    code = make_systematic_mds(6, 3, 2, F7)
    g = code.generator.array.copy()
    g[0:2, 6:8] = 0
    bad = VectorCode(6, 3, 2, F7, Matrix(F7, g))
    ranks, rank = [], mds.mat_rank

    def counted(m):
        ranks.append(m.shape)
        return rank(m)

    monkeypatch.setattr(mds, "mat_rank", counted)
    assert not verify_mds.__wrapped__(bad)
    assert ranks == [(2, 2)]
    ranks.clear()
    # An MDS code ranks one minor per node set with a parity node:
    # C(6, 3) - 1, each t*alpha square.
    assert verify_mds.__wrapped__(code)
    assert len(ranks) == 19 and all(r == c and r % 2 == 0 for r, c in ranks)


def test_layered_code_mds_iff_scalar_layer_mds():
    # Forward: replicating an MDS scalar layer stays MDS (alpha = 2).
    good = make_systematic_mds(4, 2, 2, F5)
    assert verify_mds(good)
    # Reverse: breaking the scalar layer breaks every replica.
    bad_scalar = make_systematic_mds(4, 2, 1, F5)
    g = bad_scalar.generator.array.copy()
    g[:, 3] = g[:, 2]
    g2 = np.kron(g, np.eye(2, dtype=np.int64))
    bad = VectorCode(4, 2, 2, F5, Matrix(F5, g2))
    assert not verify_mds(bad)


def test_node_block_matches_encoding():
    code = make_systematic_mds(5, 3, 2, F7)
    rng = random.Random(1)
    msg = np.array([rng.randrange(7) for _ in range(6)], dtype=np.int64)
    cw = encode(code, msg)
    for i in range(5):
        block = code.node_block(i)
        want = F7.arr_matmul(block.array, msg[:, None])[:, 0]
        assert np.array_equal(want, cw[i])


def test_systematic_invariant_enforced():
    code = make_systematic_mds(4, 2, 1, F5)
    g = code.generator.array.copy()
    g[0, 0] = 3  # break the identity projection
    with pytest.raises(ValueError):
        VectorCode(4, 2, 1, F5, Matrix(F5, g))
    # The identity section is compared row by row: each break below,
    # and only it, is refused.
    code = make_systematic_mds(5, 3, 2, F7)
    good = code.generator.array
    swapped = good.copy()
    swapped[[1, 4]] = swapped[[4, 1]]
    breaks = [swapped]
    for (i, j), x in (((0, 5), 1), ((4, 2), 6), ((2, 2), 0), ((5, 5), 2)):
        g = good.copy()
        g[i, j] = x
        breaks.append(g)
    for g in breaks:
        with pytest.raises(ValueError, match=r"not systematic on nodes 0\.\.2"):
            VectorCode(5, 3, 2, F7, Matrix(F7, g))
    parity = good.copy()
    parity[5, 6] = 4  # a parity entry: still systematic
    assert VectorCode(5, 3, 2, F7, Matrix(F7, parity)).generator.data[5][6] == 4


def test_json_round_trip():
    code = make_systematic_mds(5, 3, 2, F7)
    doc = code.to_json_dict()
    back = VectorCode.from_json_dict(doc)
    assert back.generator == code.generator
    assert verify_mds(back)
    doc["generator"][-1] = 7  # a parity entry outside GF(7)
    with pytest.raises(ValueError, match="outside"):
        VectorCode.from_json_dict(doc)
    doc["generator"][-1] = 6.5  # not truncated to 6
    with pytest.raises(ValueError, match="non-integer"):
        VectorCode.from_json_dict(doc)
    # Header fields are plain ints: each value below would load as the
    # code's own field if truncated, cast or parsed.
    scalar = make_systematic_mds(3, 2, 1, F7)
    for c, key, bad in ((code, "q", 7.9), (code, "n", "5"), (code, "k", 3.0),
                        (scalar, "alpha", True)):
        doc = c.to_json_dict()
        doc[key] = bad
        with pytest.raises(ValueError, match=f"{key} must be a nonnegative"):
            VectorCode.from_json_dict(doc)


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([7, 8]), k=st.integers(1, 3), r=st.integers(0, 2),
       alpha=st.integers(1, 2), data=st.data())
def test_json_round_trip_property(q, k, r, alpha, data):
    # Any parity section next to the identity is a valid systematic code.
    fld = field(q)
    ka, ra = k * alpha, r * alpha
    flat = data.draw(st.lists(st.integers(0, q - 1),
                              min_size=ka * ra, max_size=ka * ra))
    parity = np.array(flat, dtype=np.int64).reshape(ka, ra)
    gen = Matrix(fld, np.hstack([np.eye(ka, dtype=np.int64), parity]))
    code = VectorCode(k + r, k, alpha, fld, gen)
    assert VectorCode.from_json_dict(code.to_json_dict()) == code


@pytest.mark.parametrize("nodes", [
    {0: [1], 5: [1]},                      # among the first k
    {0: [1], 1: [2], 5: [1]},              # an extra
    {0: [1], 1: [2], 2: [0], 5: [1]},      # after a corrupt extra
    {0: [1], 1: [2], 3: [0], 4: [1]},      # every extra out of range
])
def test_decode_refuses_out_of_range_nodes(nodes):
    # An index past n is a usage error wherever it sits, never read as
    # a node whose symbols disagree with the others.
    code = make_systematic_mds(3, 2, 1, F5)
    assert encode(code, [1, 2])[2].tolist() != [0]
    with pytest.raises(ValueError, match="out of range") as err:
        decode_from(code, nodes)
    assert not isinstance(err.value, CorruptDataError)


@pytest.mark.parametrize("point", [(2, 3, 2, 2, 2, 8), (2, 2, 1, 1, 1, 7),
                                   (2, 1, 0, 1, 1, 5)])
def test_write_path_product_counts(point, monkeypatch):
    # Each write-path call multiplies once per fixed matrix it needs:
    # encode by the generator; run_conversion by the generator and by
    # its plan; decode_from by its inverse, and by the generator when
    # extra nodes are cross-checked.  Caches are warmed first.
    from convertbw.convertible import (canonical_codes, default_scheme,
                                       run_conversion)
    from convertbw.params import SplitParams
    p = SplitParams(*point)
    initial, final = canonical_codes(p)
    scheme = default_scheme(p)
    msg = [x % p.q for x in range(p.message_dim)]
    finals, _ = run_conversion(p, initial, final, scheme, msg)
    cw = finals[0]
    some = {i: cw[i] for i in range(p.kf)}
    every = {i: cw[i] for i in range(p.nf)}
    decode_from(final, some)
    calls, vecmul = [], Matrix.vecmul
    monkeypatch.setattr(Matrix, "vecmul",
                        lambda m, v: calls.append(m.shape) or vecmul(m, v))
    for run, want in [(lambda: encode(initial, msg), 1),
                      (lambda: run_conversion(p, initial, final, scheme, msg), 2),
                      (lambda: decode_from(final, some), 1),
                      (lambda: decode_from(final, every), 1 + (p.nf > p.kf))]:
        calls.clear()
        run()
        assert len(calls) == want, calls
