"""Conversion scheme, feasibility, and end-to-end conversion tests."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convertbw import convertible
from convertbw.convertible import (ConversionScheme,
                                   InfeasibleSchemeError, canonical_codes,
                                   check_feasible, default_scheme,
                                   run_conversion, scheme_bandwidth)
from convertbw.ensemble import ensemble_from_codes
from convertbw.linalg import Matrix, enumerate_subspaces
from convertbw.mds import VectorCode, decode_from, encode
from convertbw.params import SplitParams
from convertbw.search import random_mds_pair
from support import empty_scheme, from_maps


def build(lf, kf, rf, ri, alpha, q):
    p = SplitParams(lf, kf, rf, ri, alpha, q)
    initial, final = canonical_codes(p)
    return p, initial, final, ensemble_from_codes(p, initial, final)


def test_split_params_validation():
    with pytest.raises(ValueError):
        SplitParams(1, 2, 1, 1)
    with pytest.raises(ValueError):
        SplitParams(2, 0, 1, 1)
    with pytest.raises(ValueError):
        SplitParams(2, 2, -1, 1)
    with pytest.raises(ValueError):
        SplitParams(2, 2, 1, 1, 0)
    with pytest.raises(ValueError):
        SplitParams(2, 2, 1, 1, 1, 4)  # q < max(ni, nf) = 5
    with pytest.raises(ValueError):
        SplitParams(2, 2, 1, 1, 1, 9)  # unsupported order
    # Counts and q must be plain ints: a float 2.0 would turn the bound
    # into a float, a bool True would reach the code construction.
    for bad in [(2, 2, 1, 1, 2.0, 5), (2, 2, 1, 1, True, 5), (2.0, 2, 1, 1),
                (2, 2, 1, 1, 1, 7.0), (2, 2, 1, 1, 1, 5.5), (2, 2, False, 1)]:
        with pytest.raises(ValueError, match="must be an int"):
            SplitParams(*bad)


def test_split_params_derived():
    p = SplitParams(3, 2, 1, 2, 2, 11)
    assert (p.ki, p.ni, p.nf) == (6, 8, 3)
    assert p.message_dim == 12
    assert p.field().q == 11
    with pytest.raises(ValueError):
        SplitParams(3, 2, 1, 2).field()


def test_default_scheme_costs():
    p = SplitParams(2, 2, 1, 2, 1, 7)
    rep = scheme_bandwidth(default_scheme(p))
    assert rep.read_total == 4 == p.lf * p.kf * p.alpha
    assert sum(rep.sigma) == 0

    p2 = SplitParams(2, 1, 3, 1, 2, 5)
    rep2 = scheme_bandwidth(default_scheme(p2))
    assert rep2.read_total == 4
    # Equals the floor forced by writes: lf * min(kf, rf) * alpha.
    assert rep2.read_total == p2.lf * min(p2.kf, p2.rf) * p2.alpha


def test_bandwidth_report_fields():
    p = SplitParams(2, 2, 1, 1, 2, 5)
    fld = p.field()
    maps = (Matrix(fld, [[1, 0]]), Matrix(fld, [[0, 1]]),
            Matrix.zeros(fld, 0, 2), Matrix.zeros(fld, 0, 2),
            Matrix.identity(fld, 2))
    scheme = ConversionScheme(p, maps)
    rep = scheme_bandwidth(scheme)
    assert rep.beta == (1, 1, 0, 0)
    assert rep.sigma == (2,)
    assert rep.read_total == 4
    assert rep.write_total == p.lf * p.rf * p.alpha == 4
    assert rep.ratio_vs_default == Fraction(4, 8)


def test_empty_scheme_bandwidth_zero():
    p = SplitParams(2, 2, 1, 1, 1, 5)
    assert scheme_bandwidth(empty_scheme(p)).read_total == 0


def test_scheme_requires_canonical_maps():
    p = SplitParams(2, 1, 1, 1, 2, 5)
    fld = p.field()
    ragged = Matrix(fld, [[2, 4], [1, 2]])  # rank 1, not canonical
    with pytest.raises(ValueError):
        ConversionScheme(p, (ragged, Matrix.identity(fld, 2),
                             Matrix.zeros(fld, 0, 2)))
    fixed = from_maps(
        p, [ragged, Matrix.identity(fld, 2), Matrix.zeros(fld, 0, 2)])
    assert fixed.beta == (1, 2)


def test_scheme_needs_one_map_per_initial_node():
    p = SplitParams(2, 1, 1, 2, 1, 5)
    fld = p.field()
    full = Matrix.identity(fld, 1)
    assert ConversionScheme(p, (full,) * p.ni).sigma == (1, 1)
    for count in (p.ni - 1, p.ni + 1):
        with pytest.raises(ValueError, match=f"expected {p.ni} download maps"):
            ConversionScheme(p, (full,) * count)


def test_scheme_built_from_a_list_is_hashable():
    p, initial, final, _ = build(2, 2, 1, 1, 1, 7)
    scheme = default_scheme(p)
    listed = ConversionScheme(p, list(scheme.maps))
    assert listed == scheme and hash(listed) == hash(scheme)
    assert isinstance(listed.maps, tuple)
    a, _ = run_conversion(p, initial, final, listed, [1, 2, 3, 4])
    b, _ = run_conversion(p, initial, final, scheme, [1, 2, 3, 4])
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_scheme_json_round_trip():
    p = SplitParams(2, 1, 1, 1, 2, 5)
    fld = p.field()
    scheme = ConversionScheme(
        p, (Matrix(fld, [[1, 3]]), Matrix.identity(fld, 2), Matrix(fld, [[1, 0]])))
    back = ConversionScheme.from_json_dict(p, scheme.to_json_dict())
    assert back == scheme
    p7 = SplitParams(2, 1, 1, 1, 2, 7)
    # Entry 7 on GF(7) is refused, not read as the canonical map [1, 0].
    doc = {"beta": [1, 2], "sigma": [1], "A": [[1, 7], [1, 0, 0, 1]],
           "B": [[1, 0]]}
    with pytest.raises(ValueError, match="outside"):
        ConversionScheme.from_json_dict(p7, doc)
    # A non-integer entry is refused, not truncated to the map [1, 0].
    doc["A"][0] = [1.5, 0]
    with pytest.raises(ValueError, match="non-integer"):
        ConversionScheme.from_json_dict(p7, doc)
    # Surplus maps are refused, not dropped by pairing maps with dims.
    doc = default_scheme(p7).to_json_dict()
    doc["A"].append([9, 9, 9])
    doc["B"].append([5])
    with pytest.raises(ValueError, match="one A map per beta entry"):
        ConversionScheme.from_json_dict(p7, doc)
    # Map sizes are plain ints: true is not read as 1, -1 not inferred.
    for key, bad in (("beta", True), ("beta", 1.0), ("sigma", -1)):
        doc = default_scheme(p7).to_json_dict()
        doc[key][0] = bad
        with pytest.raises(ValueError, match=f"{key} entry must be"):
            ConversionScheme.from_json_dict(p7, doc)
    # A and B are the node-order maps split at ki: a third A map is not
    # read as the first parity map.
    p1 = SplitParams(2, 1, 1, 1, 1, 5)
    doc = {"beta": [1, 1, 1], "sigma": [], "A": [[1], [1], [1]], "B": []}
    with pytest.raises(ValueError, match="expected 2 info maps, got 3"):
        ConversionScheme.from_json_dict(p1, doc)
    doc = {"beta": [1], "sigma": [1, 1], "A": [[1]], "B": [[1], [1]]}
    with pytest.raises(ValueError, match="expected 2 info maps, got 1"):
        ConversionScheme.from_json_dict(p1, doc)
    doc = {"beta": [1, 1], "sigma": [1, 1], "A": [[1], [1]], "B": [[1], [1]]}
    with pytest.raises(ValueError, match="expected 1 parity maps, got 2"):
        ConversionScheme.from_json_dict(p1, doc)
    # The search prints the canonical (2,2,1,2,1,7) minimizer in this
    # form (beta [0,0,1,1], sigma [0,1]); it loads in node order.
    p2 = SplitParams(2, 2, 1, 2, 1, 7)
    doc = {"beta": [0, 0, 1, 1], "sigma": [0, 1],
           "A": [[], [], [1], [1]], "B": [[], [1]]}
    loaded = ConversionScheme.from_json_dict(p2, doc)
    assert [m.rows for m in loaded.maps] == [0, 0, 1, 1, 0, 1]
    assert loaded.to_json_dict() == doc


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([7, 8]), alpha=st.integers(1, 2), data=st.data())
def test_scheme_json_round_trip_property(q, alpha, data):
    p = SplitParams(2, 1, 1, 2, alpha, q)
    fld = p.field()

    def random_map():
        rows = data.draw(st.integers(0, alpha))
        flat = data.draw(st.lists(st.integers(0, q - 1),
                                  min_size=rows * alpha, max_size=rows * alpha))
        return Matrix(fld, np.array(flat, dtype=np.int64).reshape(rows, alpha))

    scheme = from_maps(p, [random_map() for _ in range(p.ni)])
    assert ConversionScheme.from_json_dict(p, scheme.to_json_dict()) == scheme


def test_default_scheme_feasible():
    p, _, _, ens = build(2, 2, 1, 2, 1, 7)
    assert check_feasible(ens, default_scheme(p))


def test_empty_scheme_infeasible_with_new_parities():
    p, _, _, ens = build(2, 2, 1, 2, 1, 7)
    assert not check_feasible(ens, empty_scheme(p))


def test_single_codeword_downloads_infeasible():
    # Downloading only codeword 1's data leaves codeword 2's parities
    # out of reach.
    p, _, _, ens = build(2, 2, 1, 2, 1, 7)
    fld = p.field()
    full = Matrix.identity(fld, 1)
    none = Matrix.zeros(fld, 0, 1)
    scheme = ConversionScheme(p, (full, full, none, none, none, none))
    assert not check_feasible(ens, scheme)


def test_scheme_parameter_mismatch_rejected():
    p, _, _, ens = build(2, 2, 1, 2, 1, 7)
    other = SplitParams(2, 1, 1, 1, 1, 7)
    with pytest.raises(ValueError):
        check_feasible(ens, default_scheme(other))
    # A scheme for (2,3,1,1,1) has six data maps; run on (2,2,1,3,1) it
    # would read initial parity nodes 4 and 5 as if they were data nodes.
    p, initial, final, _ = build(2, 2, 1, 3, 1, 7)
    other_scheme = default_scheme(SplitParams(2, 3, 1, 1, 1, 7))
    with pytest.raises(ValueError, match="scheme is for"):
        run_conversion(p, initial, final, other_scheme, [1, 2, 3, 4])


def test_run_conversion_round_trip_all_subsets():
    p, initial, final, _ = build(2, 2, 1, 1, 1, 7)
    rng = random.Random(0)
    scheme = default_scheme(p)
    for _ in range(20):
        msg = [rng.randrange(7) for _ in range(p.message_dim)]
        finals, rep = run_conversion(p, initial, final, scheme, msg)
        assert rep.read_total == 4
        for t, cw in enumerate(finals):
            want = msg[t * p.kf * p.alpha:(t + 1) * p.kf * p.alpha]
            for sub in combinations(range(p.nf), p.kf):
                assert decode_from(final, {i: cw[i] for i in sub}).tolist() == want


def test_run_conversion_zero_message():
    p, initial, final, _ = build(2, 1, 1, 1, 2, 5)
    finals, _ = run_conversion(p, initial, final, default_scheme(p),
                               [0] * p.message_dim)
    for cw in finals:
        assert not cw.any()


def test_run_conversion_keeps_info_bytes_identical():
    p, initial, final, _ = build(3, 1, 1, 2, 2, 7)
    rng = random.Random(5)
    msg = [rng.randrange(7) for _ in range(p.message_dim)]
    initial_nodes = encode(initial, msg)
    finals, _ = run_conversion(p, initial, final, default_scheme(p), msg)
    for t, cw in enumerate(finals):
        for j in range(p.kf):
            assert cw[j].tobytes() == initial_nodes[t * p.kf + j].tobytes()


@pytest.mark.parametrize("point", [(2, 2, 1, 1, 2, 7), (2, 2, 2, 2, 2, 8),
                                   (2, 1, 0, 1, 1, 5)])
def test_outputs_are_read_only_int64_arrays(point):
    # encode, decode_from and run_conversion hand out numpy arrays, the
    # one place field data leaves the package's tuple rows.
    p, initial, final, _ = build(*point)
    rng = random.Random(8)
    msg = [rng.randrange(p.q) for _ in range(p.message_dim)]
    finals, _ = run_conversion(p, initial, final, default_scheme(p), msg)
    outs = [(encode(initial, msg), (p.ni, p.alpha))]
    outs += [(cw, (p.nf, p.alpha)) for cw in finals]
    outs += [(decode_from(final, {i: cw[i] for i in range(p.nf)}),
              (p.kf * p.alpha,)) for cw in finals]
    for arr, shape in outs:
        assert isinstance(arr, np.ndarray) and arr.dtype == np.int64
        assert arr.shape == shape and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.reshape(-1)[0] = 0


def test_run_conversion_no_new_parities():
    p = SplitParams(2, 1, 0, 1, 1, 5)
    initial, final = canonical_codes(p)
    finals, rep = run_conversion(p, initial, final, empty_scheme(p), [3, 4])
    assert rep.read_total == 0
    assert [cw.shape for cw in finals] == [(1, 1), (1, 1)]
    assert finals[0][0].tolist() == [3] and finals[1][0].tolist() == [4]


def test_run_conversion_infeasible_raises():
    # A failed plan is not cached, and the message is checked before the
    # plan is looked up.
    p, initial, final, _ = build(2, 2, 1, 2, 1, 7)
    for _ in range(2):
        with pytest.raises(InfeasibleSchemeError):
            run_conversion(p, initial, final, empty_scheme(p), [1, 2, 3, 4])
    with pytest.raises(ValueError, match="message length") as err:
        run_conversion(p, initial, final, empty_scheme(p), [1, 2, 3])
    assert not isinstance(err.value, InfeasibleSchemeError)


def test_cached_plans_and_inverses_follow_the_code_pair():
    # Two pairs of equal shape, one scheme: interleaved conversions and
    # decodes each use their own pair's plan and inverses.
    p = SplitParams(2, 3, 2, 2, 2, 8)
    pairs = [canonical_codes(p), random_mds_pair(p, random.Random(4))]
    assert pairs[0][1] != pairs[1][1]
    scheme = default_scheme(p)
    convertible._conversion_plan.cache_clear()
    rng = random.Random(6)
    span = p.kf * p.alpha
    for _ in range(3):
        for initial, final in pairs:
            msg = [rng.randrange(p.q) for _ in range(p.message_dim)]
            finals, _ = run_conversion(p, initial, final, scheme, msg)
            for t, cw in enumerate(finals):
                want = msg[t * span:(t + 1) * span]
                assert np.array_equal(cw, encode(final, want))
                for sub in combinations(range(p.nf), p.kf):
                    assert decode_from(final, {i: cw[i] for i in sub}).tolist() == want
    info = convertible._conversion_plan.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_run_conversion_uses_parity_downloads():
    # A feasible scheme that mixes parity reads still reproduces the
    # exact parity values the final code would have produced.
    p, initial, final, ens = build(2, 1, 1, 2, 1, 5)
    fld = p.field()
    full = Matrix.identity(fld, 1)
    none = Matrix.zeros(fld, 0, 1)
    # Final parity of codeword t is a multiple of data node t, so the
    # data nodes alone suffice; add a parity read on top.
    scheme = ConversionScheme(p, (full, full, full, none))
    assert check_feasible(ens, scheme)
    msg = [2, 3]
    finals, rep = run_conversion(p, initial, final, scheme, msg)
    assert rep.read_total == 3
    for t, cw in enumerate(finals):
        expect = encode(final, [msg[t]])
        assert np.array_equal(cw, expect)


def test_conversion_matches_direct_final_encoding():
    # Seeded random schemes that also read parity nodes: run_conversion
    # fails exactly on the infeasible ones, and otherwise each final
    # codeword is the direct encoding of its message slice.
    rng = random.Random(9)
    for point in [(2, 2, 2, 1, 1, 7), (2, 3, 2, 2, 2, 8)]:
        p, initial, final, ens = build(*point)
        menus = [enumerate_subspaces(p.alpha, p.field(), d)
                 for d in range(p.alpha + 1)]
        seen = set()
        for trial in range(40):
            if trial == 0:
                scheme = default_scheme(p)
            else:
                picks = [rng.choice(menus[rng.randint(0, p.alpha)])
                         for _ in range(p.ni)]
                scheme = ConversionScheme(p, tuple(picks))
            msg = [rng.randrange(p.q) for _ in range(p.message_dim)]
            feasible = check_feasible(ens, scheme)
            seen.add((feasible, any(scheme.sigma)))
            if not feasible:
                with pytest.raises(InfeasibleSchemeError):
                    run_conversion(p, initial, final, scheme, msg)
                continue
            finals, _ = run_conversion(p, initial, final, scheme, msg)
            span = p.kf * p.alpha
            for t, cw in enumerate(finals):
                want = encode(final, msg[t * span:(t + 1) * span])
                assert np.array_equal(cw, want)
        # Among schemes that read a parity node, both outcomes occur.
        assert (True, True) in seen and (False, True) in seen


def test_permuted_systematic_set_rejected():
    # Swapping the first two generator columns keeps the [3,2] code MDS,
    # but data node 0 then stores message block 1, which the conversion
    # layout cannot express, so the code is refused when it is built.
    p = SplitParams(2, 1, 1, 1, 1, 5)
    initial, _ = canonical_codes(p)
    gen = initial.generator.array[:, [1, 0, 2]]
    with pytest.raises(ValueError, match="systematic on nodes 0..1"):
        VectorCode(3, 2, 1, p.field(), Matrix(p.field(), gen))


# sha256 over the bytes of encode and run_conversion(default_scheme)
# outputs for seeded messages: simulate prints no symbol, so only these
# pin the prime-field codewords themselves, 8-bit lanes (GF(11)) and
# 16-bit lanes (GF(131), GF(251)) alike.
CODEWORD_DIGESTS = {
    11: "438c61899d503bfbab714744efc19fe279b4e6d93c37e19ce6083c44ed03e518",
    131: "9326876aded74f408a62127be432550df1358f41315983d76cb7241053f7da26",
    251: "ee92198ab4fc9446608b3daaee8e5c8f92e2031b527c8bf87371c72222bb1d83",
}


@pytest.mark.parametrize("q", sorted(CODEWORD_DIGESTS))
def test_prime_field_codeword_bytes_are_pinned(q):
    h = hashlib.sha256()
    for point in [(2, 3, 2, 2, 2), (3, 2, 1, 2, 1), (2, 2, 2, 3, 3)]:
        p, initial, final, _ = build(*point, q)
        rng = random.Random(q)
        for _ in range(4):
            msg = [rng.randrange(q) for _ in range(p.message_dim)]
            h.update(encode(initial, msg).astype("<i8").tobytes())
            finals, _ = run_conversion(p, initial, final, default_scheme(p), msg)
            for cw in finals:
                h.update(cw.astype("<i8").tobytes())
    assert h.hexdigest() == CODEWORD_DIGESTS[q]
