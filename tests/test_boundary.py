"""The validation boundary: what Matrix, encode, decode_from and the two
JSON loaders accept, and what they refuse with ValueError.

Each probe pins either the entries a call returns or a ValueError, so
any change to the element rule (integers in [0, q); a bool counts as 0
or 1, an integral float as its integer; nothing truncated or reduced) or
to the shape checks shows up here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from convertbw.convertible import ConversionScheme, canonical_codes
from convertbw.ensemble import (LinearEnsemble, check_cond_entropy_final,
                                check_mi_bound, check_min_avg,
                                corollary1_holds, corollary2_holds,
                                ensemble_from_codes, info_node, mapped_rows)
from convertbw.gf import PrimeField, field
from convertbw.linalg import Matrix, mat_inverse, vstack
from convertbw.mds import VectorCode, decode_from, encode, make_systematic_mds
from convertbw.params import SplitParams

F5 = field(5)
CODE = make_systematic_mds(4, 2, 1, F5)     # message [a, b]; node i holds 1 symbol
SCHEME_P = SplitParams(2, 1, 1, 1, 2, 5)    # ki = 2, ri = 1, alpha = 2
REFUSED = ValueError

# (value, the element it is read as, or REFUSED)
ELEMENTS = [
    (0, 0), (4, 4), (True, 1), (False, 0), (2.0, 2), (-0.0, 0),
    (1.9, REFUSED), (math.nan, REFUSED), (math.inf, REFUSED),
    (-math.inf, REFUSED), ("1", REFUSED), (None, REFUSED), (1 + 0j, REFUSED),
    (-1, REFUSED), (5, REFUSED), (2 ** 70, REFUSED), (2 ** 64, REFUSED),
    (1e20, REFUSED), (Fraction(1), REFUSED),
    (np.int8(-1), REFUSED), (np.uint8(3), 3), (np.bool_(True), 1),
    (np.float64(2.0), 2), (np.float64(2.5), REFUSED), (np.int64(5), REFUSED),
    (np.int64(4), 4), (np.float32(3.0), 3),
]


def _matrix(rows):
    m = Matrix(F5, rows)
    return m.shape, m.data


def _encode(message):
    return encode(CODE, message).tolist()


def _decode(available):
    return decode_from(CODE, available).tolist()


def _code_json(generator):
    doc = CODE.to_json_dict()
    doc["generator"] = generator
    return VectorCode.from_json_dict(doc).generator.data


def _scheme_json(doc):
    return [(m.shape, m.data)
            for m in ConversionScheme.from_json_dict(SCHEME_P, doc).maps]


def _with_parity_entry(v):
    flat = CODE.to_json_dict()["generator"]
    flat[2] = v             # row 0, column of node 2 (a parity node)
    return flat


def _outcome(call, arg):
    """call(arg), or REFUSED; as a repr, so that an entry kept as True or
    2.0 does not pass for the plain int it equals."""
    try:
        return repr(call(arg))
    except ValueError:
        return repr(REFUSED)


def _element_cases():
    parity = CODE.to_json_dict()["generator"]
    for v, e in ELEMENTS:
        ok = e is not REFUSED
        gen = list(parity)
        gen[2] = e
        yield repr(v), [
            (_matrix, [[1, v]], ((1, 2), ((1, e),)) if ok else REFUSED),
            (_encode, [1, v], _encode([1, e]) if ok else REFUSED),
            (_decode, {0: [1], 1: [v]}, [1, e] if ok else REFUSED),
            (_code_json, _with_parity_entry(v),
             _code_json(gen) if ok else REFUSED),
            (_scheme_json, {"beta": [1, 2], "sigma": [0],
                            "A": [[1, v], [1, 0, 0, 1]], "B": [[]]},
             [((1, 2), ((1, e),)), ((2, 2), ((1, 0), (0, 1))), ((0, 2), ())]
             if ok else REFUSED),
        ]


@pytest.mark.parametrize("value, cases", list(_element_cases()),
                         ids=[v for v, _ in _element_cases()])
def test_element_rule_at_every_entry_point(value, cases):
    for call, arg, want in cases:
        assert _outcome(call, arg) == repr(want), (call.__name__, arg)


def _object_array(*items):
    out = np.empty(len(items), dtype=object)   # a 1-D array of sequences
    for i, x in enumerate(items):
        out[i] = x
    return out


SHAPES = [
    # Matrix: 2-D and rectangular.
    ("matrix ragged rows", _matrix, [[1, 2], [3]], REFUSED),
    ("matrix scalar next to a row", _matrix, [[1, [2]]], REFUSED),
    ("matrix 1-D list", _matrix, [1, 2, 3], REFUSED),
    ("matrix 1-D range", _matrix, range(2), REFUSED),
    ("matrix 3-D list", _matrix, [[[1]]], REFUSED),
    ("matrix 3-D array", _matrix, np.ones((1, 1, 1), dtype=np.int64), REFUSED),
    ("matrix no rows", _matrix, [], REFUSED),
    ("matrix one empty row", _matrix, [[]], ((1, 0), ((),))),
    ("matrix scalar", _matrix, 3, REFUSED),
    ("matrix numpy scalar", _matrix, np.int64(3), REFUSED),
    ("matrix string", _matrix, "ab", REFUSED),
    ("matrix string entry in ragged rows", _matrix, [[1, "a"], [2]], REFUSED),
    ("matrix iterator row", _matrix, [iter([1, 2])], REFUSED),
    ("matrix set row", _matrix, [{1, 2}], REFUSED),
    ("matrix 0x3 int array", _matrix, np.zeros((0, 3), dtype=np.int64),
     ((0, 3), ())),
    ("matrix 0x3 float array", _matrix, np.zeros((0, 3)), ((0, 3), ())),
    ("matrix 2x0 array", _matrix, np.zeros((2, 0), dtype=np.int64),
     ((2, 0), ((), ()))),
    ("matrix list of numpy rows", _matrix,
     [np.array([1, 2]), np.array([3, 4])], ((2, 2), ((1, 2), (3, 4)))),
    ("matrix list of empty numpy rows", _matrix,
     [np.zeros(0), np.zeros(0)], ((2, 0), ((), ()))),
    ("matrix tuple rows", _matrix, ((1, 2), (3, 4)), ((2, 2), ((1, 2), (3, 4)))),
    ("matrix range row", _matrix, [range(2)], ((1, 2), ((0, 1),))),
    ("matrix int8 array", _matrix, np.array([[1, 4]], dtype=np.int8),
     ((1, 2), ((1, 4),))),
    ("matrix negative int8 array", _matrix,
     np.array([[1, -1]], dtype=np.int8), REFUSED),
    ("matrix uint8 array", _matrix, np.array([[1, 2]], dtype=np.uint8),
     ((1, 2), ((1, 2),))),
    ("matrix huge uint64 array", _matrix,
     np.array([[2 ** 64 - 1]], dtype=np.uint64), REFUSED),
    ("matrix bool array", _matrix, np.array([[True, False]]),
     ((1, 2), ((1, 0),))),
    ("matrix integral float array", _matrix, np.array([[2.0, 3.0]]),
     ((1, 2), ((2, 3),))),
    ("matrix fractional float array", _matrix, np.array([[2.0, 1.5]]), REFUSED),
    ("matrix nan array", _matrix, np.array([[np.nan]]), REFUSED),
    ("matrix string array", _matrix, np.array([["1"]]), REFUSED),
    # encode: one message of k*alpha = 2 entries.
    ("encode tuple", _encode, (1, 2), _encode([1, 2])),
    ("encode range", _encode, range(2), _encode([0, 1])),
    ("encode int8 array", _encode, np.array([1, 2], dtype=np.int8),
     _encode([1, 2])),
    ("encode negative int8 array", _encode,
     np.array([1, -1], dtype=np.int8), REFUSED),
    ("encode float array", _encode, np.array([1.0, 2.0]), _encode([1, 2])),
    ("encode 2-D array", _encode, np.array([[1, 2]]), REFUSED),
    ("encode nested list", _encode, [[1, 2]], REFUSED),
    ("encode ragged list", _encode, [1, [2]], REFUSED),
    ("encode too long", _encode, [1, 2, 3], REFUSED),
    ("encode empty", _encode, [], REFUSED),
    ("encode string", _encode, "12", REFUSED),
    ("encode object array of ints", _encode, np.array([1, 2], dtype=object),
     _encode([1, 2])),
    ("encode object array of rows", _encode, _object_array([1, 2], [3, 4]),
     REFUSED),
    # decode_from: alpha = 1 symbol per node.
    ("decode tuple symbols", _decode, {0: (1,), 3: (2,)},
     _decode({0: [1], 3: [2]})),
    ("decode uint8 symbols", _decode,
     {0: np.array([1], dtype=np.uint8), 1: np.array([2], dtype=np.uint8)},
     [1, 2]),
    ("decode float symbols", _decode, {0: np.array([1.0]), 1: [2.0]}, [1, 2]),
    ("decode bool symbols", _decode, {0: np.array([True]), 1: [False]}, [1, 0]),
    ("decode nested symbols", _decode, {0: [[1]], 1: [2]}, REFUSED),
    ("decode too many symbols", _decode, {0: [1, 2], 1: [2]}, REFUSED),
    ("decode no symbols", _decode, {0: [], 1: [2]}, REFUSED),
    ("decode string symbols", _decode, {0: "1", 1: [2]}, REFUSED),
    ("decode negative symbols", _decode, {0: np.array([-1]), 1: [2]}, REFUSED),
    # VectorCode.from_json_dict: a flat generator of k*alpha*n*alpha entries.
    ("code json tuple", _code_json, tuple(CODE.to_json_dict()["generator"]),
     CODE.generator.data),
    ("code json nested rows", _code_json, [list(r) for r in CODE.generator.data],
     REFUSED),
    ("code json short", _code_json, CODE.to_json_dict()["generator"][:-1],
     REFUSED),
    ("code json float entries", _code_json,
     [float(x) for x in CODE.to_json_dict()["generator"]], CODE.generator.data),
    # ConversionScheme.from_json_dict: each map a flat list of rows*alpha.
    ("scheme 0-row map", _scheme_json,
     {"beta": [2, 2], "sigma": [0], "A": [[1, 0, 0, 1], [1, 0, 0, 1]], "B": [[]]},
     [((2, 2), ((1, 0), (0, 1)))] * 2 + [((0, 2), ())]),
    ("scheme 0-row data map", _scheme_json,
     {"beta": [0, 2], "sigma": [1], "A": [[], (1, 0, 0, 1)], "B": [(0, 1)]},
     [((0, 2), ()), ((2, 2), ((1, 0), (0, 1))), ((1, 2), ((0, 1),))]),
    ("scheme map too long", _scheme_json,
     {"beta": [1, 2], "sigma": [0], "A": [[1, 0, 0], [1, 0, 0, 1]], "B": [[]]},
     REFUSED),
    ("scheme 0-row map with entries", _scheme_json,
     {"beta": [2, 2], "sigma": [0], "A": [[1, 0, 0, 1], [1, 0, 0, 1]], "B": [[0, 0]]},
     REFUSED),
]


@pytest.mark.parametrize("call, arg, want", [c[1:] for c in SHAPES],
                         ids=[c[0] for c in SHAPES])
def test_shape_rule_at_every_entry_point(call, arg, want):
    assert _outcome(call, arg) == repr(want)


@pytest.mark.parametrize("call", [
    lambda: VectorCode(4, 2.0, 1, F5, CODE.generator),
    lambda: VectorCode(4, 2, True, F5, CODE.generator),
    lambda: make_systematic_mds(4, 2.0, 1, F5),
    lambda: make_systematic_mds(4, 2, True, F5),
    lambda: encode(CODE, 7),
    lambda: decode_from(CODE, {0: 3, 1: [2]}),
    lambda: decode_from(CODE, {0.0: [1], 1: [2]}),
    lambda: decode_from(CODE, {True: [1], 0: [2]}),
    lambda: _code_json(7),
    lambda: _scheme_json({"beta": [1, 2], "sigma": [0],
                          "A": [1, [1, 0, 0, 1]], "B": [[]]}),
], ids=["VectorCode k=2.0", "VectorCode alpha=True", "make k=2.0",
        "make alpha=True", "encode scalar", "decode scalar symbols",
        "decode float node index", "decode bool node index",
        "code json scalar generator", "scheme json scalar map"])
def test_counts_and_scalars_are_value_errors(call):
    # Each of these once escaped as a TypeError from range() or list(),
    # or (alpha=True, a bool node index) built a code or decoded.
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call, arg", [
    (_encode, iter([1, 2])),
    (_encode, {1, 2}),
    (_decode, {0: iter([1]), 1: [2]}),
    (_code_json, [[x] for x in CODE.to_json_dict()["generator"]]),
    (_scheme_json, {"beta": [1, 2], "sigma": [0],
                    "A": [[[1, 0]], [1, 0, 0, 1]], "B": [[]]}),
], ids=["encode iterator", "encode set", "decode iterator symbols",
        "code json nested entries", "scheme json nested map"])
def test_only_sequences_of_the_documented_shape_are_read(call, arg):
    # Messages and symbols are sequences or arrays, as Matrix rows are:
    # a one-shot iterator or an unordered set is refused, and a JSON
    # entry list must be flat, not reshaped from any nesting.
    assert _outcome(call, arg) == repr(REFUSED)


def test_boundary_modules_bind_no_numpy():
    # numpy stays in linalg's read-only exports and gf's reference
    # kernels; the code and conversion modules work on Python ints.
    from convertbw import convertible, mds
    for mod in (mds, convertible):
        assert "np" not in vars(mod) and "numpy" not in vars(mod), mod.__name__


F7 = field(7)
ORACLE_P = SplitParams(2, 1, 1, 1, 1, 5)     # ki = 2, ri = 1, alpha = 1
ORACLE = ensemble_from_codes(ORACLE_P, *canonical_codes(ORACLE_P))
X0, X1, X9 = info_node(0), info_node(1), info_node(9)
ONE = Matrix(F5, [[1]])


def _wrong_block_shape():
    blocks = {v: ORACLE.block(v) for v in ORACLE.all_nodes()}
    blocks[X0] = Matrix(F5, [[1, 0, 0]])
    LinearEnsemble(ORACLE_P, F5, blocks)


def _pair_over_two_fields():
    ensemble_from_codes(SplitParams(2, 1, 1, 1), make_systematic_mds(3, 2, 1, F5),
                        make_systematic_mds(2, 1, 1, F7))


def _non_mds_pair():
    # Systematic, but the parity node stores nothing.
    silent = VectorCode(3, 2, 1, F5, Matrix(F5, [[1, 0, 0], [0, 1, 0]]))
    ensemble_from_codes(ORACLE_P, silent, make_systematic_mds(2, 1, 1, F5))


# (what, call, the error message it raises, as a regex)
REFUSALS = [
    ("scheme map with cols != alpha",
     lambda: ConversionScheme(SCHEME_P, [Matrix(F5, [[1]])] * 3),
     r"download map has 1 columns, expected 2"),
    ("scheme map with more than alpha rows",
     lambda: ConversionScheme(SCHEME_P, [Matrix(F5, [[1, 0], [0, 1], [0, 0]])] * 3),
     r"download map cannot exceed alpha rows"),
    ("ensemble block of the wrong shape", _wrong_block_shape,
     r"block for NodeId\(kind='info', index=0\) has shape \(1, 3\)"),
    ("code pair over two fields", _pair_over_two_fields,
     r"initial and final codes use different fields"),
    ("non-MDS code pair", _non_mds_pair,
     r"code pair does not satisfy the MDS property"),
    ("oracle map with cols != alpha",
     lambda: check_mi_bound(ORACLE, {X0: Matrix(F5, [[1, 0]])}, {X1: ONE}, [], []),
     r"map for NodeId\(kind='info', index=0\) has 2 columns, expected alpha"),
    ("mi bound on overlapping sets",
     lambda: check_mi_bound(ORACLE, {X0: ONE}, {X0: ONE}, [], []),
     r"node sets A and B must be disjoint"),
    ("mi bound with D1 outside A",
     lambda: check_mi_bound(ORACLE, {X0: ONE}, {X1: ONE}, [X1], []),
     r"need D1 within A and D2 within B"),
    ("min-avg with a > b",
     lambda: check_min_avg(ORACLE, [(X0, ONE), (X1, ONE)], 3),
     r"need 0 <= a <= b, got a=3, b=2"),
    ("corollary 1 with b1 + b2 != ri",
     lambda: corollary1_holds(ORACLE, {}, 0, [], [X0], 0, 0),
     r"inadmissible \(S1, S2, b1, b2\) split"),
    ("corollary 2 with |S| < ri",
     lambda: corollary2_holds(ORACLE, {}, 0, []),
     r"S must have at least ri nodes"),
    ("cond-entropy split past the last codeword",
     lambda: check_cond_entropy_final(ORACLE, {}, [2]),
     r"codeword index out of range"),
    ("mi bound with a map for an unknown node",
     lambda: check_mi_bound(ORACLE, {X9: ONE}, {X1: ONE}, [], []),
     r"map for NodeId\(kind='info', index=9\), a node the ensemble does not have"),
    ("min-avg with a map for an unknown node",
     lambda: check_min_avg(ORACLE, [(X9, ONE), (X1, ONE)], 1),
     r"map for NodeId\(kind='info', index=9\), a node the ensemble does not have"),
    ("cond-entropy split with a data node unmapped",
     lambda: check_cond_entropy_final(ORACLE, {X0: ONE}, [1]),
     r"no map for NodeId\(kind='info', index=1\)"),
    ("mapped rows of a node without a map",
     lambda: mapped_rows(ORACLE, {X0: ONE}, [X0, X1]),
     r"no map for NodeId\(kind='info', index=1\)"),
    ("matmul across fields", lambda: Matrix(F5, [[1]]) @ Matrix(F7, [[1]]),
     r"matrix product across different fields"),
    ("vstack of nothing", lambda: vstack([]),
     r"vstack needs at least one matrix"),
    ("vstack across fields", lambda: vstack([Matrix(F5, [[1]]), Matrix(F7, [[1]])]),
     r"vstack across different fields"),
    ("vstack across column counts",
     lambda: vstack([Matrix(F5, [[1]]), Matrix(F5, [[1, 2]])]),
     r"column mismatch: 2 != 1"),
    ("inverse of a non-square matrix", lambda: mat_inverse(Matrix(F5, [[1, 0]])),
     r"cannot invert non-square matrix \(1, 2\)"),
    ("generator of the wrong shape",
     lambda: VectorCode(3, 2, 1, F5, Matrix(F5, [[1, 0], [0, 1]])),
     r"generator shape \(2, 2\) != \(2, 3\)"),
    ("node_cols out of range", lambda: CODE.node_cols(4),
     r"node index 4 out of range \[0, 4\)"),
    ("PrimeField of a prime power", lambda: PrimeField(9),
     r"field order 9 is not prime"),
    ("code json without q",
     lambda: VectorCode.from_json_dict(
         {k: v for k, v in CODE.to_json_dict().items() if k != "q"}),
     r"code JSON must be an object with a 'q' entry"),
    ("code json as a list", lambda: VectorCode.from_json_dict([1, 2]),
     r"code JSON must be an object with a 'q' entry"),
    ("scheme json without A",
     lambda: ConversionScheme.from_json_dict(
         SCHEME_P, {"beta": [1, 2], "sigma": [0], "B": [[]]}),
     r"scheme JSON must be an object with a list under 'A'"),
    ("scheme json with a scalar A",
     lambda: ConversionScheme.from_json_dict(
         SCHEME_P, {"beta": [1, 2], "sigma": [0], "A": 3, "B": [[]]}),
     r"scheme JSON must be an object with a list under 'A'"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in REFUSALS],
                         ids=[c[0] for c in REFUSALS])
def test_argument_refusals_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
