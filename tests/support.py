"""Builders, reference formulas and exhaustive checks that only the
tests use, kept out of convertbw."""

from fractions import Fraction
from itertools import combinations

from convertbw.bounds import _ceil_div, entropy_V_lb
from convertbw.convertible import ConversionScheme
from convertbw.ensemble import (CheckReport, _map_rows, _rows_mi,
                                corollary1_holds, corollary2_holds)
from convertbw.gf import BinaryField
from convertbw.linalg import Matrix, rref


def empty_scheme(params):
    """The scheme that downloads nothing from any node."""
    empty = Matrix.zeros(params.field(), 0, params.alpha)
    return ConversionScheme(params, (empty,) * params.ni)


def from_maps(params, maps):
    """The scheme of arbitrary (possibly rank-deficient) maps, each
    replaced by the canonical basis of its row space."""
    return ConversionScheme(params, tuple(rref(m) for m in maps))


def sub(f, a, b):
    """a - b in the field f, elementwise on arrays of elements too."""
    return a ^ b if isinstance(f, BinaryField) else (a - b) % f.q


def add(f, a, b):
    """a + b in the field f, elementwise on arrays as sub is."""
    return sub(f, a, sub(f, 0, b))


def default_theta1(p):
    """The theta1 choice used by the main bound."""
    return _ceil_div(p.ri - (p.rf - 1), p.kf)


def best_entropy_V_lb(p):
    """(argmax, max) of entropy_V_lb over theta1 in [1, lf]."""
    best = (1, entropy_V_lb(p, 1))
    for t1 in range(2, p.lf + 1):
        v = entropy_V_lb(p, t1)
        if v > best[1]:
            best = (t1, v)
    return best


def reference_access_bound(ki, ri, kf, rf, li, lf):
    """Read access (node-count) lower bound for general conversions."""
    if ki == kf:
        raise ValueError("access bound needs ki != kf")
    if ri < rf or rf >= min(ki, kf):
        return li * ki
    return li * rf + (li % lf) * (ki - max(kf % ki, rf))


def reference_merge_bound(ki, ri, rf, li, alpha):
    """Read bandwidth lower bound when li >= 2 initial codewords merge
    into one final codeword."""
    if li < 2:
        raise ValueError(f"merge bound needs li >= 2, got {li}")
    if ri >= rf or ki <= rf:
        return Fraction(li * alpha * min(ki, rf))
    return Fraction(li * alpha) * (ri + ki * (1 - Fraction(ri, rf)))


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def check_corollaries(ens, maps):
    """Both chained download-inequality checks over the initial-code
    nodes, for every admissible tuple.  Each node is mapped once; a node
    missing from maps downloads nothing."""
    p = ens.params
    nodes = ens.initial_nodes
    zero = Matrix.zeros(ens.field, 0, p.alpha)
    coeffs = _map_rows(ens, {v: maps.get(v, zero) for v in nodes})
    rows = {v: ens.times(coeffs[v], v) for v in nodes}
    rep = CheckReport("download-mi-chains", p.as_dict())
    mi = _rows_mi(ens.packing, rows, ens.initial_parities, ens.info_nodes)
    for n1 in range(p.ri + 1):
        for s1 in combinations(ens.initial_parities, n1):
            for b1 in range(0, min(p.ri, n1) + 1):
                b2 = p.ri - b1
                for n2 in range(b2, p.ki + 1):
                    for s2 in combinations(ens.info_nodes, n2):
                        if not corollary1_holds(ens, rows, mi, s1, s2, b1, b2):
                            rep.failures.append({
                                "corollary": 1,
                                "S1": [v.index for v in s1],
                                "S2": [v.index for v in s2],
                                "b1": b1, "b2": b2, "mi": mi})
    for n in range(p.ri, p.ki + 1):
        for s in combinations(ens.info_nodes, n):
            if not corollary2_holds(ens, rows, mi, s):
                rep.failures.append({
                    "corollary": 2, "S": [v.index for v in s], "mi": mi})
    return rep
