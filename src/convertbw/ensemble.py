"""Rank-based entropy oracle for split-mode conversion instances.

Every storage node's contents are linear functions of one uniform
message vector, held as an alpha x (ki*alpha) coefficient block.  For
such ensembles Shannon entropy in q-ary symbols equals the rank of the
stacked coefficient rows, so entropies, conditional entropies, and
mutual informations are exact integers.

The check_* functions mechanically verify the structural facts these
instances must satisfy (parity independence, codeword independence,
stability, the download-function inequalities).  They are only ever
evaluated on linear node contents and linear download maps.

A download map enters as a Matrix with alpha columns, through a public
entry (check_mi_bound, check_min_avg, check_cond_entropy_final,
mapped_rows, search.check_scheme_inequalities), which checks its node,
field and column count once (_map_rows) and passes its coefficient rows
(Matrix.data) inward: inside, a map is those rows, and the cores
(_mi_bound, _min_avg, _cond_entropy_final) and the verify suite's
random trials take rows only.  Each block packs its rows once
(Matrix.packed); the ensemble keeps them as ints (LinearEnsemble.packed)
for the ranks (RowPacking.insert) and as bytes for LinearEnsemble.times,
through which every check maps its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .gf import Field, RowPacking, as_count
from .linalg import Matrix, randint, shuffle
from .mds import VectorCode, verify_mds
from .params import SplitParams

INFO = "info"
INITIAL_PARITY = "initial-parity"
FINAL_PARITY = "final-parity"

# Node kinds in canonical order; a NodeId stores its kind's position.
_KINDS = (INFO, INITIAL_PARITY, FINAL_PARITY)


class IndependencePreconditionError(Exception):
    """An inequality's independence precondition does not hold, so the
    inequality itself was not evaluated."""


class NodeId(tuple):
    """A storage node: kind plus 0-based index within its kind.

    Final parities are indexed globally in [0, lf*rf); codeword t owns
    indices [t*rf, (t+1)*rf).

    A NodeId is the tuple (kind rank, index), so nodes compare, hash and
    sort as plain tuples.  The canonical order is every info node, then
    every initial parity, then every final parity, each kind by index.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> NodeId:
        if kind not in _KINDS:
            raise ValueError(f"unknown node kind {kind!r}")
        index = as_count(index, "node index")
        return tuple.__new__(cls, (_KINDS.index(kind), index))

    def __getnewargs__(self) -> tuple[str, int]:
        return (self.kind, self.index)

    @property
    def kind(self) -> str:
        return _KINDS[self[0]]

    @property
    def index(self) -> int:
        return self[1]

    def __repr__(self) -> str:
        return f"NodeId(kind={self.kind!r}, index={self.index!r})"


def info_node(j: int) -> NodeId:
    return NodeId(INFO, j)


def initial_parity_node(i: int) -> NodeId:
    return NodeId(INITIAL_PARITY, i)


def final_parity_node(g: int) -> NodeId:
    return NodeId(FINAL_PARITY, g)


@lru_cache(maxsize=128)
def _node_ids(p: SplitParams) -> tuple[tuple[NodeId, ...], ...]:
    """(info nodes, initial parities, final parities) of p, built once
    per params and shared by every ensemble at p."""
    return (tuple(info_node(j) for j in range(p.ki)),
            tuple(initial_parity_node(i) for i in range(p.ri)),
            tuple(final_parity_node(g) for g in range(p.lf * p.rf)))


class LinearEnsemble:
    """All node random variables of one conversion instance.

    initial_nodes lists the initial codeword in node order (info nodes,
    then initial parities): node i there is node i of the initial code
    and is read through a ConversionScheme's maps[i].  Every block is an
    alpha x message_dim Matrix over fld; its rows, packed once by the
    block (Matrix.packed), serve as bytes for times and as ints for
    packed, which the entropies, the download checks and the search
    rank.
    """

    def __init__(self, params: SplitParams, fld: Field,
                 blocks: Mapping[NodeId, Matrix]):
        self.params = params
        self.field = fld
        self._blocks = dict(blocks)
        self._entropy_cache: dict[frozenset, int] = {}
        p = params
        self.info_nodes, self.initial_parities, self.final_parities = _node_ids(p)
        self.initial_nodes = self.info_nodes + self.initial_parities
        for v in self.all_nodes():
            b = self._blocks[v]
            if b.shape != (p.alpha, p.message_dim):
                raise ValueError(f"block for {v} has shape {b.shape}")
            if b.field != fld:
                raise ValueError(f"block for {v} is over {b.field!r}, not {fld!r}")
        self.packing = fld.packing(p.message_dim)
        self._packed, self._row_bytes = {}, {}
        for v, b in self._blocks.items():
            _, self._packed[v], self._row_bytes[v] = b.packed()

    def block(self, v: NodeId) -> Matrix:
        return self._blocks[v]

    def packed(self, v: NodeId) -> tuple[int, ...]:
        """Block v's rows, packed."""
        return self._packed[v]

    @cached_property
    def new_parity_echelon(self) -> tuple[int, ...]:
        """The new parities' rows in echelon form, packed: reduced on
        first use and kept for the search's targets and the audits'."""
        return tuple(self.packing.modulo([], [
            r for v in self.final_parities for r in self._packed[v]]))

    def times(self, coeffs, v: NodeId) -> list[int]:
        """The rows of coeffs @ block(v), packed: coeffs is a map's
        coefficient rows (Matrix.data), each alpha field elements."""
        pk, rows = self.packing, self._row_bytes[v]
        return [pk.combine(c, rows) for c in coeffs]

    def all_nodes(self) -> tuple[NodeId, ...]:
        return self.initial_nodes + self.final_parities

    def info_of_codeword(self, t: int) -> tuple[NodeId, ...]:
        p = self.params
        return self.info_nodes[t * p.kf:(t + 1) * p.kf]

    def final_parities_of_codeword(self, t: int) -> tuple[NodeId, ...]:
        p = self.params
        return self.final_parities[t * p.rf:(t + 1) * p.rf]

    def stack(self, nodes: Iterable[NodeId]) -> Matrix:
        """Stacked coefficient blocks of a node set, in canonical order
        (none: 0 rows)."""
        return Matrix._of_rows(self.field, [
            r for v in sorted(set(nodes)) for r in self._blocks[v].data],
            self.params.message_dim)


def _check_code_pair(p: SplitParams, initial: VectorCode,
                     final: VectorCode) -> None:
    """Both codes fit p and share a field, of order p.q when p has one."""
    for side, code, n, k in (("initial", initial, p.ni, p.ki),
                             ("final", final, p.nf, p.kf)):
        if (code.n, code.k, code.alpha) != (n, k, p.alpha):
            raise ValueError(
                f"{side} code is [{code.n},{code.k},{code.alpha}], "
                f"expected [{n},{k},{p.alpha}]")
    if initial.field != final.field:
        raise ValueError("initial and final codes use different fields")
    if p.q is not None and initial.field.q != p.q:
        raise ValueError(f"codes are over {initial.field!r}, parameters "
                         f"have q={p.q}")


def final_parity_rows(p: SplitParams, final: VectorCode) -> Matrix:
    """All lf*rf final parity blocks stacked in global index order, as
    linear functions of the initial message: an lf*rf*alpha x ki*alpha
    Matrix.

    The t-th final codeword is embedded on message node coordinates
    [t*kf, (t+1)*kf), so the rows are block diagonal.
    """
    w = p.kf * p.alpha
    per_codeword = [r for g in range(p.kf, p.nf) for r in final.node_block(g).data]
    return Matrix._of_rows(final.field, [
        (0,) * (t * w) + r + (0,) * ((p.lf - 1 - t) * w)
        for t in range(p.lf) for r in per_codeword], p.message_dim)


def ensemble_from_codes(params: SplitParams, initial: VectorCode,
                        final: VectorCode) -> LinearEnsemble:
    """Assemble the node-variable model from an MDS initial/final code
    pair; final parities are embedded by final_parity_rows."""
    p = params
    _check_code_pair(p, initial, final)
    if not (verify_mds(initial) and verify_mds(final)):
        raise ValueError("code pair does not satisfy the MDS property")
    fld = initial.field
    a = p.alpha
    infos, parities, finals = _node_ids(p)
    # The code is systematic, so data node j's block is message block j.
    blocks = {v: initial.node_block(i) for i, v in enumerate(infos + parities)}
    targets = final_parity_rows(p, final).data
    for g, v in enumerate(finals):
        blocks[v] = Matrix._of_rows(fld, targets[g * a:(g + 1) * a], p.message_dim)
    return LinearEnsemble(p, fld, blocks)


def entropy(ens: LinearEnsemble, nodes: Iterable[NodeId]) -> int:
    """Joint entropy in q-ary symbols (= rank of the stacked rows),
    cached per node set; a miss ranks the nodes' packed rows."""
    key = frozenset(nodes)
    val = ens._entropy_cache.get(key)
    if val is None:
        rows = ens._packed
        val = ens._entropy_cache[key] = len(ens.packing.insert(
            [], [r for v in key for r in rows[v]]))
    return val


def cond_entropy(ens: LinearEnsemble, a: Iterable[NodeId],
                 b: Iterable[NodeId]) -> int:
    """H(A | B) = H(A, B) - H(B), always nonnegative."""
    a = list(a)
    b = list(b)
    return entropy(ens, a + b) - entropy(ens, b)


def mutual_info(ens: LinearEnsemble, a: Iterable[NodeId],
                b: Iterable[NodeId]) -> int:
    """I(A ; B) = H(A) + H(B) - H(A, B), always nonnegative."""
    a = list(a)
    b = list(b)
    return entropy(ens, a) + entropy(ens, b) - entropy(ens, a + b)


def _map_rows(ens: LinearEnsemble,
              maps: Mapping[NodeId, Matrix]) -> dict[NodeId, tuple]:
    """Each map's coefficient rows (Matrix.data), by node.  Every Matrix
    download map the oracle takes is checked here, once: it must be for
    a node of the ensemble, over its field and have alpha columns."""
    fld, alpha = ens.field, ens.params.alpha
    out = {}
    for v, m in maps.items():
        if v not in ens._blocks:
            raise ValueError(f"map for {v}, a node the ensemble does not have")
        if m.cols != alpha:
            raise ValueError(f"map for {v} has {m.cols} columns, expected alpha")
        if m.field is not fld and m.field != fld:
            raise ValueError(f"map for {v} is over {m.field!r}, not {fld!r}")
        out[v] = m.data
    return out


def _need_maps(coeffs: Mapping[NodeId, tuple], nodes: Iterable[NodeId]) -> None:
    """Refuse the first of nodes that has no map in coeffs."""
    for v in nodes:
        if v not in coeffs:
            raise ValueError(f"no map for {v}")


def mapped_rows(ens: LinearEnsemble, maps: Mapping[NodeId, Matrix],
                nodes: Iterable[NodeId]) -> Matrix:
    """Download-function output rows for the given nodes: each node v
    contributes maps[v] @ block(v)."""
    coeffs = _map_rows(ens, maps)
    nodes = sorted(set(nodes))
    _need_maps(coeffs, nodes)
    unpack = ens.packing.unpack
    return Matrix._of_rows(ens.field, [
        unpack(r) for v in nodes for r in ens.times(coeffs[v], v)],
        ens.params.message_dim)


@dataclass
class CheckReport:
    check: str
    instance: dict
    failures: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        d = {"check": self.check, "instance-params": self.instance,
             "status": "pass" if self.ok else "fail"}
        if self.failures:
            d["counterexample"] = self.failures[:10]
        return d


def _nodes_independent(ens: LinearEnsemble, nodes: Iterable[NodeId]) -> bool:
    """Rank additivity: the joint entropy equals the sum of the parts."""
    nodes = set(nodes)
    total = sum(entropy(ens, [v]) for v in nodes)
    return entropy(ens, nodes) == total


def check_prop_parity_iid(ens: LinearEnsemble) -> CheckReport:
    """Every subset of at most ki initial parities is independent and
    uniform: its joint entropy is exactly |subset| * alpha."""
    p = ens.params
    rep = CheckReport("parity-iid", p.as_dict())
    limit = min(p.ri, p.ki)
    for size in range(limit + 1):
        for subset in combinations(ens.initial_parities, size):
            got = entropy(ens, subset)
            want = size * p.alpha
            if got != want:
                rep.failures.append({
                    "subset": [v.index for v in subset],
                    "expected": want, "actual": got})
    return rep


def _h_rows(pk: RowPacking, rows: Mapping[NodeId, list], nodes) -> int:
    """Rank of the union of the nodes' mapped rows."""
    return len(pk.insert([], [r for v in nodes for r in rows[v]]))


def _min_h_rows(pk: RowPacking, rows, pool, size) -> int:
    if size == 0:
        return 0
    return min(_h_rows(pk, rows, c) for c in combinations(pool, size))


def _rows_mi(pk: RowPacking, rows: Mapping[NodeId, list], a, b) -> int:
    """I(a ; b) of two node sets' mapped rows: H(a) + H(b) - H(a, b)."""
    basis = pk.insert([], [r for v in a for r in rows[v]])
    h_a = len(basis)
    joint = len(pk.insert(basis, [r for v in b for r in rows[v]]))
    return h_a + _h_rows(pk, rows, b) - joint


def check_mi_bound(ens: LinearEnsemble, f_a: Mapping[NodeId, Matrix],
                   f_b: Mapping[NodeId, Matrix],
                   d1: Iterable[NodeId], d2: Iterable[NodeId]) -> bool:
    """I(f_A(Z_A); f_B(Z_B)) <= H(f_D1) + H(f_D2) for disjoint node sets
    A, B with D1 <= A, D2 <= B, provided the nodes outside D1 u D2 are
    independent (checked first; failure raises, it is not a violation).
    """
    return _mi_bound(ens, _map_rows(ens, f_a), _map_rows(ens, f_b), d1, d2)


def _mi_bound(ens: LinearEnsemble, f_a: Mapping[NodeId, tuple],
              f_b: Mapping[NodeId, tuple],
              d1: Iterable[NodeId], d2: Iterable[NodeId]) -> bool:
    """check_mi_bound on maps given as coefficient rows."""
    a_nodes = set(f_a)
    b_nodes = set(f_b)
    d1 = set(d1)
    d2 = set(d2)
    if a_nodes & b_nodes:
        raise ValueError("node sets A and B must be disjoint")
    if not d1 <= a_nodes or not d2 <= b_nodes:
        raise ValueError("need D1 within A and D2 within B")
    rest = (a_nodes | b_nodes) - (d1 | d2)
    if not _nodes_independent(ens, rest):
        raise IndependencePreconditionError(
            "nodes outside D1 u D2 are not independent")
    rows = {v: ens.times(m, v) for v, m in {**f_a, **f_b}.items()}
    pk = ens.packing
    mi = _rows_mi(pk, rows, a_nodes, b_nodes)
    return mi <= _h_rows(pk, rows, d1) + _h_rows(pk, rows, d2)


def check_min_avg(ens: LinearEnsemble,
                  family: Sequence[tuple[NodeId, Matrix]], a: int) -> bool:
    """min over a-subsets of H(f_A(Z_A)) <= (a/b) * sum_i H(f_i(Z_i)),
    b = len(family), provided every a-subset of the Z_i is independent."""
    if len({v for v, _ in family}) != len(family):
        raise ValueError("family must list b distinct nodes")
    return _min_avg(ens, _map_rows(ens, dict(family)), a)


def _min_avg(ens: LinearEnsemble, family: Mapping[NodeId, tuple], a: int) -> bool:
    """check_min_avg on the family's maps as coefficient rows, by node
    in family order."""
    b = len(family)
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    for subset in combinations(family, a):
        if not _nodes_independent(ens, subset):
            raise IndependencePreconditionError(
                f"nodes {[f'{v.kind}:{v.index}' for v in subset]} are dependent")
    rows = {v: ens.times(m, v) for v, m in family.items()}
    singles = sum(_h_rows(ens.packing, rows, [v]) for v in rows)
    best = _min_h_rows(ens.packing, rows, list(rows), a)
    return best * b <= a * singles


def corollary1_holds(ens: LinearEnsemble, rows: Mapping[NodeId, list], mi: int,
                     s1: Sequence[NodeId], s2: Sequence[NodeId],
                     b1: int, b2: int) -> bool:
    """MI <= (min size-b1 parity H + min size-b2 info H)
          <= (b1/|S1|) sum of parity H + (b2/|S2|) joint info H,
    for b1 + b2 = ri, b1 <= |S1|, b2 <= |S2|.  rows holds each
    initial-code node's mapped rows (ens.times) and mi is I(parity
    downloads ; info downloads) of them (_rows_mi)."""
    p = ens.params
    if b1 + b2 != p.ri or b1 > len(s1) or b2 > len(s2):
        raise ValueError("inadmissible (S1, S2, b1, b2) split")
    pk = ens.packing
    minsum = _min_h_rows(pk, rows, s1, b1) + _min_h_rows(pk, rows, s2, b2)
    # minsum <= b1/n1 * sum1 + b2/n2 * h2, times n1 * n2; an empty S
    # forces its b to 0, so its term is 0 and its size counts as 1.
    n1, n2 = len(s1) or 1, len(s2) or 1
    sum1 = sum(_h_rows(pk, rows, [v]) for v in s1)
    h2 = _h_rows(pk, rows, s2)
    return mi <= minsum and minsum * n1 * n2 <= b1 * sum1 * n2 + b2 * h2 * n1


def corollary2_holds(ens: LinearEnsemble, rows: Mapping[NodeId, list], mi: int,
                     s: Sequence[NodeId]) -> bool:
    """MI <= min size-ri info H over S <= (ri/|S|) H(info downloads of S),
    for |S| >= ri.  rows and mi as for corollary1_holds."""
    p = ens.params
    if len(s) < p.ri:
        raise ValueError("S must have at least ri nodes")
    mn = _min_h_rows(ens.packing, rows, s, p.ri)
    return mi <= mn and mn * len(s) <= p.ri * _h_rows(ens.packing, rows, s)


def random_corollary1_tuple(ens: LinearEnsemble, rng):
    """A random admissible (S1, S2, b1, b2) with b1 + b2 = ri."""
    p = ens.params
    while True:
        s1 = [v for v in ens.initial_parities if rng.random() < 0.5]
        b1 = randint(rng, 0, min(p.ri, len(s1)))
        b2 = p.ri - b1
        if b2 > p.ki:
            continue
        pool = list(ens.info_nodes)
        shuffle(rng, pool)
        n2 = randint(rng, b2, p.ki)
        s2 = sorted(pool[:n2])
        return s1, s2, b1, b2


def random_corollary2_set(ens: LinearEnsemble, rng):
    """A random admissible S (|S| >= ri), or None when ri > ki leaves
    no admissible choice."""
    p = ens.params
    if p.ri > p.ki:
        return None
    pool = list(ens.info_nodes)
    shuffle(rng, pool)
    n = randint(rng, p.ri, p.ki)
    return sorted(pool[:n])


def check_stability(ens: LinearEnsemble) -> CheckReport:
    """Initial parities carry no information about any single final
    codeword (MI zero), while each final parity is fully determined by
    its own codeword (MI alpha); hence no initial parity block can equal
    any final parity block as a row space."""
    p = ens.params
    rep = CheckReport("stability", p.as_dict())
    for t in range(p.lf):
        xs = list(ens.info_of_codeword(t))
        for kind, parities, expected in (
                ("initial-parity-leak", ens.initial_parities, 0),
                ("final-parity-mi", ens.final_parities_of_codeword(t), p.alpha)):
            for y in parities:
                got = mutual_info(ens, xs, [y])
                if got != expected:
                    rep.failures.append({
                        "kind": kind, "codeword": t,
                        "parity": y.index, "mi": got, "expected": expected})
    reduced = ens.packing.reduced
    finals = [(yf, reduced(ens.packed(yf))) for yf in ens.final_parities]
    for yi in ens.initial_parities:
        bi = reduced(ens.packed(yi))
        for yf, bf in finals:
            if bi == bf:
                rep.failures.append({
                    "kind": "parity-row-space-coincidence",
                    "initial": yi.index, "final": yf.index})
    return rep


def check_cond_entropy_final(ens: LinearEnsemble, maps: Mapping[NodeId, Matrix],
                             s_set: Iterable[int]) -> bool:
    """H(final parities of S | info downloads of S) splits into the
    per-codeword sum, for any codeword subset S.  Each info node of S is
    mapped once; each term ranks those rows with the final-parity rows."""
    coeffs, s = _map_rows(ens, maps), list(s_set)
    # A codeword index out of range is the core's refusal.
    _need_maps(coeffs, [v for t in s if 0 <= t < ens.params.lf
                        for v in ens.info_of_codeword(t)])
    return _cond_entropy_final(ens, coeffs, s)


def _cond_entropy_final(ens: LinearEnsemble, maps: Mapping[NodeId, tuple],
                        s_set: Iterable[int]) -> bool:
    """check_cond_entropy_final on maps given as coefficient rows."""
    p = ens.params
    s = sorted(set(s_set))
    if any(not 0 <= t < p.lf for t in s):
        raise ValueError("codeword index out of range")
    pk = ens.packing
    rows = {v: ens.times(maps[v], v) for t in s for v in ens.info_of_codeword(t)}

    def lhs_for(ts: Sequence[int]) -> int:
        basis = pk.insert([], [
            r for t in ts for v in ens.info_of_codeword(t) for r in rows[v]])
        h_v = len(basis)
        return len(pk.insert(basis, [
            r for t in ts for v in ens.final_parities_of_codeword(t)
            for r in ens.packed(v)])) - h_v

    return lhs_for(s) == sum(lhs_for([t]) for t in s)


def check_mds_reconstruction(ens: LinearEnsemble) -> CheckReport:
    """Any ki nodes of the initial codeword determine all data, and any
    kf nodes of a final codeword determine that codeword's data."""
    p = ens.params
    rep = CheckReport("mds-reconstruction", p.as_dict())
    sides = [({"side": "initial"}, ens.info_nodes, ens.initial_parities)] + [
        ({"side": "final", "codeword": t}, ens.info_of_codeword(t),
         ens.final_parities_of_codeword(t)) for t in range(p.lf)]
    for where, infos, parities in sides:
        xs = list(infos)
        for na in range(min(len(parities), len(xs)) + 1):
            for aa in combinations(parities, na):
                for bb in combinations(xs, len(xs) - na):
                    if cond_entropy(ens, xs, list(aa) + list(bb)) != 0:
                        rep.failures.append({
                            **where, "parities": [v.index for v in aa],
                            "infos": [v.index for v in bb]})
    return rep


def check_storage_axioms(ens: LinearEnsemble) -> CheckReport:
    """Each info node has entropy exactly alpha; no node exceeds alpha."""
    p = ens.params
    rep = CheckReport("storage-axioms", p.as_dict())
    for v in ens.all_nodes():
        h = entropy(ens, [v])
        if h > p.alpha or (v.kind == INFO and h != p.alpha):
            rep.failures.append({"node": f"{v.kind}:{v.index}", "entropy": h})
    return rep


def check_joint_entropy(ens: LinearEnsemble) -> CheckReport:
    """The initial codeword as a whole stores exactly ki*alpha symbols
    of entropy (parities add none)."""
    p = ens.params
    rep = CheckReport("initial-joint-entropy", p.as_dict())
    joint = entropy(ens, ens.initial_nodes)
    if joint != p.ki * p.alpha:
        rep.failures.append({"entropy": joint, "expected": p.ki * p.alpha})
    return rep
