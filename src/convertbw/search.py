"""Exhaustive search over linear conversion schemes.

Schemes are enumerated as one canonical subspace per node (the row
space of its download map), visited in nondecreasing order of total
downloaded dimension; within a dimension level, profiles and subspace
indices are visited lexicographically.  The first feasible scheme found
is therefore a global read-cost minimizer among linear schemes, and the
lexicographically smallest such minimizer.

A download profile (the dimension read from each node) is skipped whole
when a cut table shows by rank alone that it cannot cover the new
parities (see _CutTable); within a profile the fixed nodes join once
and only the free ones are walked, cutting branches by a rank bound (see
min_bandwidth_exhaustive).  Both keep the new parities modulo what is
downloaded as a residual in echelon form, the rows that join a copy
of the downloaded basis (RowPacking.modulo), so its row count is its
rank.  At a tight node, where that rank equals what the remaining free
slots can add, one solve (RowPacking.relations) gives the only menu
entries whose children can pass the bound, and the rest are skipped by
count, as the bound would skip them.  `visited` is a position in the
enumeration order, cut profiles and branches included, not a count of
evaluations, so neither it nor the order changes with what is skipped.

What depends on the parameters alone is built once and shared by every
code pair searched: the subspace menus (linalg.enumerate_subspaces),
the index of each menu entry (linalg.subspace_index), the entries
inside a span (_subspaces_within) and one level table per download
total (_level: each profile with its scheme count, the sets of slots
the cut table tests and the walk's free slots and counts), in bounded
caches of immutable values.  certify_bound takes the canonical pair
and the default scheme from the bounded caches of convertbw.convertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from operator import gt
from typing import Callable

from . import bounds
from .convertible import (ConversionScheme, InfeasibleSchemeError,
                          _check_scheme_params, canonical_codes, default_scheme)
from .ensemble import LinearEnsemble, _map_rows, ensemble_from_codes
from .gf import as_count
from .linalg import (Matrix, enumerate_subspaces, random_invertible, rref,
                     subspace_index)
from .mds import VectorCode, verify_mds
from .params import SplitParams, rational_json


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one scheme search."""

    max_total_dim: int | None = None   # cap on downloaded rows (None: ki*alpha)
    max_visits: int = 10_000_000       # cap on schemes in enumeration order

    def __post_init__(self) -> None:
        as_count(self.max_visits, "max_visits", 1)
        if self.max_total_dim is not None:
            as_count(self.max_total_dim, "max_total_dim")


@dataclass
class SearchOutcome:
    """Result of min_bandwidth_exhaustive."""

    status: str                     # "found", "max-visits" or "max-total-dim"
    gamma: int | None = None
    scheme: ConversionScheme | None = None
    visited: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"


class _CutTable(dict):
    """Rank cuts on download profiles (the dimension downloaded from
    each slot): need(A) by the bit mask A of a set of slots, computed
    on the first lookup of A (__missing__).

    need(A) is the rank of the target rows modulo the span of the full
    blocks of the slots outside A.  Whatever a scheme downloads from
    those slots lies in that span, so the slots of A must supply the
    rest: a profile whose dimensions sum to less than need(A) over A has
    no feasible scheme.  This is a rank fact about the ensemble alone.

    Residuals are kept by complement mask c (the slots outside A): c
    extends the echelon basis of c minus its top slot by that slot's
    alpha block rows, and that parent's residual target rows taken
    modulo the block rows that joined (RowPacking.modulo) are c's
    residual: zero at every pivot of c's basis and in echelon form, so
    their count is the rank modulo its span.
    """

    def __init__(self, pk, blocks: list, targets: tuple):
        # blocks[s]: slot s's full block rows; targets: the echelon rows
        # of the targets; all packed (pk).
        self.pk = pk
        self.blocks = blocks
        self.full = (1 << len(blocks)) - 1
        # By complement mask: the echelon basis of its blocks (kept only
        # while the residual is nonempty, since a superset's residual is
        # then empty too) and the targets modulo that span, in echelon
        # form.
        self._basis = {0: []}
        self._residual = {0: targets}

    def _reduced(self, c: int) -> list:
        if c in self._residual:
            return self._residual[c]
        top = c.bit_length() - 1
        parent = c ^ (1 << top)
        res = self._reduced(parent)
        if res:
            pk, pbasis = self.pk, self._basis[parent]
            basis = pk.insert(list(pbasis), self.blocks[top])
            joined = basis[len(pbasis):]
            if joined:
                res = pk.modulo(joined, res)
            self._basis[c] = basis
        self._residual[c] = res
        return res

    def __missing__(self, a: int) -> int:
        need = self[a] = len(self._reduced(self.full ^ a))
        return need


@lru_cache(maxsize=256)   # every level of 15 points with 8 slots, alpha = 2
def _level(gamma: int, slots: int, alpha: int, sizes: tuple[int, ...]) -> tuple:
    """The profiles of download total gamma (slot tuples of dimensions
    in [0, alpha]) in lex order, as (profile, schemes, masks, sums,
    free, left, below): its scheme count, prod of sizes[d] (the
    subspaces of dimension d); the sets of slots the cut table tests it
    on, as bit masks, and its sums over them; its free slots (more than
    one subspace: 0 < d < alpha); per walk depth j, the rows free slots
    j.. may add and the schemes under one node."""
    # Lex order, slot by slot, keeping only the prefixes that the slots
    # after them can still fill up to gamma: (prefix, the rest of gamma).
    prefixes = [((), gamma)] if gamma <= slots * alpha else []
    for room in range((slots - 1) * alpha, -1, -alpha):
        prefixes = [(c + (d,), rest - d) for c, rest in prefixes
                    for d in range(max(0, rest - room), min(rest, alpha) + 1)]
    out = []
    for profile, _ in prefixes:
        free = tuple(s for s, d in enumerate(profile) if sizes[d] > 1)
        menu = [sizes[profile[s]] for s in free]
        # Only the sets A between the empty slots Z and the non-full slots
        # (Z with each subset of the free slots) are tried: adding an empty
        # slot to A keeps the sum and cannot lower need, and dropping a full
        # slot lowers the sum by alpha and need by at most alpha (one
        # block's rank).
        sets = [(sum(1 << s for s, d in enumerate(profile) if not d), 0)]
        for s in free:
            sets += [(a | 1 << s, t + profile[s]) for a, t in sets]
        masks, sums = zip(*sets)
        out.append((profile, math.prod(sizes[d] for d in profile), masks, sums, free,
                    tuple(sum(profile[s] for s in free[j:]) for j in range(len(free))),
                    tuple(math.prod(menu[j:]) for j in range(len(free)))))
    return tuple(out)


@lru_cache(maxsize=4096)
def _subspaces_within(alpha: int, fld, d: int, w: tuple) -> tuple[int, ...]:
    """The indices in enumerate_subspaces(alpha, fld, d), ascending, of
    the subspaces inside the span of w, a canonical basis (rref rows):
    each d-subspace of GF(q)^len(w) times w, looked up in
    linalg.subspace_index.  That is none when len(w) < d, w's own entry
    when len(w) = d, and every entry when w is the whole space."""
    if len(w) < d:
        return ()
    span = Matrix._of_rows(fld, w, alpha)
    index = subspace_index(alpha, fld, d)
    return tuple(sorted(index[rref(t @ span).data]
                        for t in enumerate_subspaces(len(w), fld, d)))


class _VisitCap(Exception):
    """The walk reached SearchBudget.max_visits."""


def min_bandwidth_exhaustive(ens: LinearEnsemble, budget: SearchBudget,
                             on_feasible: Callable[[ConversionScheme], None] | None = None
                             ) -> SearchOutcome:
    """Smallest feasible read cost over all canonical linear schemes.

    Completes whenever the budget allows reaching the always-feasible
    full-data-download level; a budget stop is reported distinctly and
    never as a nonexistence claim.

    A profile with a cut set A whose sum is below need(A) (_CutTable)
    holds no feasible scheme and is skipped whole.  The rest of a
    profile's counts come from the parameter-only level table (_level).

    In a profile, the fixed slots (dimension 0 or alpha: index 0 only)
    join once, the targets and free slots' menu rows are reduced modulo
    their rows (a menu entry on its first use), and only the free slots
    are walked, depth first in product order.  Each depth carries the
    echelon basis of the rows downloaded so far and the residual
    targets, zero at its pivots and in echelon form; a visit takes the
    residual modulo only the rows that joined (RowPacking.modulo), and a
    subtree is skipped when the residual has more rows, its rank, than
    the remaining free slots can add.

    A node is tight when the residual has exactly that many rows.  Each
    remaining free slot must then cut its rank by its dimension d, so a
    child passes the bound only if its subspace S lies in W, the x with
    x times the slot's block rows in span(fixed, basis, residual), and
    its d rows join the basis.  A tight node finds W by one solve
    (RowPacking.relations) and walks only the entries inside it, in
    index order (_subspaces_within).  Each other entry's child would have
    at least one residual row too many, so the bound would skip its
    subtree; the walk skips it by the same count at the same place,
    a run of such entries in one step.  A child that passes is tight in
    the same span, so the nodes of a tight chain share it and solve
    once per depth, and need no residual: at the last depth it is
    empty.

    Skipped profiles, subtrees and entries still count in `visited`,
    the position in the full enumeration order, so the order, every
    budget stop and the scheme found are those of the walk that tries
    every entry.
    """
    p = ens.params
    pk, fld, alpha = ens.packing, ens.field, p.alpha
    insert, modulo, relations = pk.insert, pk.modulo, pk.relations
    subspaces = [enumerate_subspaces(alpha, fld, d) for d in range(alpha + 1)]
    sizes = tuple(map(len, subspaces))
    # Slot s is node s of the initial codeword, its block rows blocks[s].
    nodes = ens.initial_nodes
    blocks = [ens.packed(v) for v in nodes]
    slots = len(nodes)
    # The echelon rows of the new parities: the walk's targets (same span).
    targets = ens.new_parity_echelon
    cap = p.ki * alpha
    if budget.max_total_dim is not None:
        cap = min(cap, budget.max_total_dim)
    visited = 0

    def skip(schemes):
        nonlocal visited
        if visited + schemes > budget.max_visits:
            visited = budget.max_visits
            raise _VisitCap
        visited += schemes

    def rows_of(depth, s, i):
        # The rows of free slot s's subspace i applied to its block,
        # modulo the fixed rows: made on first use and kept for the
        # profile in menus[depth].
        rows = menus[depth][i]
        if rows is None:
            rows = menus[depth][i] = modulo(fixed, ens.times(
                subspaces[profile[s]][i].data, nodes[s]))
        return rows

    def walk(depth, basis, residual, combo):
        # free, left and below come from the profile's level table
        # entry; combo holds index 0 at every fixed slot.
        if depth == len(menus):
            skip(1)
            return None if residual else combo
        if len(residual) > left[depth]:
            skip(below[depth])
            return None
        if len(residual) == left[depth]:
            # The residual rows, already in echelon form, become basis
            # entries as they are.
            return tight(depth, basis, combo, fixed + basis + insert([], residual),
                         [None] * len(menus))
        s = free[depth]
        for i in range(len(menus[depth])):
            new_basis = insert(list(basis), rows_of(depth, s, i))
            combo[s] = i
            found = walk(depth + 1, new_basis, modulo(new_basis[len(basis):], residual),
                         combo)
            if found is not None:
                return found
        return None

    def tight(depth, basis, combo, span, chain):
        # A node of a tight chain: span is the echelon basis of
        # span(fixed, basis, residual), the same at every node of the
        # chain, and chain[j] the entries at depth j inside w, the x
        # whose x times slot free[j]'s block lies in it (found on first
        # use).  The residual is not carried: at the last depth it is
        # empty.
        if depth == len(menus):
            skip(1)
            return combo
        s = free[depth]
        d = profile[s]
        entries = chain[depth]
        if entries is None:
            entries = chain[depth] = _subspaces_within(alpha, fld, d,
                                                       relations(span, blocks[s]))
        child = below[depth + 1] if depth + 1 < len(menus) else 1
        counted = 0
        for i in entries:
            if i > counted:
                skip((i - counted) * child)
            counted = i + 1
            new_basis = insert(list(basis), rows_of(depth, s, i))
            if len(new_basis) - len(basis) < d:
                skip(child)
                continue
            combo[s] = i
            found = tight(depth + 1, new_basis, combo, span, chain)
            if found is not None:
                return found
        if counted < len(menus[depth]):
            skip((len(menus[depth]) - counted) * child)
        return None

    need = _CutTable(pk, blocks, targets)
    # Any feasible stack must span the target rows, so levels below the
    # target rank cannot be feasible and are skipped wholesale.
    try:
        for gamma in range(len(targets), cap + 1):
            for profile, schemes, masks, sums, free, left, below in \
                    _level(gamma, slots, alpha, sizes):
                # Cut when need(A) > the profile's sum over A for some A.
                if any(map(gt, map(need.__getitem__, masks), sums)):
                    skip(schemes)
                    continue
                fixed = insert([], [r for s, d in enumerate(profile) if d == alpha
                                    for r in blocks[s]])
                menus = [[None] * sizes[profile[s]] for s in free]
                combo = walk(0, [], modulo(fixed, targets), [0] * slots)
                if combo is not None:
                    scheme = ConversionScheme(p, tuple(
                        subspaces[d][i] for d, i in zip(profile, combo)))
                    if on_feasible is not None:
                        on_feasible(scheme)
                    return SearchOutcome("found", gamma=gamma, scheme=scheme,
                                         visited=visited)
    except _VisitCap:
        return SearchOutcome("max-visits", visited=visited)
    return SearchOutcome("max-total-dim", visited=visited)


@dataclass
class SchemeAudit:
    """Instance-wise inequality audit of one feasible scheme."""

    gamma: int
    h_v: int
    h_u: int
    items: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(it["ok"] for it in self.items)

    def to_json_dict(self) -> dict:
        return {"gamma": self.gamma, "H_V": self.h_v, "H_U": self.h_u,
                "ok": self.ok, "items": self.items}


def check_scheme_inequalities(ens: LinearEnsemble,
                              scheme: ConversionScheme) -> SchemeAudit:
    """Exact checks that every feasible scheme must satisfy:

    (0)  H(U, V) >= H(all new parity nodes)            (always)
    (i)  (rf/kf) H(V) + H(U) >= lf*rf*alpha            (when rf < kf)
    (ii) gamma >= bounds.tradeoff(p, H(V))             (when rf < kf)
    (iii) H(V) >= entropy_V_lb(theta1) for all theta1  (when rf < ri, rf < kf)

    (i) needs rf < kf: with rf >= kf each codeword's parities carry only
    kf*alpha of entropy, and schemes cheaper than lf*rf*alpha exist.
    """
    p = ens.params
    _check_scheme_params(p, scheme)
    pk = ens.packing
    # Each node mapped once; the info downloads' basis grows into H(U, V)'s.
    maps = _map_rows(ens, dict(zip(ens.initial_nodes, scheme.maps)))
    rows = {v: ens.times(m, v) for v, m in maps.items()}
    u_rows = [r for v in ens.initial_parities for r in rows[v]]
    downloads = pk.insert([], [r for v in ens.info_nodes for r in rows[v]])
    h_v = len(downloads)
    h_u = len(pk.insert([], u_rows))
    h_uv = len(pk.insert(downloads, u_rows))
    new = ens.new_parity_echelon
    h_new = len(new)
    # Feasible iff the downloads span every new parity row: none joins.
    if len(pk.insert(downloads, new)) > h_uv:
        raise InfeasibleSchemeError("inequality audit needs a feasible scheme")
    gamma = scheme.read_total
    audit = SchemeAudit(gamma=gamma, h_v=h_v, h_u=h_u)

    def item(name, lhs, rhs):
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        audit.items.append({"name": name, "lhs": str(lhs), "rhs": str(rhs),
                            "ok": lhs >= rhs})

    item("downloads-cover-new-parities", h_uv, h_new)
    if p.rf < p.kf:
        item("parity-download-tradeoff", Fraction(p.rf, p.kf) * h_v + h_u,
             p.lf * p.rf * p.alpha)
        item("read-cost-vs-data-entropy", gamma, bounds.tradeoff(p, h_v))
    if p.rf < p.ri and p.rf < p.kf:
        for t1 in range(1, p.lf + 1):
            item(f"data-download-entropy-theta{t1}", h_v, bounds.entropy_V_lb(p, t1))
    return audit


_MIX_TRIES = 200


def _mix_parity_columns(code: VectorCode, rng) -> VectorCode:
    """A fresh MDS code: multiply the parity column section by a random
    invertible matrix, keeping the systematic part, until the result
    passes the MDS check (at most _MIX_TRIES draws)."""
    r = code.n - code.k
    if r == 0:
        return code
    fld = code.field
    ka = code.k * code.alpha
    ra = r * code.alpha
    gen = code.generator
    for _ in range(_MIX_TRIES):
        w = random_invertible(fld, ra, rng)
        parity = gen.take_cols(range(ka, ka + ra)) @ w
        cand_gen = Matrix._of_rows(
            fld, [g[:ka] + t for g, t in zip(gen.data, parity.data)], ka + ra)
        cand = VectorCode(code.n, code.k, code.alpha, fld, cand_gen)
        if verify_mds(cand):
            return cand
    raise ValueError(
        f"no MDS parity mix of the [{code.n},{code.k},{code.alpha}] code "
        f"over {fld!r} in {_MIX_TRIES} random draws; use a larger --q, "
        f"or --trials 1 for the canonical pair only")


def random_mds_pair(p: SplitParams, rng) -> tuple[VectorCode, VectorCode]:
    """A seeded random systematic MDS pair derived from the canonical one."""
    initial, final = canonical_codes(p)
    return _mix_parity_columns(initial, rng), _mix_parity_columns(final, rng)


@dataclass
class CertificationReport:
    """Per-code-pair search result versus the parameter bound.

    This certifies consistency for the searched pair only; the bound
    itself quantifies over all codes, so no finite pair list is a proof.
    A VIOLATION verdict would exhibit a feasible linear scheme cheaper
    than the bound and must never occur.
    """

    params: SplitParams
    pair: str
    bound: Fraction
    verdict: str                      # "sound" | "VIOLATION" | "inconclusive"
    min_gamma: int | None
    achieved: bool
    scheme: ConversionScheme | None
    visited: int
    audit_checked: int = 0
    audit_failures: list = dc_field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "pair": self.pair,
            "bound": rational_json(self.bound),
            "verdict": self.verdict,
            "min_gamma": self.min_gamma,
            "achieved": self.achieved,
            "scheme": self.scheme.to_json_dict() if self.scheme else None,
            "visited": self.visited,
            "inequality_audit": {"schemes_checked": self.audit_checked,
                                 "failures": self.audit_failures},
        }


def certify_bound(p: SplitParams, trials: int, budget: SearchBudget | None = None,
                  seed: int = 0) -> list[CertificationReport]:
    """Search `trials` code pairs (canonical first, then seeded random
    parity mixes) and compare each pair's minimum feasible read cost to
    the parameter bound."""
    import random
    as_count(trials, "trials", 1)
    if p.q is None:
        raise ValueError("certification needs a field order q")
    if budget is None:
        budget = SearchBudget()
    rng = random.Random(seed)
    bound = bounds.theorem_bound(p).value
    reports: list[CertificationReport] = []
    for trial in range(trials):
        if trial == 0:
            pair = canonical_codes(p)
            label = "canonical"
        else:
            pair = random_mds_pair(p, rng)
            label = f"random-{trial}"
        ens = ensemble_from_codes(p, *pair)
        # The always-feasible re-encoding scheme is audited too.
        audits = [check_scheme_inequalities(ens, default_scheme(p))]
        outcome = min_bandwidth_exhaustive(ens, budget, on_feasible=lambda s:
                                           audits.append(check_scheme_inequalities(ens, s)))
        if outcome.found:
            verdict = "sound" if Fraction(outcome.gamma) >= bound else "VIOLATION"
            achieved = outcome.gamma == math.ceil(bound)
        else:
            verdict = "inconclusive"
            achieved = False
        reports.append(CertificationReport(
            params=p, pair=label, bound=bound, verdict=verdict,
            min_gamma=outcome.gamma, achieved=achieved,
            scheme=outcome.scheme if achieved else None,
            visited=outcome.visited,
            audit_checked=len(audits),
            audit_failures=[a.to_json_dict() for a in audits if not a.ok],
        ))
    return reports
