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
min_bandwidth_exhaustive).  `visited` is a position in the enumeration
order, cut profiles and branches included, not a count of evaluations.

What depends on the parameters alone is built once and shared by every
code pair searched: the subspace menus (linalg.enumerate_subspaces),
the profiles of each level (_compositions) and the sets of slots the cut
table tests for each profile (_cut_sets), all in bounded caches of
tuples.  certify_bound takes the canonical pair and the default scheme
from the bounded caches of convertbw.convertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import bounds
from .convertible import (ConversionScheme, InfeasibleSchemeError,
                          canonical_codes, check_feasible, default_scheme)
from .ensemble import LinearEnsemble, ensemble_from_codes, mapped_rows
from .gf import as_count
from .linalg import Matrix, enumerate_subspaces, mat_rank, random_invertible
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


@lru_cache(maxsize=1024)
def _compositions(total: int, slots: int, maxv: int) -> tuple[tuple[int, ...], ...]:
    """All slot-tuples of values in [0, maxv] summing to total, lex order."""
    if slots == 0:
        return ((),) if total == 0 else ()
    lo = max(0, total - (slots - 1) * maxv)
    return tuple((first,) + rest for first in range(lo, min(total, maxv) + 1)
                 for rest in _compositions(total - first, slots - 1, maxv))


class _SchemeSpace:
    """Precomputed per-node subspace menus and their mapped rows, and
    the target rows, all packed (ens.packing)."""

    def __init__(self, ens: LinearEnsemble):
        p = ens.params
        self.ens = ens
        self.params = p
        fld = ens.field
        self.subspaces = [enumerate_subspaces(p.alpha, fld, d)
                          for d in range(p.alpha + 1)]
        # Slot i is node i of the initial codeword (ens.initial_nodes).
        self.nodes = ens.initial_nodes
        # mapped[slot][d][i]: rows of subspace i (dimension d) applied to
        # the slot's node block, packed for RowPacking.insert.
        self.mapped = [[[ens.times(s, v) for s in subs]
                        for subs in self.subspaces] for v in self.nodes]
        self.targets = [r for v in ens.final_parities for r in ens.packed(v)]
        self.target_rank = mat_rank(ens.stack(ens.final_parities))

    def scheme_for(self, profile, combo) -> ConversionScheme:
        return ConversionScheme(self.params, tuple(
            self.subspaces[d][i] for d, i in zip(profile, combo)))


class _CutTable:
    """Rank cuts on download profiles (the dimension downloaded from
    each slot).

    need(A), for a set A of slots as a bit mask, is the rank of the
    target rows modulo the span of the full blocks of the slots outside
    A.  Whatever a scheme downloads from those slots lies in that span,
    so the slots of A must supply the rest: a profile whose dimensions
    sum to less than need(A) over A has no feasible scheme.  This is a
    rank fact about the ensemble alone.

    Entries are computed on demand and kept by complement mask c (the
    slots outside A): c extends the echelon basis of c minus its top
    slot by that slot's alpha block rows, and only that parent's
    residual target rows are reduced against the rows that joined.
    Residual rows are zero at every pivot of their mask's basis, so
    their rank is the rank modulo its span.
    """

    def __init__(self, space: _SchemeSpace):
        self.pk = space.ens.packing
        self.alpha = space.params.alpha
        slots = len(space.nodes)
        self.full = (1 << slots) - 1
        self.blocks = [space.mapped[s][self.alpha][0] for s in range(slots)]
        # By complement mask: the echelon basis of its blocks (kept only
        # while the residual is nonempty, since a superset's residual is
        # then empty too) and the targets modulo that span, echelonized.
        self._basis = {0: []}
        self._residual = {0: [r for _, r, _ in self.pk.insert([], space.targets)]}
        self._need: dict[int, int] = {}   # need(A) by mask A

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
                res = [r for _, r, _ in pk.insert(
                    [], [pk.reduce(joined, r) for r in res])]
            self._basis[c] = basis
        self._residual[c] = res
        return res

    def need(self, a: int) -> int:
        if a not in self._need:
            self._need[a] = len(self._reduced(self.full ^ a))
        return self._need[a]

    def rejects(self, profile) -> bool:
        """Whether some set A of slots has sum(profile over A) < need(A),
        over the sets _cut_sets lists."""
        need = self.need
        return any(t < need(a) for a, t in _cut_sets(profile, self.alpha))


@lru_cache(maxsize=8192)   # one 8-slot alpha = 2 profile space: 3^8 = 6,561
def _cut_sets(profile: tuple[int, ...], alpha: int) -> tuple[tuple[int, int], ...]:
    """(mask of A, sum of profile over A) for each set A of slots that
    _CutTable.rejects tries, the same for every code pair.

    Only the sets between the profile's empty slots Z and its non-full
    slots are tried: adding an empty slot to A keeps the sum and cannot
    lower need, and dropping a full slot lowers the sum by alpha and
    need by at most alpha (one block's rank)."""
    sets = [(sum(1 << s for s, d in enumerate(profile) if not d), 0)]
    for s, d in enumerate(profile):
        if 0 < d < alpha:
            sets += [(a | 1 << s, t + d) for a, t in sets]
    return tuple(sets)


class _VisitCap(Exception):
    """The walk reached SearchBudget.max_visits."""


def min_bandwidth_exhaustive(ens: LinearEnsemble, budget: SearchBudget,
                             on_feasible: Callable[[ConversionScheme], None] | None = None
                             ) -> SearchOutcome:
    """Smallest feasible read cost over all canonical linear schemes.

    Completes whenever the budget allows reaching the always-feasible
    full-data-download level; a budget stop is reported distinctly and
    never as a nonexistence claim.

    A profile that _CutTable rejects holds no feasible scheme and is
    skipped whole.  The table is made once the first profile's walk has
    failed, so a search that succeeds at once never pays for it.

    In a profile, the fixed slots (dimension 0 or alpha: index 0 only)
    join once, the targets and free slots' menu rows are reduced modulo
    their rows once, and only the free slots are walked, depth first in
    product order.  Each depth carries the echelon basis of the rows
    downloaded so far (RowPacking.insert) and the residual targets,
    zero at its pivots, so a visit reduces them against only the rows
    that joined; a subtree is skipped when their rank exceeds the rows
    the remaining free slots can add.  Skipped profiles and subtrees
    still count in `visited`, the position in the full enumeration order.
    """
    p = ens.params
    pk = ens.packing
    reduce = pk.reduce
    space = _SchemeSpace(ens)
    slots = len(space.nodes)
    cap = p.ki * p.alpha
    if budget.max_total_dim is not None:
        cap = min(cap, budget.max_total_dim)
    sizes = [len(subs) for subs in space.subspaces]
    visited = 0

    def skip(schemes):
        nonlocal visited
        if visited + schemes > budget.max_visits:
            visited = budget.max_visits
            raise _VisitCap
        visited += schemes

    def modulo(basis, rows):
        # The nonzero rows left of rows reduced against basis.
        return [r for r in (reduce(basis, r) for r in rows) if r]

    def walk(depth, basis, residual, combo):
        # menus[j]: free slot j's rows modulo the fixed rows; left[j]:
        # rows free slots j.. may still add; below[j]: schemes under one
        # node at depth j.  combo holds index 0 at every fixed slot.
        if depth == len(menus):
            skip(1)
            return None if residual else combo
        if len(residual) > left[depth] and \
                len(pk.insert([], residual)) > left[depth]:
            skip(below[depth])
            return None
        for i, rows in enumerate(menus[depth]):
            new_basis = pk.insert(list(basis), rows)
            joined = new_basis[len(basis):]
            combo[free[depth]] = i
            found = walk(depth + 1, new_basis, modulo(joined, residual), combo)
            if found is not None:
                return found
        return None

    # Any feasible stack must span the target rows, so levels below the
    # target rank cannot be feasible and are skipped wholesale.
    cuts = None
    try:
        for gamma in range(space.target_rank, cap + 1):
            for profile in _compositions(gamma, slots, p.alpha):
                if cuts is not None and cuts.rejects(profile):
                    skip(math.prod(sizes[d] for d in profile))
                    continue
                fixed = pk.insert([], [
                    r for s, d in enumerate(profile) if sizes[d] == 1
                    for r in space.mapped[s][d][0]])
                free = [s for s, d in enumerate(profile) if sizes[d] > 1]
                menus = [[modulo(fixed, rows) for rows in space.mapped[s][profile[s]]]
                         for s in free]
                left = [sum(profile[s] for s in free[j:]) for j in range(len(free))]
                below = [math.prod(map(len, menus[j:])) for j in range(len(free))]
                combo = walk(0, [], modulo(fixed, space.targets), [0] * slots)
                if combo is not None:
                    scheme = space.scheme_for(profile, combo)
                    if on_feasible is not None:
                        on_feasible(scheme)
                    return SearchOutcome("found", gamma=gamma, scheme=scheme,
                                         visited=visited)
                if cuts is None:
                    cuts = _CutTable(space)
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
    (ii) gamma >= ((kf-rf)/kf) H(V) + lf*rf*alpha      (when rf < kf)
    (iii) H(V) >= entropy_V_lb(theta1) for all theta1  (when rf < ri, rf < kf)

    (i) needs rf < kf: with rf >= kf each codeword's parities carry only
    kf*alpha of entropy, and schemes cheaper than lf*rf*alpha exist.
    """
    if not check_feasible(ens, scheme):
        raise InfeasibleSchemeError("inequality audit needs a feasible scheme")
    p = ens.params
    maps = dict(zip(ens.initial_nodes, scheme.maps))
    h_v = mat_rank(mapped_rows(ens, maps, ens.info_nodes))
    h_u = mat_rank(mapped_rows(ens, maps, ens.initial_parities))
    gamma = scheme.read_total
    audit = SchemeAudit(gamma=gamma, h_v=h_v, h_u=h_u)

    h_uv = mat_rank(mapped_rows(ens, maps, ens.initial_nodes))
    h_new = mat_rank(ens.stack(ens.final_parities))
    audit.items.append({"name": "downloads-cover-new-parities",
                        "lhs": str(Fraction(h_uv)), "rhs": str(Fraction(h_new)),
                        "ok": h_uv >= h_new})
    if p.rf < p.kf:
        lhs = Fraction(p.rf, p.kf) * h_v + h_u
        rhs = Fraction(p.lf * p.rf * p.alpha)
        audit.items.append({"name": "parity-download-tradeoff",
                            "lhs": str(lhs), "rhs": str(rhs), "ok": lhs >= rhs})
        rhs2 = Fraction(p.kf - p.rf, p.kf) * h_v + p.lf * p.rf * p.alpha
        audit.items.append({"name": "read-cost-vs-data-entropy",
                            "lhs": str(Fraction(gamma)), "rhs": str(rhs2),
                            "ok": Fraction(gamma) >= rhs2})
    if p.rf < p.ri and p.rf < p.kf:
        for t1 in range(1, p.lf + 1):
            lb = bounds.entropy_V_lb(p, t1)
            audit.items.append({"name": f"data-download-entropy-theta{t1}",
                                "lhs": str(Fraction(h_v)), "rhs": str(lb),
                                "ok": Fraction(h_v) >= lb})
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
        audits: list = []

        def audit(scheme: ConversionScheme) -> None:
            res = check_scheme_inequalities(ens, scheme)
            audits.append(res)

        # The always-feasible re-encoding scheme is audited too.
        audit(default_scheme(p))
        outcome = min_bandwidth_exhaustive(ens, budget, on_feasible=audit)
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
