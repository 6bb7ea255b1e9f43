"""Exhaustive search over linear conversion schemes.

Schemes are enumerated as one canonical subspace per node (the row
space of its download map), visited in nondecreasing order of total
downloaded dimension; within a dimension level, profiles and subspace
indices are visited lexicographically.  The first feasible scheme found
is therefore a global read-cost minimizer among linear schemes, and the
lexicographically smallest such minimizer.

Within a profile the walk is incremental and cuts branches by a rank
bound (see min_bandwidth_exhaustive); `visited` is a position in the
enumeration order, cut branches included, not a count of evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Iterator

from . import bounds
from .convertible import (ConversionScheme, InfeasibleSchemeError,
                          canonical_codes, check_feasible, default_scheme)
from .ensemble import LinearEnsemble, ensemble_from_codes, mapped_rows, _scheme_maps
from .linalg import (Matrix, _insert_rows, _reduce_row, enumerate_subspaces,
                     mat_rank, random_invertible)
from .mds import VectorCode, verify_mds
from .params import SplitParams


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one scheme search."""

    max_total_dim: int | None = None   # cap on downloaded rows (None: ki*alpha)
    max_visits: int = 10_000_000       # cap on schemes in enumeration order

    def __post_init__(self) -> None:
        if self.max_visits < 1:
            raise ValueError("max_visits must be positive")
        if self.max_total_dim is not None and self.max_total_dim < 0:
            raise ValueError("max_total_dim must be nonnegative")


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


def _compositions(total: int, slots: int, maxv: int) -> Iterator[tuple[int, ...]]:
    """All slot-tuples of values in [0, maxv] summing to total, lex order."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    lo = max(0, total - (slots - 1) * maxv)
    for first in range(lo, min(total, maxv) + 1):
        for rest in _compositions(total - first, slots - 1, maxv):
            yield (first,) + rest


class _SchemeSpace:
    """Precomputed per-node subspace menus and their mapped rows."""

    def __init__(self, ens: LinearEnsemble):
        p = ens.params
        self.ens = ens
        self.params = p
        fld = ens.field
        self.subspaces = [enumerate_subspaces(p.alpha, fld, d)
                          for d in range(p.alpha + 1)]
        nodes = list(ens.info_nodes) + list(ens.initial_parities)
        self.nodes = nodes
        # mapped[slot][d][i]: rows of subspace i (dimension d) applied to
        # the slot's node block, as row tuples for linalg._insert_rows.
        self.mapped = [[[(s @ ens.block(v)).data for s in subs]
                        for subs in self.subspaces] for v in nodes]
        self.targets = ens.stack(ens.final_parities)
        self.target_rank = mat_rank(self.targets)

    def scheme_for(self, profile, combo) -> ConversionScheme:
        p = self.params
        picks = [self.subspaces[d][i] for d, i in zip(profile, combo)]
        return ConversionScheme(p, tuple(picks[: p.ki]), tuple(picks[p.ki:]))


class _VisitCap(Exception):
    """The walk reached SearchBudget.max_visits."""


def min_bandwidth_exhaustive(ens: LinearEnsemble, budget: SearchBudget,
                             on_feasible: Callable[[ConversionScheme], None] | None = None
                             ) -> SearchOutcome:
    """Smallest feasible read cost over all canonical linear schemes.

    Completes whenever the budget allows reaching the always-feasible
    full-data-download level; a budget stop is reported distinctly and
    never as a nonexistence claim.

    Within one profile the slots are walked depth first in product
    order.  Each depth carries the echelon basis, in insertion order, of
    the rows downloaded so far (linalg._insert_rows) and the nonzero
    target rows reduced against it, so a visit eliminates only the new
    slot's rows and reduces the residual against only the rows that
    joined (every basis row is already zero at every earlier pivot).  A
    subtree is skipped when the residual rank exceeds the rows the
    remaining slots can add; it is still counted in `visited`, which is
    the position in the full enumeration order.
    """
    p = ens.params
    fld = ens.field
    space = _SchemeSpace(ens)
    slots = len(space.nodes)
    cap = p.ki * p.alpha
    if budget.max_total_dim is not None:
        cap = min(cap, budget.max_total_dim)
    sizes = [len(subs) for subs in space.subspaces]
    targets = [r for r in space.targets.data if any(r)]
    visited = 0

    def walk(profile, left, below, depth, basis, residual, combo):
        # left[j]: rows slots j.. may still add; below[j]: schemes under
        # one node at depth j.  Returns the feasible combo or None.
        nonlocal visited
        if len(residual) > left[depth] and \
                len(_insert_rows(fld, [], residual)) > left[depth]:
            if visited + below[depth] > budget.max_visits:
                visited = budget.max_visits
                raise _VisitCap
            visited += below[depth]
            return None
        last = depth == slots - 1
        for i, rows in enumerate(space.mapped[depth][profile[depth]]):
            new_basis = _insert_rows(fld, list(basis), rows)
            joined = new_basis[len(basis):]
            new_res = residual
            if joined:
                new_res = [r for r in (_reduce_row(fld, joined, r)
                                       for r in residual) if any(r)]
            if last:
                visited += 1
                if visited > budget.max_visits:
                    visited -= 1
                    raise _VisitCap
                if not new_res:
                    return combo + (i,)
            else:
                found = walk(profile, left, below, depth + 1, new_basis,
                             new_res, combo + (i,))
                if found is not None:
                    return found
        return None

    # Any feasible stack must span the target rows, so levels below the
    # target rank cannot be feasible and are skipped wholesale.
    try:
        for gamma in range(space.target_rank, cap + 1):
            for profile in _compositions(gamma, slots, p.alpha):
                left = [sum(profile[j:]) for j in range(slots)]
                below = [math.prod(sizes[d] for d in profile[j:])
                         for j in range(slots)]
                combo = walk(profile, left, below, 0, [], targets, ())
                if combo is not None:
                    scheme = space.scheme_for(profile, combo)
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
    (ii) gamma >= ((kf-rf)/kf) H(V) + lf*rf*alpha      (when rf < kf)
    (iii) H(V) >= entropy_V_lb(theta1) for all theta1  (when rf < ri, rf < kf)

    (i) needs rf < kf: with rf >= kf each codeword's parities carry only
    kf*alpha of entropy, and schemes cheaper than lf*rf*alpha exist.
    """
    if not check_feasible(ens, scheme):
        raise InfeasibleSchemeError("inequality audit needs a feasible scheme")
    p = ens.params
    maps = _scheme_maps(ens, scheme)
    h_v = mat_rank(mapped_rows(ens, maps, ens.info_nodes))
    h_u = mat_rank(mapped_rows(ens, maps, ens.initial_parities))
    gamma = scheme.read_total
    audit = SchemeAudit(gamma=gamma, h_v=h_v, h_u=h_u)

    all_nodes = list(ens.info_nodes) + list(ens.initial_parities)
    h_uv = mat_rank(mapped_rows(ens, maps, all_nodes))
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


def _mix_parity_columns(code: VectorCode, rng, max_tries: int = 200) -> VectorCode:
    """A fresh MDS code: multiply the parity column section by a random
    invertible matrix, keeping the systematic part, until the result
    passes the MDS check."""
    r = code.n - code.k
    if r == 0:
        return code
    fld = code.field
    ka = code.k * code.alpha
    ra = r * code.alpha
    gen = code.generator
    for _ in range(max_tries):
        w = random_invertible(fld, ra, rng)
        parity = gen.take_cols(range(ka, ka + ra)) @ w
        cand_gen = Matrix._of_rows(
            fld, [g[:ka] + t for g, t in zip(gen.data, parity.data)], ka + ra)
        cand = VectorCode(code.n, code.k, code.alpha, fld, cand_gen)
        if verify_mds(cand):
            return cand
    raise ValueError(
        f"no MDS parity mix of the [{code.n},{code.k},{code.alpha}] code "
        f"over {fld!r} in {max_tries} random draws; use a larger --q, "
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
            "bound": {"num": self.bound.numerator, "den": self.bound.denominator},
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
