"""Verification suite: runs every structural check over a parameter
grid and aggregates machine-readable reports.

The deterministic section covers the storage model facts (per-node and
joint entropies, parity independence, reconstruction, stability, the
per-codeword conditional-entropy split).  The randomized section drives
the download-function inequalities with seeded random maps; draws whose
independence precondition fails are counted separately, never as
violations.  A random map is drawn as its coefficient rows
(linalg.random_map_rows), never as a Matrix, and the trials call the
oracle's row-level cores (ensemble._mi_bound, _min_avg; the chains map
their nodes through LinearEnsemble.times, whose per-node product table
serves every trial on the ensemble, and rank them through _rows_mi),
below the checks that take Matrix maps.  The split report runs one
pass per scheme over every codeword subset
(ensemble._cond_entropy_splits), which ranks each codeword's own term
once.  The trials draw their node orders and set sizes
through linalg.shuffle and linalg.randint, which use rng's stream as
rng.shuffle and rng.randint do, and their coin flips through
rng.random.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import product
from typing import Iterable, Sequence

from . import gf
from .convertible import canonical_codes, default_scheme
from .ensemble import (CheckReport, IndependencePreconditionError,
                       LinearEnsemble, _cond_entropy_splits, _map_rows,
                       _mi_bound, _min_avg, _rows_mi,
                       check_joint_entropy, check_mds_reconstruction,
                       check_prop_parity_iid, check_stability,
                       check_storage_axioms, corollary1_holds,
                       corollary2_holds, ensemble_from_codes,
                       final_parity_node, initial_parity_node,
                       random_corollary1_tuple, random_corollary2_set)
from .linalg import randint, random_map_rows, shuffle
from .params import SplitParams

DEFAULT_QS = (5, 7, 11)
DEFAULT_LFS = (2, 3)
DEFAULT_KFS = (1, 2)
DEFAULT_RFS = (1, 2)
DEFAULT_RIS = (1, 2, 3)
DEFAULT_ALPHAS = (1, 2)
DEFAULT_MAX_NI = 8

PLANT_KINDS = ("duplicate-parity", "parity-copy")


def default_grid(qs: Sequence[int] = DEFAULT_QS,
                 lfs: Sequence[int] = DEFAULT_LFS,
                 kfs: Sequence[int] = DEFAULT_KFS,
                 rfs: Sequence[int] = DEFAULT_RFS,
                 ris: Sequence[int] = DEFAULT_RIS,
                 alphas: Sequence[int] = DEFAULT_ALPHAS,
                 max_ni: int = DEFAULT_MAX_NI) -> list[SplitParams]:
    """All constructible grid points: ni capped, q large enough for the
    layered Reed-Solomon pair.  Every q, max_ni and count value is
    checked first, and each count combination is built as a SplitParams,
    so an input is refused (ValueError) even where the filters drop
    every point it makes; an empty axis makes an empty grid."""
    for q in qs:
        gf.field(q)
    gf.as_count(max_ni, "max_ni")
    counts = (lfs, kfs, rfs, ris, alphas)
    for name, values in zip(("lf", "kf", "rf", "ri", "alpha"), counts):
        for x in values:
            gf.as_count(x, name)
    shapes = [SplitParams(*c) for c in product(*counts)]
    return [SplitParams(p.lf, p.kf, p.rf, p.ri, p.alpha, q)
            for q in qs for p in shapes
            if p.ni <= max_ni and q >= max(p.ni, p.nf)]


def plant_corruption(ens: LinearEnsemble, kind: str) -> LinearEnsemble | None:
    """Deliberately broken variant of an ensemble, or None when the
    corruption does not apply to these parameters."""
    p = ens.params
    blocks = {v: ens.block(v) for v in ens.all_nodes()}
    if kind == "duplicate-parity":
        if p.ri < 2:
            return None
        blocks[initial_parity_node(1)] = blocks[initial_parity_node(0)]
    elif kind == "parity-copy":
        if p.ri < 1 or p.rf < 1:
            return None
        blocks[final_parity_node(0)] = blocks[initial_parity_node(0)]
    else:
        raise ValueError(f"unknown corruption {kind!r}; know {PLANT_KINDS}")
    return LinearEnsemble(p, ens.field, blocks)


def lemma_mi_trial(ens: LinearEnsemble, rng: random.Random) -> str:
    """One random draw of the two-set mutual-information bound.

    Returns "ok", "violation", or "precondition"."""
    p = ens.params
    nodes = list(ens.all_nodes())
    shuffle(rng, nodes)
    na = randint(rng, 1, min(3, len(nodes) - 1))
    nb = randint(rng, 1, min(3, len(nodes) - na))
    a_set = nodes[:na]
    b_set = nodes[na:na + nb]
    f_a = {v: random_map_rows(ens.field, p.alpha, rng) for v in a_set}
    f_b = {v: random_map_rows(ens.field, p.alpha, rng) for v in b_set}
    d1 = [v for v in a_set if rng.random() < 0.4]
    d2 = [v for v in b_set if rng.random() < 0.4]
    try:
        ok = _mi_bound(ens, f_a, f_b, d1, d2)
    except IndependencePreconditionError:
        return "precondition"
    return "ok" if ok else "violation"


def lemma_min_avg_trial(ens: LinearEnsemble, rng: random.Random) -> str:
    """One random draw of the min-vs-average entropy bound."""
    p = ens.params
    nodes = list(ens.all_nodes())
    shuffle(rng, nodes)
    b = randint(rng, 2, min(4, len(nodes)))
    family = {v: random_map_rows(ens.field, p.alpha, rng) for v in nodes[:b]}
    a = randint(rng, 1, b)
    try:
        ok = _min_avg(ens, family, a)
    except IndependencePreconditionError:
        return "precondition"
    return "ok" if ok else "violation"


def corollary_trial(ens: LinearEnsemble, rng: random.Random,
                    which: int) -> str:
    """One random admissible tuple of download-MI chain 1 or 2.

    The maps are drawn first, then the tuple or set; the nodes are
    mapped and ranked only for a trial that is evaluated, not for a
    chain-2 trial skipped because ri > ki."""
    p = ens.params
    maps = {v: random_map_rows(ens.field, p.alpha, rng) for v in ens.initial_nodes}
    if which == 1:
        holds, args = corollary1_holds, random_corollary1_tuple(ens, rng)
    else:
        s = random_corollary2_set(ens, rng)
        if s is None:
            return "skipped"
        holds, args = corollary2_holds, (s,)
    rows = {v: ens.times(m, v) for v, m in maps.items()}
    mi = _rows_mi(ens.packing, rows, ens.initial_parities, ens.info_nodes)
    return "ok" if holds(ens, rows, mi, *args) else "violation"


_RANDOM_CHECKS = (
    ("mi-bound-random", lemma_mi_trial),
    ("min-avg-random", lemma_min_avg_trial),
    ("mi-chain1-random", partial(corollary_trial, which=1)),
    ("mi-chain2-random", partial(corollary_trial, which=2)),
)

# The counters each trial result adds one to.
_TALLY = {"ok": ("evaluated",), "violation": ("evaluated", "violations"),
          "precondition": ("precondition_failures",), "skipped": ("skipped",)}


def run_randomized_checks(ens: LinearEnsemble, trials: int,
                          rng: random.Random) -> list[dict]:
    """Round-robin the four randomized checks over `trials` fresh
    download-map draws; report per-check tallies."""
    counts = {name: {"evaluated": 0, "violations": 0,
                     "precondition_failures": 0, "skipped": 0}
              for name, _ in _RANDOM_CHECKS}
    for i in range(trials):
        name, trial = _RANDOM_CHECKS[i % len(_RANDOM_CHECKS)]
        for key in _TALLY[trial(ens, rng)]:
            counts[name][key] += 1
    return [{"check": name,
             "instance-params": ens.params.as_dict(),
             "status": "pass" if c["violations"] == 0 else "fail",
             "counts": c}
            for name, c in counts.items()]


def _prop3_reports(ens: LinearEnsemble, rng: random.Random) -> dict:
    """The conditional-entropy split, exhaustively over codeword subsets,
    for the re-encoding scheme plus two seeded random download maps,
    every map as its coefficient rows."""
    p = ens.params
    failures = []
    default = _map_rows(ens, dict(zip(ens.initial_nodes, default_scheme(p).maps)))
    schemes = [("default", default)]
    for s in range(2):
        maps = {v: random_map_rows(ens.field, p.alpha, rng) for v in ens.info_nodes}
        schemes.append((f"random-{s}", maps))
    subsets = [
        [t for t in range(p.lf) if (mask >> t) & 1]
        for mask in range(1 << p.lf)
    ]
    for label, maps in schemes:
        for s_set, ok in zip(subsets, _cond_entropy_splits(ens, maps, subsets)):
            if not ok:
                failures.append({"scheme": label, "S": s_set})
    return CheckReport("cond-entropy-split", p.as_dict(),
                       failures).to_json_dict()


def verify_instance(p: SplitParams, *, trials: int = 0,
                    seed: int = 0, plant: str | None = None) -> list[dict]:
    """All checks for one parameter point; returns report dicts ordered
    by check name.  trials must be a plain int >= 0 (gf.as_count)."""
    gf.as_count(trials, "trials")
    rng = random.Random(seed)
    initial, final = canonical_codes(p)
    ens = ensemble_from_codes(p, initial, final)
    if plant is not None:
        planted = plant_corruption(ens, plant)
        if planted is None:
            return []
        ens = planted
    reports = [
        check_storage_axioms(ens).to_json_dict(),
        check_joint_entropy(ens).to_json_dict(),
        check_prop_parity_iid(ens).to_json_dict(),
        check_mds_reconstruction(ens).to_json_dict(),
        check_stability(ens).to_json_dict(),
        _prop3_reports(ens, rng),
    ]
    if trials > 0:
        reports.extend(run_randomized_checks(ens, trials, rng))
    reports.sort(key=lambda r: r["check"])
    return reports


def run_suite(points: Iterable[SplitParams], *, trials: int = 0, seed: int = 0,
              plant: str | None = None) -> tuple[list[dict], bool]:
    """Run verify_instance over the grid; returns (reports, all_passed)."""
    reports: list[dict] = []
    ok = True
    for idx, p in enumerate(points):
        inst = verify_instance(p, trials=trials,
                               seed=seed * 1_000_003 + idx, plant=plant)
        for r in inst:
            if r["status"] != "pass":
                ok = False
        reports.extend(inst)
    return reports, ok
