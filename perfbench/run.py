"""Benchmark of record for convertbw.

Three closed-loop workloads, one caller and one item at a time, each
in a single process (see README.md in this directory for the reasons):

  certify-deep   one code pair through the exhaustive scheme search
  verify-grid    one instance of the structural verify suite
  convert-gf2m   one message through encode / convert / decode in GF(2^m)

Usage:

  python3 perfbench/run.py --workload verify-grid --seed 3 --seconds 30 --trace 0

With --trace 0 the loop is untraced and the end-to-end metrics are
reported, with times scaled to a reference host speed (see calibrate());
with --trace 1 a fixed set of items runs once untraced and then traced,
and the per-layer metrics are reported.  --workload all (the default)
runs each workload in a child process of its own.  Every item's
output is checked; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 1 when
any check failed.
"""

import time

_T0 = time.perf_counter()  # before numpy or convertbw is imported

import argparse
import hashlib
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import convertbw  # noqa: E402
from convertbw import (bounds, convertible, ensemble, mds, search,  # noqa: E402
                       verify)
from convertbw.params import SplitParams  # noqa: E402

from spans import LAYERS, Tracer  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

if Path(convertbw.__file__).resolve().parent != SRC / "convertbw":
    raise SystemExit(f"convertbw was imported from {convertbw.__file__}, "
                     f"not from the checkout's {SRC}")

SETUP_SAMPLES = 9          # set-ups per run; setup_s is their median
TRACE_DIR = Path.cwd() / ".bench_trace"

# -- host speed -------------------------------------------------------------
#
# A shared VM's speed drifts by up to a factor of two within an hour and
# flips between two speeds within a second; no run length averages that
# out (README.md, "Host speed").  So the timed loop runs a fixed piece of
# work between items that touches nothing of convertbw, and every
# end-to-end item time is scaled to a reference host on which that work
# takes CAL_REF_S.  A change to the program cannot move the calibration;
# a change of host speed moves both.

CAL_REF_S = 0.001          # one calibration unit on the reference host
CAL_DUTY = 0.1             # calibrate for this share of the last item's time
CAL_START_S = 0.05         # calibration before the first item

_CAL_ROWS = [[(7 * i * i + 3 * j + 1) % 31 for j in range(10)] for i in range(10)]
_CAL_MAT = np.arange(64, dtype=np.int64).reshape(8, 8) % 7


def _calibration_unit() -> float:
    """Seconds for one unit: Gaussian elimination mod 31 on Python lists,
    then small numpy products, the two kinds of work convertbw does."""
    t = time.perf_counter()
    for _ in range(12):
        a = [row[:] for row in _CAL_ROWS]
        r = 0
        for c in range(10):
            piv = next((i for i in range(r, 10) if a[i][c]), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = pow(a[r][c], 29, 31)
            a[r] = [x * inv % 31 for x in a[r]]
            for i in range(10):
                if i != r and a[i][c]:
                    f = a[i][c]
                    a[i] = [(x - f * y) % 31 for x, y in zip(a[i], a[r])]
            r += 1
    b = _CAL_MAT.copy()
    for _ in range(50):
        b = (b @ _CAL_MAT + 3) % 7
        b[1] = (b[1] - 2 * b[0]) % 7
    return time.perf_counter() - t


def calibrate(seconds: float) -> float:
    """Mean seconds per calibration unit, over units run back to back for
    about `seconds` (at least one unit).  The mean, not the median: the
    host switches between a fast and a slow state many times a second,
    and an item's time is the average over the states it ran in."""
    samples = [_calibration_unit()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(_calibration_unit())
    return statistics.fmean(samples)


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else json.dumps(p, sort_keys=True).encode())
    return h.digest()


# -- workloads --------------------------------------------------------------
#
# A workload's constructor is its set-up.  items() yields a fresh,
# seed-determined stream of inputs; run() is the timed work on one
# item; check() judges the output and returns (ok, digest bytes).
# round_size is how many items form one round: the timed loop stops
# only at round boundaries, so every run covers whole rounds.


class CertifyDeep:
    """search at (lf,kf,rf,ri,alpha,q) = (2,2,1,1,2,5): the canonical pair,
    then random parity mixes drawn exactly as certify_bound draws them."""

    name = "certify-deep"
    round_size = 1
    trace_items = 2            # canonical + one random pair
    digest_items = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.params = SplitParams(2, 2, 1, 1, 1 if smoke else 2, 5)
        self.budget = search.SearchBudget()
        self.canonical = convertible.canonical_codes(self.params)

    def items(self):
        rng = random.Random(self.seed)
        yield "canonical", rng
        for k in itertools.count(1):
            yield f"random-{k}", rng

    def run(self, item):
        label, rng = item
        p = self.params
        pair = self.canonical if label == "canonical" else search.random_mds_pair(p, rng)
        ens = ensemble.ensemble_from_codes(p, *pair)
        audits = [search.check_scheme_inequalities(ens, convertible.default_scheme(p))]
        outcome = search.min_bandwidth_exhaustive(
            ens, self.budget,
            on_feasible=lambda s: audits.append(search.check_scheme_inequalities(ens, s)))
        return ens, outcome, audits

    def check(self, item, out):
        ens, outcome, audits = out
        need = math.ceil(bounds.theorem_bound(self.params).value)
        ok = (outcome.found and outcome.gamma >= need and len(audits) == 2
              and all(a.ok for a in audits)
              and outcome.scheme.read_total == outcome.gamma
              and convertible.check_feasible(ens, outcome.scheme))
        # visited is a count, not an output: a pruned search may lower it.
        scheme = outcome.scheme.to_json_dict() if outcome.scheme else None
        return ok, _digest(item[0], outcome.gamma, scheme,
                           [a.to_json_dict() for a in audits])


class VerifyGrid:
    """verify.run_suite on one default_grid() instance per item, with
    the randomized section doing most of the work."""

    name = "verify-grid"

    def __init__(self, seed: int, smoke: bool, plant: str | None = None):
        self.seed = seed
        self.plant = plant
        if smoke:
            self.grid = verify.default_grid(qs=(5,), alphas=(1,))
            self.trials = 8
        else:
            self.grid = verify.default_grid()
            self.trials = 100
        self.round_size = self.trace_items = self.digest_items = len(self.grid)
        # Randomized checks take trials round-robin in this order.
        names = ("mi-bound-random", "min-avg-random",
                 "mi-chain1-random", "mi-chain2-random")
        self.drawn = {n: len(range(i, self.trials, 4)) for i, n in enumerate(names)}

    def items(self):
        for rnd in itertools.count():
            for idx, p in enumerate(self.grid):
                yield p, (self.seed * 10_000 + rnd) * 1_000 + idx

    def run(self, item):
        p, suite_seed = item
        reports, _ = verify.run_suite([p], trials=self.trials, seed=suite_seed,
                                      plant=self.plant)
        return reports

    def check(self, item, reports):
        ok = len(reports) == 6 + len(self.drawn) and \
            all(r["status"] == "pass" for r in reports)
        for r in reports:
            if r["check"] in self.drawn:
                c = r["counts"]
                total = c["evaluated"] + c["precondition_failures"] + c["skipped"]
                ok = ok and total == self.drawn[r["check"]]
        return ok, _digest(reports)


class ConvertGf2m:
    """Conversion round trips over binary extension fields, round-robin
    over three points; one seeded random message per item."""

    name = "convert-gf2m"
    POINTS = ((2, 2, 1, 1, 1, 8), (2, 3, 2, 2, 2, 8), (2, 2, 2, 2, 2, 16))
    round_size = len(POINTS)
    trace_items = 30 * len(POINTS)
    digest_items = 100 * len(POINTS)

    def __init__(self, seed: int, smoke: bool, tamper: bool = False):
        self.seed = seed
        self.tamper = tamper
        self.points = []
        for lf, kf, rf, ri, alpha, q in self.POINTS:
            p = SplitParams(lf, kf, rf, ri, 1 if smoke else alpha, q)
            initial, final = convertible.canonical_codes(p)
            self.points.append((p, initial, final, convertible.default_scheme(p)))

    def items(self):
        rng = random.Random(self.seed)
        for k in itertools.count():
            p = self.points[k % len(self.points)][0]
            yield k % len(self.points), [rng.randrange(p.q) for _ in range(p.message_dim)]

    def run(self, item):
        idx, msg = item
        p, initial, final, scheme = self.points[idx]
        stored = mds.encode(initial, msg)
        finals, _ = convertible.run_conversion(p, initial, final, scheme, msg)
        if self.tamper:
            cw = finals[0].copy()
            cw[p.kf, 0] ^= 1        # one parity subsymbol, still a field element
            finals = [cw] + list(finals[1:])
        decoded = [[mds.decode_from(final, {i: cw[i] for i in sub})
                    for sub in itertools.combinations(range(p.nf), p.kf)]
                   for cw in finals]
        return stored, finals, decoded

    def check(self, item, out):
        idx, msg = item
        p = self.points[idx][0]
        stored, finals, decoded = out
        span = p.kf * p.alpha
        ok = len(finals) == p.lf
        for t, (cw, decs) in enumerate(zip(finals, decoded)):
            want = np.asarray(msg[t * span:(t + 1) * span], dtype=np.int64)
            ok = ok and all(np.array_equal(d, want) for d in decs)
            ok = ok and cw[:p.kf].tobytes() == stored[t * p.kf:(t + 1) * p.kf].tobytes()
        return ok, _digest(*(cw.tobytes() for cw in finals))


WORKLOADS = {w.name: w for w in (CertifyDeep, VerifyGrid, ConvertGf2m)}


# -- item loops -------------------------------------------------------------


class Tally:
    """Item times, failures and output digests of one loop."""

    def __init__(self, digest_items: int):
        self.times: list[float] = []
        # Calibrations around the items: cal[k] before item k, cal[k+1]
        # after it.  Only the timed loop calibrates.
        self.cal: list[float] = []
        self.failed = 0
        self.digest_items = digest_items
        self._h = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def digest(self) -> str:
        return self._h.hexdigest()

    def scaled_times(self) -> list[float]:
        """Item times on the reference host: each scaled by the mean of
        the calibrations just before and just after it."""
        return [t * 2 * CAL_REF_S / (a + b)
                for t, a, b in zip(self.times, self.cal, self.cal[1:])]

    def add(self, seconds: float, ok: bool, digest: bytes) -> None:
        if len(self.times) < self.digest_items:
            self._h.update(digest)
        self.times.append(seconds)
        self.failed += not ok


def run_item(wl, item, tally: Tally) -> None:
    """Time one item and check it; an exception counts as a failed item."""
    t = time.perf_counter()
    try:
        out = wl.run(item)
        dt = time.perf_counter() - t
        ok, digest = wl.check(item, out)
    except Exception:  # a crashing item is a failed item, not a crashed run
        dt = time.perf_counter() - t
        traceback.print_exc()
        ok, digest = False, b"exception"
    tally.add(dt, bool(ok), digest)


def timed_loop(wl, seconds: float) -> Tally:
    """Whole rounds of items until the next round would overrun `seconds`."""
    tally = Tally(wl.digest_items)
    items = wl.items()
    start = last = time.perf_counter()
    tally.cal.append(calibrate(CAL_START_S))
    while True:
        for item in itertools.islice(items, wl.round_size):
            run_item(wl, item, tally)
            tally.cal.append(calibrate(CAL_DUTY * tally.times[-1]))
        now = time.perf_counter()
        if (now - start) + (now - last) > seconds:
            return tally
        last = now


def fixed_pass(wl, n: int, tracer: Tracer | None = None) -> tuple[Tally, float]:
    """The first n items of a fresh input stream; returns (tally, wall)."""
    tally = Tally(n)
    start = time.perf_counter()
    for k, item in enumerate(itertools.islice(wl.items(), n)):
        if tracer is not None:
            tracer.item = k
        run_item(wl, item, tally)
    return tally, time.perf_counter() - start


# -- metrics ----------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a nonempty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally: Tally, setup_s: float) -> dict:
    t = tally.scaled_times()
    return {
        "throughput_items_per_s": (len(t) / sum(t), "1/s"),
        "item_p50_ms": (quantile(t, 0.5) * 1e3, "ms"),
        "item_p90_ms": (quantile(t, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": (1 - tally.failed / len(t), "fraction"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(snaps: list[dict], n_items: int, untraced_s: float,
              traced_s: float) -> dict:
    """Per-layer metrics for one pass over the traced item set.  Counts
    come from the first traced pass; times are medians over passes."""
    calls = snaps[0]["calls"]
    cnt = snaps[0]["counts"]

    def busy(g):
        return statistics.median(s["busy_s"].get(g, 0.0) for s in snaps)

    def self_s(g):
        return statistics.median(s["self_s"].get(g, 0.0) for s in snaps)

    def n(g):
        return calls.get(g, 0)

    visits = cnt.get("search.visits", 0)
    trials = cnt.get("verify.trials", 0)
    instance_s = busy("verify.instance")
    m = {
        "search.visits": (visits, "count"),
        "search.us_per_visit": (_ratio(busy("search.exhaustive"), visits) * 1e6, "us"),
        "search.busy_s": (busy("search.exhaustive"), "s"),
        # Untraced item time per visit: set-up and audits included, no
        # tracing inflation.
        "search.untraced_us_per_visit": (_ratio(untraced_s, visits) * 1e6, "us"),
        "search.found_ratio": (_ratio(cnt.get("search.found", 0), visits), "ratio"),
        "search.mix.accept_ratio": (_ratio(cnt.get("search.mix.accepted", 0),
                                           cnt.get("search.mix.sampled", 0)), "ratio"),
        "linalg.rank.calls": (n("linalg.rank"), "count"),
        "linalg.rank.rows_in": (cnt.get("linalg.rank.rows_in", 0), "count"),
        "linalg.rank.busy_s": (busy("linalg.rank"), "s"),
        "linalg.matrix_new": (cnt.get("linalg.matrix_new", 0), "count"),
        "linalg.solve.calls": (n("linalg.solve"), "count"),
        "linalg.solve.busy_s": (busy("linalg.solve"), "s"),
        "ensemble.mapped_rows.calls": (n("ensemble.mapped_rows"), "count"),
        "ensemble.mapped_rows.busy_s": (busy("ensemble.mapped_rows"), "s"),
        "ensemble.entropy.calls": (n("ensemble.entropy"), "count"),
        "ensemble.entropy.hit_ratio": (_ratio(cnt.get("ensemble.entropy.hits", 0),
                                              cnt.get("ensemble.entropy.node_calls", 0)),
                                       "ratio"),
        "ensemble.build.busy_s": (busy("ensemble.build"), "s"),
        # verify_instance time outside the randomized checks and the
        # ensemble build (all ensemble builds of this workload sit there).
        "verify.deterministic.busy_s": (
            max(0.0, instance_s - busy("verify.randomized") - busy("ensemble.build"))
            if instance_s else 0.0, "s"),
        "verify.randomized.busy_s": (busy("verify.randomized"), "s"),
        "verify.precondition_frac": (_ratio(cnt.get("verify.precondition", 0), trials),
                                     "ratio"),
        "verify.skipped_frac": (_ratio(cnt.get("verify.skipped", 0), trials), "ratio"),
        "gf.prime.calls": (n("gf.prime"), "count"),
        "gf.prime.busy_s": (busy("gf.prime"), "s"),
        "gf.binary.calls": (n("gf.binary"), "count"),
        "gf.binary.busy_s": (busy("gf.binary"), "s"),
        "mds.encode.busy_s": (busy("mds.encode"), "s"),
        "mds.decode.calls": (n("mds.decode"), "count"),
        "mds.decode.busy_s": (busy("mds.decode"), "s"),
        "mds.verify_mds.calls": (n("mds.verify_mds"), "count"),
        "mds.verify_mds.busy_s": (busy("mds.verify_mds"), "s"),
        "convertible.run_conversion.busy_s": (busy("convertible.run_conversion"), "s"),
        "convertible.check_feasible.calls": (n("convertible.check_feasible"), "count"),
        "bounds.theorem_bound.calls": (n("bounds.theorem_bound"), "count"),
        "bounds.busy_s": (busy("bounds"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    m["trace.items"] = (n_items, "count")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_frac"] = (_ratio(traced_s - untraced_s, untraced_s), "ratio")
    return m


def exact_counts(snap: dict) -> dict:
    """Every exact count of one traced pass, keyed by name."""
    out = {f"{g}.calls": c for g, c in snap["calls"].items()}
    out.update(snap["counts"])
    return dict(sorted(out.items()))


# -- set-up -----------------------------------------------------------------


def own_setup(cls, args):
    """Set up in this process; returns (workload, set-up seconds): the
    imports, counted from before numpy and convertbw load, plus building
    the workload's fields, codes and inputs.  Not scaled by calibrate():
    set-up is almost all imports, whose time the calibration does not
    track (see README.md)."""
    t = time.perf_counter()
    wl = cls(args.seed, args.smoke)
    return wl, _IMPORT_S + time.perf_counter() - t


def setup_samples(cls, args, own_s: float) -> list[float]:
    """This process's set-up time, then that of SETUP_SAMPLES - 1 fresh
    interpreters; one interpreter's set-up is too short to be steady."""
    samples = [own_s]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", cls.name,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(res.stdout.split()[-1]))
    return samples


# -- command line -----------------------------------------------------------


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:<13} {name:<36} {value:>16.6f} {unit}")


def run_untraced(cls, args, wl, own_s):
    tally = timed_loop(wl, args.seconds)
    setups = setup_samples(cls, args, own_s)
    metrics = end_to_end(tally, statistics.median(setups))
    _print_metrics(cls.name, metrics)
    print(f"{cls.name:<13} samples {tally.attempted}, failed {tally.failed}, "
          f"digest of first {min(tally.attempted, wl.digest_items)} items "
          f"{tally.digest}")
    print(f"{cls.name:<13} wall clock: item p50 {quantile(tally.times, 0.5) * 1e3:.6f} ms, "
          f"p90 {quantile(tally.times, 0.9) * 1e3:.6f} ms; calibration unit "
          f"{statistics.median(tally.cal) * 1e3:.6f} ms (reference {CAL_REF_S * 1e3:g} ms)")
    print(f"{cls.name:<13} set-up samples (this process first) "
          + " ".join(f"{x:.6f}" for x in setups) + " s")
    return tally.attempted, tally.failed, True, metrics


def run_traced(cls, args, wl):
    n = wl.trace_items
    base, untraced_s = fixed_pass(wl, n)
    snaps, walls, repeat_ok = [], [], True
    attempted, failed = base.attempted, base.failed
    start = time.perf_counter()
    with Tracer() as tracer:
        while True:
            tracer.clear()
            tally, wall = fixed_pass(wl, n, tracer)
            attempted += tally.attempted
            failed += tally.failed
            repeat_ok &= tally.digest == base.digest
            if not snaps:
                TRACE_DIR.mkdir(exist_ok=True)
                tracer.write(TRACE_DIR / f"{cls.name}-seed{args.seed}.json")
            snaps.append(tracer.snapshot())
            walls.append(wall)
            repeat_ok &= exact_counts(snaps[-1]) == exact_counts(snaps[0])
            now = time.perf_counter()
            if (now - start) + wall + untraced_s > args.seconds:
                break
    metrics = per_layer(snaps, n, untraced_s, walls[0])
    _print_metrics(cls.name, metrics)
    print(f"{cls.name:<13} traced passes {len(snaps)} of {n} items, "
          f"outputs and exact counts repeat: {repeat_ok}, digest {base.digest}")
    print(f"{cls.name:<13} counts {json.dumps(exact_counts(snaps[0]))}")
    print(f"{cls.name:<13} spans written to "
          f"{TRACE_DIR.name}/{cls.name}-seed{args.seed}.json")
    for g in sorted(snaps[0]["calls"]):
        s = snaps[0]
        print(f"{cls.name:<13}   {g:<40} calls {s['calls'][g]:>9} "
              f"busy {s['busy_s'].get(g, 0.0):10.4f} s")
    return attempted, failed, repeat_ok, metrics


def run_all(args) -> int:
    """Each workload in a child process of its own, so that each one's
    peak_rss_mb and set-up are its own; metrics are prefixed with the
    workload's name."""
    attempted = failed = 0
    correct = True
    out_metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = res.stdout.rstrip("\n").splitlines()
        if lines[:-1]:
            print("\n".join(lines[:-1]), flush=True)
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"# {name} printed no result (exit {res.returncode})")
            correct = False
            continue
        attempted += doc["attempted"]
        failed += doc["failed"]
        correct &= doc["correct"] and res.returncode == 0
        for metric, value in doc["metrics"].items():
            out_metrics[f"{name}.{metric}"] = value
    print(f"# failed_frac {_ratio(failed, attempted):.6f} ({failed} of {attempted} items)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="alpha = 1 variants of every workload, seconds-scale")
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up seconds and exit")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cls = WORKLOADS[args.workload]

    if args.setup_only:
        _, own_s = own_setup(cls, args)
        print(f"{own_s:.9f}")
        return 0

    print(f"# convertbw {convertbw.__version__}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s"
          f"{', smoke' if args.smoke else ''}; import {_IMPORT_S:.3f} s")
    wl, own_s = own_setup(cls, args)
    if args.trace:
        attempted, failed, ok, metrics = run_traced(cls, args, wl)
    else:
        attempted, failed, ok, metrics = run_untraced(cls, args, wl, own_s)
    correct = ok and failed == 0
    print(f"# failed_frac {failed / attempted:.6f} ({failed} of {attempted} items)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
