"""Self-test of the benchmark harness.

  python3 perfbench/selftest.py

Checks, in about half a minute:

- a planted defect in verify (duplicate-parity), a tampered codeword in
  a conversion and an item that raises are each counted as one failed
  item, not as a crash;
- item times are scaled to the reference host by the calibrations
  around each item;
- the certify-deep items reproduce search.certify_bound pair for pair;
- the alpha = 1 smoke mode prints every metric BENCHMARK.json names,
  with its unit, untraced and traced;
- two traced smoke runs with one seed give identical digests and
  identical exact counts.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (puts the checkout's src/ on sys.path)
from convertbw import search  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def one_item(wl, item) -> bench.Tally:
    tally = bench.Tally(1)
    bench.run_item(wl, item, tally)
    return tally


def test_failure_accounting() -> None:
    clean = bench.VerifyGrid(0, smoke=True)
    planted = bench.VerifyGrid(0, smoke=True, plant="duplicate-parity")
    item = next(it for it in clean.items() if it[0].ri >= 2)
    check(one_item(clean, item).failed == 0, "clean verify instance passes")
    t = one_item(planted, item)
    check((t.attempted, t.failed) == (1, 1),
          "planted duplicate-parity instance counts as one failed item")

    clean = bench.ConvertGf2m(0, smoke=True)
    tampered = bench.ConvertGf2m(0, smoke=True, tamper=True)
    item = next(clean.items())
    check(one_item(clean, item).failed == 0, "clean conversion passes")
    t = one_item(tampered, item)
    check((t.attempted, t.failed) == (1, 1),
          "tampered codeword counts as one failed item")
    t = one_item(clean, (0, [1]))  # wrong message length: encode raises
    check((t.attempted, t.failed) == (1, 1),
          "an item that raises counts as one failed item")


def test_scaling_to_reference_host() -> None:
    t = bench.Tally(1)
    t.times = [0.004, 0.030]
    t.cal = [bench.CAL_REF_S, 2 * bench.CAL_REF_S, 4 * bench.CAL_REF_S]
    scaled = t.scaled_times()
    check(abs(scaled[0] - 0.004 / 1.5) < 1e-12 and abs(scaled[1] - 0.030 / 3) < 1e-12,
          "item times are scaled by the mean calibration around each item")


def test_certify_matches_certify_bound() -> None:
    wl = bench.CertifyDeep(7, smoke=True)
    reports = search.certify_bound(wl.params, trials=3, seed=7)
    items = wl.items()
    for rep in reports:
        item = next(items)
        out = wl.run(item)
        _, outcome, audits = out
        ok, _ = wl.check(item, out)
        # certify_bound keeps the scheme only when it meets the bound.
        same_scheme = rep.scheme is None or \
            outcome.scheme.to_json_dict() == rep.scheme.to_json_dict()
        check(item[0] == rep.pair and outcome.gamma == rep.min_gamma
              and outcome.visited == rep.visited and same_scheme
              and len(audits) == rep.audit_checked
              and not rep.audit_failures and ok,
              f"certify-deep item {item[0]} equals certify_bound's report")


def smoke(trace: int, seed: int = 0) -> tuple[str, dict]:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1", "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    check(res.returncode == 0, f"smoke run (trace {trace}) exits 0")
    lines = res.stdout.strip().splitlines()
    return res.stdout, json.loads(lines[-1])


def test_smoke_prints_every_metric() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        text, doc = smoke(trace)
        check(doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0,
              f"smoke run (trace {trace}) is correct")
        for name in bench.WORKLOADS:
            for spec in SPEC[key]:
                m = doc["metrics"].get(f"{name}.{spec['name']}")
                if m is None or m["unit"] != spec["unit"]:
                    check(False, f"{name} reports {spec['name']} in {spec['unit']}")
                printed = any(line.split()[:2] == [name, spec["name"]]
                              and line.split()[-1] == spec["unit"]
                              for line in text.splitlines())
                if not printed:
                    check(False, f"{name} prints {spec['name']} in {spec['unit']}")
        check(True, f"smoke run (trace {trace}) prints all {len(SPEC[key])} "
                    f"{key} metrics with units for every workload")


def test_same_seed_repeats() -> None:
    def fingerprint(text):
        return [line.split()[0] + " " + line.split()[-1] if "digest" in line
                else line for line in text.splitlines() if " counts {" in line
                or "digest" in line]

    first, _ = smoke(1, seed=5)
    second, _ = smoke(1, seed=5)
    check(fingerprint(first) == fingerprint(second) and fingerprint(first),
          "two same-seed traced runs give identical digests and exact counts")


if __name__ == "__main__":
    test_failure_accounting()
    test_scaling_to_reference_host()
    test_certify_matches_certify_bound()
    test_smoke_prints_every_metric()
    test_same_seed_repeats()
    print("selftest passed")
