"""The benchmark tracer (perfbench/spans.py) still finds every function
and field kernel it wraps, so a rename or deletion in the package fails
here rather than only in the benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # Every module the tracer wraps, as run.py imports them: alone, this
    # test would otherwise find convertbw.verify not yet imported.
    from convertbw import (bounds, convertible, ensemble, linalg,  # noqa: F401
                           mds, search, verify)
    orig_mapped_rows = ensemble.mapped_rows
    orig_init = linalg.Matrix.__init__
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert ensemble.mapped_rows.__wrapped__ is orig_mapped_rows
    finally:
        tracer.uninstall()
    assert ensemble.mapped_rows is orig_mapped_rows
    assert linalg.Matrix.__init__ is orig_init


def test_traced_smoke_run_repeats_its_counts(tmp_path):
    # The traced passes run after an untraced one has filled the decode
    # and conversion caches, so each must see the same warm caches and
    # repeat the first pass's exact counts.  run.py writes its spans to
    # .bench_trace/ in its working directory, hence cwd=tmp_path.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "convert-gf2m",
         "--smoke", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 0 and doc["correct"] is True, proc.stdout[-2000:]


def test_traced_certify_deep_walks_free_slots(tmp_path):
    # At alpha = 2 the search walks free slots (at alpha = 1, as in
    # --smoke, no slot is free).  The two traced items, the canonical
    # pair and the first parity mix, take 29,697 visits each.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "certify-deep",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 0 and doc["correct"] is True, proc.stdout[-2000:]
    assert doc["metrics"]["search.visits"]["value"] == 59_394


def test_traced_verify_grid_smoke_run(tmp_path):
    # The randomized trials call the oracle's row-level cores, which the
    # tracer does not wrap; the wrapped entry points around them
    # (run_randomized_checks, entropy) must still trace and check clean.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "verify-grid",
         "--smoke", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 0 and doc["correct"] is True, proc.stdout[-2000:]
