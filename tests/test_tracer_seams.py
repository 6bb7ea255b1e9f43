"""The benchmark tracer (perfbench/spans.py) still finds every function
and field kernel it wraps, so a rename or deletion in the package fails
here rather than only in the benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from convertbw import ensemble, linalg
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
