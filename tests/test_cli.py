"""CLI tests: flags, output formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import convertbw
from convertbw import cli
from convertbw.cli import main
from convertbw.mds import CorruptDataError
from convertbw.search import SearchBudget
from support import empty_scheme


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_case1_value(capsys):
    code, out, _ = run_cli(["bound", "--lf", "2", "--kf", "3", "--rf", "1",
                            "--ri", "2", "--alpha", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"num": 10, "den": 1}
    assert doc["tight"] is True


def test_bound_trivial_regime(capsys):
    code, out, _ = run_cli(["bound", "--lf", "2", "--kf", "2", "--rf", "3",
                            "--ri", "1", "--alpha", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"num": 4, "den": 1}
    assert doc["regime"] == "rF>=kF"


def test_bound_usage_error_names_constraint(capsys):
    assert main(["bound", "--lf", "1", "--kf", "2", "--rf", "1", "--ri", "1"]) == 2
    assert "lf >= 2" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bound_writes_file(tmp_path, capsys):
    out_path = tmp_path / "bound.json"
    code, out, _ = run_cli(["bound", "--lf", "2", "--kf", "2", "--rf", "1",
                            "--ri", "5", "--alpha", "1",
                            "--out", str(out_path)], capsys)
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["value"] == {"num": 2, "den": 1}
    assert doc["tight"] is False


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_usage_error(where, tmp_path, capsys):
    # An --out the command cannot open is a usage error (exit 2, one
    # line), not a traceback with exit 1, which means a failed check.
    path = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["bound", "--lf", "2", "--kf", "2", "--rf", "1",
                              "--ri", "5", "--out", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_refused_before_the_run(where, tmp_path, capsys,
                                                  monkeypatch):
    # verify's whole grid takes seconds; a bad --out stops it first.
    def run_suite(*args, **kwargs):
        raise AssertionError("run_suite ran before --out was checked")

    monkeypatch.setattr(cli.verify, "run_suite", run_suite)
    path = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    reason = "Is a directory" if where == "directory" else "No such file or directory"
    code, out, err = run_cli(["verify", "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {path}: {reason}\n"


def test_out_that_fails_at_write_time_is_usage_error(tmp_path, capsys):
    # A 300-character file name in an existing directory passes the
    # pre-run check; open() then fails (ENAMETOOLONG) after the run.
    path = tmp_path / ("x" * 300)
    code, out, err = run_cli(["bound", "--lf", "2", "--kf", "2", "--rf", "1",
                              "--ri", "5", "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {path}: File name too long\n"


def test_out_file_is_not_truncated_before_the_run(tmp_path, capsys, monkeypatch):
    def run_suite(*args, **kwargs):
        raise ValueError("stopped")

    monkeypatch.setattr(cli.verify, "run_suite", run_suite)
    path = tmp_path / "kept.json"
    path.write_text("kept\n")
    code, _, err = run_cli(["verify", "--out", str(path)], capsys)
    assert (code, err) == (2, "error: stopped\n")
    assert path.read_text() == "kept\n"


def test_sweep_single_point_matches_bound(capsys):
    code, out, _ = run_cli(["sweep", "--lf", "2", "--kf", "3", "--rf", "1",
                            "--ri", "2", "--alpha", "3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert (row["value_num"], row["value_den"]) == ("10", "1")
    assert row["tight"] == "1"
    assert row["achievable"] == "10/1"


def test_sweep_row_count_and_monotonicity(capsys):
    code, out, _ = run_cli(["sweep", "--lf", "2", "--kf", "4", "--rf", "2",
                            "--ri", "1", "12", "--alpha", "1"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    values = [int(r["value_num"]) / int(r["value_den"]) for r in rows]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_sweep_tight_rows_have_achievable_equal_value(capsys):
    code, out, _ = run_cli(["sweep", "--lf", "2", "--kf", "4", "--rf", "1",
                            "--ri", "1", "4", "--alpha", "2"], capsys)
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        if row["tight"] == "1":
            num, den = row["achievable"].split("/")
            assert (num, den) == (row["value_num"], row["value_den"])


def test_sweep_row_cap_enforced(capsys):
    assert main(["sweep", "--lf", "2", "5", "--kf", "1", "8", "--rf", "1", "8",
                 "--alpha", "1", "4", "--max-rows", "100"]) == 2


def test_sweep_row_cap_counts_rows_exactly(capsys):
    # lf = 2 and 3 at kf = 1 have 4 and 6 default ri values: with 8 rf
    # values that is 80 rows, not 8 * 2 * max(2 * lf * kf) = 96.
    args = ["sweep", "--lf", "2", "3", "--kf", "1"]
    assert main(args + ["--max-rows", "79"]) == 2
    assert "grid of 80 rows exceeds --max-rows 79" in capsys.readouterr().err
    code, out, _ = run_cli(args + ["--max-rows", "80"], capsys)
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 80


@pytest.mark.parametrize("ri", [[], ["--ri", "1"]])
def test_sweep_refuses_kf_0_with_or_without_ri(ri, capsys):
    # Without --ri the default ri range of kf = 0 is empty, which used to
    # print a header-only CSV and exit 0.
    code, out, err = run_cli(["sweep", "--lf", "2", "--kf", "0", *ri], capsys)
    assert (code, out) == (2, "")
    assert err == "error: kf must be >= 1, got 0\n"


def test_verify_small_grid_passes(capsys):
    code, out, _ = run_cli(["verify", "--q", "5", "--lf", "2", "--kf", "1",
                            "--rf", "1", "--ri", "1", "2", "--alpha", "1",
                            "--trials", "12"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert reports and all(r["status"] == "pass" for r in reports)


def test_verify_planted_corruption_fails_with_counterexample(capsys):
    code, out, _ = run_cli(["verify", "--q", "5", "--lf", "2", "--kf", "1",
                            "--rf", "1", "--ri", "2", "--alpha", "1",
                            "--trials", "0",
                            "--plant-corruption", "duplicate-parity"], capsys)
    assert code == 1
    reports = json.loads(out)
    bad = [r for r in reports if r["status"] == "fail"]
    assert any(r["check"] == "parity-iid" and r.get("counterexample")
               for r in bad)


def test_verify_empty_grid_warns_and_passes(capsys):
    code, out, err = run_cli(["verify", "--q", "5", "--lf", "5", "--kf", "8",
                              "--trials", "0"], capsys)
    assert code == 0
    assert json.loads(out) == []
    assert "empty" in err


@pytest.mark.parametrize("args, message", [
    (["--q", "0"], "field order must be >= 2, got 0"),
    (["--q", "6", "--lf", "3", "--kf", "2", "--ri", "3"], "unsupported field order 6"),
    (["--max-ni", "-1"], "max_ni must be a nonnegative integer, got -1"),
    (["--lf", "1", "2"], "split conversion requires lf >= 2, got 1"),
])
def test_verify_refuses_inputs_the_grid_filters_would_drop(args, message, capsys):
    # Each of these once printed [] with an empty-grid warning and exited 0.
    code, out, err = run_cli(["verify", *args, "--trials", "0"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_verify_grid_of_valid_inputs_that_the_ni_cap_drops_warns(capsys):
    code, out, err = run_cli(["verify", "--q", "7", "--lf", "9", "--trials", "0"],
                             capsys)
    assert code == 0
    assert json.loads(out) == []
    assert err == "warning: empty instance grid, zero checks run\n"


def test_verify_inapplicable_corruption_warns_and_passes(capsys):
    # duplicate-parity needs ri >= 2, so every instance is skipped.
    code, out, err = run_cli(["verify", "--ri", "1", "--plant-corruption",
                              "duplicate-parity"], capsys)
    assert code == 0
    assert json.loads(out) == []
    assert err.startswith("warning:") and err.count("\n") == 1
    assert "duplicate-parity" in err


def test_simulate_round_trip(capsys):
    code, out, _ = run_cli(["simulate", "--lf", "2", "--kf", "2", "--rf", "1",
                            "--ri", "1", "--alpha", "1", "--q", "7",
                            "--messages", "5", "--seed", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["round_trip_failures"] == 0
    assert doc["info_nodes_unchanged"] is True
    assert doc["bandwidth"]["read_total"] == 4


def test_simulate_requires_q(capsys):
    assert main(["simulate", "--lf", "2", "--kf", "2", "--rf", "1", "--ri", "1"]) == 2


def test_search_reports_sound(capsys):
    code, out, _ = run_cli(["search", "--lf", "2", "--kf", "1", "--rf", "1",
                            "--ri", "1", "--alpha", "1", "--q", "5",
                            "--trials", "2"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert [r["pair"] for r in reports] == ["canonical", "random-1"]
    assert all(r["verdict"] == "sound" for r in reports)
    assert all(r["inequality_audit"]["failures"] == [] for r in reports)


def test_search_default_cap_is_the_budget_default():
    args = cli.build_parser().parse_args(
        ["search", "--lf", "2", "--kf", "1", "--rf", "1", "--ri", "1", "--q", "5"])
    assert args.max_visits == SearchBudget().max_visits


def test_search_unsampleable_parity_mix_is_usage_error(capsys):
    # No random parity mix of the [7,4] code over GF(7) passes the MDS
    # check, so the random pair cannot be drawn: a parameter problem.
    code, out, err = run_cli(["search", "--lf", "2", "--kf", "2", "--rf", "1",
                              "--ri", "3", "--alpha", "1", "--q", "7",
                              "--trials", "2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "[7,4,1] code over GF(7)" in err and "--q" in err


# sha256 of stdout and the exit code of five fast invocations: stdout
# must stay byte-identical across refactors, not only between two runs.
GOLDEN = [
    (["bound", "--lf", "2", "--kf", "3", "--rf", "1", "--ri", "2",
      "--alpha", "3"],
     "e8135d634db3db127775ebe61cc275276386cdddf34d885b3af184e6960d10b9", 0),
    (["sweep", "--lf", "2", "3", "--kf", "1", "4", "--rf", "1", "3",
      "--alpha", "1", "2"],
     "496c795d03892afcd68f2eebacd5f5824f801bd5ed6fc832ad292d43b0d7b80c", 0),
    (["verify", "--q", "5", "--trials", "20"],
     "b373d71131d926796546986e0ef125b806c34765cbc349e440d0c1aa56e73034", 0),
    (["verify", "--trials", "20"],
     "0b8767404fcb9e4cdde0cd358385023ed3da88db76d6559198e19d5926a18368", 0),
    (["simulate", "--lf", "2", "--kf", "3", "--rf", "2", "--ri", "2",
      "--alpha", "2", "--q", "8"],
     "c1baea000a6ee8496ddf8e86f9aa623cdb9dc2e23e833580a26ab7a621c065e7", 0),
    # The same conversions over GF(11) (8-bit lanes) and GF(251) (16-bit).
    (["simulate", "--lf", "2", "--kf", "3", "--rf", "2", "--ri", "2",
      "--alpha", "2", "--q", "11"],
     "ed94e728cfc6ee866a97d2f7e7c17f318f12e0e840ac1d123f7accf7ac4f58df", 0),
    (["simulate", "--lf", "2", "--kf", "3", "--rf", "2", "--ri", "2",
      "--alpha", "2", "--q", "251"],
     "ba0f05812f715d8efa8cee593b1dd632ea78039bd234a5ebbc1d6a716131e43a", 0),
    (["search", "--lf", "2", "--kf", "2", "--rf", "1", "--ri", "1",
      "--alpha", "1", "--q", "5", "--trials", "3"],
     "2b45ac8ad7b54f961cbde71e60ad77b2bba70149fa94b4ddc6282c7e64531c38", 0),
    (["search", "--lf", "2", "--kf", "2", "--rf", "1", "--ri", "1",
      "--alpha", "2", "--q", "5", "--trials", "2"],
     "c386231969d03d9f645546933146cab9abe6e063d989586a4e6e8397c9941dba", 0),
    (["search", "--lf", "2", "--kf", "2", "--rf", "1", "--ri", "1",
      "--alpha", "2", "--q", "5", "--max-visits", "19846"],
     "98a95ee6f8afd5b569736488f531cf67e6efaa84992bf4b643143fe521290f4b", 0),
    # Prints a scheme: A=[[],[],[1],[1]], B=[[],[1]] for the canonical pair.
    (["search", "--lf", "2", "--kf", "2", "--rf", "1", "--ri", "2",
      "--alpha", "1", "--q", "7", "--trials", "3"],
     "8fca40f1b0cef7b4bd78199ba219e484bbab6809f451fc0e09d3c4580e412103", 0),
]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_bound_example_is_what_bound_prints(capsys):
    # The README's bound section shows one command and the JSON it prints.
    section = README.read_text().split("\n### bound\n", 1)[1].split("\n### ", 1)[0]
    command = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    shown = section.split("```json\n", 1)[1].split("\n```", 1)[0]
    prog, *args = shlex.split(command)
    assert prog == "convertbw"
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and json.loads(out) == json.loads(shown)


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    exec(section.split("```python\n", 1)[1].split("\n```", 1)[0], {})


def test_golden_stdout_digests(capsys):
    for args, digest, want_code in GOLDEN:
        code, out, _ = run_cli(args, capsys)
        assert (hashlib.sha256(out.encode()).hexdigest(), code) == \
            (digest, want_code), args[0]


def test_identical_invocations_are_byte_identical(capsys):
    args = ["verify", "--q", "5", "--lf", "2", "--kf", "1", "--rf", "1",
            "--ri", "1", "--alpha", "1", "2", "--trials", "25", "--seed", "9"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_threads_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("CONVERT_BW_THREADS", "4")
    code, out, _ = run_cli(["bound", "--lf", "2", "--kf", "2", "--rf", "1",
                            "--ri", "1"], capsys)
    assert code == 0
    for bad in ("zero", "abc", "0"):
        monkeypatch.setenv("CONVERT_BW_THREADS", bad)
        code, out, err = run_cli(["bound", "--lf", "2", "--kf", "2",
                                  "--rf", "1", "--ri", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: CONVERT_BW_THREADS") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["search", "--lf", "2", "--kf", "2", "--rf", "1", "--ri", "1", "--q", "5",
     "--trials", "0"],
    ["verify", "--q", "5", "--trials", "-5"],
    ["simulate", "--lf", "2", "--kf", "2", "--rf", "1", "--ri", "1", "--q", "5",
     "--messages", "0"],
])
def test_counts_that_certify_nothing_are_usage_errors(args, capsys):
    assert main(args) == 2
    assert capsys.readouterr().out == ""


_POINT = "--lf 2 --kf 2 --rf 1 --ri 1"


@pytest.mark.parametrize("line, message", [
    ("bound --lf 1 --kf 2 --rf 1 --ri 1", "split conversion requires lf >= 2, got 1"),
    (f"bound {_POINT} --q 6", "unsupported field order 6"),
    ("sweep --lf 2 --kf 0", "kf must be >= 1, got 0"),
    ("sweep --lf 3 2 --kf 1", "--lf takes one value or an ascending pair"),
    ("sweep --lf 2 --kf 1 2 3", "--kf takes one value or an ascending pair"),
    ("sweep --lf 2 3 --kf 1 --max-rows 79", "grid of 80 rows exceeds --max-rows 79"),
    ("verify --trials -5", "--trials must be >= 0"),
    # An empty grid never reaches run_suite's own trials check.
    ("verify --lf 9 --trials -5", "--trials must be >= 0"),
    ("verify --q 6", "unsupported field order 6"),
    ("verify --max-ni -1", "max_ni must be a nonnegative integer, got -1"),
    (f"simulate {_POINT}", "this command needs a field order: pass --q"),
    (f"simulate {_POINT} --q 5 --messages 0", "--messages must be >= 1"),
    (f"search {_POINT} --q 5 --trials 0", "trials must be >= 1, got 0"),
    (f"search {_POINT} --q 5 --max-visits 0", "max_visits must be >= 1, got 0"),
    (f"search {_POINT} --q 5 --max-dim -1",
     "max_total_dim must be a nonnegative integer, got -1"),
    (f"search {_POINT} --q 2", "q=2 too small for the code construction"),
])
def test_every_refusal_is_one_error_line(line, message, capsys):
    code, out, err = run_cli(shlex.split(line), capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("line", [f"bound {_POINT} --lf x",
                                  "bound --kf 2 --rf 1 --ri 1"])
def test_argparse_syntax_errors_keep_argparse_exit(line, capsys):
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(line))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _corrupt(code, available):
    raise CorruptDataError("node 2 symbols are inconsistent with the other nodes")


@pytest.mark.parametrize("name, patch, message", [
    ("default_scheme", empty_scheme,
     "downloaded rows do not span the final parity rows"),
    ("decode_from", _corrupt, "node 2 symbols are inconsistent"),
])
def test_failed_conversion_or_decode_exits_1(name, patch, message, capsys,
                                             monkeypatch):
    # Both errors subclass ValueError, but they are failed checks: exit 1.
    monkeypatch.setattr(cli, name, patch)
    code, out, err = run_cli(["simulate", "--lf", "2", "--kf", "2", "--rf", "1",
                              "--ri", "1", "--q", "5"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def _crash(args):
    raise RuntimeError("planted fault")


def test_crash_exits_3_with_one_error_line_and_the_traceback(capsys, monkeypatch):
    # 1 means a failed check and 2 a usage error; a crash is neither.
    monkeypatch.setattr(cli, "cmd_bound", _crash)
    code, out, err = run_cli(["bound", "--lf", "2", "--kf", "2", "--rf", "1",
                              "--ri", "1"], capsys)
    assert code == cli.EXIT_INTERNAL == 3 and out == ""
    first, rest = err.split("\n", 1)
    assert first == "error: internal: RuntimeError: planted fault"
    assert rest.startswith("Traceback (most recent call last):")
    assert "in _crash" in rest and rest.endswith("RuntimeError: planted fault\n")


def test_python_m_runs_the_cli(capsys):
    args = ["bound", "--lf", "2", "--kf", "2", "--rf", "1", "--ri", "1"]
    src = str(Path(convertbw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "convertbw", *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    code, out, _ = run_cli(args, capsys)
    assert proc.returncode == code == 0 and proc.stdout == out
