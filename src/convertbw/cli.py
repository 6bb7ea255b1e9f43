"""Command-line front end.

Subcommands: bound, verify, simulate, search, sweep.  Exit codes:
0 success, 1 check or certification failure, 2 usage error, 3 internal
error (an uncaught exception: one "error: internal:" line, then the
traceback, on stderr).  A command refuses an argument value by raising
ValueError, which main prints as one "error:" line; argparse's syntax
errors keep argparse's message.  Rationals are {"num": ..., "den": ...};
CSV rows carry num/den pairs and a decimal column.  Identical flags
and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import random
import sys
import traceback
from fractions import Fraction
from itertools import combinations

from . import bounds, search, verify
from .convertible import (InfeasibleSchemeError, canonical_codes,
                          default_scheme, run_conversion)
from .mds import CorruptDataError, decode_from
from .params import SplitParams

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _threads_cap() -> int:
    """Parse CONVERT_BW_THREADS; execution is single-process, so any
    positive cap is honored trivially."""
    raw = os.environ.get("CONVERT_BW_THREADS", "1")
    try:
        val = int(raw)
    except ValueError:
        val = 0
    if val < 1:
        raise ValueError(f"CONVERT_BW_THREADS must be an integer >= 1, got {raw!r}")
    return val


def _check_out(out_path: str | None) -> None:
    """Refuse an --out path that names a directory or has no parent
    directory, before the command computes anything; the file itself is
    neither created nor truncated here."""
    if not out_path:
        return
    parent = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        err = errno.EISDIR
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise ValueError(f"cannot write --out {out_path}: {os.strerror(err)}")


def _emit(text: str, out_path: str | None) -> None:
    """text to out_path, or to stdout; an unwritable out_path is a usage
    error (_check_out refuses a directory or a missing parent before the
    run)."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc


def _dump_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)


def _split_params(args, need_q: bool) -> SplitParams:
    if need_q and args.q is None:
        raise ValueError("this command needs a field order: pass --q")
    return SplitParams(args.lf, args.kf, args.rf, args.ri, args.alpha, args.q)


def _add_point_flags(sp) -> None:
    sp.add_argument("--lf", type=int, required=True,
                    help="number of final codewords (>= 2)")
    sp.add_argument("--kf", type=int, required=True, help="final data nodes")
    sp.add_argument("--rf", type=int, required=True, help="final parity nodes")
    sp.add_argument("--ri", type=int, required=True, help="initial parity nodes")
    sp.add_argument("--alpha", type=int, default=1, help="subsymbols per node")
    sp.add_argument("--q", type=int, default=None, help="field order")
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def cmd_bound(args) -> int:
    p = _split_params(args, need_q=False)
    _dump_json(bounds.theorem_bound(p).to_json_dict(), args.out)
    return EXIT_OK


def _rat_cell(x: Fraction | None) -> str:
    if x is None:
        return ""
    return f"{x.numerator}/{x.denominator}"


def cmd_sweep(args) -> int:
    def parse_range(vals, name):
        if vals is None:
            return None
        if len(vals) == 1:
            return range(vals[0], vals[0] + 1)
        if len(vals) == 2 and vals[0] <= vals[1]:
            return range(vals[0], vals[1] + 1)
        raise ValueError(f"--{name} takes one value or an ascending pair")

    lf_r = parse_range(args.lf, "lf")
    kf_r = parse_range(args.kf, "kf")
    rf_r = parse_range(args.rf, "rf")
    alpha_r = parse_range(args.alpha, "alpha")
    ri_r = parse_range(args.ri, "ri")

    # Every count has only a lower bound, so the grid's first point
    # checks them all, also where the default ri range would be empty.
    SplitParams(lf_r[0], kf_r[0], rf_r[0], ri_r[0] if ri_r else 0, alpha_r[0])
    n_points = len(rf_r) * len(alpha_r) * sum(
        len(ri_r) if ri_r is not None else 2 * lf * kf for lf in lf_r for kf in kf_r)
    if n_points > args.max_rows:
        raise ValueError(f"grid of {n_points} rows exceeds --max-rows {args.max_rows}")

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["lf", "kf", "rf", "ri", "alpha", "regime",
                     "value_num", "value_den", "value_decimal",
                     "L1", "L2", "L3", "tight", "uniform_cost", "achievable"])
    bad = 0
    for rep in bounds.sweep_rows(lf_r, kf_r, rf_r, alpha_r, ri_r):
        p = rep.params
        applicable = [x for x in (rep.L1, rep.L2, rep.L3) if x is not None]
        if rep.value != max(applicable):
            bad += 1
        # At ri <= ki dominance_check repeats the max check; past ki it adds L3 > L2.
        if 1 <= p.rf < p.kf and p.ri > p.ki and not bounds.dominance_check(p):
            bad += 1
        writer.writerow([
            p.lf, p.kf, p.rf, p.ri, p.alpha, rep.regime,
            rep.value.numerator, rep.value.denominator,
            f"{float(rep.value):.6g}",
            _rat_cell(rep.L1), _rat_cell(rep.L2), _rat_cell(rep.L3),
            int(rep.tight), _rat_cell(rep.uniform_cost), _rat_cell(rep.achievable),
        ])
    _emit(buf.getvalue(), args.out)
    if bad:
        print(f"sweep: {bad} rows failed internal consistency", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 0:
        raise ValueError("--trials must be >= 0")
    points = verify.default_grid(qs=args.q, lfs=args.lf, kfs=args.kf,
                                 rfs=args.rf, ris=args.ri, alphas=args.alpha,
                                 max_ni=args.max_ni)
    if not points:
        print("warning: empty instance grid, zero checks run", file=sys.stderr)
        _dump_json([], args.out)
        return EXIT_OK
    reports, ok = verify.run_suite(points, trials=args.trials, seed=args.seed,
                                   plant=args.plant_corruption)
    if not reports:
        print(f"warning: corruption {args.plant_corruption} applies to no "
              "instance, zero checks run", file=sys.stderr)
    _dump_json(reports, args.out)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_simulate(args) -> int:
    p = _split_params(args, need_q=True)
    if args.messages < 1:
        raise ValueError("--messages must be >= 1")
    rng = random.Random(args.seed)
    initial, final = canonical_codes(p)
    scheme = default_scheme(p)
    failures = 0
    unchanged_ok = True
    for _ in range(args.messages):
        msg = [rng.randrange(p.q) for _ in range(p.message_dim)]
        finals, report = run_conversion(p, initial, final, scheme, msg)
        for t, cw in enumerate(finals):
            want = msg[t * p.kf * p.alpha:(t + 1) * p.kf * p.alpha]
            for nodes in combinations(range(p.nf), p.kf):
                got = decode_from(final, {i: cw[i] for i in nodes})
                if list(got) != list(want):
                    failures += 1
            for j in range(p.kf):
                if cw[j].tolist() != msg[(t * p.kf + j) * p.alpha:
                                         (t * p.kf + j + 1) * p.alpha]:
                    unchanged_ok = False
    doc = {
        "params": p.as_dict(),
        "messages": args.messages,
        "bandwidth": report.to_json_dict(),
        "round_trip_failures": failures,
        "info_nodes_unchanged": unchanged_ok,
    }
    _dump_json(doc, args.out)
    return EXIT_OK if failures == 0 and unchanged_ok else EXIT_FAIL


def cmd_search(args) -> int:
    p = _split_params(args, need_q=True)
    budget = search.SearchBudget(max_total_dim=args.max_dim,
                                 max_visits=args.max_visits)
    reports = search.certify_bound(p, trials=args.trials, budget=budget,
                                   seed=args.seed)
    _dump_json([r.to_json_dict() for r in reports], args.out)
    violated = any(r.verdict == "VIOLATION" for r in reports)
    audited_bad = any(r.audit_failures for r in reports)
    return EXIT_FAIL if violated or audited_bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="convertbw",
        description="Split-mode convertible-code bounds, verification, "
                    "and scheme search.")
    commands = ap.add_subparsers(dest="command", required=True)

    sp = commands.add_parser("bound", help="evaluate the read-bandwidth bound")
    _add_point_flags(sp)
    sp.set_defaults(fn=cmd_bound)

    sp = commands.add_parser("sweep", help="CSV of bound reports over a grid")
    for name, default in (("lf", [2]), ("kf", [1, 8]), ("rf", [1, 8]),
                          ("alpha", [1])):
        sp.add_argument(f"--{name}", type=int, nargs="+", default=default,
                        help=f"{name} value or inclusive range")
    sp.add_argument("--ri", type=int, nargs="+", default=None,
                    help="ri value or range (default 1..2*ki per point)")
    sp.add_argument("--max-rows", type=int, default=200_000)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_sweep)

    sp = commands.add_parser("verify", help="run the structural check suite")
    for name, default in (("q", verify.DEFAULT_QS), ("lf", verify.DEFAULT_LFS),
                          ("kf", verify.DEFAULT_KFS), ("rf", verify.DEFAULT_RFS),
                          ("ri", verify.DEFAULT_RIS), ("alpha", verify.DEFAULT_ALPHAS)):
        sp.add_argument(f"--{name}", type=int, nargs="+", default=list(default))
    sp.add_argument("--max-ni", type=int, default=verify.DEFAULT_MAX_NI)
    sp.add_argument("--trials", type=int, default=100,
                    help="random draws per instance for the inequality checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--plant-corruption", choices=verify.PLANT_KINDS,
                    default=None,
                    help="corrupt each applicable instance; the suite must fail")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify)

    sp = commands.add_parser("simulate", help="run conversions on random messages")
    _add_point_flags(sp)
    sp.add_argument("--messages", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_simulate)

    sp = commands.add_parser("search", help="certify the bound by exhaustive search")
    _add_point_flags(sp)
    sp.add_argument("--trials", type=int, default=1,
                    help="code pairs to search (canonical first)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-visits", type=int,
                    default=search.SearchBudget.max_visits)
    sp.add_argument("--max-dim", type=int, default=None)
    sp.set_defaults(fn=cmd_search)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _threads_cap()
        _check_out(args.out)
        return args.fn(args)
    except (InfeasibleSchemeError, CorruptDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
