"""Span tracing of convertbw from outside the package.

`Tracer.install()` replaces the public functions at each module seam
of `convertbw` with thin wrappers that record a span (name, start, end,
parent, item) per call, then `uninstall()` puts the originals back.
Nothing inside the package changes: a function imported by name into
another module is patched there too, by object identity, so calls
through any module see the wrapper.

Every span is folded into per-group aggregates as it closes (calls,
busy seconds, self seconds), so memory stays flat however long the run.
The first `MAX_SPANS` spans are also kept verbatim for `write()`.

Busy time of a group counts only its outermost spans, so a kernel that
calls another kernel of the same group is not counted twice. Self time
of a layer is its spans' durations minus the time their direct child
spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

MAX_SPANS = 50_000   # spans kept verbatim per pass; aggregates see all

LAYERS = ("gf", "linalg", "mds", "convertible", "ensemble", "search",
          "verify", "bounds")

# (module, function) -> extra metric groups the span belongs to.  The
# layer (the module name) and the span name are always groups too.
FUNCTIONS = {
    ("linalg", "mat_rank"): ("linalg.rank",),
    ("linalg", "rank_pair"): ("linalg.rank",),
    ("linalg", "in_span"): (),
    ("linalg", "rref"): (),
    ("linalg", "vstack"): (),
    ("linalg", "solve_left"): ("linalg.solve",),
    ("linalg", "mat_inverse"): ("linalg.solve",),
    ("linalg", "enumerate_subspaces"): (),
    ("linalg", "random_matrix"): (),
    ("linalg", "random_invertible"): (),
    ("mds", "encode"): ("mds.encode",),
    ("mds", "decode_from"): ("mds.decode",),
    ("mds", "verify_mds"): ("mds.verify_mds",),
    ("mds", "make_systematic_mds"): (),
    ("convertible", "run_conversion"): ("convertible.run_conversion",),
    ("convertible", "check_feasible"): ("convertible.check_feasible",),
    ("convertible", "canonical_codes"): (),
    ("convertible", "default_scheme"): (),
    ("ensemble", "ensemble_from_codes"): ("ensemble.build",),
    ("ensemble", "entropy"): ("ensemble.entropy",),
    ("ensemble", "mapped_rows"): ("ensemble.mapped_rows",),
    ("ensemble", "check_storage_axioms"): (),
    ("ensemble", "check_joint_entropy"): (),
    ("ensemble", "check_prop_parity_iid"): (),
    ("ensemble", "check_mds_reconstruction"): (),
    ("ensemble", "check_stability"): (),
    ("ensemble", "check_cond_entropy_final"): (),
    ("ensemble", "check_mi_bound"): (),
    ("ensemble", "check_min_avg"): (),
    ("ensemble", "corollary1_holds"): (),
    ("ensemble", "corollary2_holds"): (),
    ("search", "min_bandwidth_exhaustive"): ("search.exhaustive",),
    ("search", "check_scheme_inequalities"): (),
    ("search", "random_mds_pair"): ("search.mix",),
    ("verify", "run_suite"): (),
    ("verify", "verify_instance"): ("verify.instance",),
    ("verify", "run_randomized_checks"): ("verify.randomized",),
    ("verify", "plant_corruption"): (),
    ("bounds", "theorem_bound"): ("bounds.theorem_bound",),
    ("bounds", "entropy_V_lb"): (),
}

# Field kernels are methods; (class, method) -> group.
KERNELS = {
    ("PrimeField", m): "gf.prime" for m in ("arr_submul", "arr_matmul", "arr_scale")
}
KERNELS.update({
    ("BinaryField", m): "gf.binary" for m in ("arr_submul", "arr_matmul", "arr_scale")
})


class _Frame:
    __slots__ = ("sid", "name", "start", "child_s", "children", "row")

    def __init__(self, sid, name, start):
        self.sid = sid
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.children = 0
        self.row = None


class Tracer:
    """Records spans and per-group aggregates while installed."""

    def __init__(self):
        self.item = -1
        self._reset()
        self._patches: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, item]
        self.span_total = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = defaultdict(int)

    def clear(self) -> None:
        """Drop everything recorded so far; keeps the wrappers installed."""
        if self._stack:
            raise RuntimeError("clear() inside an open span")
        self._reset()

    def inside(self, name: str) -> bool:
        return any(f.name == name for f in self._stack)

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str, groups: tuple[str, ...]) -> _Frame:
        for g in groups:
            self._depth[g] += 1
        self.span_total += 1
        frame = _Frame(self.span_total, name, time.perf_counter())
        # Kept spans are the first MAX_SPANS in start order, so a kept
        # span's id is its row number + 1 and its parent is kept too.
        if len(self.spans) < MAX_SPANS:
            parent = self._stack[-1].sid if self._stack else 0
            frame.row = [name, frame.start, None, parent, self.item]
            self.spans.append(frame.row)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, groups: tuple[str, ...]) -> None:
        end = time.perf_counter()
        dur = end - frame.start
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += dur
            parent.children += 1
        for g in groups:
            self.calls[g] += 1
            self._depth[g] -= 1
            if self._depth[g] == 0:
                self.busy[g] += dur
        self.self_s[groups[0]] += dur - frame.child_s
        if frame.row is not None:
            frame.row[2] = end

    def _wrap(self, fn, name: str, groups: tuple[str, ...], hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, groups)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, groups)
            if hook is not None:
                hook(tracer, frame, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import convertbw
        from convertbw import gf, linalg
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "convertbw" or k.startswith("convertbw."))]
        for (mod_name, fn_name), extra in FUNCTIONS.items():
            mod = getattr(convertbw, mod_name)
            orig = getattr(mod, fn_name)
            name = f"{mod_name}.{fn_name}"
            groups = (mod_name, name) + extra
            wrapped = self._wrap(orig, name, groups,
                                 _HOOKS.get((mod_name, fn_name)))
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapped)
        for (cls_name, meth), group in KERNELS.items():
            cls = getattr(gf, cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            name = f"{group}.{meth}"
            setattr(cls, meth, self._wrap(orig, name, ("gf", name, group)))
        orig_init = linalg.Matrix.__init__
        tracer = self

        def counting_init(m, *args, **kwargs):
            tracer.counts["linalg.matrix_new"] += 1
            orig_init(m, *args, **kwargs)

        self._patches.append((linalg.Matrix, "__init__", orig_init))
        linalg.Matrix.__init__ = counting_init

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates recorded so far, as plain dicts."""
        return {"calls": dict(self.calls), "busy_s": dict(self.busy),
                "self_s": dict(self.self_s), "counts": dict(self.counts)}

    def write(self, path) -> None:
        """Kept spans as JSON: one [name, start, end, parent, item] row
        per span in start order; parent is the 1-based row of the parent
        span, 0 for none."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "item"],
            "spans_total": self.span_total,
            "spans_kept": len(self.spans),
            "spans": [[n, round(s - t0, 7), round(e - t0, 7), p, i]
                      for n, s, e, p, i in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- per-function hooks that turn call results into exact counts ----------

def _rank_rows(tracer, frame, args, kwargs, result):
    mats = args[:2]
    tracer.counts["linalg.rank.rows_in"] += sum(m.rows for m in mats if m.cols)


def _search_outcome(tracer, frame, args, kwargs, result):
    tracer.counts["search.visits"] += result.visited
    tracer.counts["search.found"] += int(result.found)


def _entropy(tracer, frame, args, kwargs, result):
    from convertbw.ensemble import NodeId
    items = args[1] if len(args) > 1 else kwargs["items"]
    if isinstance(items, (list, tuple, frozenset, set)) and \
            all(isinstance(it, NodeId) for it in items):
        tracer.counts["ensemble.entropy.node_calls"] += 1
        # A cached entropy returns before any rank is computed.
        if frame.children == 0:
            tracer.counts["ensemble.entropy.hits"] += 1


def _verify_mds(tracer, frame, args, kwargs, result):
    if tracer.inside("search.random_mds_pair"):
        tracer.counts["search.mix.sampled"] += 1
        tracer.counts["search.mix.accepted"] += int(result)


def _randomized(tracer, frame, args, kwargs, result):
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    tracer.counts["verify.trials"] += trials
    for rep in result:
        c = rep["counts"]
        tracer.counts["verify.precondition"] += c["precondition_failures"]
        tracer.counts["verify.skipped"] += c["skipped"]


_HOOKS = {
    ("linalg", "mat_rank"): _rank_rows,
    ("linalg", "rank_pair"): _rank_rows,
    ("search", "min_bandwidth_exhaustive"): _search_outcome,
    ("ensemble", "entropy"): _entropy,
    ("mds", "verify_mds"): _verify_mds,
    ("verify", "run_randomized_checks"): _randomized,
}
