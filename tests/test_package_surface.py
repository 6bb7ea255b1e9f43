"""What the package is made of: every function in src/convertbw has a
caller there and every class is named there, the write path names no
part of the row kernel, no module but gf names the lane format, no
module but gf and linalg packs rows, and importing the package, or
running a command that returns no array, leaves numpy unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import convertbw

PKG = Path(convertbw.__file__).parent

# Functions nothing in the package calls, each kept for a caller outside
# it.  Anything else without a caller, and any class nothing in the
# package names, belongs in tests/support.py or nowhere.
NO_CALLER_IN_PACKAGE = {
    # The JSON input boundary for codes and schemes (ROADMAP item 5's
    # witness file reads codes and schemes through it).
    "from_json_dict",
    # numpy reference kernels that perfbench/spans.py wraps by name.
    "arr_scale",
    "arr_matmul",
    # The write path's entry point, a message in and a codeword array
    # out: run_conversion encodes through _codeword, and
    # perfbench/run.py calls mds.encode by name.
    "encode",
    # The Matrix-level feasibility test, kept apart from the search's
    # packed audit (which tests feasibility on its own rows) so that it
    # stays an independent check: perfbench/run.py checks every found
    # scheme with it and perfbench/spans.py wraps it by name.
    "check_feasible",
    # The oracle's download checks on Matrix maps, public API that
    # perfbench/spans.py wraps by name, so they cannot move to
    # tests/support.py.  The verify suite's random trials call the
    # row-level cores of the first two (_mi_bound, _min_avg); its split
    # report calls _cond_entropy_splits, which _cond_entropy_final
    # (check_cond_entropy_final's core) calls for one subset.
    "check_mi_bound",
    "check_min_avg",
    "check_cond_entropy_final",
    # Matrix.array, the documented read-only array output: the tests'
    # numpy reference (tests/plain_elimination.py) reads it.
    "array",
}


def test_every_function_has_a_caller_in_the_package():
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, []).append(
                        f"{path.name}:{node.lineno}")
            elif path.name == "__init__.py":
                continue   # a re-export is not a use
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                # np.array names numpy's function, not Matrix.array.
                if not (isinstance(node.value, ast.Name) and node.value.id == "np"):
                    used.add(node.attr)
    orphans = {name: where for name, where in defined.items() if name not in used}
    assert set(orphans) == NO_CALLER_IN_PACKAGE, orphans


# The row kernel and its lane format, which the write path reaches only
# through Matrix.vecmul.
KERNEL_NAMES = {"RowPacking", "packing", "pack_bytes", "combine", "unpack"}


def test_write_path_names_no_kernel():
    for name in ("mds.py", "convertible.py"):
        path = PKG / name
        named: set[str] = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update({node.name, node.asname})
            elif isinstance(node, ast.arg):
                named.add(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named.add(node.name)
        assert not named & KERNEL_NAMES, (name, sorted(named & KERNEL_NAMES))


# The lane format of a packed row: its width and mask, its byte length
# and its conversions to and from bytes.
LANE_ATTRIBUTES = {"bits", "mask", "nbytes", "from_bytes", "to_bytes"}


def test_only_gf_knows_the_lane_format():
    for path in sorted(PKG.glob("*.py")):
        if path.name == "gf.py":
            continue
        named = {node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Attribute)}
        assert not named & LANE_ATTRIBUTES, (path.name, sorted(named & LANE_ATTRIBUTES))


# Packing rows: a Matrix packs its own rows once (Matrix.packed), and
# every other module reads that cache.
PACKING_NAMES = {"pack", "pack_bytes", "pack_rows"}


def test_only_gf_and_linalg_pack_rows():
    for path in sorted(PKG.glob("*.py")):
        if path.name in ("gf.py", "linalg.py"):
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.alias):
                named.update({node.name, node.asname})
        assert not named & PACKING_NAMES, (path.name, sorted(named & PACKING_NAMES))


# Run in a fresh interpreter: pytest and the other tests load numpy.
NUMPY_FREE = """
import runpy, sys
import convertbw
assert "numpy" not in sys.modules, "import convertbw loaded numpy"
sys.argv = ["convertbw", "bound", "--lf", "2", "--kf", "3", "--rf", "1",
            "--ri", "2", "--alpha", "3"]
try:
    runpy.run_module("convertbw", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert "numpy" not in sys.modules, "bound loaded numpy"

from convertbw.convertible import canonical_codes
from convertbw.params import SplitParams
from convertbw.mds import encode
initial, _ = canonical_codes(SplitParams(2, 2, 1, 1, 2, 7))
cw = encode(initial, [1, 2, 3, 4, 5, 6, 0, 1])
import numpy as np
assert type(cw) is np.ndarray and cw.dtype == np.int64, (type(cw), cw.dtype)
assert cw.shape == (5, 2) and not cw.flags.writeable
"""


def test_numpy_is_loaded_only_for_array_outputs():
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    run = subprocess.run([sys.executable, "-c", NUMPY_FREE], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert '"value"' in run.stdout
