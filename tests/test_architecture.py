"""The solver stack must have no path to the hidden point.

ground_truth_pattern and the problem encodings (which hold the hidden
vector) live on the trusted side; everything that decides signs may see
oracle answers only.  A textual import check keeps the boundary honest.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from ldt.geometry import Vector
from ldt.oracle import HiddenPointOracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ldt"

SOLVER_SIDE = ["solver.py", "inference.py", "batch.py", "intlin.py", "lp.py", "prng.py"]


def _imports_of(path):
    tree = ast.parse(path.read_text())
    mods = set()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                mods.add(a.name)
        elif isinstance(node, ast.ImportFrom):
            mods.add(node.module or "")
            for a in node.names:
                names.add(a.name)
    return mods, names


def test_solver_side_never_touches_ground_truth():
    for fname in SOLVER_SIDE:
        text = (SRC / fname).read_text()
        assert "ground_truth_pattern" not in text, fname


def test_solver_side_never_imports_problem_encodings():
    for fname in SOLVER_SIDE:
        mods, names = _imports_of(SRC / fname)
        assert not any("problems" in m for m in mods), fname
        assert "Encoding" not in names, fname


def test_oracle_owns_the_secret():
    # the only module allowed to hold the hidden point during a solve
    mods, names = _imports_of(SRC / "solver.py")
    assert any("oracle" in m for m in mods)
    private = [a for a in vars(HiddenPointOracle(Vector([1]))) if a.startswith("_")]
    assert "_secret_col" in private
    for fname in SOLVER_SIDE:
        text = (SRC / fname).read_text()
        assert "_secret" not in text, fname
        assert not [a for a in private if f".{a}" in text], fname
    text = (SRC / "solver.py").read_text()
    assert "secret" not in text.replace("HiddenPointOracle", "")


def test_lab_is_independent_of_the_batch_engine():
    # the cross-check oracle must not share code with what it checks
    text = (SRC / "lab.py").read_text()
    tree = ast.parse(text)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            assert "batch" not in node.module
    assert "fm_feasible" in text  # its own elimination, not the simplex


NO_SCIPY_RUN = """
import sys
from pathlib import Path

import ldt
from ldt import cli
from ldt.oracle import HiddenPointOracle
from ldt.prng import SplitMix64
from ldt.problems import encode_ksum, random_ksum_instance
from ldt.solver import SolveConfig, solve

values = random_ksum_instance(SplitMix64(4), 16, 3, planted=True)
enc = encode_ksum(values, 3)
report = solve(enc.family, HiddenPointOracle(enc.hidden), SolveConfig(seed=4))
assert report.rounds, "the solve ran no inference round"
inst = Path(sys.argv[1])
inst.write_text(" ".join(map(str, values)) + "\\n")
assert cli.main(["solve", "ksum", "--input", str(inst), "--k", "3"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_solve_path_never_imports_scipy(tmp_path):
    # floating point only proposes, and numpy does all of it
    for path in SRC.glob("*.py"):
        assert "scipy" not in path.read_text(), path.name
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path / "inst.txt")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_hooks_name_existing_bindings():
    # the traced benchmark patches these module attributes; one that is
    # gone would leave its per-layer metric empty instead of failing here
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    hooks = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets)
    )
    assert hooks
    for module, attr, _ in hooks:
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr}"
        )
