"""Every name a ``cavitydark`` module lists in ``__all__`` must exist, every
function the benchmark traces must exist, every function the package
defines is used by the package, importing the package loads none of its
modules, and each command imports only the modules it runs."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cavitydark

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(cavitydark.__path__, "cavitydark.")
)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


#: traced by the benchmark but gone from the package; they read 0 until the
#: benchmark drops them (ROADMAP item 1)
STALE_TRACED = {("cavitydark.linalg", "rank_and_nullspace"),
                ("cavitydark.hamiltonian", "matrix_element")}


def test_every_traced_function_exists():
    # the benchmark skips a traced name it cannot find, so a renamed function
    # would silently zero its per-layer metric
    path = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    traced = {*child.SPANS, *child.COUNTS}
    missing = {(module, name) for module, name in traced
               if not callable(getattr(importlib.import_module(module), name, None))}
    assert traced - STALE_TRACED
    assert missing <= STALE_TRACED
    # patched on the class, outside the tables
    assert callable(importlib.import_module("cavitydark.dynamics").Trajectory.to_csv)


#: defined for the benchmark alone, which reads it (ROADMAP item 1)
UNUSED_BY_DESIGN = {"kernels.backend"}


def test_every_function_is_used_by_the_package():
    # a top-level function or a method that no package module names (as a
    # name, an attribute or an import) serves only the tests: the tests
    # build such references themselves
    defined, named = {}, set()
    for path in sorted(Path(cavitydark.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            owner, members = ((f"{node.name}.", node.body)
                              if isinstance(node, ast.ClassDef) else ("", [node]))
            for fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined[f"{path.stem}.{owner}{fn.name}"] = fn.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update((node.name, node.asname))
    unused = {qualified for qualified, name in defined.items()
              if name not in named and not (name.startswith("__") and name.endswith("__"))}
    assert defined and unused == UNUSED_BY_DESIGN


PARAMS = {"n_atoms": 2, "delta_a": 0.0, "g": [1.0, 1.0], "V": 0.5, "kappa": 0.3}
RUNS = {
    "analyze": {"params": PARAMS, "excitation": 1},
    "scan": {"params": PARAMS, "excitation": 1, "oracle_samples": 1,
             "grid": [{"key": "g[1]", "values": [0.5, 1.0]}]},
    "simulate": {"params": PARAMS, "n_max": 1, "initial": "0,eg",
                 "watch": [{"name": "ground", "state": "0,gg"}],
                 "t_max": 0.1, "dt": 0.025},
}
DYNAMICS = {"cavitydark.dynamics", "cavitydark.kernels", "cavitydark.states"}
# every scan point runs on the calling thread; no command loads a process pool
POOL = {"concurrent.futures", "multiprocessing"}
# the scan draws its oracle sample with the standard library
RANDOM = {"numpy.random"}
# a fresh interpreter runs one command and reports the package, pool and
# numpy.random modules it loaded
PROBE = """
import json, sys
from cavitydark.cli import main
code = main(sys.argv[1:])
prefixes = ("cavitydark", "concurrent", "multiprocessing", "numpy.random")
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith(prefixes))]))
"""


def _python(args):
    """A fresh interpreter on ``args`` that imports this package from source."""
    src = str(Path(cavitydark.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_package_import_loads_no_module():
    # every command pays for what ``import cavitydark`` loads
    proc = _python(["-c", "import json, sys, cavitydark; print(json.dumps("
                    "sorted(m for m in sys.modules if m.startswith(('cavitydark.', 'numpy')))))"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("command, absent", [
    ("analyze", DYNAMICS | POOL | RANDOM | {"cavitydark.geometry"}),
    ("scan", DYNAMICS | POOL | RANDOM | {"cavitydark.geometry"}),
    ("simulate", POOL | RANDOM | {"cavitydark.geometry"}),
])
def test_commands_import_only_what_they_run(tmp_path, command, absent):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"schema_version": 1, "units": "g1", **RUNS[command]}))
    proc = _python(["-c", PROBE, command, "--config", str(path),
                    "--out", str(tmp_path / "out"),
                    *(["--workers", "2"] if command == "scan" else [])])
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert "cavitydark.darkstates" in loaded
    assert absent.isdisjoint(loaded), sorted(absent & set(loaded))
    if command == "simulate":
        assert DYNAMICS <= set(loaded)
