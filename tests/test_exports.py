"""Every name a ``cavitydark`` module lists in ``__all__`` must exist, every
function the benchmark traces must exist, and each command imports only the
modules it runs."""

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


def test_package_names_resolve():
    assert cavitydark.__all__
    for name in cavitydark.__all__:
        value = getattr(cavitydark, name)
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cavitydark.no_such_name  # noqa: B018


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
# the scan forks its workers itself; no command loads a process pool
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


@pytest.mark.parametrize("command, absent", [
    ("analyze", DYNAMICS | POOL | RANDOM | {"cavitydark.geometry"}),
    ("scan", DYNAMICS | POOL | RANDOM | {"cavitydark.geometry"}),
    ("simulate", POOL | RANDOM | {"cavitydark.geometry"}),
])
def test_commands_import_only_what_they_run(tmp_path, command, absent):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"schema_version": 1, "units": "g1", **RUNS[command]}))
    src = str(Path(cavitydark.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, command, "--config", str(path),
         "--out", str(tmp_path / "out"),
         *(["--workers", "2"] if command == "scan" else [])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert "cavitydark.darkstates" in loaded
    assert absent.isdisjoint(loaded), sorted(absent & set(loaded))
    if command == "simulate":
        assert DYNAMICS <= set(loaded)
