"""Golden manifest of the CLI's outputs: what a fixed set of invocations
exits with, writes and reports.

``tests/golden/manifest.json`` holds, for each invocation in ``INVOCATIONS``,
its exit code, the SHA-256 of its stdout, its stderr and every artifact it
writes, the SHA-256 of each column of its CSV artifact, and the numbers
its report makes claims about: the final watch populations, the grid and
integrity block of a ``simulate`` run, the dark counts, and the routes'
largest principal angle.  Bitwise output depends on the numeric stack, so
the manifest also records the environment it was made in.  It depends on the BLAS thread
count too (OpenBLAS splits some reductions across threads), so every
invocation runs on ``BLAS_THREADS`` threads, whatever the caller's setting.

Regenerate it after a change that is meant to move outputs:

    python tests/golden_manifest.py

It prints, for each invocation, the digests that changed (artifacts and CSV
columns) and the absolute change of every recorded number that moved,
against the manifest it replaces.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
MANIFEST = GOLDEN / "manifest.json"
SRC = HERE.parent / "src"
#: BLAS threads of every invocation
BLAS_THREADS = 1


def _config(name):
    """``--config`` of a golden config, relative to the tests directory."""
    return ["--config", f"golden/configs/{name}.json"]


#: name -> CLI arguments, without ``--out``
INVOCATIONS = {
    **{f"simulate_{p}": ["simulate", "--preset", p]
       for p in ("fig2b", "fig3c", "fig3d", "fig4b", "fig5b")},
    "simulate_sim_n6": ["simulate", *_config("sim_n6")],
    "simulate_detected_dark": ["simulate", *_config("sim_detected_dark")],
    "simulate_n5_tiny_pivot": ["simulate", *_config("sim_n5_tiny_pivot")],
    "scan_n10_seed5_workers1": ["scan", *_config("scan_n10"), "--seed", "5"],
    "scan_n10_seed5_workers2": ["scan", *_config("scan_n10"), "--seed", "5",
                                "--workers", "2"],
    "scan_n10_seed11": ["scan", *_config("scan_n10"), "--seed", "11"],
    **{name: ["analyze", *_config(name)] for name in (
        "analyze_n8_uniform", "analyze_n5_detuned", "analyze_excitation_0",
        "analyze_excitation_5", "analyze_g_zero", "analyze_v_1e8",
        "analyze_n8_uniform_1e-300")},
    "geometry_three_atoms": ["geometry", *_config("geometry_three_atoms")],
}


def environment():
    """What the bytes of a run depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas": blas.get("openblas configuration",
                         f"{blas.get('name')} {blas.get('version')}"),
        "blas_threads": BLAS_THREADS,
    }


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _csv(path):
    """``(rows, column digests)`` of a CSV artifact: its rows as dicts, and
    ``{"<file>[<column>]": SHA-256}`` of each column's cells, one a line."""
    with open(path, newline="") as fh:
        header, *cells = csv.reader(fh)
    digests = {f"{path.name}[{name}]":
               _sha256("\n".join(row[i] for row in cells).encode())
               for i, name in enumerate(header)}
    return [dict(zip(header, row)) for row in cells], digests


def _claims(out):
    """The numbers a run's artifacts report: final populations, grid and
    integrity of a ``simulate`` run, dark counts and the routes' largest
    principal angle; and the digest of each column of a CSV artifact."""
    path = out / "report.json"
    if not path.is_file():
        return {}
    report = json.loads(path.read_text())
    if report["command"] == "simulate":
        return {"final_populations": report["populations"]["final"],
                "grid": report["grid"], "integrity": report["integrity"],
                "dark_counts": {"top_subspace": report["top_subspace_dark_count"]},
                "column_sha256": _csv(out / "trajectory.csv")[1]}
    if report["command"] == "scan":
        rows, digests = _csv(out / "scan.csv")
        return {"dark_counts": {"points": [int(row["dark_count"]) for row in rows]},
                "column_sha256": digests}
    return {"dark_counts": {"detected": report["detected"]["total_dark"],
                            "oracle": report["brute_force"]["total_dark"]},
            "agreement": {"max_principal_angle":
                          report["agreement"]["max_principal_angle"]}}


def run(args, workdir):
    """Run one invocation in ``workdir``, writing to ``workdir/out``; return
    its manifest entry."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    args = [str(HERE / a) if a.endswith(".json") else a for a in args]
    proc = subprocess.run([sys.executable, "-m", "cavitydark.cli", *args, "--out", "out"],
                          cwd=workdir, env=env, capture_output=True, check=False)
    out = Path(workdir) / "out"
    digests = {"stdout": _sha256(proc.stdout), "stderr": _sha256(proc.stderr)}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        digests[path.name] = _sha256(path.read_bytes())
    return {"exit_code": proc.returncode, "sha256": digests, **_claims(out)}


def manifest():
    """The manifest of every invocation, made in fresh directories."""
    entries = {}
    for name, args in INVOCATIONS.items():
        with tempfile.TemporaryDirectory() as workdir:
            entries[name] = {"args": args, **run(args, workdir)}
    return {"environment": environment(), "invocations": entries}


def _numbers(value, path=""):
    """``{path: number}`` of every number in a manifest entry."""
    if isinstance(value, (dict, list)):
        found = {}
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            found.update(_numbers(item, f"{path}.{key}".lstrip(".")))
        return found
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return {path: value} if is_number else {}


def differences(old, new):
    """Lines naming what differs between two manifests: the environment, and
    for each invocation its changed digests (of artifacts and of CSV
    columns) and the absolute change of each recorded number that moved."""
    lines = [] if old["environment"] == new["environment"] else ["environment changed"]
    for name in old["invocations"].keys() - new["invocations"].keys():
        lines.append(f"{name}: removed")
    for name, entry in new["invocations"].items():
        before = old["invocations"].get(name)
        if before is None:
            lines.append(f"{name}: new")
            continue
        for field in ("sha256", "column_sha256"):
            was, now = before.get(field, {}), entry.get(field, {})
            for key in sorted(k for k in was.keys() | now.keys()
                              if was.get(k) != now.get(k)):
                lines.append(f"{name}: digest of {key} changed")
        was, now = _numbers(before), _numbers(entry)
        for path in sorted(was.keys() | now.keys()):
            if path not in was or path not in now:
                lines.append(f"{name}: {path} only in the "
                             f"{'new' if path in now else 'old'} manifest")
            elif was[path] != now[path]:
                moved = abs(now[path] - was[path])
                lines.append(f"{name}: {path} moved by {moved:.3g}")
    return lines


def main():
    old = json.loads(MANIFEST.read_text()) if MANIFEST.is_file() else None
    new = manifest()
    MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
    if old is not None:
        print("\n".join(differences(old, new)) or "nothing changed")


if __name__ == "__main__":
    main()
