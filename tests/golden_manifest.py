"""Golden manifest of the CLI's outputs: what a fixed set of invocations
exits with, writes and reports.

``tests/golden/manifest.json`` holds, for each invocation in ``INVOCATIONS``,
its exit code, the SHA-256 of its stdout, its stderr and every artifact it
writes, and the numbers its report makes claims about: the final watch
populations, the grid and integrity block of a ``simulate`` run, and the
dark counts.  Bitwise output depends on the numeric stack, so the manifest
also records the environment it was made in.  It depends on the BLAS thread
count too (OpenBLAS splits some reductions across threads), so every
invocation runs on ``BLAS_THREADS`` threads, whatever the caller's setting.

Regenerate it after a change that is meant to move outputs:

    python tests/golden_manifest.py

and compare the old and new manifests entry by entry.
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


def _claims(out):
    """The numbers a run's artifacts report: final populations, grid and
    integrity of a ``simulate`` run, and dark counts."""
    path = out / "report.json"
    if not path.is_file():
        return {}
    report = json.loads(path.read_text())
    if report["command"] == "simulate":
        return {"final_populations": report["populations"]["final"],
                "grid": report["grid"], "integrity": report["integrity"],
                "dark_counts": {"top_subspace": report["top_subspace_dark_count"]}}
    if report["command"] == "scan":
        with open(out / "scan.csv", newline="") as fh:
            counts = [int(row["dark_count"]) for row in csv.DictReader(fh)]
        return {"dark_counts": {"points": counts}}
    return {"dark_counts": {"detected": report["detected"]["total_dark"],
                            "oracle": report["brute_force"]["total_dark"]}}


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


def main():
    MANIFEST.write_text(json.dumps(manifest(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    main()
