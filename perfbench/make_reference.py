"""Exact final watch populations for the two simulate workloads.

The reference is independent of the RK4 integrator: it applies
``scipy.linalg.expm`` of the vectorised Liouvillian to the initial state.
Photon loss maps a density matrix that is block-diagonal in the excitation
number to another such matrix, so the Liouvillian is restricted to the
block-diagonal entries (147 for sim-fig5b, 2298 for sim-n6); the script
checks that invariance before using it.

Run once from the repository root and commit the output:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes ``perfbench/workloads/reference.json``.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from cavitydark.basis import ladder_spaces
from cavitydark.dynamics import build_ladder_hamiltonian, lowering_operator
from cavitydark.hamiltonian import SystemParams
from cavitydark.states import resolve_state

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_sim_configs():
    """The two simulate configs exactly as the benchmark runs them."""
    fig5b = json.loads((ROOT / "src/cavitydark/presets/fig5b.json").read_text())
    fig5b["t_max"] = 0.5
    n6 = json.loads((HERE / "workloads/sim_n6.json").read_text())
    return {"sim-fig5b": fig5b, "sim-n6": n6}


def final_populations(cfg):
    p = cfg["params"]
    params = SystemParams(n_atoms=p["n_atoms"], delta_a=p["delta_a"], g=p["g"],
                          V=p["V"], kappa=p["kappa"])
    ladder = ladder_spaces(params.n_atoms, int(cfg["n_max"]))
    d = ladder.dim
    H = build_ladder_hamiltonian(params, ladder)
    a = lowering_operator(ladder)
    n = a.conj().T @ a
    eye = np.eye(d)
    # row-major vec: vec(A rho B) = kron(A, B.T) vec(rho)
    L = (1j * (sp.kron(eye, H.T) - sp.kron(H, eye))
         + params.kappa * sp.kron(a, a.conj())
         - 0.5 * params.kappa * (sp.kron(n, eye) + sp.kron(eye, n.T))).tocsr()

    block = np.repeat(np.arange(len(ladder.subspaces)), np.diff(ladder.offsets))
    keep = np.flatnonzero((block[:, None] == block[None, :]).ravel())
    drop = np.setdiff1d(np.arange(d * d), keep)
    leak = abs(L[drop][:, keep]).max() if drop.size else 0.0
    if leak != 0.0:
        raise SystemExit(f"block-diagonal subspace is not invariant (leak {leak})")
    L_kept = L[keep][:, keep].toarray()

    psi = resolve_state(ladder, params, cfg["initial"])
    rho0 = np.outer(psi, psi.conj()).ravel()[keep]
    rho_t = np.zeros(d * d, dtype=complex)
    rho_t[keep] = scipy.linalg.expm(L_kept * float(cfg["t_max"])) @ rho0
    rho_t = rho_t.reshape(d, d)
    out = {}
    for entry in cfg["watch"]:
        w = resolve_state(ladder, params, entry["state"])
        out[entry["name"]] = float((w.conj() @ rho_t @ w).real)
    return out, keep.size


def main():
    result = {}
    for name, cfg in load_sim_configs().items():
        t0 = time.perf_counter()
        pops, size = final_populations(cfg)
        elapsed = time.perf_counter() - t0
        print(f"{name}: {size} block entries, expm in {elapsed:.1f} s: {pops}",
              file=sys.stderr)
        result[name] = {"t_max": cfg["t_max"], "dt": cfg["dt"],
                        "steps": round(cfg["t_max"] / cfg["dt"]),
                        "final_populations": pops}
    (HERE / "workloads/reference.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
