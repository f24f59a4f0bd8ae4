"""State vectors over the excitation ladder, by name or by construction.

Simulation configs refer to states in a small vocabulary:

* a basis label string such as ``"0,eg"``;
* an explicit amplitude map ``{"amplitudes": {"0,eegg": -0.5, ...}}``;
* ``{"dressed": s}`` -- the s-th single-excitation dressed state of the
  uniform-interaction collective basis;
* ``{"bright": true}`` -- the single-excitation combination that carries the
  full cavity coupling of the degenerate dressed manifold;
* ``{"analytic_dark": l}`` -- the l-th orthogonalized closed-form dark state
  of the single-excitation subspace (defined for N >= 3, uniform dipole
  interaction, non-degenerate pivot coupling);
* ``{"detected_dark": k, "excitation": n}`` -- the k-th dark state reported
  by the numeric detector on the n-excitation subspace (1-based, detector
  ordering, each cluster in its canonical basis).

All constructors return normalized vectors of the full ladder dimension.
"""

from __future__ import annotations

import cmath

import numpy as np

from .arrowhead import collective_basis, collective_couplings, to_arrowhead
from .basis import parse_label
from .config import is_number, read
from .darkstates import detect, orthogonalize
from .hamiltonian import build_hamiltonian

__all__ = [
    "basis_vector",
    "amplitude_vector",
    "dressed_vector",
    "bright_vector",
    "analytic_dark_vectors",
    "detected_dark_vector",
    "resolve_state",
    "spec_min_excitation",
]

#: largest |1 - ||psi||| of an amplitude map
NORM_TOL = 1e-10
#: smallest |G_2| / max(1, max|G_s|) that :func:`analytic_dark_vectors` takes
PIVOT_TOL = 1e-12


def basis_vector(ladder, label):
    """Unit vector on one product basis state, e.g. ``"1,gg"``."""
    vec = np.zeros(ladder.dim, dtype=complex)
    vec[ladder.global_index_of_label(label)] = 1.0
    return vec


def _amplitude(label, amp):
    """One entry of an amplitude map: a finite number or an [re, im] pair."""
    parts = amp if isinstance(amp, (list, tuple)) and len(amp) == 2 else [amp]
    try:  # numbers only: complex() would also take "0.6" and true
        value = complex(*parts) if all(map(is_number, parts)) else None
    except OverflowError:  # an integer beyond float range
        value = None
    if value is None or not cmath.isfinite(value):
        raise ValueError(
            f"amplitude of state {label!r} must be a finite number or "
            f"[re, im], got {amp!r}"
        )
    return value


def amplitude_vector(ladder, amplitudes):
    """State from an explicit label -> amplitude map (real or [re, im])."""
    if not hasattr(amplitudes, "items"):
        raise ValueError(
            f"amplitudes must map state labels to amplitudes, got {amplitudes!r}"
        )
    vec = np.zeros(ladder.dim, dtype=complex)
    for label, amp in amplitudes.items():
        value = _amplitude(label, amp)
        idx = ladder.global_index_of_label(label)
        if vec[idx] != 0.0:
            raise ValueError(f"duplicate amplitude for state {label!r}")
        vec[idx] = value
    nrm = np.linalg.norm(vec)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"amplitude map is not normalized: |psi| = {float(nrm)!r}")
    return vec


def _single_excitation_lower(ladder, coeffs):
    """Embed bare coefficients over the N zero-photon single-excitation
    states into the full ladder."""
    sub = ladder.subspaces[1]
    off = ladder.offsets[1] + sub.n_upper
    vec = np.zeros(ladder.dim, dtype=complex)
    vec[off : off + sub.n_lower] = coeffs
    return vec


def _require_single_excitation(ladder):
    if ladder.n_max < 1:
        raise ValueError("ladder does not contain the single-excitation subspace")


def dressed_vector(ladder, index):
    """Single-excitation collective dressed state (1-based index)."""
    _require_single_excitation(ladder)
    N = ladder.n_atoms
    if not 1 <= index <= N:
        raise ValueError(f"dressed index must lie in 1..{N}, got {index}")
    return _single_excitation_lower(ladder, collective_basis(N)[index - 1])


def bright_vector(ladder, g):
    """Normalized combination of the degenerate dressed states weighted by
    their cavity couplings; orthogonal to every single-excitation dark state."""
    _require_single_excitation(ladder)
    N = ladder.n_atoms
    G = collective_couplings(g, 0.0).couplings
    weights = np.zeros(N)
    weights[1:] = G[1:]
    nrm = np.linalg.norm(weights)
    if nrm < 1e-12:
        raise ValueError("bright state undefined: all degenerate couplings vanish")
    return _single_excitation_lower(ladder, collective_basis(N).T @ (weights / nrm))


def analytic_dark_vectors(ladder, g):
    """The N-2 closed-form single-excitation dark states, orthonormalized.

    Raw combination l (l = 1..N-2) pairs dressed state 2 against dressed
    state l+2 with weights (G_{l+2}, -G_2); Gram-Schmidt then keeps the first
    combination's direction.  Requires G_2 away from zero, otherwise the
    pairing pivot is degenerate and the construction is ill-defined.
    """
    _require_single_excitation(ladder)
    N = ladder.n_atoms
    if N < 3:
        return np.zeros((ladder.dim, 0), dtype=complex)
    G = collective_couplings(g, 0.0).couplings
    scale = max(1.0, float(np.abs(G).max()))
    if abs(G[1]) < PIVOT_TOL * scale:
        raise ValueError(
            "analytic dark construction needs a non-vanishing pivot coupling G_2"
        )
    raw = []
    for l in range(1, N - 1):
        c = np.zeros(N)
        c[1] = G[l + 1]
        c[l + 1] = -G[1]
        raw.append(c / np.linalg.norm(c))
    ortho = orthogonalize(raw)
    bare = collective_basis(N).T @ ortho
    out = np.zeros((ladder.dim, bare.shape[1]), dtype=complex)
    for k in range(bare.shape[1]):
        out[:, k] = _single_excitation_lower(ladder, bare[:, k])
    return out


def detected_dark_vector(ladder, params, excitation, index):
    """k-th dark state (1-based) found by the numeric detector on one
    subspace, embedded into the ladder."""
    if not 0 <= excitation <= ladder.n_max:
        raise ValueError(f"excitation {excitation} outside ladder 0..{ladder.n_max}")
    sub = ladder.subspaces[excitation]
    report = detect(to_arrowhead(build_hamiltonian(params, sub))).canonical()
    if not 1 <= index <= report.total_dark:
        raise ValueError(
            f"detected_dark index {index} out of range; subspace has "
            f"{report.total_dark} dark state(s)"
        )
    vec = np.zeros(ladder.dim, dtype=complex)
    off = ladder.offsets[excitation]
    vec[off : off + sub.dim] = report.vectors[:, index - 1]
    return vec


def resolve_state(ladder, params, spec):
    """Build the state vector described by a config entry (see module doc)."""
    if isinstance(spec, str):
        return basis_vector(ladder, spec)
    if not isinstance(spec, dict):
        raise ValueError(f"cannot interpret state spec {spec!r}")
    if "amplitudes" in spec:
        return amplitude_vector(ladder, spec["amplitudes"])
    if "dressed" in spec:
        return dressed_vector(ladder, read(spec, "dressed"))
    if read(spec, "bright"):
        return bright_vector(ladder, params.g)
    if "analytic_dark" in spec:
        index = read(spec, "analytic_dark")
        darks = analytic_dark_vectors(ladder, params.g)
        if not 1 <= index <= darks.shape[1]:
            raise ValueError(
                f"analytic_dark index {index} out of range 1..{darks.shape[1]}"
            )
        return darks[:, index - 1]
    if "detected_dark" in spec:
        return detected_dark_vector(
            ladder,
            params,
            read(spec, "excitation", default=1),
            read(spec, "detected_dark"),
        )
    raise ValueError(f"cannot interpret state spec {spec!r}")


def spec_min_excitation(spec):
    """Smallest ladder n_max able to host the state a config entry describes."""
    if isinstance(spec, str):
        state, _ = parse_label(spec)
        return state.excitation
    if isinstance(spec, dict):
        if "amplitudes" in spec:
            try:
                labels = list(spec["amplitudes"])
            except TypeError:
                labels = []
            if not labels:
                raise ValueError(
                    f"amplitudes must map state labels to amplitudes, "
                    f"got {spec['amplitudes']!r}"
                )
            return max(parse_label(lab)[0].excitation for lab in labels)
        if "detected_dark" in spec:
            return read(spec, "excitation", default=1)
        if any(k in spec for k in ("dressed", "bright", "analytic_dark")):
            return 1
    raise ValueError(f"cannot interpret state spec {spec!r}")
