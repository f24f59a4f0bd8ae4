"""State vectors over the excitation ladder, by name or by construction.

Simulation configs name a state by a basis label string such as ``"0,eg"``
or by a state spec: a JSON object holding one of these kinds and only its
keys, as ``config.OBJECTS["state spec"]`` lists them:

* an explicit amplitude map ``{"amplitudes": {"0,eegg": -0.5, ...}}``;
* ``{"dressed": s}`` -- the s-th single-excitation dressed state of the
  uniform-interaction collective basis;
* ``{"bright": true}`` -- the single-excitation combination that carries the
  full cavity coupling of the degenerate dressed manifold;
* ``{"analytic_dark": l}`` -- the l-th closed-form dark state of the
  single-excitation subspace, built directly in its orthonormal form (see
  :func:`analytic_dark_vectors`; defined for N >= 3, uniform dipole
  interaction, non-degenerate pivot coupling);
* ``{"detected_dark": k, "excitation": n}`` -- the k-th dark state reported
  by the numeric detector on the n-excitation subspace (n defaults to 1; k
  is 1-based, in detector ordering, each cluster in its canonical basis).
  The reports come from :func:`dark_reports` over the Hamiltonian blocks the
  caller built, so each block is detected at most once however many states
  name it.

All constructors return vectors of the full ladder dimension.  ``bright``
and ``analytic_dark`` work on the collective couplings rescaled by
:func:`~cavitydark.linalg.pow2_scale`, so no norm of them over- or
underflows.  An amplitude map is taken as written; ``simulate`` checks its
norm, as it checks every initial and watch state.
"""

from __future__ import annotations

import cmath
import functools

import numpy as np

from .arrowhead import collective_basis, collective_couplings, to_arrowhead
from .basis import label_excitation
from .config import check_object, is_number, read
from .darkstates import detect
from .linalg import pow2_scale

__all__ = [
    "basis_vector",
    "amplitude_vector",
    "dressed_vector",
    "bright_vector",
    "analytic_dark_vectors",
    "dark_reports",
    "detected_dark_vector",
    "resolve_state",
    "spec_min_excitation",
]

#: largest |G_2| / max|G_s| that :func:`analytic_dark_vectors` refuses
ANALYTIC_PIVOT_TOL = 1e-12
#: largest norm of the degenerate couplings, relative to max|G_s|, at which
#: :func:`bright_vector` has no state to return
BRIGHT_NORM_TOL = 1e-12


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
    return vec


def _single_excitation_lower(ladder, coeffs):
    """Embed bare coefficients over the N zero-photon single-excitation
    states (one vector, or one per column) into the full ladder."""
    sub = ladder.subspaces[1]
    off = ladder.offsets[1] + sub.n_upper
    vec = np.zeros((ladder.dim, *np.shape(coeffs)[1:]), dtype=complex)
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
    their cavity couplings; orthogonal to every single-excitation dark state.
    Undefined when those couplings vanish against ``BRIGHT_NORM_TOL`` max|G_s|."""
    _require_single_excitation(ladder)
    N = ladder.n_atoms
    G = pow2_scale(collective_couplings(g))[0]
    weights = np.zeros(N)
    weights[1:] = G[1:]
    nrm = np.linalg.norm(weights)
    if nrm <= BRIGHT_NORM_TOL * np.abs(G).max():
        raise ValueError("bright state undefined: all degenerate couplings vanish")
    return _single_excitation_lower(ladder, collective_basis(N).T @ (weights / nrm))


def analytic_dark_vectors(ladder, g):
    """The N-2 closed-form single-excitation dark states, orthonormal.

    Dark state l (l = 1..N-2) has the amplitudes
    sign(G_2) (G_{l+2} G_2, ..., G_{l+2} G_{l+1}, -(G_2^2 + ... + G_{l+1}^2)),
    normalized, on dressed states 2..l+2 and zero elsewhere.  This
    Helmert-type family is orthogonal to (G_2, ..., G_N), so it decouples
    from the cavity, and it is orthonormal by construction.  It is the
    Gram-Schmidt orthonormalization of the pairings (G_{l+2}, -G_2) of
    dressed state 2 against dressed state l+2; sign(G_2) keeps their
    orientation.  Requires |G_2| above ``ANALYTIC_PIVOT_TOL`` max|G_s|,
    otherwise the pairing pivot is degenerate and the family is ill-defined.
    """
    _require_single_excitation(ladder)
    N = ladder.n_atoms
    if N < 3:
        return np.zeros((ladder.dim, 0), dtype=complex)
    G = pow2_scale(collective_couplings(g))[0]
    if abs(G[1]) <= ANALYTIC_PIVOT_TOL * np.abs(G).max():
        raise ValueError(
            "analytic dark construction needs a non-vanishing pivot coupling G_2"
        )
    dressed = np.zeros((N, N - 2))
    dressed[1:-1] = np.triu(np.outer(G[1:-1], G[2:]))
    np.fill_diagonal(dressed[2:], -np.cumsum(G[1:-1] ** 2))
    dressed *= np.sign(G[1]) / np.linalg.norm(dressed, axis=0)
    return _single_excitation_lower(ladder, collective_basis(N).T @ dressed)


def dark_reports(hamiltonians):
    """``report(n)``: the canonical detector report of the ladder block
    ``hamiltonians[n]``, computed on the first call for each n."""
    return functools.cache(lambda n: detect(to_arrowhead(hamiltonians[n])).canonical())


def detected_dark_vector(ladder, dark_report, excitation, index):
    """k-th dark state (1-based) found by the numeric detector on one
    subspace, embedded into the ladder; ``dark_report`` is a
    :func:`dark_reports` over the ladder's blocks."""
    if not 0 <= excitation <= ladder.n_max:
        raise ValueError(f"excitation {excitation} outside ladder 0..{ladder.n_max}")
    sub = ladder.subspaces[excitation]
    report = dark_report(excitation)
    if not 1 <= index <= report.total_dark:
        raise ValueError(
            f"detected_dark index {index} out of range; subspace has "
            f"{report.total_dark} dark state(s)"
        )
    vec = np.zeros(ladder.dim, dtype=complex)
    off = ladder.offsets[excitation]
    vec[off : off + sub.dim] = report.vectors[:, index - 1]
    return vec


def resolve_state(ladder, params, spec, dark_report):
    """Build the state vector described by a config entry (see module doc);
    ``dark_report`` is a :func:`dark_reports` over the ladder's blocks."""
    if isinstance(spec, str):
        return basis_vector(ladder, spec)
    kind = check_object("state spec", spec)
    if kind == "amplitudes":
        return amplitude_vector(ladder, spec["amplitudes"])
    index = read(spec, kind)
    if kind == "dressed":
        return dressed_vector(ladder, index)
    if kind == "bright":
        if not index:
            raise ValueError("bright must be true: false names no state")
        return bright_vector(ladder, params.g)
    if kind == "analytic_dark":
        darks = analytic_dark_vectors(ladder, params.g)
        if not 1 <= index <= darks.shape[1]:
            raise ValueError(
                f"analytic_dark index {index} out of range 1..{darks.shape[1]}"
            )
        return darks[:, index - 1]
    return detected_dark_vector(
        ladder, dark_report, read(spec, "excitation", default=1), index
    )


def spec_min_excitation(spec):
    """Smallest ladder n_max able to host the state a config entry describes."""
    if isinstance(spec, str):
        return label_excitation(spec)
    kind = check_object("state spec", spec)
    if kind == "amplitudes":
        try:
            labels = list(spec["amplitudes"])
        except TypeError:
            labels = []
        if not labels:
            raise ValueError(
                f"amplitudes must map state labels to amplitudes, "
                f"got {spec['amplitudes']!r}"
            )
        return max(map(label_excitation, labels))
    return read(spec, "excitation", default=1) if kind == "detected_dark" else 1
