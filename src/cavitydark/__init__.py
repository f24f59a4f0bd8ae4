"""Dark states of dipole-coupled atoms in a single-mode cavity.

Numerical toolkit for N two-level atoms with pairwise dipole interactions
coupled to one cavity mode: exact excitation-subspace Hamiltonians, the
arrowhead transform of their zero-photon block, degeneracy-aware dark-state
detection with an independent cross-check, photon-loss master-equation
dynamics, and the mapping from real atom placements to model parameters.

The names below are re-exported from their modules on first access
(PEP 562), so importing the package, or one module of it, loads only the
modules that are used: ``scan`` never imports the dynamics.
"""

import importlib

_EXPORTS = {
    "arrowhead": (
        "ArrowheadForm",
        "CollectiveCouplings",
        "collective_basis",
        "collective_couplings",
        "to_arrowhead",
    ),
    "basis": (
        "BasisState",
        "LadderBasis",
        "SubspaceBasis",
        "enumerate_subspace",
        "ladder_spaces",
        "parse_label",
    ),
    "darkstates": (
        "AnalysisResult",
        "DarkStateReport",
        "DegenerateCluster",
        "analyze_subspace",
        "brute_force_dark_states",
        "cluster_ranks",
        "detect",
        "orthogonalize",
        "reports_agree",
        "subspace_angle",
    ),
    "dynamics": (
        "DensityMatrix",
        "IntegrationError",
        "SimulationConfig",
        "Trajectory",
        "build_ladder_hamiltonian",
        "excitation_diagonal",
        "lowering_operator",
        "population",
        "simulate",
    ),
    "geometry": (
        "AtomGeometry",
        "DiscriminantResult",
        "cardano_discriminant",
        "cavity_coupling",
        "dipole_matrix",
        "params_from_geometry",
    ),
    "hamiltonian": (
        "SubspaceHamiltonian",
        "SystemParams",
        "build_hamiltonian",
        "uniform_dipole_matrix",
    ),
    "linalg": ("eigh",),
    "states": (
        "amplitude_vector",
        "analytic_dark_vectors",
        "basis_vector",
        "bright_vector",
        "detected_dark_vector",
        "dressed_vector",
        "resolve_state",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
