"""Dark states of dipole-coupled atoms in a single-mode cavity.

Numerical toolkit for N two-level atoms with pairwise dipole interactions
coupled to one cavity mode: exact excitation-subspace Hamiltonians, the
arrowhead transform of their zero-photon block, degeneracy-aware dark-state
detection with an independent cross-check, photon-loss master-equation
dynamics, and the mapping from real atom placements to model parameters.
"""

from .arrowhead import (
    ArrowheadForm,
    CollectiveCouplings,
    collective_basis,
    collective_couplings,
    to_arrowhead,
)
from .basis import (
    BasisState,
    LadderBasis,
    SubspaceBasis,
    enumerate_subspace,
    ladder_spaces,
    parse_label,
)
from .darkstates import (
    AnalysisResult,
    DarkStateReport,
    DegenerateCluster,
    analyze_subspace,
    brute_force_dark_states,
    detect,
    orthogonalize,
    reports_agree,
    subspace_angle,
)
from .dynamics import (
    DensityMatrix,
    IntegrationError,
    SimulationConfig,
    Trajectory,
    build_ladder_hamiltonian,
    excitation_diagonal,
    lowering_operator,
    population,
    simulate,
)
from .geometry import (
    AtomGeometry,
    DiscriminantResult,
    cardano_discriminant,
    cavity_coupling,
    dipole_matrix,
    params_from_geometry,
)
from .hamiltonian import (
    SubspaceHamiltonian,
    SystemParams,
    build_hamiltonian,
    uniform_dipole_matrix,
)
from .linalg import eigh, rank_and_nullspace
from .states import (
    amplitude_vector,
    analytic_dark_vectors,
    basis_vector,
    bright_vector,
    detected_dark_vector,
    dressed_vector,
    resolve_state,
)

__version__ = "0.1.0"
