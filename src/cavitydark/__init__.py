"""Dark states of dipole-coupled atoms in a single-mode cavity.

Numerical toolkit for N two-level atoms with pairwise dipole interactions
coupled to one cavity mode: exact excitation-subspace Hamiltonians, the
arrowhead transform of their zero-photon block, degeneracy-aware dark-state
detection with an independent cross-check, photon-loss master-equation
dynamics, and the mapping from real atom placements to model parameters.
"""
