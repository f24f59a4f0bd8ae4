"""Excitation-resolved basis bookkeeping for one cavity mode plus N two-level atoms.

The total excitation number (photons plus excited atoms) is conserved, so all
work happens inside fixed-excitation subspaces.  A basis state is a photon
count together with the set of excited atoms, stored as a bitmask (bit j set
means atom j+1 is excited; at most 16 atoms).  Within a subspace the states
are ordered by descending photon number, then lexicographically by the tuple
of excited atom indices -- the same order used throughout the package for
matrices, reports, and CSV columns.

States with at least one photon are "upper" states; the zero-photon states
are "lower" states.  This split is what the arrowhead analysis operates on.

Each subspace basis also carries its bit-flip connection table: every pair of
states joined by moving one excitation from atom j to atom l (``hops``), or
by atom j absorbing one of m photons (``absorptions``, with sqrt(m)).  The
table depends only on (N, n), so it is built once per basis and every
Hamiltonian on that basis is a gather and scatter over it; the same
construction is standard in exact-diagonalisation codes such as QuSpin
(Weinberg & Bukov, SciPost Phys. 2, 003 (2017)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, sqrt

import numpy as np

__all__ = [
    "MAX_ATOMS",
    "BasisState",
    "SubspaceBasis",
    "LadderBasis",
    "enumerate_subspace",
    "ladder_spaces",
    "parse_label",
]

MAX_ATOMS = 16  # bitmask width cap
MAX_EXCITATION = int(np.iinfo(np.intp).max)  # photon counts are stored as intp
#: largest ladder the dynamics is given: its density matrix, operators and
#: snapshots are dense dim x dim complex arrays
MAX_LADDER_DIM = 2048

# one V term: states row < col, the excitation moved from atom "from"
# (excited in row) to atom "to"
_HOP = np.dtype(
    [("row", np.intp), ("col", np.intp), ("from", np.intp), ("to", np.intp)]
)
# one g term: row holds m photons, col one fewer and atom "atom" excited;
# root is sqrt(m)
_ABSORPTION = np.dtype(
    [("row", np.intp), ("col", np.intp), ("atom", np.intp), ("root", float)]
)


def _mask_from_atoms(atoms):
    mask = 0
    for j in atoms:
        mask |= 1 << j
    return mask


@dataclass(frozen=True, order=False)
class BasisState:
    """One product state |photons, excited-set> of the cavity-atom system."""

    photons: int
    excited: int  # bitmask over atoms, bit j <-> atom j (0-based)

    def __post_init__(self):
        if self.photons < 0:
            raise ValueError(f"photon number must be >= 0, got {self.photons}")
        if self.excited < 0 or self.excited >> MAX_ATOMS:
            raise ValueError(f"excited-set bitmask out of range: {self.excited}")

    @property
    def n_excited(self):
        return bin(self.excited).count("1")

    @property
    def excitation(self):
        """Total excitation number: photons + number of excited atoms."""
        return self.photons + self.n_excited

    def excited_atoms(self):
        """Ascending tuple of 0-based indices of the excited atoms."""
        return tuple(j for j in range(MAX_ATOMS) if self.excited >> j & 1)

    def label(self, n_atoms):
        """Readable label like ``"1,egg"`` (photons, then e/g per atom)."""
        letters = "".join("e" if self.excited >> j & 1 else "g" for j in range(n_atoms))
        return f"{self.photons},{letters}"


def parse_label(text):
    """Inverse of :meth:`BasisState.label`: ``"0,eg"`` -> BasisState(0, {atom 1})."""
    if not isinstance(text, str):
        raise ValueError(f"state label must be a string, got {text!r}")
    try:
        photon_part, atom_part = text.split(",")
        photons = int(photon_part)
    except ValueError as exc:
        raise ValueError(f"malformed state label {text!r}; expected 'm,eg...'") from exc
    if not atom_part or set(atom_part) - {"e", "g"}:
        raise ValueError(f"malformed atom letters in state label {text!r}")
    mask = _mask_from_atoms(j for j, c in enumerate(atom_part) if c == "e")
    return BasisState(photons=photons, excited=mask), len(atom_part)


@dataclass(frozen=True)
class SubspaceBasis:
    """Ordered basis of the n-excitation subspace for N atoms.

    ``states[:n_upper]`` carry at least one photon, ``states[n_upper:]`` none.
    ``n_excited`` and ``photons`` hold each state's counts.  ``hops`` and
    ``absorptions`` are its bit-flip connection table, structured arrays with
    fields (row, col, from, to) and (row, col, atom, root): the V[from, to]
    and g[atom] * root terms above the diagonal.  All four arrays are
    read-only, because every Hamiltonian built on the basis shares them.
    """

    n_atoms: int
    excitation: int
    states: tuple = field(repr=False)
    _index: dict = field(default=None, repr=False, compare=False)
    n_excited: np.ndarray = field(init=False, repr=False, compare=False)
    photons: np.ndarray = field(init=False, repr=False, compare=False)
    hops: np.ndarray = field(init=False, repr=False, compare=False)
    absorptions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.states)}
        )
        arrays = {
            "n_excited": np.array([s.n_excited for s in self.states], dtype=np.intp),
            "photons": np.array([s.photons for s in self.states], dtype=np.intp),
            **_connections(self.n_atoms, self.states),
        }
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        # rebuilt on unpickling: a pickled array would come back writeable
        return SubspaceBasis, (self.n_atoms, self.excitation, self.states)

    @property
    def dim(self):
        return len(self.states)

    @property
    def n_lower(self):
        """Number of zero-photon states."""
        n, N = self.excitation, self.n_atoms
        return comb(N, n) if n <= N else 0

    @property
    def n_upper(self):
        return self.dim - self.n_lower

    def index_of(self, state):
        """Position of ``state`` in this basis; ValueError if absent."""
        try:
            return self._index[state]
        except KeyError:
            raise ValueError(
                f"state {state.label(self.n_atoms)} not in the "
                f"{self.excitation}-excitation subspace for N={self.n_atoms}"
            ) from None

    def labels(self):
        return [s.label(self.n_atoms) for s in self.states]


def _connections(n_atoms, states):
    """Bit-flip connection table of one complete excitation subspace.

    Each state is visited once and every state one bit flip away is recorded
    from the side of the smaller index: a hop from the row state, whose atom
    ``from`` is excited, and an absorption from the m-photon state, which
    precedes |m-1, S + {j}> in basis order.
    """
    index = {(s.photons, s.excited): i for i, s in enumerate(states)}
    hops, absorptions = [], []
    for row, state in enumerate(states):
        m, mask = state.photons, state.excited
        excited = [j for j in range(n_atoms) if mask >> j & 1]
        ground = [j for j in range(n_atoms) if not mask >> j & 1]
        for j in excited:
            rest = mask ^ 1 << j
            for l in ground:
                col = index[m, rest | 1 << l]
                if row < col:
                    hops.append((row, col, j, l))
        if m:
            root = sqrt(m)
            for j in ground:
                absorptions.append((row, index[m - 1, mask | 1 << j], j, root))
    return {
        "hops": np.array(hops, dtype=_HOP),
        "absorptions": np.array(absorptions, dtype=_ABSORPTION),
    }


def enumerate_subspace(n_atoms, excitation):
    """Build the ordered n-excitation subspace basis.

    Order: photon number descending; within fixed photon number the excited
    sets follow lexicographic order of their ascending index tuples (the
    itertools.combinations order).
    """
    if not 1 <= n_atoms <= MAX_ATOMS:
        raise ValueError(f"need 1 <= N <= {MAX_ATOMS} atoms, got {n_atoms}")
    if not 0 <= excitation <= MAX_EXCITATION:
        raise ValueError(
            f"excitation number must be >= 0 and <= {MAX_EXCITATION}, got {excitation}"
        )
    states = []
    for photons in range(excitation, -1, -1):
        k = excitation - photons
        if k > n_atoms:
            break
        for atoms in itertools.combinations(range(n_atoms), k):
            states.append(BasisState(photons=photons, excited=_mask_from_atoms(atoms)))
    return SubspaceBasis(n_atoms=n_atoms, excitation=excitation, states=tuple(states))


@dataclass(frozen=True)
class LadderBasis:
    """Direct sum of all subspaces with excitation 0..n_max, in that order.

    Used by the dissipative dynamics, where photon loss walks states down the
    excitation ladder.  ``offsets[n]`` is the starting global index of the
    n-excitation block.
    """

    n_atoms: int
    n_max: int
    subspaces: tuple
    offsets: tuple

    @property
    def dim(self):
        return self.offsets[-1]

    def global_index(self, state):
        n = state.excitation
        if n > self.n_max:
            raise ValueError(
                f"state {state.label(self.n_atoms)} has excitation {n} > n_max={self.n_max}"
            )
        return self.offsets[n] + self.subspaces[n].index_of(state)

    def global_index_of_label(self, text):
        state, width = parse_label(text)
        if width != self.n_atoms:
            raise ValueError(
                f"label {text!r} describes {width} atoms, ladder has {self.n_atoms}"
            )
        return self.global_index(state)

    def state_at(self, global_index):
        """BasisState sitting at a global index of the ladder."""
        if not 0 <= global_index < self.dim:
            raise ValueError(f"global index {global_index} out of range")
        for n, sub in enumerate(self.subspaces):
            if global_index < self.offsets[n + 1]:
                return sub.states[global_index - self.offsets[n]]
        raise AssertionError("unreachable")


def ladder_spaces(n_atoms, n_max):
    """All subspaces with excitation 0..n_max bundled with global offsets."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    subs = []
    offsets = [0]
    for n in range(n_max + 1):
        subs.append(enumerate_subspace(n_atoms, n))
        offsets.append(offsets[-1] + subs[-1].dim)
        if offsets[-1] > MAX_LADDER_DIM:
            raise ValueError(
                f"ladder 0..{n_max} of {n_atoms} atoms is above the limit of "
                f"{MAX_LADDER_DIM} states"
            )
    return LadderBasis(
        n_atoms=n_atoms, n_max=n_max, subspaces=tuple(subs), offsets=tuple(offsets)
    )
