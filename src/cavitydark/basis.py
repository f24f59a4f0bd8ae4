"""Excitation-resolved basis bookkeeping for one cavity mode plus N two-level atoms.

The total excitation number (photons plus excited atoms) is conserved, so all
work happens inside fixed-excitation subspaces.  A basis state is a photon
count together with the set of excited atoms, stored as a bitmask (bit j set
means atom j+1 is excited; at most 16 atoms).  Inside the n-excitation
subspace the mask alone fixes the state, which holds n minus its number of
set bits in photons, so a subspace stores each state as its mask and nothing
else.  Within a subspace the states are ordered by descending photon number,
then lexicographically by the tuple of excited atom indices -- the same order
used throughout the package for matrices, reports, and CSV columns.

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
    "SubspaceBasis",
    "LadderBasis",
    "enumerate_subspace",
    "ladder_spaces",
    "parse_label",
    "label_excitation",
]

MAX_ATOMS = 16  # bitmask width cap
MAX_EXCITATION = int(np.iinfo(np.intp).max)  # photon counts are stored as intp
#: largest ladder the dynamics is given: its initial and final states and its
#: snapshots are dense dim x dim arrays
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


def _label(photons, mask, n_atoms):
    """Readable label like ``"1,egg"`` (photons, then e/g per atom)."""
    letters = "".join("e" if mask >> j & 1 else "g" for j in range(n_atoms))
    return f"{photons},{letters}"


def parse_label(text):
    """Inverse of a basis label: ``"1,geg"`` -> ``(1, 0b010, 3)``, the photon
    count, the excited-atom bitmask and the number of atoms."""
    if not isinstance(text, str):
        raise ValueError(f"state label must be a string, got {text!r}")
    try:
        photon_part, atom_part = text.split(",")
        photons = int(photon_part)
    except ValueError as exc:
        raise ValueError(f"malformed state label {text!r}; expected 'm,eg...'") from exc
    if not atom_part or set(atom_part) - {"e", "g"}:
        raise ValueError(f"malformed atom letters in state label {text!r}")
    if photons < 0:
        raise ValueError(f"photon number must be >= 0, got {photons}")
    mask = sum(1 << j for j, c in enumerate(atom_part) if c == "e")
    if mask >> MAX_ATOMS:
        raise ValueError(f"excited-set bitmask out of range: {mask}")
    return photons, mask, len(atom_part)


def label_excitation(text):
    """Excitation number, photons plus excited atoms, of a state label."""
    photons, mask, _ = parse_label(text)
    return photons + mask.bit_count()


@dataclass(frozen=True)
class SubspaceBasis:
    """Ordered basis of the n-excitation subspace for N atoms.

    State i has the atoms set in ``masks[i]`` excited and holds
    ``photons[i]`` = n - popcount(masks[i]) photons; the first ``n_upper``
    states carry at least one photon, the rest none.  ``hops`` and
    ``absorptions`` are its bit-flip connection table, structured arrays with
    fields (row, col, from, to) and (row, col, atom, root): the V[from, to]
    and g[atom] * root terms above the diagonal.  All four arrays are
    read-only, because every Hamiltonian built on the basis shares them.
    (N, n) fixes everything else, so equality and hash compare only those.
    """

    n_atoms: int
    excitation: int
    masks: np.ndarray = field(init=False, repr=False, compare=False)
    photons: np.ndarray = field(init=False, repr=False, compare=False)
    hops: np.ndarray = field(init=False, repr=False, compare=False)
    absorptions: np.ndarray = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)  # mask -> i

    def __post_init__(self):
        N, n = self.n_atoms, self.excitation
        masks = [
            sum(1 << j for j in atoms)
            for k in range(min(n, N) + 1)
            for atoms in itertools.combinations(range(N), k)
        ]
        index = {mask: i for i, mask in enumerate(masks)}
        object.__setattr__(self, "_index", index)
        arrays = {
            "masks": np.array(masks, dtype=np.intp),
            "photons": np.array([n - mask.bit_count() for mask in masks], dtype=np.intp),
            **_connections(N, n, masks, index),
        }
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self):
        return self.masks.size

    @property
    def n_lower(self):
        """Number of zero-photon states."""
        n, N = self.excitation, self.n_atoms
        return comb(N, n) if n <= N else 0

    @property
    def n_upper(self):
        return self.dim - self.n_lower

    def labels(self):
        return [_label(m, mask, self.n_atoms)
                for m, mask in zip(self.photons.tolist(), self.masks.tolist())]


def _connections(n_atoms, excitation, masks, index):
    """Bit-flip connection table of one complete excitation subspace.

    Each state is visited once and every state one bit flip away is recorded
    from the side of the smaller index: a hop from the row state, whose atom
    ``from`` is excited, and an absorption from the m-photon state, which
    precedes |m-1, S + {j}> in basis order.  ``index`` maps each mask to its
    position.
    """
    hops, absorptions = [], []
    for row, mask in enumerate(masks):
        excited = [j for j in range(n_atoms) if mask >> j & 1]
        ground = [j for j in range(n_atoms) if not mask >> j & 1]
        for j in excited:
            rest = mask ^ 1 << j
            for l in ground:
                col = index[rest | 1 << l]
                if row < col:
                    hops.append((row, col, j, l))
        m = excitation - len(excited)
        if m:
            root = sqrt(m)
            for j in ground:
                absorptions.append((row, index[mask | 1 << j], j, root))
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
    return SubspaceBasis(n_atoms=n_atoms, excitation=excitation)


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

    def global_index_of_label(self, text):
        """Ladder index of the basis state labelled ``text``."""
        photons, mask, width = parse_label(text)
        if width != self.n_atoms:
            raise ValueError(
                f"label {text!r} describes {width} atoms, ladder has {self.n_atoms}"
            )
        n = photons + mask.bit_count()
        if n > self.n_max:
            raise ValueError(
                f"state {_label(photons, mask, width)} has excitation {n} > "
                f"n_max={self.n_max}"
            )
        return self.offsets[n] + self.subspaces[n]._index[mask]


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
