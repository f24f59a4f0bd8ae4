"""Tests for named state construction over the excitation ladder."""

import numpy as np
import pytest

from cavitydark.arrowhead import collective_basis, collective_couplings
from cavitydark.basis import ladder_spaces
from cavitydark.dynamics import build_ladder_hamiltonian, simulate
from cavitydark.hamiltonian import SystemParams, build_hamiltonian
from cavitydark.states import (
    ANALYTIC_PIVOT_TOL,
    amplitude_vector,
    analytic_dark_vectors,
    basis_vector,
    bright_vector,
    dark_reports,
    detected_dark_vector,
    dressed_vector,
    resolve_state,
    spec_min_excitation,
)

S2, S3, S6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)


def three_atom_params(g=(1.0, 0.8, 1.5)):
    return SystemParams(n_atoms=3, delta_a=0.0, g=list(g), V=0.5, kappa=0.3)


# -------------------------------------------------------- direct builders


def test_basis_vector():
    ladder = ladder_spaces(2, 1)
    vec = basis_vector(ladder, "0,ge")
    assert vec.shape == (4,)
    assert vec[ladder.global_index_of_label("0,ge")] == 1.0
    assert np.count_nonzero(vec) == 1


def test_amplitude_vector_real_and_complex_entries():
    ladder = ladder_spaces(2, 1)
    vec = amplitude_vector(ladder, {"0,eg": [0.0, 1 / S2], "0,ge": -1 / S2})
    assert vec[ladder.global_index_of_label("0,eg")] == 1j / S2
    assert vec[ladder.global_index_of_label("0,ge")] == -1 / S2
    assert np.linalg.norm(vec) == pytest.approx(1.0)


class _PairStream:
    """Pretends to be a mapping whose items() may repeat a key, as produced
    by pair-preserving JSON hooks."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return list(self.pairs)


def test_amplitude_vector_rejects_duplicates_and_bad_norm():
    # the map is taken as written; a run refuses its norm by the rule it
    # applies to every initial and watch state
    ladder = ladder_spaces(2, 1)
    vec = amplitude_vector(ladder, {"0,eg": 0.9})
    assert np.linalg.norm(vec) == 0.9
    params = SystemParams(n_atoms=2, delta_a=0.0, g=[1.0, 1.0], V=0.5, kappa=0.3)
    with pytest.raises(ValueError,
                       match=r"initial state is not normalized: \|psi\| = 0\.9$"):
        simulate(params, ladder, build_ladder_hamiltonian(params, ladder), vec,
                 {"w": basis_vector(ladder, "0,gg")}, t_max=1.0)
    with pytest.raises(ValueError, match="duplicate"):
        amplitude_vector(ladder, _PairStream([("0,eg", 1.0), ("0,eg", 1.0)]))


# --------------------------------------------------------- dressed states


def test_dressed_vector_symmetric_state():
    ladder = ladder_spaces(3, 1)
    vec = dressed_vector(ladder, 1)
    for label in ("0,egg", "0,geg", "0,gge"):
        assert vec[ladder.global_index_of_label(label)] == pytest.approx(1 / S3)
    assert vec[ladder.global_index_of_label("1,ggg")] == 0.0


def test_dressed_vector_orthonormal_family():
    ladder = ladder_spaces(4, 1)
    vecs = np.stack([dressed_vector(ladder, s) for s in range(1, 5)], axis=1)
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-14)


def test_dressed_vector_index_errors():
    ladder = ladder_spaces(3, 1)
    with pytest.raises(ValueError, match="1..3"):
        dressed_vector(ladder, 0)
    with pytest.raises(ValueError, match="1..3"):
        dressed_vector(ladder, 4)
    with pytest.raises(ValueError, match="single-excitation"):
        dressed_vector(ladder_spaces(3, 0), 1)


# ---------------------------------------------------------- bright state


def test_bright_vector_orthogonal_to_darks_and_symmetric():
    g = [1.0, 0.8, 1.5, 1.2]
    ladder = ladder_spaces(4, 1)
    bright = bright_vector(ladder, g)
    assert np.linalg.norm(bright) == pytest.approx(1.0)
    assert abs(np.vdot(dressed_vector(ladder, 1), bright)) <= 1e-14
    darks = analytic_dark_vectors(ladder, g)
    assert darks.shape[1] == 2
    assert np.abs(darks.conj().T @ bright).max() <= 1e-12


def test_bright_vector_carries_all_coupling():
    # within the degenerate manifold the bright state absorbs the entire
    # cavity matrix element
    g = [1.0, 0.8, 1.5]
    params = three_atom_params(g)
    ladder = ladder_spaces(3, 1)
    H = build_hamiltonian(params, ladder.subspaces[1]).matrix
    lo = ladder.offsets[1]
    cavity = basis_vector(ladder, "1,ggg")[lo:]
    bright = bright_vector(ladder, g)[lo:]
    G = np.array(
        [(g[0] + g[1] + g[2]) / S3, (-g[0] + g[1]) / S2, (-g[0] - g[1] + 2 * g[2]) / S6]
    )
    expected = np.sqrt(G[1] ** 2 + G[2] ** 2)
    assert abs(np.vdot(cavity, H @ bright)) == pytest.approx(expected, abs=1e-12)


def test_bright_vector_needs_nonzero_degenerate_coupling():
    ladder = ladder_spaces(2, 1)
    with pytest.raises(ValueError, match="bright"):
        bright_vector(ladder, [1.0, 1.0])


# ------------------------------------------------------ analytic dark set


def test_analytic_dark_three_atoms_closed_form():
    g = [1.0, 0.8, 1.5]
    ladder = ladder_spaces(3, 1)
    darks = analytic_dark_vectors(ladder, g)
    assert darks.shape == (5, 1)
    G2 = (-g[0] + g[1]) / S2
    G3 = (-g[0] - g[1] + 2 * g[2]) / S6
    l2 = np.array([-1 / S2, 1 / S2, 0.0])
    l3 = np.array([-1 / S6, -1 / S6, 2 / S6])
    bare = (G3 * l2 - G2 * l3) / np.hypot(G2, G3)
    lo = ladder.offsets[1] + 1
    overlap = bare @ darks[lo : lo + 3, 0]
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_analytic_dark_four_atoms_matches_printed_coefficients():
    g = np.array([1.0, 0.8, 1.5, 1.2])
    ladder = ladder_spaces(4, 1)
    darks = analytic_dark_vectors(ladder, g)
    assert darks.shape[1] == 2
    G2 = (-g[0] + g[1]) / S2
    G3 = (-g[0] - g[1] + 2 * g[2]) / S6
    G4 = (-g[0] - g[1] - g[2] + 3 * g[3]) / (2 * S3)
    n23 = np.hypot(G2, G3)
    first = np.array(
        [
            (S2 * G2 - S6 * G3) / (2 * S3),
            (S2 * G2 + S6 * G3) / (2 * S3),
            -2 * G2 / S6,
            0.0,
        ]
    ) / n23
    n234 = np.sqrt(G2**2 + G3**2 + G4**2)
    second = np.array(
        [
            (S3 * (G2**2 + G3**2) - 3 * S2 * G2 * G4 - S6 * G3 * G4) / 6.0,
            (3 * S2 * G2 * G4 - S6 * G3 * G4 + S3 * (G2**2 + G3**2)) / 6.0,
            (2 * S6 * G3 * G4 + S3 * (G2**2 + G3**2)) / 6.0,
            -3 * S3 * (G2**2 + G3**2) / 6.0,
        ]
    ) / (n23 * n234)
    lo = ladder.offsets[1] + 1
    block = darks[lo : lo + 4]
    assert abs(first @ block[:, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(second @ block[:, 1]) == pytest.approx(1.0, abs=1e-12)


def test_analytic_darks_are_degenerate_eigenvectors():
    g = [1.0, 0.8, 1.5, 1.2]
    params = SystemParams(n_atoms=4, delta_a=0.7, g=g, V=0.5)
    ladder = ladder_spaces(4, 1)
    darks = analytic_dark_vectors(ladder, g)
    H = build_hamiltonian(params, ladder.subspaces[1]).matrix
    lam = -(4 - 2) * 0.7 / 2.0 - 0.5  # the degenerate-manifold energy
    lo, hi = ladder.offsets[1], ladder.offsets[2]
    for k in range(darks.shape[1]):
        v = darks[lo:hi, k]
        assert np.abs(H @ v - lam * v).max() <= 1e-12
    np.testing.assert_allclose(
        darks.conj().T @ darks, np.eye(darks.shape[1]), atol=1e-12
    )


def test_analytic_dark_avoids_last_atom():
    # the first orthogonalized dark state never touches the highest-index
    # atom, which is why a lone excitation there has zero overlap with it
    ladder = ladder_spaces(4, 1)
    darks = analytic_dark_vectors(ladder, [1.0, 0.8, 1.5, 1.2])
    assert abs(darks[ladder.global_index_of_label("0,ggge"), 0]) <= 1e-14
    assert abs(darks[ladder.global_index_of_label("0,ggge"), 1]) > 0.1


def test_analytic_dark_two_atoms_empty():
    ladder = ladder_spaces(2, 1)
    darks = analytic_dark_vectors(ladder, [1.0, 0.7])
    assert darks.shape == (4, 0)


def cavity_couplings(ladder, g, vectors):
    """|<1,g..g| H |v>| of each single-excitation column v."""
    params = SystemParams(n_atoms=len(g), delta_a=0.0, g=list(g), V=0.5)
    H = build_hamiltonian(params, ladder.subspaces[1]).matrix
    lo, hi = ladder.offsets[1], ladder.offsets[2]
    return np.abs(H[0] @ vectors[lo:hi])


@pytest.mark.parametrize("n_atoms", range(3, 13))
def test_analytic_darks_are_the_qr_of_the_pairings(n_atoms):
    # the closed form is the orthonormalization of the pairings (G_{l+2}, -G_2)
    # of dressed state 2 against dressed state l+2, down to pivots |G_2| of
    # 2 ANALYTIC_PIVOT_TOL max|G|; the pairings are taken over dressed states
    # 2..N, pivot row first, where Householder QR stays accurate to rounding
    rng = np.random.default_rng(n_atoms)
    ladder = ladder_spaces(n_atoms, 1)
    lo = ladder.offsets[1] + 1
    for pivot in (None, 1e-3, 1e-8, 2 * ANALYTIC_PIVOT_TOL):
        g = rng.standard_normal(n_atoms)
        if pivot is not None:  # G_2 = (g_2 - g_1) / sqrt(2)
            g[1] = g[0]
            step = pivot * np.abs(collective_couplings(g)).max() * np.sqrt(2)
            g[1] += rng.choice([-1.0, 1.0]) * 1.001 * step
        G = collective_couplings(g)
        pairs = np.zeros((n_atoms - 1, n_atoms - 2))
        pairs[0] = G[2:]
        np.fill_diagonal(pairs[1:], -G[1])
        q, r = np.linalg.qr(pairs / np.linalg.norm(pairs, axis=0))
        expected = collective_basis(n_atoms)[1:].T @ (q * np.sign(np.diag(r)))
        darks = analytic_dark_vectors(ladder, g)
        assert np.abs(darks[lo : lo + n_atoms] - expected).max() <= 1e-14
        assert cavity_couplings(ladder, g, darks).max() <= 1e-15


def test_analytic_darks_survive_a_tiny_pivot():
    # |G_2| = 3.7e-12 max|G| clears the pivot test, and all N-2 states come
    # back orthonormal and decoupled; none is dropped as dependent
    g = [1.0, 1.0 + 1e-11, 0.7, -1.3, 0.4]
    ladder = ladder_spaces(5, 1)
    darks = analytic_dark_vectors(ladder, g)  # the suite turns warnings into errors
    assert darks.shape == (ladder.dim, 3)
    assert cavity_couplings(ladder, g, darks).max() <= 1e-15
    assert np.abs(darks.conj().T @ darks - np.eye(3)).max() <= 1e-15


def test_analytic_dark_requires_pivot():
    ladder = ladder_spaces(3, 1)
    with pytest.raises(ValueError, match="pivot"):
        analytic_dark_vectors(ladder, [1.0, 1.0, 0.5])


@pytest.mark.parametrize(
    "scale", [1e-300, 1e-200, 1e-100, 1e-12, 1.0, 1e12, 1e100, 1e160, 1e300]
)
def test_single_excitation_constructors_are_scale_free(scale):
    g = np.array([1.0, 0.8, 1.5, 1.2])
    ladder = ladder_spaces(4, 1)
    np.testing.assert_allclose(
        bright_vector(ladder, scale * g), bright_vector(ladder, g), atol=1e-14
    )
    np.testing.assert_allclose(
        analytic_dark_vectors(ladder, scale * g), analytic_dark_vectors(ladder, g),
        atol=1e-14,
    )
    # uniform couplings cancel on the degenerate manifold; so does g = 0
    for bad in (np.full(4, scale), np.zeros(4)):
        with pytest.raises(ValueError, match="bright"):
            bright_vector(ladder, bad)
    for bad in (scale * np.array([1.0, 1.0, 0.5, 0.7]), np.zeros(4)):
        with pytest.raises(ValueError, match="pivot"):
            analytic_dark_vectors(ladder, bad)


# ---------------------------------------------------- detector passthrough


def reports(params, ladder):
    return dark_reports(build_ladder_hamiltonian(params, ladder))


def test_detected_dark_vector_matches_detector():
    params = three_atom_params((1.0, 0.9, -1.9))
    ladder = ladder_spaces(3, 1)
    dark_report = reports(params, ladder)
    v1 = detected_dark_vector(ladder, dark_report, 1, 1)
    v2 = detected_dark_vector(ladder, dark_report, 1, 2)
    # each block's report is computed once, on first use
    assert dark_report(1) is dark_report(1)
    np.testing.assert_array_equal(v1[ladder.offsets[1]:], dark_report(1).vectors[:, 0])
    assert np.linalg.norm(v1) == pytest.approx(1.0)
    assert abs(np.vdot(v1, v2)) <= 1e-12
    # photon-free by construction
    assert v1[ladder.global_index_of_label("1,ggg")] == 0.0


def test_detected_dark_vector_index_errors():
    params = three_atom_params()
    ladder = ladder_spaces(3, 1)
    dark_report = reports(params, ladder)
    with pytest.raises(ValueError, match="out of range"):
        detected_dark_vector(ladder, dark_report, 1, 2)  # only one dark state
    with pytest.raises(ValueError, match="outside ladder"):
        detected_dark_vector(ladder, dark_report, 2, 1)


# ---------------------------------------------------------- resolve_state


def test_resolve_state_dispatch():
    params = three_atom_params()
    ladder = ladder_spaces(3, 1)
    dark_report = reports(params, ladder)
    np.testing.assert_array_equal(
        resolve_state(ladder, params, "0,egg", dark_report), basis_vector(ladder, "0,egg")
    )
    np.testing.assert_array_equal(
        resolve_state(ladder, params, {"dressed": 2}, dark_report),
        dressed_vector(ladder, 2),
    )
    np.testing.assert_array_equal(
        resolve_state(ladder, params, {"bright": True}, dark_report),
        bright_vector(ladder, params.g),
    )
    np.testing.assert_array_equal(
        resolve_state(ladder, params, {"analytic_dark": 1}, dark_report),
        analytic_dark_vectors(ladder, params.g)[:, 0],
    )
    np.testing.assert_array_equal(
        resolve_state(ladder, params, {"detected_dark": 1}, dark_report),
        detected_dark_vector(ladder, dark_report, 1, 1),
    )
    amp_spec = {"amplitudes": {"0,egg": [0.0, 1.0]}}
    np.testing.assert_array_equal(
        resolve_state(ladder, params, amp_spec, dark_report),
        amplitude_vector(ladder, amp_spec["amplitudes"]),
    )


def test_resolve_state_errors():
    params = three_atom_params()
    ladder = ladder_spaces(3, 1)
    dark_report = reports(params, ladder)
    with pytest.raises(ValueError, match="state spec must be a JSON object, got 17"):
        resolve_state(ladder, params, 17, dark_report)
    with pytest.raises(ValueError, match=r"unknown config keys: \['mystery'\] in state"):
        resolve_state(ladder, params, {"mystery": 1}, dark_report)
    with pytest.raises(ValueError, match="out of range"):
        resolve_state(ladder, params, {"analytic_dark": 5}, dark_report)


def test_spec_min_excitation():
    assert spec_min_excitation("0,gg") == 0
    assert spec_min_excitation("0,eg") == 1
    assert spec_min_excitation("2,ge") == 3
    assert spec_min_excitation({"amplitudes": {"0,eegg": 0.5, "1,eggg": 0.5}}) == 2
    assert spec_min_excitation({"dressed": 2}) == 1
    assert spec_min_excitation({"bright": True}) == 1
    assert spec_min_excitation({"analytic_dark": 1}) == 1
    assert spec_min_excitation({"detected_dark": 1, "excitation": 2}) == 2
    with pytest.raises(ValueError, match=r"unknown config keys: \['mystery'\] in state"):
        spec_min_excitation({"mystery": 1})
