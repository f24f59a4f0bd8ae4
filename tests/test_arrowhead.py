"""Tests for the arrowhead transform and the analytic collective basis."""

import numpy as np
import pytest

from cavitydark import arrowhead
from cavitydark.arrowhead import (
    collective_basis,
    collective_couplings,
    to_arrowhead,
)
from cavitydark.basis import enumerate_subspace
from cavitydark.hamiltonian import SystemParams, build_hamiltonian
from cavitydark.linalg import eigh

S2, S3, S6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)


def uniform_system(n_atoms, delta_a, g, v, excitation):
    params = SystemParams(n_atoms=n_atoms, delta_a=delta_a, g=g, V=v)
    return build_hamiltonian(params, enumerate_subspace(n_atoms, excitation))


# ----------------------------------------------------- collective basis


def test_collective_basis_two_atoms():
    expected = np.array([[1 / S2, 1 / S2], [-1 / S2, 1 / S2]])
    np.testing.assert_allclose(collective_basis(2), expected, atol=1e-15)


def test_collective_basis_three_atoms():
    expected = np.array(
        [
            [1 / S3, 1 / S3, 1 / S3],
            [-1 / S2, 1 / S2, 0.0],
            [-1 / S6, -1 / S6, 2 / S6],
        ]
    )
    np.testing.assert_allclose(collective_basis(3), expected, atol=1e-15)


def test_collective_basis_four_atoms():
    expected = np.array(
        [
            [0.5, 0.5, 0.5, 0.5],
            [-1 / S2, 1 / S2, 0.0, 0.0],
            [-1 / S6, -1 / S6, 2 / S6, 0.0],
            [-S3 / 6, -S3 / 6, -S3 / 6, S3 / 2],
        ]
    )
    np.testing.assert_allclose(collective_basis(4), expected, atol=1e-15)


@pytest.mark.parametrize("n_atoms", range(1, 9))
def test_collective_basis_orthonormal(n_atoms):
    S = collective_basis(n_atoms)
    np.testing.assert_allclose(S @ S.T, np.eye(n_atoms), atol=1e-14)


def test_collective_basis_diagonalizes_uniform_block():
    rng = np.random.default_rng(2)
    for n_atoms in (2, 3, 5, 7):
        v = float(rng.uniform(-2, 2))
        L = np.full((n_atoms, n_atoms), v)
        np.fill_diagonal(L, 0.0)
        S = collective_basis(n_atoms)
        Lt = S @ L @ S.T
        off = Lt - np.diag(np.diag(Lt))
        assert np.abs(off).max() <= 1e-13
        np.testing.assert_allclose(Lt[0, 0], (n_atoms - 1) * v, atol=1e-13)
        np.testing.assert_allclose(np.diag(Lt)[1:], -v, atol=1e-13)


def test_collective_basis_rejects_empty():
    with pytest.raises(ValueError, match="atom"):
        collective_basis(0)


# -------------------------------------------------- collective couplings


def test_collective_couplings_equal_pair():
    cc = collective_couplings([1.0, 1.0], v_dd=0.5)
    np.testing.assert_allclose(cc.couplings, [S2, 0.0], atol=1e-15)
    assert cc.symmetric_eigenvalue == pytest.approx(0.5)
    assert cc.degenerate_eigenvalue == pytest.approx(-0.5)


def test_collective_couplings_balanced_triple():
    cc = collective_couplings([1.0, 0.9, -1.9], v_dd=0.5)
    assert cc.couplings[0] == pytest.approx(0.0, abs=1e-15)
    assert cc.couplings[1] == pytest.approx(-0.1 / S2, abs=1e-15)
    assert cc.couplings[2] == pytest.approx(-5.7 / S6, abs=1e-14)


def test_collective_couplings_symmetric_triple():
    cc = collective_couplings([1.0, 1.0, 1.0], v_dd=0.5)
    np.testing.assert_allclose(cc.couplings, [S3, 0.0, 0.0], atol=1e-15)


def test_collective_couplings_explicit_four_atom_forms():
    g = np.array([1.0, 0.8, 1.5, 1.2])
    cc = collective_couplings(g, v_dd=0.5, delta_a=0.3)
    g1, g2, g3, g4 = g
    np.testing.assert_allclose(
        cc.couplings,
        [
            (g1 + g2 + g3 + g4) / 2.0,
            (-g1 + g2) / S2,
            (-g1 - g2 + 2 * g3) / S6,
            (-g1 - g2 - g3 + 3 * g4) / (2 * S3),
        ],
        atol=1e-15,
    )
    assert cc.symmetric_eigenvalue == pytest.approx(-0.3 + 3 * 0.5)
    assert cc.degenerate_eigenvalue == pytest.approx(-0.3 - 0.5)


def test_collective_couplings_norm_preserved():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n_atoms = int(rng.integers(2, 9))
        g = rng.uniform(-2, 2, n_atoms)
        cc = collective_couplings(g, v_dd=float(rng.uniform(0.1, 2)))
        assert np.sum(cc.couplings**2) == pytest.approx(np.sum(g**2), rel=1e-12)
        np.testing.assert_allclose(cc.couplings, collective_basis(n_atoms) @ g, atol=1e-14)


# --------------------------------------------------------- to_arrowhead


def test_arrowhead_two_atom_single_excitation():
    g1, g2, v = 1.0, 0.8, 0.5
    arrow = to_arrowhead(uniform_system(2, 0.0, [g1, g2], v, excitation=1))
    np.testing.assert_allclose(arrow.eigenvalues, [-v, v], atol=1e-14)
    # no degeneracy here, so each transformed coupling is fixed up to the
    # sign of its dressed state
    np.testing.assert_allclose(
        np.abs(arrow.couplings[0]),
        [abs(-g1 + g2) / S2, (g1 + g2) / S2],
        atol=1e-14,
    )
    # the antisymmetric state (first bare entry +1/sqrt 2) couples with g1 - g2
    signed = arrow.couplings[0, 0] * np.sign(arrow.lower_transform[0, 0])
    assert signed == pytest.approx((g1 - g2) / S2, abs=1e-14)


def test_arrowhead_zero_interaction_preserves_column_span():
    ham = uniform_system(3, 0.0, [1.0, 0.4, -0.7], 0.0, excitation=2)
    arrow = to_arrowhead(ham)
    np.testing.assert_allclose(arrow.eigenvalues, 0.0, atol=1e-15)
    c_orig = ham.coupling_block
    c_new = arrow.couplings
    # same column space: projectors onto the spans agree
    for block in (c_orig, c_new):
        assert np.linalg.matrix_rank(block) == 3
    q1, _ = np.linalg.qr(c_orig)
    q2, _ = np.linalg.qr(c_new)
    p1 = q1[:, :3] @ q1[:, :3].conj().T
    p2 = q2[:, :3] @ q2[:, :3].conj().T
    assert np.abs(p1 - p2).max() <= 1e-12


def test_arrowhead_four_atom_double_excitation_spectrum():
    v = 0.5
    arrow = to_arrowhead(uniform_system(4, 0.0, [1.0, 2.0, 2.0, -1.0], v, excitation=2))
    expected = np.sort([4 * v, -2 * v, -2 * v, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(arrow.eigenvalues, expected, atol=1e-13)


def test_arrowhead_empty_lower_subspace():
    arrow = to_arrowhead(uniform_system(2, 0.3, [1.0, 0.8], 0.5, excitation=3))
    assert arrow.n_lower == 0
    assert arrow.eigenvalues.shape == (0,)
    assert arrow.couplings.shape == (arrow.n_upper, 0)


def test_arrowhead_unitarily_equivalent_to_input():
    rng = np.random.default_rng(40)
    for _ in range(20):
        n_atoms = int(rng.integers(2, 6))
        excitation = int(rng.integers(1, n_atoms + 1))
        V = rng.uniform(-1, 1, (n_atoms, n_atoms))
        V = 0.5 * (V + V.T)
        np.fill_diagonal(V, 0.0)
        params = SystemParams(
            n_atoms=n_atoms,
            delta_a=float(rng.standard_normal()),
            g=rng.uniform(-2, 2, n_atoms),
            V=V,
        )
        ham = build_hamiltonian(params, enumerate_subspace(n_atoms, excitation))
        arrow = to_arrowhead(ham)
        w_in = np.linalg.eigvalsh(ham.matrix)
        w_out = np.linalg.eigvalsh(arrow.full_matrix())
        scale = max(1.0, np.abs(w_in).max())
        assert np.abs(w_in - w_out).max() <= 1e-9 * scale
        # the diagonalization property itself
        L = ham.lower_block
        T = arrow.lower_transform
        Lt = T @ L @ T.conj().T
        assert np.abs(Lt - np.diag(arrow.eigenvalues)).max() <= 1e-10 * scale


def test_arrowhead_deterministic():
    ham = uniform_system(3, 0.2, [1.0, 0.9, -1.9], 0.5, excitation=1)
    a1 = to_arrowhead(ham)
    a2 = to_arrowhead(ham)
    np.testing.assert_array_equal(a1.couplings, a2.couplings)
    np.testing.assert_array_equal(a1.lower_transform, a2.lower_transform)


def test_arrowhead_reuses_a_lower_decomposition_across_g(monkeypatch):
    # the lower block carries V and the detuning but not g
    ham1 = uniform_system(4, 0.2, [1.0, 0.9, -1.9, 0.3], 0.5, excitation=2)
    ham2 = uniform_system(4, 0.2, [0.4, -1.2, 0.7, 2.0], 0.5, excitation=2)
    np.testing.assert_array_equal(ham1.lower_block, ham2.lower_block)
    fresh = to_arrowhead(ham2)
    lower = eigh(ham1.lower_block)
    monkeypatch.setattr(arrowhead, "eigh", None)  # a given decomposition is used
    shared = to_arrowhead(ham2, lower=lower)
    for name in ("upper_block", "eigenvalues", "couplings", "lower_transform"):
        assert getattr(shared, name).tobytes() == getattr(fresh, name).tobytes()


def test_dressed_to_bare_round_trip():
    arrow = to_arrowhead(uniform_system(3, 0.0, [1.0, 0.5, 0.2], 0.5, excitation=1))
    # lower_transform has the dressed states as rows, so its adjoint maps
    # dressed coefficients to bare lower coordinates
    to_bare = arrow.lower_transform.conj().T
    bare = to_bare @ np.array([1.0, 0.0, 0.0])
    # lowest dressed state of the positive-interaction block is in the
    # degenerate manifold; symmetric state sits at the top
    top = to_bare @ np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(np.abs(top), 1 / S3, atol=1e-12)
    assert np.linalg.norm(bare) == pytest.approx(1.0, abs=1e-12)


# --------------------------- analytic route vs numeric route, uniform case


def test_analytic_matches_numeric_single_excitation():
    rng = np.random.default_rng(55)
    for n_atoms in (2, 3, 4, 5, 6):
        for _ in range(10):
            g = rng.uniform(-2, 2, n_atoms)
            v = float(rng.uniform(0.1, 1.5))
            delta_a = float(rng.standard_normal())
            cc = collective_couplings(g, v_dd=v, delta_a=delta_a)
            arrow = to_arrowhead(
                uniform_system(n_atoms, delta_a, g, v, excitation=1)
            )
            # ascending numeric order puts the (N-1)-fold manifold first for
            # v > 0; compare eigenvalues as multisets
            expected_eigs = np.sort(
                [cc.symmetric_eigenvalue] + [cc.degenerate_eigenvalue] * (n_atoms - 1)
            )
            np.testing.assert_allclose(arrow.eigenvalues, expected_eigs, atol=1e-12)
            # rotation freedom inside the degenerate manifold: compare the
            # rotation-invariant coupling norms per cluster instead of entries
            sym_pos = int(np.argmin(np.abs(arrow.eigenvalues - cc.symmetric_eigenvalue)))
            deg_pos = [k for k in range(n_atoms) if k != sym_pos]
            assert abs(arrow.couplings[0, sym_pos]) == pytest.approx(
                abs(cc.couplings[0]), abs=1e-12
            )
            assert np.linalg.norm(arrow.couplings[0, deg_pos]) == pytest.approx(
                np.linalg.norm(cc.couplings[1:]), abs=1e-12
            )


def test_analytic_matches_numeric_entrywise_for_two_atoms():
    # N=2 has no degeneracy (v != 0): the numeric route must land on the
    # analytic couplings exactly, up to the phase convention
    g = [1.0, 0.25]
    cc = collective_couplings(g, v_dd=0.5)
    arrow = to_arrowhead(uniform_system(2, 0.0, g, 0.5, excitation=1))
    # ascending order: degenerate partner (-v) first, symmetric (+v) second
    np.testing.assert_allclose(
        np.abs(arrow.couplings[0]), np.abs(cc.couplings[::-1]), atol=1e-14
    )


def test_collective_transform_three_atom_double_excitation():
    # the same collective rotation diagonalizes the zero-photon pair block;
    # transformed couplings take closed forms in the bare couplings
    g1, g2, g3 = 1.0, 0.9, -1.9
    v = 0.5
    delta_a = 0.7
    ham = uniform_system(3, delta_a, [g1, g2, g3], v, excitation=2)
    S = collective_basis(3)
    Lt = S @ ham.lower_block.real @ S.T
    np.testing.assert_allclose(
        np.diag(Lt), [delta_a / 2 + 2 * v, delta_a / 2 - v, delta_a / 2 - v], atol=1e-13
    )
    assert np.abs(Lt - np.diag(np.diag(Lt))).max() <= 1e-13
    Ct = ham.coupling_block.real @ S.T
    expected = np.array(
        [
            [0.0, 0.0, 0.0],
            [(g2 + g3) / S3, (-g2 + g3) / S2, (-g2 - g3) / S6],
            [(g1 + g3) / S3, -g1 / S2, (-g1 + 2 * g3) / S6],
            [(g1 + g2) / S3, g1 / S2, (-g1 + 2 * g2) / S6],
        ]
    )
    np.testing.assert_allclose(Ct, expected, atol=1e-13)


def test_collective_transform_four_atom_triple_excitation():
    g1, g2, g3, g4 = 1.0, 0.8, 1.5, 1.2
    v = 0.5
    delta_a = -0.2
    ham = uniform_system(4, delta_a, [g1, g2, g3, g4], v, excitation=3)
    S = collective_basis(4)
    Lt = S @ ham.lower_block.real @ S.T
    np.testing.assert_allclose(
        np.diag(Lt),
        [delta_a + 3 * v, delta_a - v, delta_a - v, delta_a - v],
        atol=1e-13,
    )
    Ct = ham.coupling_block.real @ S.T
    r12 = 2 * S3
    expected = np.array(
        [
            [(g3 + g4) / 2, (-g3 + g4) / S2, (-g3 - g4) / S6, -(g3 + g4) / r12],
            [(g2 + g4) / 2, -g2 / S2, (-g2 + 2 * g4) / S6, -(g2 + g4) / r12],
            [(g2 + g3) / 2, g2 / S2, (-g2 + 2 * g3) / S6, -(g2 + g3) / r12],
            [(g1 + g4) / 2, -g1 / S2, -g1 / S6, (-g1 + 3 * g4) / r12],
            [(g1 + g3) / 2, g1 / S2, -g1 / S6, (-g1 + 3 * g3) / r12],
            [(g1 + g2) / 2, 0.0, 2 * g1 / S6, (-g1 + 3 * g2) / r12],
        ]
    )
    np.testing.assert_allclose(Ct[:5], 0.0, atol=1e-15)
    np.testing.assert_allclose(Ct[5:], expected, atol=1e-13)
