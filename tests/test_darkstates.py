"""Tests for dark-state detection: cluster-rank route, brute-force route,
and the helpers that compare them."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _matrices as ref
from cavitydark import darkstates
from cavitydark.arrowhead import ArrowheadForm, to_arrowhead
from cavitydark.basis import enumerate_subspace
from cavitydark.darkstates import (
    DegenerateCluster,
    _cluster_indices,
    analyze_subspace,
    brute_force_dark_states,
    cluster_ranks,
    default_cluster_tol,
    detect,
    echelon_basis,
    reports_agree,
    subspace_angle,
)
from cavitydark.hamiltonian import (
    ScaleError,
    SystemParams,
    build_hamiltonian,
    uniform_dipole_matrix,
)
from cavitydark.linalg import eigh

S2, S3, S6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)


def subspace(n_atoms, g, excitation, v=0.5, delta_a=0.0):
    params = SystemParams(n_atoms=n_atoms, delta_a=delta_a, g=g, V=v)
    return build_hamiltonian(params, enumerate_subspace(n_atoms, excitation))


def detect_count(n_atoms, g, excitation, **kwargs):
    return detect(to_arrowhead(subspace(n_atoms, g, excitation, **kwargs))).total_dark


# ----------------------------------------------------------- count table


@pytest.mark.parametrize(
    "g, expected",
    [
        ([1.0, 1.0], 1),
        ([1.0, -1.0], 1),
        ([1.3, -1.3], 1),
        ([1.0, 0.7], 0),
        ([1.0, -0.4], 0),
    ],
)
def test_two_atom_single_excitation_counts(g, expected):
    assert detect_count(2, g, 1) == expected


def test_three_atom_single_excitation_counts():
    assert detect_count(3, [1.0, 0.8, 1.5], 1) == 1
    # balanced couplings: the symmetric state decouples too
    assert detect_count(3, [1.0, 0.9, -1.9], 1) == 2


def test_three_atom_double_excitation_has_no_dark_states():
    assert detect_count(3, [1.0, 0.8, 1.5], 2) == 0
    assert detect_count(3, [1.0, 0.9, -1.9], 2) == 0


def test_four_atom_single_excitation_counts():
    assert detect_count(4, [1.0, 0.8, 1.5, 1.2], 1) == 2
    assert detect_count(4, [1.0, 0.8, 1.5, -3.3], 1) == 3


@pytest.mark.parametrize(
    "g, expected",
    [
        ([1.0, 2.0, 2.0, -1.0], 1),   # g2 = g3, g1 = -g4
        ([1.0, 2.0, -1.0, 2.0], 1),   # g2 = g4, g1 = -g3
        ([1.0, -1.0, 2.0, 2.0], 1),   # g3 = g4, g1 = -g2
        ([-1.0, 1.0, 1.0, 1.0], 2),   # all three pair conditions at once
        ([1.0, 0.8, 1.5, 1.2], 0),
        ([1.0, 2.0, 2.1, 1.0], 0),    # near-miss of the pair conditions
    ],
)
def test_four_atom_double_excitation_counts(g, expected):
    assert detect_count(4, g, 2) == expected


def test_four_atom_triple_excitation_has_no_dark_states():
    assert detect_count(4, [1.0, 0.8, 1.5, 1.2], 3) == 0
    assert detect_count(4, [-1.0, 1.0, 1.0, 1.0], 3) == 0


@pytest.mark.parametrize(
    "n_atoms, excitation",
    [(2, 2), (2, 3), (3, 3), (3, 5), (4, 4), (4, 6), (5, 5)],
)
def test_saturated_subspaces_have_no_dark_states(n_atoms, excitation):
    g = 0.5 + 0.25 * np.arange(n_atoms)
    assert detect_count(n_atoms, list(g), excitation) == 0


@pytest.mark.parametrize("n_atoms", range(2, 9))
def test_generic_single_excitation_count_scales_with_atom_number(n_atoms):
    rng = np.random.default_rng(100 + n_atoms)
    g = rng.uniform(0.5, 2.0, n_atoms)  # positive: no accidental cancellations
    assert detect_count(n_atoms, g, 1) == n_atoms - 2


@pytest.mark.parametrize("n_atoms, excitation", [
    (2, 1), (3, 1), (4, 2), (5, 3), (6, 2), (6, 3), (6, 4), (7, 3), (8, 4),
    (9, 4), (10, 3),
])
def test_uniform_counts_match_dicke(n_atoms, excitation):
    # uniform g and V commute with every atom permutation: the dark states
    # are the lowest-weight vectors of the collective spin, C(N, n) - C(N, n-1)
    # of them for 2n <= N and none above (Dicke 1954)
    N, n = n_atoms, excitation
    dicke = math.comb(N, n) - math.comb(N, n - 1) if 2 * n <= N else 0
    ham = subspace(N, [1.0] * N, n)
    arrow = to_arrowhead(ham)
    assert detect(arrow).total_dark == dicke
    assert sum(c.dark_dim for c in cluster_ranks(arrow)[0]) == dicke
    assert brute_force_dark_states(ham).total_dark == dicke


def test_cluster_bookkeeping_four_atoms():
    report = detect(to_arrowhead(subspace(4, [1.0, 0.8, 1.5, 1.2], 1)))
    # clusters come back in ascending eigenvalue order; for V > 0 the
    # (N-1)-fold manifold sits below the symmetric state
    assert [c.size for c in report.clusters] == [3, 1]
    assert [c.rank for c in report.clusters] == [1, 1]
    assert [c.dark_dim for c in report.clusters] == [2, 0]
    assert report.clusters[0].eigenvalue == pytest.approx(-0.5)
    assert report.clusters[1].eigenvalue == pytest.approx(1.5)


# ------------------------------------------------------ explicit vectors


def test_two_atom_dark_vector_and_energy():
    report = detect(to_arrowhead(subspace(2, [1.0, 1.0], 1)))
    assert report.total_dark == 1
    assert report.eigenvalues[0] == pytest.approx(-0.5)
    expected = np.array([0.0, -1.0, 1.0]) / S2  # |1,gg>, |0,eg>, |0,ge>
    overlap = abs(expected @ report.vectors[:, 0])
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_three_atom_dark_vector_matches_closed_form():
    g1, g2, g3 = 1.0, 0.8, 1.5
    report = detect(to_arrowhead(subspace(3, [g1, g2, g3], 1)))
    assert report.total_dark == 1
    G2 = (-g1 + g2) / S2
    G3 = (-g1 - g2 + 2 * g3) / S6
    l2 = np.array([-1 / S2, 1 / S2, 0.0])
    l3 = np.array([-1 / S6, -1 / S6, 2 / S6])
    bare = G3 * l2 - G2 * l3
    bare /= np.linalg.norm(bare)
    expected = np.concatenate([[0.0], bare])
    assert abs(expected @ report.vectors[:, 0]) == pytest.approx(1.0, abs=1e-12)
    assert report.eigenvalues[0] == pytest.approx(-0.5)


def test_four_atom_pair_dark_vector():
    # g2 = g3 and g1 = -g4: one dark pair state with equal weights on the
    # four swap-connected double excitations
    report = detect(to_arrowhead(subspace(4, [1.0, 2.0, 2.0, -1.0], 2)))
    assert report.total_dark == 1
    # lower pair basis order: eegg, egeg, egge, geeg, gege, ggee
    bare = 0.5 * np.array([-1.0, 1.0, 0.0, 0.0, -1.0, 1.0])
    expected = np.concatenate([np.zeros(5), bare])
    assert abs(expected @ report.vectors[:, 0]) == pytest.approx(1.0, abs=1e-12)
    assert report.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)


def test_four_atom_pair_dark_plane():
    report = detect(to_arrowhead(subspace(4, [-1.0, 1.0, 1.0, 1.0], 2)))
    assert report.total_dark == 2
    v_a = 0.5 * np.array([-1.0, 1.0, 0.0, 0.0, -1.0, 1.0])
    v_b = np.array([-1.0, -1.0, 2.0, -2.0, 1.0, 1.0]) / (2 * S3)
    span = np.zeros((11, 2))
    span[5:, 0] = v_a
    span[5:, 1] = v_b
    assert subspace_angle(span, report.vectors) <= 1e-10


def test_dark_vectors_are_orthonormal():
    for g in ([1.0, 0.9, -1.9], [1.0, 0.8, 1.5, -3.3], [-1.0, 1.0, 1.0, 1.0]):
        n_atoms = len(g)
        excitation = 2 if n_atoms == 4 and g[0] < 0 else 1
        report = detect(to_arrowhead(subspace(n_atoms, g, excitation)))
        V = report.vectors
        np.testing.assert_allclose(
            V.conj().T @ V, np.eye(report.total_dark), atol=1e-12
        )


def test_detected_vectors_are_true_eigenvectors():
    cases = [
        (2, [1.0, 1.0], 1),
        (3, [1.0, 0.9, -1.9], 1),
        (4, [1.0, 0.8, 1.5, 1.2], 1),
        (4, [-1.0, 1.0, 1.0, 1.0], 2),
    ]
    for n_atoms, g, excitation in cases:
        ham = subspace(n_atoms, g, excitation, delta_a=0.4)
        report = detect(to_arrowhead(ham))
        assert report.total_dark > 0
        scale = max(1.0, np.abs(ham.matrix).max())
        nu = ham.basis.n_upper
        for k in range(report.total_dark):
            v = report.vectors[:, k]
            resid = ham.matrix @ v - report.eigenvalues[k] * v
            assert np.abs(resid).max() <= 1e-9 * scale
            assert np.abs(v[:nu]).max() <= 1e-10


def test_dark_eigenvalues_descend():
    report = detect(to_arrowhead(subspace(3, [1.0, 0.9, -1.9], 1)))
    assert report.total_dark == 2
    assert report.eigenvalues[0] == pytest.approx(1.0)   # symmetric branch
    assert report.eigenvalues[1] == pytest.approx(-0.5)  # degenerate branch
    assert np.all(np.diff(report.eigenvalues) <= 1e-12)


def test_detect_deterministic():
    ham = subspace(4, [1.0, 0.8, 1.5, -3.3], 1)
    r1 = detect(to_arrowhead(ham))
    r2 = detect(to_arrowhead(ham))
    np.testing.assert_array_equal(r1.vectors, r2.vectors)
    np.testing.assert_array_equal(r1.eigenvalues, r2.eigenvalues)


def test_sign_convention_does_not_move_dark_projector():
    rng = np.random.default_rng(7)
    arrow = to_arrowhead(subspace(4, [1.0, 0.8, 1.5, -3.3], 1))
    signs = rng.choice([-1.0, 1.0], size=arrow.n_lower)
    flipped = ArrowheadForm(
        basis=arrow.basis,
        eigenvalues=arrow.eigenvalues,
        couplings=arrow.couplings * signs[None, :],
        lower_transform=arrow.lower_transform * signs[:, None],
    )
    p0 = ref.projector(detect(arrow).vectors)
    p1 = ref.projector(detect(flipped).vectors)
    assert np.abs(p0 - p1).max() <= 1e-10


# ------------------------------------------------------ brute-force route


def test_brute_force_matches_known_counts():
    assert brute_force_dark_states(subspace(2, [1.0, 1.0], 1)).total_dark == 1
    assert brute_force_dark_states(subspace(3, [1.0, 0.8, 1.5], 1)).total_dark == 1
    assert brute_force_dark_states(subspace(3, [1.0, 0.9, -1.9], 1)).total_dark == 2
    assert brute_force_dark_states(subspace(3, [1.0, 0.8, 1.5], 2)).total_dark == 0
    assert brute_force_dark_states(subspace(4, [1.0, 0.8, 1.5, 1.2], 3)).total_dark == 0


def test_brute_force_with_decoupled_cavity():
    # zero couplings leave every photon-free state dark
    ham = subspace(3, [0.0, 0.0, 0.0], 1, delta_a=0.3)
    report = brute_force_dark_states(ham)
    assert report.total_dark == ham.basis.n_lower == 3
    arrow_report = detect(to_arrowhead(ham))
    assert arrow_report.total_dark == 3
    ok, angle = reports_agree(arrow_report, report)
    assert ok and angle <= 1e-7


def test_routes_agree_on_random_draws():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(40):
        n_atoms = int(rng.integers(2, 6))
        excitation = int(rng.integers(1, n_atoms + 1))
        g = rng.uniform(-2, 2, n_atoms)
        if rng.random() < 0.3:
            g = g - g.mean()  # land on the balanced-coupling surface
        v = float(rng.uniform(0.1, 1.5))
        ham = subspace(n_atoms, g, excitation, v=v,
                       delta_a=float(rng.standard_normal()))
        a = detect(to_arrowhead(ham))
        b = brute_force_dark_states(ham)
        ok, angle = reports_agree(a, b)
        assert ok, (n_atoms, excitation, g, angle)
        checked += 1
    assert checked == 40


def test_routes_agree_on_engineered_dark_surfaces():
    cases = [
        (2, [1.0, -1.0], 1),
        (4, [1.0, 2.0, 2.0, -1.0], 2),
        (4, [1.0, 2.0, -1.0, 2.0], 2),
        (4, [1.0, -1.0, 2.0, 2.0], 2),
        (4, [-1.0, 1.0, 1.0, 1.0], 2),
        (5, [1.0, 0.4, -0.7, 1.1, -1.8], 1),
    ]
    for n_atoms, g, excitation in cases:
        ham = subspace(n_atoms, g, excitation)
        ok, angle = reports_agree(
            detect(to_arrowhead(ham)), brute_force_dark_states(ham)
        )
        assert ok and angle <= 1e-7, (n_atoms, g, excitation, angle)


def test_ground_subspace_is_trivially_dark():
    ham = subspace(3, [1.0, 0.8, 1.5], 0)
    a = detect(to_arrowhead(ham))
    b = brute_force_dark_states(ham)
    assert a.total_dark == b.total_dark == 1
    assert reports_agree(a, b)[0]


def test_method_labels_differ():
    ham = subspace(2, [1.0, 1.0], 1)
    assert detect(to_arrowhead(ham)).method == "arrowhead-rank"
    assert brute_force_dark_states(ham).method == "eigenspace-amplitude"


def cluster_indices_loop(values, tol):
    """Reference grouping: the element loop ``_cluster_indices`` replaced."""
    groups = []
    current = [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
            groups.append(current)
            current = []
        current.append(i)
    if values.size:
        groups.append(current)
    return groups


def svd_oracle(ham, amp_tol):
    """Reference oracle loop: one SVD for every eigenvalue cluster, of its
    photon-carrying amplitudes stacked on its cavity drive."""
    w, Q = eigh(ham.matrix)
    nu = ham.basis.n_upper
    B = ham.coupling_block
    drive = B / np.abs(B).max() if np.any(B) else B
    clusters, vec_list, val_list = [], [], []
    for members in reversed(cluster_indices_loop(w, default_cluster_tol(w))):
        members = tuple(members)
        d = len(members)
        stacked = np.vstack([Q[:nu, list(members)], drive @ Q[nu:, list(members)]])
        if stacked.shape[0] == 0:
            rank, null_basis = 0, np.eye(d, dtype=Q.dtype)
        else:
            _, s, vh = np.linalg.svd(stacked)
            s = np.concatenate([s, np.zeros(d - s.size)])
            rank = int(np.sum(s > amp_tol))
            null_basis = vh[rank:].conj().T
        eigenvalue = float(np.mean(w[list(members)]))
        clusters.append(DegenerateCluster(eigenvalue, members, rank, d - rank))
        dark_vecs = Q[:, list(members)] @ null_basis
        for k in range(d - rank):
            vec_list.append(dark_vecs[:, k])
            val_list.append(eigenvalue)
    vectors = (
        np.stack(vec_list, axis=1) if vec_list
        else np.zeros((ham.basis.dim, 0), dtype=Q.dtype)
    )
    return tuple(reversed(clusters)), vectors, np.array(val_list)


def singleton_upper_norms(ham):
    """Photon-carrying norm of each eigenvector that forms its own cluster."""
    w, Q = np.linalg.eigh(ham.matrix)
    norms = np.linalg.norm(Q[: ham.basis.n_upper], axis=0)
    groups = cluster_indices_loop(w, default_cluster_tol(w))
    return [norms[m[0]] for m in groups if len(m) == 1]


def assert_matches_svd_oracle(ham):
    report = brute_force_dark_states(ham)
    clusters, vectors, eigenvalues = svd_oracle(ham, darkstates.AMP_TOL)
    assert report.clusters == clusters
    assert report.vectors.tobytes() == vectors.tobytes()
    assert report.eigenvalues.tobytes() == eigenvalues.tobytes()
    return report


def test_oracle_screen_matches_svd_on_dark_singleton():
    # |0,ge> decouples (g_2 = 0, V = 0) and no other state is at energy 0
    ham = subspace(2, [1.0, 0.0], 1, v=0.0)
    assert 0.0 in singleton_upper_norms(ham)
    assert assert_matches_svd_oracle(ham).total_dark == 1


@pytest.mark.parametrize("ratio", [1.25, 1 / 1.5, 0.5 * (1 - 1e-15)])
def test_oracle_screen_matches_svd_near_amp_tol(monkeypatch, ratio):
    # AMP_TOL = ratio * norm puts one singleton's upper norm below AMP_TOL
    # (dark), between AMP_TOL and 2 AMP_TOL (left to the SVD), or just above
    # 2 AMP_TOL (decided by the screen); atom 3 has no V and a weak g, so
    # its eigenvector is barely bright
    v = [[0.0, 0.3, 0.0], [0.3, 0.0, 0.0], [0.0, 0.0, 0.0]]
    ham = subspace(3, [1.0, 0.8, 1e-6], 1, v=v, delta_a=0.2)
    norm = min(singleton_upper_norms(ham))
    assert 1e-8 < norm < 1e-4
    monkeypatch.setattr(darkstates, "AMP_TOL", ratio * norm)
    report = assert_matches_svd_oracle(ham)
    assert report.total_dark == (1 if ratio > 1 else 0)


# the scan-n10 grid point with 40 dark states: V uniform, g[1] on its grid
N10_G = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1.5, -1.5, 0.8, -0.8]
N10_G[1] = np.linspace(-2.0, 2.0, 10)[3]


def test_oracle_screen_matches_svd_on_degenerate_n10_point():
    report = assert_matches_svd_oracle(subspace(10, N10_G, 3, v=0.5))
    assert report.total_dark == 40
    assert any(c.size > 1 for c in report.clusters)


def test_oracle_screen_matches_svd_on_excitation_zero():
    # no photon-carrying states: the whole ground cluster is dark
    report = assert_matches_svd_oracle(subspace(3, [1.0, 0.8, 1.5], 0))
    assert report.total_dark == 1


def cluster_index_inputs():
    """Sorted value sets with exact ties, gaps near the tolerance and the
    spectra of degenerate and generic scan points."""
    rng = np.random.default_rng(5)
    ties = np.sort(np.round(rng.uniform(-3.0, 3.0, 80), 1))
    near = np.sort(np.repeat(rng.uniform(-1.0, 1.0, 20), 3)
                   + rng.choice([0.0, 0.5e-8, 2e-8], 60))
    spectra = [
        np.linalg.eigvalsh(subspace(10, N10_G, 3, v=0.5).matrix),
        np.linalg.eigvalsh(subspace(10, N10_G, 3, v=0.5).lower_block),
        np.linalg.eigvalsh(subspace(5, [1.0, 0.4, -0.7, 1.1, -1.8], 2).matrix),
    ]
    return [np.zeros(0), np.array([2.0]), ties, near, *spectra]


def test_cluster_indices_match_element_loop():
    for values in cluster_index_inputs():
        for tol in (default_cluster_tol(values), 1e-8, 0.05, 0.0):
            groups = _cluster_indices(values, tol)
            assert [list(g) for g in groups] == cluster_indices_loop(values, tol)
            assert all(type(i) is int for g in groups for i in g)


def test_oracle_screen_matches_svd_on_random_draws():
    rng = np.random.default_rng(404)
    for n_atoms in rng.integers(2, 6, size=12):
        excitation = int(rng.integers(1, n_atoms + 1))
        assert_matches_svd_oracle(
            subspace(n_atoms, rng.uniform(-2, 2, n_atoms), excitation,
                     v=float(rng.uniform(0.1, 1.5)),
                     delta_a=float(rng.standard_normal()))
        )


@settings(max_examples=40, deadline=None)
@given(n_atoms=st.integers(2, 5), log_scale=st.floats(-300.0, 100.0),
       log_ratio=st.floats(0.0, 12.0))
def test_both_routes_count_uniform_darks_at_any_scale_and_interaction(
        n_atoms, log_scale, log_ratio):
    # uniform g and V on one excitation: only the symmetric state couples, so
    # N - 1 darks, however large V/g and whatever the overall scale
    scale = 10.0**log_scale
    ham = subspace(n_atoms, [scale] * n_atoms, 1, v=10.0**log_ratio * scale)
    assert detect(to_arrowhead(ham)).total_dark == n_atoms - 1
    assert brute_force_dark_states(ham).total_dark == n_atoms - 1


# ------------------------------------------------------ canonical basis


def rotated_inside_clusters(pair, seed):
    """The eigh pair ``(w, Q)`` with Q mixed inside every degenerate cluster
    by a seeded random orthogonal matrix: an equally valid eigensolver
    output."""
    rng = np.random.default_rng(seed)
    w, Q = pair[0], pair[1].copy()
    for members in cluster_indices_loop(w, default_cluster_tol(w)):
        if len(members) > 1:
            R, _ = np.linalg.qr(rng.standard_normal((len(members), len(members))))
            Q[:, members] = Q[:, members] @ R
    return w, Q


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_atoms, g, excitation, total", [
    (10, N10_G, 3, 40),
    (4, [-1.0, 1.0, 1.0, 1.0], 2, 2),
])
def test_canonical_basis_and_margin_ignore_rotations_inside_clusters(
        n_atoms, g, excitation, total, seed):
    ham = subspace(n_atoms, g, excitation)
    pair = eigh(ham.lower_block)
    ref = detect(to_arrowhead(ham, lower=pair))
    rot = detect(to_arrowhead(ham, lower=rotated_inside_clusters(pair, seed)))
    assert ref.total_dark == rot.total_dark == total
    # the detector's own vectors follow the rotation ...
    assert np.abs(rot.vectors - ref.vectors).max() > 1e-3
    # ... the canonical ones and the margin do not
    assert np.abs(rot.canonical().vectors - ref.canonical().vectors).max() <= 1e-12
    assert abs(rot.rank_margin - ref.rank_margin) <= 1e-12 * ref.rank_margin


def test_four_atom_pair_plane_canonical_basis():
    # pivot rows eegg and egeg: E = [1,0,-1,1,0,-1], [0,1,-1,1,-1,0] over
    # (eegg, egeg, egge, geeg, gege, ggee), then Gram-Schmidt
    report = detect(to_arrowhead(subspace(4, [-1.0, 1.0, 1.0, 1.0], 2)))
    canon = report.canonical()
    nu = report.basis.n_upper
    want = np.array([
        [1.0, 0.0, -1.0, 1.0, 0.0, -1.0],
        [-1.0, 2.0, -1.0, 1.0, -2.0, 1.0],
    ]).T / np.array([2.0, 2.0 * S3])
    assert np.abs(canon.vectors[nu:] - want).max() <= 1e-14
    assert subspace_angle(report.vectors, canon.vectors) <= 1e-14
    # the photon-carrying amplitudes stay exact (positive) zeros
    assert not canon.vectors[:nu].any() and not np.signbit(canon.vectors[:nu]).any()
    np.testing.assert_array_equal(canon.eigenvalues, report.eigenvalues)
    assert canon.clusters == report.clusters


def test_canonical_basis_is_shared_by_both_routes():
    result = analyze_subspace(
        SystemParams(n_atoms=10, delta_a=0.0, g=N10_G, V=0.5), enumerate_subspace(10, 3)
    )
    assert result.detected.total_dark == 40
    assert np.abs(result.detected.vectors - result.brute_force.vectors).max() <= 1e-9


def test_echelon_basis_of_a_rotated_block():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
    q[4] = 0.0  # an exactly-zero row
    q, _ = np.linalg.qr(q)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a, b = echelon_basis(q), echelon_basis(q @ rot)
    assert np.abs(a - b).max() <= 1e-13
    np.testing.assert_allclose(a.T @ a, np.eye(3), atol=1e-14)
    assert subspace_angle(q, a) <= 1e-14
    assert not a[4].any() and not np.signbit(a[4]).any()
    # reduced echelon: rows 0, 1, 2 are the pivots, so a[:3] is upper triangular
    # with a positive diagonal
    assert np.all(np.diag(a[:3]) > 0) and np.abs(np.tril(a[:3], -1)).max() <= 1e-15
    with pytest.raises(ValueError, match="full rank"):
        echelon_basis(np.zeros((4, 1)))


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-7])
def test_echelon_basis_with_a_nearly_dependent_pivot_row(gap):
    # row 1 is 0.7 * row 0 plus a residual of about ``gap``: still a pivot,
    # but D[piv] has a singular value near ``gap``
    rng = np.random.default_rng(5)
    a = rng.standard_normal((9, 3))
    a[1] = 0.7 * a[0] + gap * rng.standard_normal(3)
    q, _ = np.linalg.qr(a)
    resid = q[1] - (q[1] @ q[0]) / (q[0] @ q[0]) * q[0]
    assert gap / 10 < np.linalg.norm(resid) < gap * 10
    ref = echelon_basis(q)
    # pivots are rows 0, 1, 2: ref[:3] is upper triangular, positive diagonal
    assert np.all(np.diag(ref[:3]) > 0) and np.abs(np.tril(ref[:3], -1)).max() <= 1e-15
    np.testing.assert_allclose(ref.T @ ref, np.eye(3), atol=1e-14)
    for _ in range(5):
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert np.abs(echelon_basis(q @ rot) - ref).max() <= 1e-13


# ------------------------------------------------------------ rank margin


def test_rank_margin_two_atoms():
    # dressed states (1, -1)/sqrt2 and (1, 1)/sqrt2 couple with (g1 -+ g2)/sqrt2;
    # the rank threshold is 1e-10 * ||(g1, g2)||
    for g1, g2 in ([1.0, 1.0], [1.0, 0.7], [1.0, -1.6]):
        report = detect(to_arrowhead(subspace(2, [g1, g2], 1)))
        kept = min(s for s in (abs(g1 - g2), abs(g1 + g2)) if s) / S2
        want = kept / (1e-10 * np.hypot(g1, g2))
        assert report.rank_margin == pytest.approx(want, rel=1e-12)


def test_rank_margin_absent_when_nothing_is_kept():
    assert detect(to_arrowhead(subspace(3, [0.0, 0.0, 0.0], 1))).rank_margin is None
    assert detect(to_arrowhead(subspace(2, [1.0, 0.5], 3))).rank_margin is None
    assert brute_force_dark_states(subspace(2, [1.0, 1.0], 1)).rank_margin is None


# ------------------------------------------------------------- rank pass


def single_pass_detect(arrow):
    """Reference detector in one pass: each cluster's rank from its
    singular values and, right after, its null space from the trailing
    right-singular vectors.  Returns (clusters, vectors, rank_margin)."""
    w, C, nu = arrow.eigenvalues, arrow.couplings, arrow.n_upper
    scale = float(np.linalg.norm(C, ord=2))
    clusters, blocks, smallest = [], [], None
    for members in reversed(cluster_indices_loop(w, default_cluster_tol(w))):
        lo, hi = members[0], members[-1] + 1
        s = np.linalg.svd(C[:, lo:hi], compute_uv=False)
        rank = int(np.sum(s > darkstates.RANK_TOL * scale))
        null = np.linalg.svd(C[:, lo:hi])[2][rank:].conj().T
        if rank and (smallest is None or s[rank - 1] < smallest):
            smallest = s[rank - 1]
        eigenvalue = float(w[lo] + 0.0) if hi - lo == 1 else float(np.mean(w[lo:hi]))
        clusters.append(DegenerateCluster(eigenvalue, tuple(members), rank,
                                          hi - lo - rank))
        if hi - lo > rank:
            blocks.append(arrow.lower_transform[lo:hi].conj().T @ null)
    vectors = np.zeros((nu + arrow.n_lower, sum(b.shape[1] for b in blocks)),
                       dtype=np.result_type(arrow.lower_transform, C))
    if blocks:
        vectors[nu:] = np.hstack(blocks)
    margin = None if smallest is None else float(
        smallest / (darkstates.RANK_TOL * scale))
    return tuple(reversed(clusters)), vectors, margin


def assert_rank_pass_matches_detect(arrow):
    clusters, margin = cluster_ranks(arrow)
    report = detect(arrow)
    ref_clusters, ref_vectors, ref_margin = single_pass_detect(arrow)
    assert clusters == report.clusters == ref_clusters
    assert margin == report.rank_margin == ref_margin
    assert sum(c.dark_dim for c in clusters) == report.total_dark
    assert report.vectors.tobytes() == ref_vectors.tobytes()
    return report


def n10_point(v01, g1):
    """A point of the scan-n10 benchmark grid: N = 10, excitation 3."""
    g = list(N10_G)
    g[1] = g1
    V = uniform_dipole_matrix(10, 0.5)
    V[0, 1] = V[1, 0] = v01
    return subspace(10, g, 3, v=V)


N10_G1 = np.linspace(-2.0, 2.0, 10)


@pytest.mark.parametrize("make, total", [
    (lambda: n10_point(0.5, N10_G1[3]), 40),  # uniform V: degenerate clusters
    (lambda: n10_point(0.3, N10_G1[6]), 8),
    (lambda: n10_point(1.0, N10_G1[0]), 8),
    (lambda: subspace(8, [1.0] * 8, 4), 14),
    (lambda: subspace(4, [-1.0, 1.0, 1.0, 1.0], 2), 2),  # the pair plane
    (lambda: subspace(3, [1.0, 0.8, 1.5], 0), 1),  # no photon-carrying states
], ids=["n10-uniform", "n10-broken", "n10-corner", "n8-uniform", "pair-plane",
        "excitation-0"])
def test_rank_pass_matches_detect(make, total):
    assert assert_rank_pass_matches_detect(to_arrowhead(make())).total_dark == total


@settings(max_examples=60, deadline=None)
@given(
    planted=st.lists(
        st.one_of(
            st.floats(0.5, 1.0),
            st.floats(0.1, 10.0).map(lambda f: f * darkstates.RANK_TOL),
            st.just(0.0),
        ),
        max_size=8,
    ),
    cuts=st.lists(st.booleans(), min_size=8, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_pass_matches_detect_near_rank_tol(planted, cuts, seed):
    # one singular value 1 sets ||C||_2 to about 1, so the threshold is about
    # RANK_TOL and the planted values within 10x of it fall on both sides
    planted = np.array([1.0, *planted])
    nl = planted.size
    nu = nl + 2
    rng = np.random.default_rng(seed)
    # degenerate clusters of dressed states: a cut starts the next cluster
    w = np.cumsum([0.0, *(1.0 if cut else 0.0 for cut in cuts[: nl - 1])])
    C = np.zeros((nu, nl))
    for members in cluster_indices_loop(w, default_cluster_tol(w)):
        U, _ = np.linalg.qr(rng.standard_normal((nu, len(members))))
        W, _ = np.linalg.qr(rng.standard_normal((len(members), len(members))))
        C[:, members] = (U * planted[members]) @ W.T
    Q, _ = np.linalg.qr(rng.standard_normal((nl, nl)))
    arrow = ArrowheadForm(basis=None, eigenvalues=w, couplings=C,
                          lower_transform=Q.T)
    assert_rank_pass_matches_detect(arrow)


# --------------------------------------------------------------- reports


def test_report_projector_is_idempotent():
    report = detect(to_arrowhead(subspace(4, [1.0, 0.8, 1.5, 1.2], 1)))
    P = ref.projector(report.vectors)
    np.testing.assert_allclose(P @ P, P, atol=1e-12)
    np.testing.assert_allclose(P, P.conj().T, atol=1e-14)
    assert np.trace(P).real == pytest.approx(report.total_dark, abs=1e-12)


def test_report_json_round_trip():
    report = detect(to_arrowhead(subspace(3, [1.0, 0.9, -1.9], 1)))
    # the command line writes reports through json.dumps
    data = json.loads(json.dumps(report.to_dict()))
    assert data["total_dark"] == 2
    assert data["method"] == "arrowhead-rank"
    assert data["n_atoms"] == 3 and data["excitation"] == 1
    assert len(data["dark_states"]) == 2
    amps = data["dark_states"][0]["amplitudes"]
    assert set(amps) == {"1,ggg", "0,egg", "0,geg", "0,gge"}
    assert amps["1,ggg"] == [0.0, 0.0]
    assert data == report.to_dict()


# -------------------------------------------------------- subspace angle


def test_subspace_angle_identical_spans():
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
    assert subspace_angle(q, q) <= 1e-7
    # a rotation within the span leaves the projector alone
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert subspace_angle(q, q @ rot) <= 1e-7


@pytest.mark.parametrize("theta", [0.3, 1e-4, 1e-9])
def test_subspace_angle_recovers_planted_rotation(theta):
    a = np.zeros((4, 1))
    a[0, 0] = 1.0
    b = np.zeros((4, 1))
    b[0, 0] = np.cos(theta)
    b[1, 0] = np.sin(theta)
    assert subspace_angle(a, b) == pytest.approx(theta, rel=1e-6)


def test_subspace_angle_orthogonal_spans():
    a = np.array([[1.0], [0.0]])
    b = np.array([[0.0], [1.0]])
    assert subspace_angle(a, b) == pytest.approx(np.pi / 2)


def projector_angle(A, B):
    """Reference: the angle from the SVD of the n x n projector difference."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    gap = np.linalg.norm(A @ A.conj().T - B @ B.conj().T, ord=2)
    return float(np.arcsin(min(1.0, gap)))


def planted_spans(n, k, theta, complex_span, seed=17):
    """Orthonormal n x k spans A, B whose largest principal angle is theta;
    B's basis is mixed by a random unitary so it is not aligned with A's."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    if complex_span:
        m = m + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(m)
    a = q[:, :k]
    r = min(k, n - k)
    angles = theta * np.linspace(1.0, 0.25, r)
    b = a.copy()
    b[:, :r] = a[:, :r] * np.cos(angles) + q[:, k:k + r] * np.sin(angles)
    rot, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return a, b @ rot


@pytest.mark.parametrize("complex_span", [False, True])
@pytest.mark.parametrize("n, k, theta", [
    (12, 0, 0.0),
    (12, 12, 0.0),
    (12, 4, 1e-12),
    (12, 4, 1e-9),
    (12, 4, 0.5),
    (12, 9, 0.5),
    (40, 7, 1e-9),
    (40, 7, 0.5),
])
def test_subspace_angle_matches_projector_difference(n, k, theta, complex_span):
    a, b = planted_spans(n, k, theta, complex_span)
    angle = subspace_angle(a, b)
    assert abs(angle - projector_angle(a, b)) <= 1e-14
    assert abs(angle - theta) <= 1e-14


def test_subspace_angle_dimension_mismatch():
    with pytest.raises(ValueError, match="differ"):
        subspace_angle(np.eye(3)[:, :1], np.eye(3)[:, :2])
    with pytest.raises(ValueError, match="differ"):
        subspace_angle(np.eye(4)[:, :2], np.eye(3, dtype=complex)[:, :2])


def test_subspace_angle_empty():
    assert subspace_angle(np.zeros((4, 0)), np.zeros((4, 0))) == 0.0


def test_reports_agree_count_mismatch_is_nan():
    a = detect(to_arrowhead(subspace(2, [1.0, 1.0], 1)))
    b = detect(to_arrowhead(subspace(2, [1.0, 0.7], 1)))
    ok, angle = reports_agree(a, b)
    assert not ok
    assert math.isnan(angle)


# ---------------------------------------------------------- full analysis


def test_analyze_subspace_end_to_end():
    params = SystemParams(n_atoms=4, delta_a=0.0, g=[-1.0, 1.0, 1.0, 1.0], V=0.5)
    result = analyze_subspace(params, enumerate_subspace(4, 2))
    assert result.agrees
    assert result.angle <= 1e-7
    assert result.detected.total_dark == 2
    assert result.brute_force.total_dark == 2
    assert result.detected.method == "arrowhead-rank"
    assert result.brute_force.method == "eigenspace-amplitude"
    assert result.detected.basis is result.brute_force.basis


def test_analyze_subspace_takes_a_basis():
    params = SystemParams(n_atoms=4, delta_a=0.3, g=[-1.0, 1.0, 1.0, 1.0], V=0.5)
    basis = enumerate_subspace(4, 2)
    result = analyze_subspace(params, basis)
    ham = build_hamiltonian(params, basis)
    detected = detect(to_arrowhead(ham)).canonical()
    brute = brute_force_dark_states(ham).canonical()
    assert result.detected.basis is result.brute_force.basis is basis
    assert result.detected.to_dict() == detected.to_dict()
    assert result.brute_force.to_dict() == brute.to_dict()
    assert (result.agrees, result.angle) == reports_agree(detected, brute)


def test_overflowed_spread_is_a_scale_error():
    # each eigenvalue is finite, their difference is not
    with pytest.raises(ScaleError, match="spectral spread"):
        default_cluster_tol(np.array([-1e308, 1e308]))
    assert default_cluster_tol(np.array([-1e307, 1e307])) == 2e299


def test_overflowing_hamiltonian_is_a_scale_error():
    with pytest.raises(ScaleError, match="Hamiltonian scale"):
        subspace(3, [1.0, 1e308, 1.0], 1)
    assert np.isfinite(subspace(3, [1.0, 1e300, 1.0], 1).matrix).all()
