"""Tests for the geometry layer: placements to couplings, the mode profile,
and the Cardano degeneracy test."""

import numpy as np
import pytest

from cavitydark.arrowhead import to_arrowhead
from cavitydark.basis import enumerate_subspace
from cavitydark.darkstates import detect
from cavitydark.geometry import (
    AtomGeometry,
    cardano_discriminant,
    cavity_coupling,
    dipole_matrix,
    params_from_geometry,
)
from cavitydark.hamiltonian import build_hamiltonian


def geo(positions, **kwargs):
    return AtomGeometry(positions=np.asarray(positions, dtype=float), **kwargs)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# --------------------------------------------------------------- geometry


def test_geometry_validation():
    with pytest.raises(ValueError, match="shape"):
        AtomGeometry(positions=np.zeros((3,)))
    with pytest.raises(ValueError, match="at least one"):
        AtomGeometry(positions=np.zeros((0, 3)))
    with pytest.raises(ValueError, match="w0"):
        geo([[0, 0, 0]], w0=0.0)
    with pytest.raises(ValueError, match="wavelength"):
        geo([[0, 0, 0]], wavelength=-1.0)


@pytest.mark.parametrize("placement, message", [
    ({"w0": 1e200}, "derived Rayleigh range is not finite (inf)"),
    ({"positions": [[0, 0, 0], [1e300, 0, 0]]},
     "derived distance of atoms 0 and 1 is not finite (inf)"),
    ({"positions": [[0, 0, 0], [0, 0, 1e308]]},
     "derived phase k z of atom 1 is not finite (inf)"),
    ({"positions": [[0, 0, 0], [0, 0, np.nan]]}, "positions must be finite"),
])
def test_an_overflowing_placement_is_refused_by_name(placement, message):
    # a refusal, not an OverflowError or a numpy warning (warnings fail the test)
    kwargs = {"positions": [[0, 0, 0], [0.5, 0, 0]], **placement}
    with pytest.raises(ValueError) as exc:
        params_from_geometry(geo(**kwargs))
    assert message in str(exc.value)


def test_geometry_derived_quantities():
    g = geo([[0, 0, 0]], w0=2.0, wavelength=0.5)
    assert g.rayleigh_range == pytest.approx(np.pi * 4.0 / 0.5)
    assert g.wavenumber == pytest.approx(2 * np.pi / 0.5)


def test_geometry_dict_round_trip():
    g = geo([[0, 0, 0], [1, 0, 0]], c3=2.0, g0=0.5, w0=1.5, wavelength=0.8)
    d = {"positions": g.positions.tolist(), "C3": g.c3, "g0": g.g0, "w0": g.w0,
         "lambda": g.wavelength}
    back = AtomGeometry.from_dict(d)
    np.testing.assert_array_equal(back.positions, g.positions)
    assert back.c3 == g.c3 and back.g0 == g.g0
    assert back.w0 == g.w0 and back.wavelength == g.wavelength


# ---------------------------------------------------------- dipole matrix


def test_dipole_matrix_unit_distance():
    V = dipole_matrix(geo([[0, 0, 0], [1, 0, 0]]))
    np.testing.assert_allclose(V, [[0, 1], [1, 0]], atol=1e-15)
    V = dipole_matrix(geo([[0, 0, 0], [1, 0, 0]], c3=2.5))
    assert V[0, 1] == pytest.approx(2.5)


def test_dipole_matrix_equilateral():
    d = 0.7
    h = d * np.sqrt(3) / 2
    V = dipole_matrix(geo([[0, 0, 0], [d, 0, 0], [d / 2, h, 0]]))
    vals = [V[0, 1], V[0, 2], V[1, 2]]
    np.testing.assert_allclose(vals, vals[0], rtol=1e-12)
    assert vals[0] == pytest.approx(1 / d**3)


def test_dipole_matrix_collinear_chain():
    d = 0.9
    V = dipole_matrix(geo([[0, 0, 0], [0, 0, d], [0, 0, 2 * d]]))
    assert V[0, 2] == pytest.approx(V[0, 1] / 8.0, rel=1e-14)
    np.testing.assert_array_equal(np.diag(V), 0.0)
    np.testing.assert_array_equal(V, V.T)


def test_dipole_matrix_rejects_coincident_atoms():
    with pytest.raises(ValueError, match="coincident"):
        dipole_matrix(geo([[0, 0, 0], [0, 0, 1e-12]]))


def test_dipole_matrix_rigid_motion_invariance():
    rng = np.random.default_rng(31)
    pos = rng.uniform(-1, 1, (5, 3))
    V0 = dipole_matrix(geo(pos, c3=1.3))
    for _ in range(10):
        R = random_rotation(rng)
        shift = rng.uniform(-3, 3, 3)
        moved = pos @ R.T + shift
        V1 = dipole_matrix(geo(moved, c3=1.3))
        assert np.abs(V1 - V0).max() <= 1e-12


# --------------------------------------------------------- cavity profile


def test_cavity_coupling_reference_points():
    lam = 0.8
    g0 = 1.7
    w0 = 1.0
    base = geo([[0, 0, 0], [w0, 0, 0], [0, 0, lam / 4]], g0=g0, w0=w0,
               wavelength=lam)
    g = cavity_coupling(base)
    assert g[0] == pytest.approx(g0)
    assert g[1] == pytest.approx(g0 * np.exp(-1.0))
    assert abs(g[2]) <= 1e-12  # node of the standing wave


def test_cavity_coupling_axial_width_linear():
    lam = 1.0
    base = geo([[0, 0, lam]], wavelength=lam)
    z_r = base.rayleigh_range
    g = cavity_coupling(base)
    expected = np.cos(2 * np.pi) / np.sqrt(1 + lam / z_r)
    assert g[0] == pytest.approx(expected, rel=1e-14)


def test_cavity_coupling_rejects_left_of_linear_domain():
    base = geo([[0, 0, -4.0]], wavelength=1.0)  # z_R = pi, so 1 + z/z_R < 0
    with pytest.raises(ValueError, match="axial profile"):
        cavity_coupling(base)


def test_cavity_coupling_quadratic_profile():
    lam = 1.0
    base = geo([[0.5, 0, -4.0]], wavelength=lam)
    g = cavity_coupling(base, axial_profile="quadratic")
    z_r = base.rayleigh_range
    w_z2 = 1.0 + (4.0 / z_r) ** 2
    expected = np.cos(-8 * np.pi) * np.exp(-0.25 / w_z2) / np.sqrt(w_z2)
    assert g[0] == pytest.approx(expected, rel=1e-12)


def test_cavity_coupling_unknown_profile():
    with pytest.raises(ValueError, match="axial_profile"):
        cavity_coupling(geo([[0, 0, 0]]), axial_profile="cubic")


# ------------------------------------------------------------ discriminant


def test_cardano_equal_magnitudes_degenerate():
    for signs in [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, -1, -1)]:
        v = 0.37
        res = cardano_discriminant(signs[0] * v, signs[1] * v, signs[2] * v)
        assert res["degenerate"]
        assert res["magnitudes_equal"]
        assert res["magnitude_spread"] == pytest.approx(0.0, abs=1e-14)
        assert not res["triple_root"]
        assert res["P"] == pytest.approx(-3 * v**2)
        assert abs(res["Q"]) == pytest.approx(2 * v**3)


def test_cardano_collinear_chain_not_degenerate():
    v = 0.8
    res = cardano_discriminant(v, v, v / 8.0)
    assert not res["degenerate"]
    assert res["magnitude_spread"] is None


def test_cardano_zero_couplings_triple_root():
    res = cardano_discriminant(0.0, 0.0, 0.0)
    assert res["degenerate"]
    assert res["triple_root"]
    assert res["P"] == res["Q"] == res["delta"] == 0.0


def test_cardano_random_equivalence():
    rng = np.random.default_rng(77)
    for _ in range(200):
        mag = float(10.0 ** rng.uniform(-3, 1))
        signs = rng.choice([-1.0, 1.0], 3)
        res = cardano_discriminant(*(signs * mag))
        assert res["degenerate"] and res["magnitudes_equal"], mag
    for _ in range(200):
        v = rng.uniform(-2, 2, 3)
        mags = np.abs(v)
        spread = (mags.max() - mags.min()) / mags.max()
        if spread < 1e-6 or mags.min() < 1e-6:
            continue
        res = cardano_discriminant(*v)
        assert not res["degenerate"], v


def test_cardano_small_couplings_stay_resolved():
    # sub-unit couplings must not blur the test: delta scales like V^6
    res = cardano_discriminant(0.01, 0.01, 0.00125)
    assert not res["degenerate"]
    res = cardano_discriminant(0.01, -0.01, 0.01)
    assert res["degenerate"]


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_cardano_decides_at_every_scale(scale):
    # P^3 and Q^2 scale as V^6: unscaled, they flush to zero at 1e-100 and
    # overflow at 1e100 (a warning fails the test)
    res = cardano_discriminant(scale, 2.0 * scale, 3.0 * scale)
    assert res["degenerate"] is False
    assert res["P"] == pytest.approx(-14.0 * scale**2)
    assert res["Q"] == pytest.approx(-12.0 * scale**3)
    res = cardano_discriminant(scale, -scale, scale)
    assert res["degenerate"] and res["magnitudes_equal"] and not res["triple_root"]


def test_cardano_reports_the_unscaled_formulas():
    # the power-of-two scaling is exact, so moderate scales read bit for bit
    # as the formulas on the couplings given
    for v12, v13, v23 in np.random.default_rng(5).uniform(-3.0, 3.0, (100, 3)):
        p = -(v12**2 + v13**2 + v23**2)
        q = -2.0 * v12 * v13 * v23
        res = cardano_discriminant(v12, v13, v23)
        delta = (p / 3.0) ** 3 + (q / 2.0) ** 2
        assert (res["P"], res["Q"], res["delta"]) == (p, q, delta)


def test_cardano_matches_dipole_spectrum():
    # degenerate discriminant == repeated eigenvalue of the interaction matrix
    d = 0.8
    h = d * np.sqrt(3) / 2
    V = dipole_matrix(geo([[0, 0, 0], [d, 0, 0], [d / 2, h, 0]]))
    res = cardano_discriminant(V[0, 1], V[0, 2], V[1, 2])
    assert res["degenerate"]
    w = np.linalg.eigvalsh(V)
    assert w[1] - w[0] <= 1e-12
    assert w[2] - w[1] > 0.1


# ------------------------------------------------------------- end to end


def test_params_from_mirrored_pair_gives_dark_state():
    lam = 0.9
    base = geo([[0.3, 0.2, 0.1], [-0.3, -0.2, 0.1]], wavelength=lam)
    params = params_from_geometry(base, delta_a=0.0, kappa=0.3)
    assert params.g[0] == pytest.approx(params.g[1], rel=1e-14)
    assert params.kappa == 0.3
    report = detect(to_arrowhead(build_hamiltonian(params, enumerate_subspace(2, 1))))
    assert report.total_dark == 1


def test_params_from_circle_equal_couplings():
    radius = 0.4
    angles = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    pos = np.stack(
        [radius * np.cos(angles), radius * np.sin(angles), np.zeros(4)], axis=1
    )
    params = params_from_geometry(geo(pos))
    np.testing.assert_allclose(params.g, params.g[0], rtol=1e-12)
    # nearest-neighbour couplings around the ring all match
    V = params.V
    ring = [V[0, 1], V[1, 2], V[2, 3], V[3, 0]]
    np.testing.assert_allclose(ring, ring[0], rtol=1e-12)


def test_equilateral_matches_equal_coupling_count():
    # equilateral in the waist plane, centered on the axis: equal g and
    # equal V, so the subspace analysis must find the equal-coupling count
    d = 0.6
    pos = np.array(
        [
            [d / np.sqrt(3), 0.0, 0.0],
            [-d / (2 * np.sqrt(3)), d / 2, 0.0],
            [-d / (2 * np.sqrt(3)), -d / 2, 0.0],
        ]
    )
    params = params_from_geometry(geo(pos), delta_a=0.0, kappa=0.0)
    np.testing.assert_allclose(params.g, params.g[0], rtol=1e-12)
    report = detect(to_arrowhead(build_hamiltonian(params, enumerate_subspace(3, 1))))
    # same count as the abstract uniform-coupling three-atom analysis
    abstract = detect(
        to_arrowhead(
            build_hamiltonian(
                type(params)(
                    n_atoms=3, delta_a=0.0, g=[1.0, 1.0, 1.0], V=0.5
                ),
                enumerate_subspace(3, 1),
            )
        )
    )
    assert report.total_dark == abstract.total_dark == 2


def test_params_pass_through_detuning():
    params = params_from_geometry(
        geo([[0, 0, 0], [0.5, 0, 0]]), delta_a=0.7, kappa=0.2
    )
    assert params.delta_a == 0.7
    assert params.kappa == 0.2
