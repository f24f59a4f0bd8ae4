"""Tests for the dissipative dynamics layer: operators, the master-equation
right-hand side, the integrator, and trajectory export."""

import numpy as np
import pytest

import conftest
from _matrices import exact_populations, liouvillian_apply
from cavitydark import dynamics, kernels
from cavitydark.arrowhead import to_arrowhead
from cavitydark.basis import ladder_spaces
from cavitydark.darkstates import detect
from cavitydark.dynamics import (
    IntegrationError,
    Trajectory,
    build_ladder_hamiltonian,
    excitation_diagonal,
    lowering_operator,
    min_eigenvalue,
    simulate,
    stability_bound,
)
from cavitydark.hamiltonian import SystemParams, build_hamiltonian
from cavitydark.states import resolve_state

S2 = np.sqrt(2.0)


def two_atom_params(kappa=0.3, g=(1.0, 1.0), v=0.5):
    return SystemParams(n_atoms=2, delta_a=0.0, g=list(g), V=v, kappa=kappa)


def basis_state(ladder, label):
    vec = np.zeros(ladder.dim)
    vec[ladder.global_index_of_label(label)] = 1.0
    return vec


# ------------------------------------------------------ ladder operators


def test_ladder_hamiltonian_is_block_diagonal():
    params = two_atom_params()
    ladder = ladder_spaces(2, 2)
    H = build_ladder_hamiltonian(params, ladder)
    assert H.shape == (8, 8)
    for n, sub in enumerate(ladder.subspaces):
        lo, hi = ladder.offsets[n], ladder.offsets[n + 1]
        block = build_hamiltonian(params, sub).matrix
        np.testing.assert_array_equal(H[lo:hi, lo:hi], block)
        H[lo:hi, lo:hi] = 0.0
    assert np.abs(H).max() == 0.0


def test_lowering_operator_entries():
    ladder = ladder_spaces(2, 2)
    a = lowering_operator(ladder)
    i_0gg = ladder.global_index_of_label("0,gg")
    i_1gg = ladder.global_index_of_label("1,gg")
    i_2gg = ladder.global_index_of_label("2,gg")
    i_0eg = ladder.global_index_of_label("0,eg")
    i_1eg = ladder.global_index_of_label("1,eg")
    assert a[i_0gg, i_1gg] == 1.0
    assert a[i_1gg, i_2gg] == pytest.approx(S2)
    assert a[i_0eg, i_1eg] == 1.0
    # photon-free columns are annihilated
    assert np.abs(a[:, i_0gg]).max() == 0.0
    assert np.abs(a[:, i_0eg]).max() == 0.0
    # every entry moves exactly one excitation down the ladder
    exc = excitation_diagonal(ladder)
    rows, cols = np.nonzero(a)
    assert np.all(exc[rows] == exc[cols] - 1)


def test_excitation_diagonal():
    ladder = ladder_spaces(2, 2)
    np.testing.assert_array_equal(
        excitation_diagonal(ladder), [0, 1, 1, 1, 2, 2, 2, 2]
    )


# ------------------------------------------------- right-hand side checks


def test_rhs_vanishes_on_eigenprojector():
    params = two_atom_params(kappa=0.0, g=(1.0, 0.7))
    ladder = ladder_spaces(2, 1)
    H = build_ladder_hamiltonian(params, ladder)
    a = lowering_operator(ladder)
    w, Q = np.linalg.eigh(H)
    for k in (0, ladder.dim - 1):
        rho = np.outer(Q[:, k], Q[:, k].conj())
        drho = liouvillian_apply(H, a, 0.0, rho)
        assert np.abs(drho).max() <= 1e-12


def test_rhs_pure_cavity_decay():
    params = SystemParams(n_atoms=2, delta_a=0.0, g=[0.0, 0.0], V=0.0, kappa=0.4)
    ladder = ladder_spaces(2, 1)
    H = build_ladder_hamiltonian(params, ladder)
    a = lowering_operator(ladder)
    rho = np.outer(basis_state(ladder, "1,gg"), basis_state(ladder, "1,gg"))
    drho = liouvillian_apply(H, a, params.kappa, rho)
    n_op = a.conj().T @ a
    photon_rate = float(np.real(np.trace(n_op @ drho)))
    assert photon_rate == pytest.approx(-params.kappa, abs=1e-14)


def test_rhs_vanishes_on_dark_projector():
    params = SystemParams(n_atoms=3, delta_a=0.0, g=[1.0, 0.9, -1.9], V=0.5,
                          kappa=0.7)
    ladder = ladder_spaces(3, 1)
    H = build_ladder_hamiltonian(params, ladder)
    a = lowering_operator(ladder)
    report = detect(to_arrowhead(build_hamiltonian(params, ladder.subspaces[1])))
    assert report.total_dark == 2
    lo, hi = ladder.offsets[1], ladder.offsets[2]
    rho = np.zeros((ladder.dim, ladder.dim), dtype=complex)
    rho[lo:hi, lo:hi] = report.projector() / report.total_dark
    drho = liouvillian_apply(H, a, params.kappa, rho)
    assert np.abs(drho).max() <= 1e-12


def test_rhs_rejects_mismatched_shapes():
    ladder = ladder_spaces(2, 1)
    H = build_ladder_hamiltonian(two_atom_params(), ladder)
    a = lowering_operator(ladder)
    with pytest.raises(ValueError):
        liouvillian_apply(H, a, 0.3, np.eye(3, dtype=complex))


# --------------------------------------------------------- density matrix


def test_from_pure_and_probes():
    # the run starts from the pure state's projector
    ladder = ladder_spaces(2, 1)
    psi = basis_state(ladder, "0,eg")
    [(t, rho)] = simulate(**simple_config(t_max=0.025, n_snapshots=1)).snapshots
    assert t == 0.0
    np.testing.assert_array_equal(rho, np.outer(psi, psi))
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.array_equal(rho, rho.conj().T)
    assert min_eigenvalue(rho) == pytest.approx(0.0, abs=1e-15)


def test_from_pure_rejects_bad_input():
    ladder = ladder_spaces(2, 1)
    with pytest.raises(ValueError,
                       match=r"initial state has shape \(3,\), expected \(4,\)"):
        simulate(**simple_config(initial=np.zeros(3)))
    with pytest.raises(ValueError,
                       match=r"initial state is not normalized: \|psi\| = 0\.8$"):
        simulate(**simple_config(initial=np.full(ladder.dim, 0.4)))


# -------------------------------------------------------- grid resolution


def test_stability_bound_value():
    params = two_atom_params(kappa=0.3)
    ladder = ladder_spaces(2, 1)
    H = build_ladder_hamiltonian(params, ladder)
    # |H|_max = g = 1 dominates kappa
    assert stability_bound(params, H) == pytest.approx(0.05)


def simple_config(**overrides):
    """``simulate`` arguments of a two-atom run from |0,eg>."""
    ladder = ladder_spaces(2, 1)
    kwargs = dict(
        params=two_atom_params(),
        ladder=ladder,
        initial=basis_state(ladder, "0,eg"),
        watch={"ground": basis_state(ladder, "0,gg")},
        t_max=1.0,
        dt=0.025,
    )
    kwargs.update(overrides)
    return kwargs


def test_simulate_runs_step_above_old_stability_bound():
    # dt = 0.1 is twice the old RK4 bound; the Taylor step is exact at any dt
    pytest.importorskip("scipy")
    config = simple_config(dt=0.1)
    traj = simulate(**config)
    assert len(traj.times) == 11
    err = exact_error(traj, config["params"], config["ladder"], config["initial"],
                      config["watch"])
    assert err < 1e-13


def test_simulate_rejects_non_dividing_step():
    with pytest.raises(ValueError, match="whole steps"):
        simulate(**simple_config(dt=0.03))


def test_simulate_rejects_bad_t_max():
    with pytest.raises(ValueError, match="positive"):
        simulate(**simple_config(t_max=-1.0))


def test_default_t_max_needs_first_coupling():
    params = SystemParams(n_atoms=2, delta_a=0.0, g=[0.0, 1.0], V=0.5, kappa=0.3)
    with pytest.raises(ValueError, match="t_max"):
        simulate(**simple_config(params=params, t_max=None, dt=None))


def test_default_grid_respects_bound():
    # the default grid is the largest step of at most stability_bound that
    # divides t_max: 0.05 divides 1.0, and 0.95 needs 19 steps of 0.05
    for t_max, steps in ((1.0, 20), (0.95, 19), (0.97, 20)):
        traj = simulate(**simple_config(dt=None, t_max=t_max))
        assert len(traj.times) == steps + 1
        assert traj.dt == t_max / steps
        assert traj.times[-1] == pytest.approx(t_max)


def test_simulate_validates_watch_list():
    ladder = ladder_spaces(2, 1)
    good = basis_state(ladder, "0,gg")
    with pytest.raises(ValueError,
                       match=r"watch state 'bad' has shape \(3,\), expected"):
        simulate(**simple_config(watch={"bad": np.zeros(3)}))
    with pytest.raises(ValueError, match=r"'bad' is not normalized: \|psi\| = 0\.5$"):
        simulate(**simple_config(watch={"bad": good * 0.5}))
    # one tolerance for the initial state and every watch state
    near = good * (1.0 + 5e-11)
    traj = simulate(**simple_config(initial=near, watch={"near": near}))
    assert traj.initial_populations()["near"] == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------------ integration


def test_flat_dark_population_two_atoms():
    ladder = ladder_spaces(2, 1)
    dark = np.zeros(ladder.dim)
    dark[ladder.global_index_of_label("0,eg")] = -1 / S2
    dark[ladder.global_index_of_label("0,ge")] = 1 / S2
    traj = simulate(
        two_atom_params(),
        ladder,
        basis_state(ladder, "0,eg"),
        watch={
            "dark": dark,
            "ground": basis_state(ladder, "0,gg"),
            "cavity": basis_state(ladder, "1,gg"),
        },
        t_max=6.0,
    )
    p_dark = traj.populations["dark"]
    assert np.abs(p_dark - 0.5).max() <= 1e-3
    assert traj.trace_drift <= 1e-9
    assert traj.hermiticity_drift <= 1e-10
    assert traj.max_excitation_rise <= 1e-12
    # ground-state population grows monotonically from 0
    p_ground = traj.populations["ground"]
    assert p_ground[0] == pytest.approx(0.0, abs=1e-15)
    assert np.all(np.diff(p_ground) >= -1e-12)


def test_unitary_run_preserves_purity():
    params = SystemParams(n_atoms=3, delta_a=0.2, g=[1.0, 0.8, 1.5], V=0.5,
                          kappa=0.0)
    ladder = ladder_spaces(3, 1)
    traj = simulate(
        params,
        ladder,
        basis_state(ladder, "0,egg"),
        {"init": basis_state(ladder, "0,egg")},
        t_max=2.0,
        dt=0.0125,  # well inside the bound so step error stays below 1e-8
        n_snapshots=7,
    )
    purities = [float(np.real(np.trace(rho @ rho))) for _, rho in traj.snapshots]
    assert len(purities) == 7
    assert max(purities) - min(purities) <= 1e-8
    assert purities[0] == pytest.approx(1.0, abs=1e-12)


def test_run_records_truncation_bound():
    # every run reports the kernel's a-priori truncation bound, summed over
    # its steps; it grows with the step count
    short, long = (simulate(**simple_config(t_max=t_max)) for t_max in (1.0, 2.0))
    assert 0.0 < short.convergence_error < long.convergence_error <= 1e-15
    assert long.convergence_error == pytest.approx(2 * short.convergence_error)


def test_snapshot_grid():
    traj = simulate(**simple_config(t_max=1.0, dt=0.00625, n_snapshots=5))
    times = [t for t, _ in traj.snapshots]
    np.testing.assert_allclose(times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)
    for _, rho in traj.snapshots:
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-9)
        assert min_eigenvalue(rho) >= -1e-9
    assert simulate(**simple_config()).snapshots == ()  # none by default


def test_trajectory_accessors():
    traj = simulate(**simple_config(t_max=1.0))
    assert traj.names == ("ground",)
    assert set(traj.initial_populations()) == {"ground"}
    assert traj.initial_populations()["ground"] == pytest.approx(0.0, abs=1e-15)
    assert traj.final_populations()["ground"] == traj.populations["ground"][-1]
    assert len(traj.times) == len(traj.populations["ground"]) == 41


# ------------------------------------------------------------- integrator


def reference_run(H, a, kappa, rho0, dt, n_steps, watch, exc):
    """Plain loop of exp(dt L) over the full density matrix, L built column by
    column from ``liouvillian_apply`` and exponentiated by ``scipy``: the
    iterates and their diagnostics, one step at a time."""
    import scipy.linalg

    d = H.shape[0]
    L = np.empty((d * d, d * d), dtype=complex)
    for k, unit in enumerate(np.eye(d * d, dtype=complex)):
        L[:, k] = liouvillian_apply(H, a, kappa, unit.reshape(d, d)).ravel()
    P = scipy.linalg.expm(dt * L)
    rhos = [rho0]
    for _ in range(n_steps):
        rhos.append((P @ rhos[-1].ravel()).reshape(d, d))
    rhos = np.array(rhos)
    pops = np.einsum("wi,sij,wj->sw", watch.conj(), rhos, watch).real
    diag = np.einsum("sii->si", rhos).real
    herm = np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    return rhos, pops, diag.sum(axis=1), herm, diag @ exc


FORMS = pytest.mark.parametrize(
    "form_limit", [10**9, 0], ids=["propagator", "matrix"]
)

# initial amplitudes (offsets delta between the excitation blocks they span),
# kappa, whether the basis is scrambled by a fixed permutation, and the
# ladder's n_max; on n_max = 3 the kappa term also feeds block 2 from block 3
KERNEL_CASES = {
    "one_block": ({"0,eeg": 0.6, "1,egg": 0.8j}, 0.3, False, 2),  # delta 0
    "mixed_blocks": ({"0,eeg": 0.6, "0,ggg": -0.8}, 0.3, False, 2),  # 0, 2
    "kappa_zero": ({"0,eeg": 0.6, "1,egg": 0.8j}, 0.0, False, 2),
    "offset_1": ({"0,eeg": 0.6, "0,egg": 0.8j}, 0.3, False, 2),  # 0, 1
    "offsets_1_2": ({"0,eeg": 0.6, "1,ggg": 0.48j, "0,ggg": 0.64}, 0.3, False, 2),  # 0-2
    "permuted": ({"0,eeg": 0.6, "1,ggg": 0.48j, "0,ggg": 0.64}, 0.3, True, 2),
    "top_block": ({"0,eee": 0.6, "1,eeg": 0.8j}, 0.3, False, 3),  # delta 0
    "top_offsets": ({"0,eee": 0.6, "1,egg": 0.48j, "0,ggg": 0.64}, 0.3, True, 3),  # 0-3
}


@FORMS
@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_kernel_matches_plain_rk4_loop(monkeypatch, form_limit, case):
    """Both forms against ``reference_run``, the exact step (the name is from
    the RK4 kernel the Taylor step replaced)."""
    pytest.importorskip("scipy")
    amplitudes, kappa, permuted, n_max = KERNEL_CASES[case]
    monkeypatch.setattr(kernels, "PROPAGATOR_MAX_ENTRIES", form_limit)
    builds = []
    propagator = kernels._propagator
    monkeypatch.setattr(kernels, "_propagator",
                        lambda *args: builds.append(1) or propagator(*args))
    packed, reachable_pairs = [], kernels._reachable_pairs

    def recorded_pairs(*args):
        packed.append(reachable_pairs(*args))
        return packed[-1]

    monkeypatch.setattr(kernels, "_reachable_pairs", recorded_pairs)
    params = SystemParams(n_atoms=3, delta_a=0.2, g=[1.0, 0.8, 1.5], V=0.5,
                          kappa=kappa)
    ladder = ladder_spaces(3, n_max)
    H = build_ladder_hamiltonian(params, ladder)
    a = lowering_operator(ladder)
    exc = excitation_diagonal(ladder)
    psi = np.zeros(ladder.dim, dtype=complex)
    for label, amp in amplitudes.items():
        psi[ladder.global_index_of_label(label)] = amp
    watch = np.array([psi, basis_state(ladder, "0,ggg"), basis_state(ladder, "1,ggg")],
                     dtype=complex)
    if permuted:  # excitation blocks no longer contiguous or in order
        perm = np.random.default_rng(3).permutation(ladder.dim)
        H, a, exc = H[np.ix_(perm, perm)], a[np.ix_(perm, perm)], exc[perm]
        psi, watch = psi[perm], watch[:, perm]
    rho0 = np.outer(psi, psi.conj())
    snap_steps = np.array([0, 17, 50], dtype=np.int64)
    pops, trace, herm, excite, snaps, rho_f, fail, bound = kernels.evolve(
        H, a, kappa, rho0, 0.02, 50, watch, snap_steps, exc
    )
    rhos, ref_pops, ref_trace, ref_herm, ref_excite = reference_run(
        H, a, kappa, rho0, 0.02, 50, watch, exc
    )
    assert fail == -1
    assert 0.0 < bound < 1e-15
    # the propagator form builds P once per evolve call, the staged form never
    assert len(builds) == (1 if form_limit else 0)
    tol = dict(rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(pops, ref_pops, **tol)
    np.testing.assert_allclose(trace, ref_trace, **tol)
    np.testing.assert_allclose(herm, ref_herm, **tol)
    np.testing.assert_allclose(excite, ref_excite, **tol)
    np.testing.assert_allclose(snaps, rhos[snap_steps], **tol)
    np.testing.assert_allclose(rho_f, rhos[-1], **tol)
    # the run really leaves the initial state
    assert np.abs(rho_f - rho0).max() > 0.1
    # G = -iH - (kappa/2) a+a as a dense product gives the pair blocks' floats;
    # the blocks of an N = 3 ladder have distinct sizes
    G = -1j * H - (0.5 * kappa) * (a.conj().T @ a)
    blocks = {}
    for n in range(n_max + 1):
        index = np.flatnonzero(exc == n)
        blocks[index.size] = G[np.ix_(index, index)]
    [(_, _, pairs)] = packed
    assert len(blocks) == n_max + 1
    assert {shape[0] for _, shape, *_ in pairs} == set(blocks)
    for _, (dn, dm), Gn, Ghm, _ in pairs:
        assert Gn.tobytes() == blocks[dn].tobytes()
        assert Ghm.tobytes() == blocks[dm].conj().T.tobytes()


def test_kernel_rejects_excitation_changing_hamiltonian():
    ladder = ladder_spaces(2, 1)
    H = build_ladder_hamiltonian(two_atom_params(), ladder)
    H[0, 1] = H[1, 0] = 0.1  # couples |0,gg> to the single-excitation block
    with pytest.raises(ValueError, match="conserve"):
        kernels.evolve(
            H, lowering_operator(ladder), 0.3, np.eye(ladder.dim) / ladder.dim,
            0.01, 1, np.zeros((0, ladder.dim)), np.zeros(0, dtype=np.int64),
            excitation_diagonal(ladder),
        )


def test_kernel_rejects_a_lowering_two_states_onto_one():
    ladder = ladder_spaces(2, 1)
    a = lowering_operator(ladder)
    a[0, 1:] = 1.0  # |0,gg> fed from every single-excitation state
    with pytest.raises(ValueError, match="at most one state onto each"):
        kernels.evolve(
            build_ladder_hamiltonian(two_atom_params(), ladder), a, 0.3,
            np.eye(ladder.dim) / ladder.dim, 0.01, 1, np.zeros((0, ladder.dim)),
            np.zeros(0, dtype=np.int64), excitation_diagonal(ladder),
        )


def test_kernel_rejects_a_non_finite_liouvillian():
    # the Taylor degree is read from ||dt L||_1, which must be finite; here
    # it is 1e308 + 1e308
    H = np.array([[1e308, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="norm inf"):
        kernels.evolve(
            H, np.zeros((2, 2)), 0.0, np.eye(2) / 2, 1.0, 1, np.zeros((0, 2)),
            np.zeros(0, dtype=np.int64), np.zeros(2),
        )


@FORMS
def test_kernel_flags_non_finite_state(monkeypatch, form_limit):
    monkeypatch.setattr(kernels, "PROPAGATOR_MAX_ENTRIES", form_limit)
    # an exact step cannot blow up a physical run: a non-Hermitian H with
    # gain (-iH has eigenvalue 10) grows rho_11 by e^100 a step until it
    # overflows at step 8
    H = np.array([[0.0, 0.0], [0.0, 10j]], dtype=complex)
    a = np.zeros((2, 2), dtype=complex)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    watch = np.zeros((0, 2), dtype=complex)
    pops, trace, herm, excite, snaps, rho_f, fail, _ = kernels.evolve(
        H, a, 0.0, rho0, 5.0, 20, watch, np.zeros(0, dtype=np.int64),
        np.zeros(2),
    )
    assert fail >= 1
    assert np.isfinite(trace[:fail]).all() and np.isnan(trace[fail:]).all()
    assert not np.isfinite(rho_f).all()


# --------------------------------------------------------- exact dynamics


def exact_error(traj, params, ladder, initial, watch):
    """Largest difference between the trajectory's watch populations and the
    exact solution at a third, two thirds and all of the run."""
    steps = len(traj.times) - 1
    idx = [steps // 3, 2 * steps // 3, steps]
    exact = exact_populations(
        params, ladder, np.outer(initial, initial.conj()),
        [watch[name] for name in traj.names], traj.times[idx],
    )
    got = np.array([[traj.populations[name][i] for name in traj.names] for i in idx])
    return np.abs(got - exact).max()


@pytest.mark.parametrize("name", conftest.PRESET_NAMES)
def test_preset_matches_exact_dynamics(preset_runs, name):
    pytest.importorskip("scipy")
    run = preset_runs[name]
    watch = {
        entry["name"]: resolve_state(run.ladder, run.params, entry["state"])
        for entry in run.config["watch"]
    }
    assert exact_error(run.trajectory, run.params, run.ladder, run.initial,
                       watch) < 1e-12


def mixed_offset_run(n_atoms, n_max, dt, t_max, amplitudes):
    """``exact_error`` of a ``simulate`` run from the state ``amplitudes``."""
    params = SystemParams(n_atoms=n_atoms, delta_a=0.2,
                          g=[1.0, 0.8, 1.5, 1.2, -0.7][:n_atoms], V=0.5, kappa=0.3)
    ladder = ladder_spaces(n_atoms, n_max)
    initial = resolve_state(ladder, params, {"amplitudes": amplitudes})
    watch = {
        "initial": initial,
        "ground": basis_state(ladder, "0," + "g" * n_atoms),
        "cavity": basis_state(ladder, "1," + "g" * n_atoms),
    }
    traj = simulate(params, ladder, initial, watch, t_max=t_max, dt=dt)
    return exact_error(traj, params, ladder, initial, watch)


def test_matrix_form_matches_exact_dynamics(monkeypatch):
    pytest.importorskip("scipy")
    built = []
    propagator = kernels._propagator
    monkeypatch.setattr(kernels, "_propagator",
                        lambda *args: built.append(1) or propagator(*args))
    # blocks 1, 6, 16 with offsets 0 and 1: 497 entries, above the switch
    amplitudes = {"0,eeggg": 0.6, "0,egggg": [0.0, 0.8]}
    err = mixed_offset_run(5, 2, 0.0025, 1.0, amplitudes)
    assert not built and err < 1e-12


@FORMS
def test_global_error_is_at_rounding_level(monkeypatch, form_limit):
    pytest.importorskip("scipy")
    monkeypatch.setattr(kernels, "PROPAGATOR_MAX_ENTRIES", form_limit)
    amplitudes = {"0,eeg": 0.6, "1,ggg": [0.0, 0.48], "0,ggg": 0.64}
    # from 4 to 80 steps, up to 20 times the old RK4 stability bound: no
    # truncation error to halve, only rounding
    for dt in (1.0, 0.2, 0.05):
        assert mixed_offset_run(3, 2, dt, 4.0, amplitudes) < 1e-13


def test_integration_error_carries_context(monkeypatch):
    # the message names the first non-finite step and its time
    evolve = kernels.evolve

    def fails_at_step_7(*args):
        *out, _, bound = evolve(*args)
        return (*out, 7, bound)

    monkeypatch.setattr(kernels, "evolve", fails_at_step_7)
    with pytest.raises(IntegrationError, match=r"at step 7 \(t = 0\.175"):
        simulate(**simple_config())


# ------------------------------------------------------------- csv export


def test_csv_round_trip(tmp_path):
    traj = simulate(**simple_config(t_max=0.5, dt=0.025))
    traj.to_csv(tmp_path / "trajectory.csv")
    text = (tmp_path / "trajectory.csv").read_bytes().decode()
    assert "\r" not in text
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "t,ground"
    assert len(lines) == 1 + len(traj.times)
    for i, line in enumerate(lines[1:]):
        t_str, p_str = line.split(",")
        assert float(t_str) == float(traj.times[i])
        assert float(p_str) == float(traj.populations["ground"][i])


def test_csv_to_path(tmp_path):
    traj = simulate(**simple_config(t_max=0.5, dt=0.025))
    target = tmp_path / "trajectory.csv"
    traj.to_csv(target)
    text = target.read_text()
    assert text.startswith("t,ground\n")
    assert text.count("\n") == 1 + len(traj.times)


@pytest.mark.parametrize("block_rows", [2, dynamics.CSV_BLOCK_ROWS])
def test_csv_writes_floats_as_repr(tmp_path, monkeypatch, block_rows):
    # signed zero, the smallest subnormal, a tiny and a large exponent, each
    # across a block boundary when blocks hold two rows
    monkeypatch.setattr(dynamics, "CSV_BLOCK_ROWS", block_rows)
    values = np.array([0.0, -0.0, 5e-324, 1e-300, 1e16])
    traj = Trajectory(
        times=values, names=("p",), populations={"p": values[::-1].copy()},
        trace=None, hermiticity=None, excitation=None, snapshots=(),
        final_state=None,
    )
    traj.to_csv(tmp_path / "trajectory.csv")
    assert (tmp_path / "trajectory.csv").read_text() == (
        "t,p\n0.0,1e+16\n-0.0,1e-300\n5e-324,5e-324\n1e-300,-0.0\n1e+16,0.0\n"
    )
