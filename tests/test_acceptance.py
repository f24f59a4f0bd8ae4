"""Acceptance suite: one test per release criterion.

Each test evaluates every clause of its criterion, records a PASS/FAIL line
for the terminal summary (see conftest), and then asserts.  Tolerances are
part of the release contract and must not be loosened here.
"""

import itertools
import json
import time

import numpy as np

import conftest
import _matrices as ref
from cavitydark.arrowhead import to_arrowhead
from cavitydark.basis import enumerate_subspace
from cavitydark.cli import main
from cavitydark.darkstates import brute_force_dark_states, detect, reports_agree
from cavitydark.dynamics import min_eigenvalue
from cavitydark.geometry import (
    AtomGeometry,
    cardano_discriminant,
    dipole_matrix,
    params_from_geometry,
)
from cavitydark.hamiltonian import SystemParams, build_hamiltonian


def _record(num, fails, summary):
    passed = not fails
    detail = summary if passed else "; ".join(fails)
    conftest.ACCEPTANCE[num] = (passed, detail)
    assert passed, detail


def _begin(num):
    conftest.ACCEPTANCE[num] = (False, "criterion test aborted before verdict")


def _params(n_atoms, delta_a, g, v):
    return SystemParams(n_atoms=n_atoms, delta_a=delta_a, g=g, V=v)


def _ham(n_atoms, excitation, delta_a, g, v):
    return build_hamiltonian(_params(n_atoms, delta_a, g, v),
                             enumerate_subspace(n_atoms, excitation))


def _count(n_atoms, excitation, g, delta_a=0.0, v=0.5):
    return detect(to_arrowhead(_ham(n_atoms, excitation, delta_a, g, v))).total_dark


# ------------------------------------------------------------- criterion 1


def test_criterion_1_exact_matrices():
    _begin(1)
    t0 = time.perf_counter()
    worst = 0.0

    def err(actual, expected):
        return float(np.abs(np.asarray(actual) - expected).max())

    ham = _ham(2, 1, 0.7, [1.0, 0.8], 0.5)
    worst = max(worst, err(ham.matrix, ref.two_single(0.7, 1.0, 0.8, 0.5)))

    ham = _ham(3, 1, -0.3, [1.0, 0.9, -1.9], 0.5)
    worst = max(worst, err(ham.matrix, ref.three_single(-0.3, [1.0, 0.9, -1.9], 0.5)))

    ham = _ham(3, 2, 0.4, [1.0, 0.9, -1.9], 0.5)
    worst = max(worst, err(ham.matrix, ref.three_double(0.4, [1.0, 0.9, -1.9], 0.5)))

    ham = _ham(4, 1, 0.25, [1.0, 0.8, 1.5, 1.2], 0.5)
    worst = max(worst, err(ham.matrix, ref.four_single(0.25, [1.0, 0.8, 1.5, 1.2], 0.5)))

    ham = _ham(4, 2, 0.6, [1.0, 2.0, 2.0, -1.0], 0.5)
    upper, coupling, lower = ref.four_double_blocks(0.6, [1.0, 2.0, 2.0, -1.0], 0.5)
    worst = max(worst, err(ham.upper_block, upper))
    worst = max(worst, err(ham.coupling_block, coupling))
    worst = max(worst, err(ham.lower_block, lower))

    ham = _ham(4, 3, -0.45, [1.0, 0.8, 1.5, 1.2], 0.5)
    coupling, lower = ref.four_triple_blocks(-0.45, [1.0, 0.8, 1.5, 1.2], 0.5)
    worst = max(worst, err(ham.coupling_block, coupling))
    worst = max(worst, err(ham.lower_block, lower))

    wall = time.perf_counter() - t0
    fails = []
    if worst > 1e-12:
        fails.append(f"elementwise error {worst:.2e} > 1e-12")
    if wall >= 1.0:
        fails.append(f"runtime {wall:.2f} s >= 1 s")
    _record(1, fails, f"6 reference forms, max elementwise error {worst:.1e}, "
                      f"{wall * 1000.0:.0f} ms")


# ------------------------------------------------------------- criterion 2


COUNT_TABLE = [
    # (n_atoms, excitation, couplings, expected darks)
    (2, 1, [1.0, 1.0], 1),
    (2, 1, [1.0, -1.0], 1),
    (2, 1, [1.0, 0.9], 0),
    (3, 1, [1.0, 0.8, 1.5], 1),
    (3, 1, [1.0, 0.9, -1.9], 2),        # balanced: symmetric mode decouples
    (3, 2, [1.0, 0.8, 1.5], 0),
    (4, 1, [1.0, 0.8, 1.5, 1.2], 2),
    (4, 1, [1.0, 0.8, 1.5, -3.3], 3),   # balanced
    (4, 2, [1.0, 2.0, 2.0, -1.0], 1),   # matched inner pair, opposed outer
    (4, 2, [1.0, 2.0, -1.0, 2.0], 1),
    (4, 2, [1.0, -1.0, 2.0, 2.0], 1),
    (4, 2, [-1.0, 1.0, 1.0, 1.0], 2),   # one coupling opposing three equal
    (4, 2, [1.0, 0.8, 1.5, 1.2], 0),
    (4, 3, [1.0, 0.8, 1.5, 1.2], 0),
]

SATURATED = [(2, 2), (2, 3), (3, 3), (3, 5), (4, 4), (4, 6), (5, 5)]


def test_criterion_2_dark_count_table():
    _begin(2)
    t0 = time.perf_counter()
    fails = []
    entries = 0

    for n_atoms, excitation, g, expected in COUNT_TABLE:
        got = _count(n_atoms, excitation, g)
        entries += 1
        if got != expected:
            fails.append(f"N={n_atoms} n={excitation} g={g}: {got} != {expected}")

    rng = np.random.default_rng(11)
    for n_atoms, excitation in SATURATED:
        g = rng.uniform(0.2, 2.0, n_atoms)
        got = _count(n_atoms, excitation, list(g))
        entries += 1
        if got != 0:
            fails.append(f"N={n_atoms} n={excitation} saturated: {got} != 0")

    for n_atoms in range(2, 9):
        g = rng.uniform(0.2, 2.0, n_atoms)
        got = _count(n_atoms, 1, list(g))
        entries += 1
        if got != n_atoms - 2:
            fails.append(f"N={n_atoms} n=1 generic: {got} != {n_atoms - 2}")

    wall = time.perf_counter() - t0
    if wall >= 5.0:
        fails.append(f"runtime {wall:.2f} s >= 5 s")
    _record(2, fails, f"{entries} table entries exact, {wall:.2f} s")


# ------------------------------------------------------------- criterion 3


def _random_positions(rng, n_atoms, min_dist=0.3):
    while True:
        pos = rng.uniform(-0.8, 0.8, (n_atoms, 3))
        dists = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        if dists[np.triu_indices(n_atoms, 1)].min() > min_dist:
            return pos


def test_criterion_3_oracle_equivalence():
    _begin(3)
    rng = np.random.default_rng(20260823)
    t0 = time.perf_counter()
    fails = []
    draws = 0
    geometric = 0
    nonzero = 0
    worst_angle = 0.0

    while draws < 1000:
        n_atoms = int(rng.integers(2, 6))
        excitation = int(rng.integers(1, n_atoms + 1))
        g = rng.uniform(-2.0, 2.0, n_atoms)
        kind = draws % 4
        if kind == 1:
            geo = AtomGeometry(
                positions=_random_positions(rng, n_atoms),
                c3=float(rng.uniform(0.02, 0.15)),
            )
            v = dipole_matrix(geo)
            geometric += 1
        else:
            v = float(rng.uniform(-1.0, 1.0))
            if kind == 2:
                g = g - g.mean()            # balanced-coupling surface
            elif kind == 3:
                g[1] = g[0] * float(rng.choice([-1.0, 1.0]))
        params = _params(n_atoms, float(rng.uniform(-0.5, 0.5)), list(g), v)
        ham = build_hamiltonian(params, enumerate_subspace(n_atoms, excitation))
        detected = detect(to_arrowhead(ham))
        oracle = brute_force_dark_states(ham)
        agrees, angle = reports_agree(detected, oracle)
        draws += 1
        if detected.total_dark:
            nonzero += 1
        # the criterion's own bound, whatever reports_agree's tolerance is
        if not (agrees and angle <= 1e-7):
            if len(fails) < 3:
                fails.append(
                    f"N={n_atoms} n={excitation} g={np.round(g, 3).tolist()}: "
                    f"detect={detected.total_dark} oracle={oracle.total_dark} "
                    f"angle={angle:.2e}"
                )
        else:
            worst_angle = max(worst_angle, angle)

    wall = time.perf_counter() - t0
    if wall >= 60.0:
        fails.append(f"runtime {wall:.1f} s >= 60 s")
    _record(3, fails,
            f"{draws} draws ({geometric} geometric V, {nonzero} with darks), "
            f"worst principal angle {worst_angle:.1e}, {wall:.1f} s")


# ------------------------------------------------------------- criterion 4


def test_criterion_4_two_atom_benchmark(preset_runs):
    _begin(4)
    traj = preset_runs["fig2b"].trajectory
    i30 = int(round(30.0 / traj.dt))
    assert abs(float(traj.times[i30]) - 30.0) < 1e-9

    dark_dev = float(np.abs(traj.populations["L2"][: i30 + 1] - 0.5).max())
    ground_30 = float(traj.populations["ground"][i30])
    bright_end = float(traj.populations["L1"][-1])
    cavity_end = float(traj.populations["cavity"][-1])

    fails = []
    if dark_dev > 1e-3:
        fails.append(f"P(dark) deviates {dark_dev:.2e} > 1e-3 before t=30")
    if abs(ground_30 - 0.5) > 2e-3:
        fails.append(
            f"P(ground)(t=30) = {ground_30:.9f}, outside 0.500 +/- 2e-3 "
            f"(P(dark) flat to {dark_dev:.1e}; end bright {bright_end:.1e}, "
            f"end cavity {cavity_end:.1e} both < 1e-3)"
        )
    if not bright_end < 1e-3:
        fails.append(f"bright population {bright_end:.2e} >= 1e-3 at end")
    if not cavity_end < 1e-3:
        fails.append(f"cavity population {cavity_end:.2e} >= 1e-3 at end")
    _record(4, fails,
            f"P(dark)=0.500+/-{dark_dev:.1e} to t=30, P(ground)(30)={ground_30:.6f}, "
            f"end bright {bright_end:.1e}, end cavity {cavity_end:.1e}")


# ------------------------------------------------------------- criterion 5


FIG_DARKS = {
    "fig3c": ("L1", "D"),
    "fig3d": ("D",),
    "fig4b": ("D1", "D2"),
    "fig5b": ("Dpair", "D1", "D2"),
}

# Darks holding initial population stay flat; in fig5b the single-excitation
# darks fill up as the two-excitation bright component cascades down.
FIG_FLAT = {
    "fig3c": ("L1", "D"),
    "fig3d": ("D",),
    "fig4b": ("D1", "D2"),
    "fig5b": ("Dpair",),
}


def _oracle_initial_dark_total(run):
    """Initial dark population from the eigenspace projector, top subspace."""
    ham = build_hamiltonian(run.params, run.ladder.subspaces[run.n_max])
    projector = brute_force_dark_states(ham).projector()
    offset = run.ladder.dim - ham.basis.dim
    psi = run.initial[offset:offset + ham.basis.dim]
    return float(np.real(psi.conj() @ projector @ psi))


def test_criterion_5_figure_presets(preset_runs):
    _begin(5)
    fails = []
    walls = {}
    for name in ("fig3c", "fig3d", "fig4b", "fig5b"):
        run = preset_runs[name]
        # oracle value first, before reading any trajectory populations
        oracle_total = _oracle_initial_dark_total(run)
        traj = run.trajectory
        init = {n: float(traj.populations[n][0]) for n in traj.names}
        end = {n: float(traj.populations[n][-1]) for n in traj.names}
        walls[name] = run.wall_seconds

        expected_init = {}
        if name == "fig3c":
            expected_init["L1"] = 1.0 / 3.0
            expected_init["D"] = oracle_total - 1.0 / 3.0
        elif name == "fig3d":
            expected_init["D"] = oracle_total
            if not oracle_total > 0.01:
                fails.append(f"{name}: oracle overlap {oracle_total:.3e} not nonzero")
        elif name == "fig4b":
            expected_init["D1"] = 0.0
            expected_init["D2"] = oracle_total
            if not oracle_total > 0.01:
                fails.append(f"{name}: oracle overlap {oracle_total:.3e} not nonzero")
        else:
            expected_init["Dpair"] = 0.25
        for watch, want in expected_init.items():
            if abs(init[watch] - want) > 1e-9:
                fails.append(
                    f"{name}: initial P({watch}) = {init[watch]:.9f}, "
                    f"expected {want:.9f}"
                )

        for watch in FIG_FLAT[name]:
            dev = float(np.abs(traj.populations[watch] - init[watch]).max())
            if dev > 1e-3:
                fails.append(f"{name}: P({watch}) drifts {dev:.2e} > 1e-3")

        for watch in traj.names:
            if watch in FIG_DARKS[name] or watch == "ground":
                continue
            if not end[watch] < 1e-3:
                fails.append(
                    f"{name}: non-dark P({watch}) = {end[watch]:.2e} >= 1e-3 at end"
                )

        steady = sum(end[n] for n in FIG_DARKS[name]) + end["ground"]
        if abs(steady - 1.0) > 1e-3:
            fails.append(f"{name}: P(darks)+P(ground) = {steady:.6f}, off by "
                         f"{abs(steady - 1.0):.2e} > 1e-3")
        if run.wall_seconds >= 30.0:
            fails.append(f"{name}: runtime {run.wall_seconds:.1f} s >= 30 s")

    summary = ", ".join(f"{k} {v:.1f}s" for k, v in walls.items())
    _record(5, fails, f"flatness/overlap/steady-state clauses hold ({summary})")


# ------------------------------------------------------------- criterion 6


def test_criterion_6_integrity(preset_runs):
    _begin(6)
    fails = []
    worst = {"trace": 0.0, "herm": 0.0, "eig": 0.0, "rise": 0.0}
    for name in conftest.PRESET_NAMES:
        traj = preset_runs[name].trajectory
        states = [rho for _, rho in traj.snapshots] + [traj.final_state]
        min_eig = min(map(min_eigenvalue, states))
        if len(traj.snapshots) != 13:
            fails.append(f"{name}: {len(traj.snapshots)} snapshots, not 13")
        worst["trace"] = max(worst["trace"], traj.trace_drift)
        worst["herm"] = max(worst["herm"], traj.hermiticity_drift)
        worst["eig"] = min(worst["eig"], min_eig)
        worst["rise"] = max(worst["rise"], traj.max_excitation_rise)
        if traj.trace_drift > 1e-9:
            fails.append(f"{name}: trace drift {traj.trace_drift:.2e} > 1e-9")
        if traj.hermiticity_drift > 1e-10:
            fails.append(f"{name}: hermiticity {traj.hermiticity_drift:.2e} > 1e-10")
        if min_eig < -1e-9:
            fails.append(f"{name}: min eigenvalue {min_eig:.2e} < -1e-9")
        if traj.max_excitation_rise > 1e-12:
            fails.append(f"{name}: excitation rises {traj.max_excitation_rise:.2e}")
    _record(6, fails,
            f"worst over presets: trace {worst['trace']:.1e}, "
            f"herm {worst['herm']:.1e}, min eig {worst['eig']:.1e}, "
            f"excitation rise {worst['rise']:.1e}")


# ------------------------------------------------------------- criterion 7


def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _equilateral(side):
    h = side * np.sqrt(3.0) / 2.0
    return np.array(
        [
            [-side / 2.0, -h / 3.0, 0.0],
            [side / 2.0, -h / 3.0, 0.0],
            [0.0, 2.0 * h / 3.0, 0.0],
        ]
    )


def test_criterion_7_geometry():
    _begin(7)
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    fails = []

    for signs in itertools.product((1.0, -1.0), repeat=3):
        res = cardano_discriminant(0.37 * signs[0], 0.37 * signs[1], 0.37 * signs[2])
        if not (res.degenerate and res.magnitudes_equal):
            fails.append(f"equal |V| signs {signs} not flagged degenerate")

    for _ in range(25):
        pos = _equilateral(float(rng.uniform(0.4, 1.5)))
        pos = pos @ _rotation(rng).T + rng.uniform(-1.0, 1.0, 3)
        v = dipole_matrix(AtomGeometry(positions=pos))
        res = cardano_discriminant(v[0, 1], v[0, 2], v[1, 2])
        if not (res.degenerate and res.magnitudes_equal):
            fails.append("equilateral placement not flagged degenerate")
            break

    unequal = 0
    for _ in range(400):
        mags = 10.0 ** rng.uniform(-2.0, 1.0, 3)
        if (mags.max() - mags.min()) / mags.max() < 1e-3:
            continue
        signs = rng.choice([-1.0, 1.0], 3)
        res = cardano_discriminant(*(mags * signs))
        unequal += 1
        if res.degenerate:
            fails.append(f"unequal |V| {np.round(mags, 4).tolist()} flagged degenerate")
            break
    for _ in range(100):
        m = float(10.0 ** rng.uniform(-2.0, 1.0))
        signs = rng.choice([-1.0, 1.0], 3)
        res = cardano_discriminant(*(m * signs))
        if not (res.degenerate and res.magnitudes_equal):
            fails.append(f"equal |V| magnitude {m:.4g} not flagged degenerate")
            break

    base = _random_positions(rng, 4, min_dist=0.35)
    v0 = dipole_matrix(AtomGeometry(positions=base))
    scale = float(np.abs(v0).max())
    worst_motion = 0.0
    for _ in range(10):
        moved = base @ _rotation(rng).T + rng.uniform(-2.0, 2.0, 3)
        v1 = dipole_matrix(AtomGeometry(positions=moved))
        worst_motion = max(worst_motion, float(np.abs(v1 - v0).max()) / scale)
    if worst_motion > 1e-12:
        fails.append(f"rigid motion changes V by {worst_motion:.2e} > 1e-12")

    # three atoms on a circle about the cavity axis: equal couplings and
    # equal pair distances, so the abstract equal-coupling count must match
    radius = 0.45
    angles = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    ring = np.column_stack(
        [radius * np.cos(angles), radius * np.sin(angles), np.zeros(3)]
    )
    geo = AtomGeometry(positions=ring, c3=0.05)
    end_to_end = detect(
        to_arrowhead(build_hamiltonian(params_from_geometry(geo),
                                       enumerate_subspace(3, 1)))
    ).total_dark
    abstract = _count(3, 1, [0.8, 0.8, 0.8], v=0.31)
    if end_to_end != abstract or end_to_end != 2:
        fails.append(f"equilateral end-to-end count {end_to_end} != abstract {abstract}")

    wall = time.perf_counter() - t0
    if wall >= 5.0:
        fails.append(f"runtime {wall:.2f} s >= 5 s")
    _record(7, fails,
            f"{unequal} unequal + 100 equal random triples, rigid-motion "
            f"delta {worst_motion:.1e}, end-to-end count {end_to_end}, {wall:.2f} s")


# ------------------------------------------------------------- criterion 8


def test_criterion_8_determinism(tmp_path):
    _begin(8)
    fails = []

    sim_dirs = [tmp_path / "sim_a", tmp_path / "sim_b"]
    for out in sim_dirs:
        code = main(
            ["simulate", "--preset", "fig2b", "--out", str(out),
             "--set", "t_max=2.0"]
        )
        if code != 0:
            fails.append(f"simulate exited {code}")
    for fname in ("report.json", "trajectory.csv"):
        if (sim_dirs[0] / fname).read_bytes() != (sim_dirs[1] / fname).read_bytes():
            fails.append(f"simulate {fname} differs between reruns")

    scan_cfg = {
        "schema_version": 1,
        "units": "g1",
        "params": {"n_atoms": 2, "delta_a": 0.0, "g": [1.0, 0.0],
                   "V": 0.5, "kappa": 0.0},
        "excitation": 1,
        "oracle_samples": 2,
        "grid": [{"key": "g[1]", "values": [-1.5, -1.0, 0.0, 1.0, 1.5]}],
    }
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps(scan_cfg))
    scan_dirs = [tmp_path / "scan_a", tmp_path / "scan_b"]
    for out in scan_dirs:
        code = main(
            ["scan", "--config", str(cfg_path), "--out", str(out), "--seed", "7"]
        )
        if code != 0:
            fails.append(f"scan exited {code}")
    for fname in ("report.json", "scan.csv"):
        if (scan_dirs[0] / fname).read_bytes() != (scan_dirs[1] / fname).read_bytes():
            fails.append(f"scan {fname} differs between reruns")

    _record(8, fails, "simulate and scan artifacts byte-identical across reruns")
