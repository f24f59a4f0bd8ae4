"""End-to-end tests of the command-line interface via ``main(argv)``."""

import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cavitydark import arrowhead, basis, cli, darkstates, dynamics, hamiltonian, kernels
from cavitydark.arrowhead import to_arrowhead
from cavitydark.basis import enumerate_subspace
from cavitydark.cli import main
from cavitydark.hamiltonian import SystemParams
from cavitydark.linalg import eigh

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def analyze_config(**overrides):
    cfg = {
        "schema_version": 1,
        "units": "g1",
        "params": {
            "n_atoms": 2,
            "delta_a": 0.0,
            "g": [1.0, 1.0],
            "V": 0.5,
            "kappa": 0.0,
        },
        "excitation": 1,
    }
    cfg.update(overrides)
    return cfg


def simulate_config(**overrides):
    cfg = {
        "schema_version": 1,
        "units": "g1",
        "params": {
            "n_atoms": 2,
            "delta_a": 0.0,
            "g": [1.0, 1.0],
            "V": 0.5,
            "kappa": 0.3,
        },
        "n_max": 1,
        "initial": "0,eg",
        "watch": [
            {"name": "cavity", "state": "1,gg"},
            {"name": "ground", "state": "0,gg"},
        ],
        "t_max": 1.0,
        "dt": 0.025,
    }
    cfg.update(overrides)
    return cfg


def command_of(kind):
    """The command a config of ``kind`` runs under: a geometry config is an
    ``analyze`` config whose system is a placement."""
    return "analyze" if kind == "geometry" else kind


def read_report(out_dir):
    text = (out_dir / "report.json").read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    # canonical serialization: sorted keys, two-space indent, no NaN
    assert text == json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return data


# ---------------------------------------------------------------- analyze


def test_analyze_equal_couplings(tmp_path):
    cfg = write_config(tmp_path, "run.json", analyze_config())
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    report = read_report(out)
    assert report["command"] == "analyze"
    assert report["agreement"]["agrees"] is True
    assert report["detected"]["total_dark"] == 1
    assert report["brute_force"]["total_dark"] == 1
    assert report["detected"]["method"] == "arrowhead-rank"
    summary = (out / "summary.txt").read_text()
    assert "dark states: detected=1, cross-check=1, agreement=yes" in summary


def test_analyze_double_excitation_no_darks(tmp_path):
    cfg = analyze_config(excitation=2)
    cfg["params"]["n_atoms"] = 3
    cfg["params"]["g"] = [1.0, 0.8, 1.5]
    path = write_config(tmp_path, "run.json", cfg)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    report = read_report(out)
    assert report["detected"]["total_dark"] == 0
    assert report["brute_force"]["total_dark"] == 0


@pytest.mark.parametrize(
    "scale, ratio", [(1.0, 1e8), (1.0, 1e10), (1.0, 1e12), (1e-300, 1e8), (1e100, 1e8)],
    ids=["V1e8", "V1e10", "V1e12", "scale1e-300", "scale1e100"])
def test_analyze_strong_interaction_routes_agree(tmp_path, scale, ratio):
    # V >> g: the symmetric state's photon amplitude is only about g/V, below
    # the oracle's AMP_TOL, yet it drives the cavity and stays bright
    cfg = analyze_config()
    cfg["params"].update(n_atoms=3, g=[scale] * 3, V=ratio * scale)
    path = write_config(tmp_path, "run.json", cfg)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    report = read_report(out)
    assert report["detected"]["total_dark"] == report["brute_force"]["total_dark"] == 2
    summary = (out / "summary.txt").read_text()
    assert "dark states: detected=2, cross-check=2, agreement=yes" in summary


def run_analyze(tmp_path, g, V):
    cfg = analyze_config()
    cfg["params"].update(n_atoms=len(g), g=g, V=V)
    out = tmp_path / "out"
    code = main(["analyze", "--config", str(write_config(tmp_path, "run.json", cfg)),
                 "--out", str(out)])
    return code, read_report(out)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the routes split at V << g (ROADMAP item 9)")
@pytest.mark.parametrize("s", [1e-8, 1e-9, 1e-12])
def test_analyze_counts_one_dark_state_at_v_far_below_g(tmp_path, s):
    # the detector finds the one dark state; the oracle reports two
    code, report = run_analyze(tmp_path, [1.0, 1.0, 0.8],
                               [[0.0, s, 2 * s], [s, 0.0, 2 * s], [2 * s, 2 * s, 0.0]])
    assert report["brute_force"]["total_dark"] == 1
    assert code == 0 and report["detected"]["total_dark"] == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="two cluster tolerances decide one degeneracy band "
                          "edge (ROADMAP item 25)")
def test_analyze_routes_agree_at_a_degeneracy_band_edge(tmp_path):
    # V is uniform but for a split of 1.5e-8 on one pair: the detector
    # finds 2 dark states, the oracle 1
    V = np.full((4, 4), 0.5)
    np.fill_diagonal(V, 0.0)
    V[0, 1] = V[1, 0] = 0.500000015
    code, report = run_analyze(tmp_path, [1.0, 0.8, 1.5, 1.2], V.tolist())
    assert report["detected"]["total_dark"] == report["brute_force"]["total_dark"]
    assert code == 0


def test_analyze_requires_excitation(tmp_path, capsys):
    cfg = analyze_config()
    del cfg["excitation"]
    path = write_config(tmp_path, "run.json", cfg)
    code = main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "excitation" in capsys.readouterr().err


# ----------------------------------------------------------- config errors


def test_missing_config_file(tmp_path, capsys):
    code = main(
        ["analyze", "--config", str(tmp_path / "nope.json"), "--out",
         str(tmp_path / "o")]
    )
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_wrong_schema_version(tmp_path, capsys):
    path = write_config(tmp_path, "run.json", analyze_config(schema_version=9))
    code = main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "schema_version" in capsys.readouterr().err


def test_missing_units_declaration(tmp_path):
    cfg = analyze_config()
    del cfg["units"]
    path = write_config(tmp_path, "run.json", cfg)
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_unknown_params_key(tmp_path, capsys):
    cfg = analyze_config()
    cfg["params"]["gg"] = 1.0
    path = write_config(tmp_path, "run.json", cfg)
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config keys: ['gg'] in params" in capsys.readouterr().err


def test_override_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "run.json", analyze_config())
    code = main(
        ["analyze", "--config", str(path), "--out", str(tmp_path / "o"),
         "--set", "params.nope=1"]
    )
    assert code == 2


def test_override_malformed_assignment(tmp_path):
    path = write_config(tmp_path, "run.json", analyze_config())
    code = main(
        ["analyze", "--config", str(path), "--out", str(tmp_path / "o"),
         "--set", "params.kappa"]
    )
    assert code == 2


def test_override_applied_and_recorded(tmp_path):
    path = write_config(tmp_path, "run.json", analyze_config())
    out = tmp_path / "out"
    code = main(
        ["analyze", "--config", str(path), "--out", str(out),
         "--set", "params.g[1]=0.7"]
    )
    assert code == 0
    report = read_report(out)
    assert report["config"]["params"]["g"] == [1.0, 0.7]
    assert report["detected"]["total_dark"] == 0  # couplings no longer equal


def test_override_value_that_is_not_json_is_a_string(tmp_path):
    path = write_config(tmp_path, "run.json", simulate_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--set", "initial=0,ge"]) == 0
    assert read_report(out)["config"]["initial"] == "0,ge"


@pytest.mark.parametrize("assignment, message", [
    ("params.g[-1]=0.5", "malformed override path 'params.g[-1]'"),
    ("params.g[=0.5", "malformed override path 'params.g['"),
    ("params.nope.x=1", "override path 'params.nope.x' does not exist at segment 'nope'"),
    ("params.g[5]=1", "override 'params.g[5]' has index 5 out of range"),
    ("params.kappa.x=1", "override path 'params.kappa.x' does not address a container"),
    ("params.kappa=" + "[" * 3000 + "]" * 3000,
     "override 'params.kappa' nests too deeply to read"),
], ids=["negative_index", "open_bracket", "missing_segment", "index_out_of_range",
        "not_a_container", "nested_3000_deep"])
def test_override_that_cannot_apply_exits_2(tmp_path, capsys, assignment, message):
    path = write_config(tmp_path, "run.json", analyze_config())
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--set", assignment]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and message in err


def test_config_nested_too_deeply_exits_2(tmp_path, capsys):
    cfg = analyze_config()
    cfg["params"]["g"] = "G"
    path = tmp_path / "run.json"  # g is 1.0 inside 990 lists
    path.write_text(json.dumps(cfg).replace('"G"', "[" * 990 + "1.0" + "]" * 990))
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config {path} nests too deeply to read\n"


@pytest.mark.parametrize("args, below_a_file, message", [
    (["analyze"], False, "a --config file (or --preset) is required"),
    (["simulate", "--preset", "fig2b"], False, "cannot create output directory"),
    (["simulate", "--preset", "fig2b"], True, "cannot create output directory"),
], ids=["no_config", "out_is_a_file", "out_below_a_file"])
def test_an_unusable_command_line_exits_2(tmp_path, capsys, args, below_a_file,
                                          message):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "sub" if below_a_file else blocker
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and message in err
    assert blocker.read_text() == "kept\n"


# --------------------------------------------------------------- simulate


def test_simulate_smoke(tmp_path):
    path = write_config(tmp_path, "run.json", simulate_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    report = read_report(out)
    assert report["command"] == "simulate"
    assert report["grid"]["steps"] == 40
    assert report["integrity"]["trace_drift"] <= 1e-9
    assert report["integrity"]["convergence_error"] <= 1e-6
    assert report["populations"]["initial"]["ground"] == pytest.approx(0.0)
    rows = list(csv.reader((out / "trajectory.csv").read_text().splitlines()))
    assert rows[0] == ["t", "cavity", "ground"]
    assert len(rows) == 1 + 41
    assert float(rows[1][0]) == 0.0
    assert "final populations:" in (out / "summary.txt").read_text()


def test_simulate_defaults_t_max_to_30_over_abs_g1(tmp_path):
    cfg = simulate_config()
    del cfg["t_max"]
    cfg["params"]["g"] = [-2.0, 1.0]
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_config(tmp_path, "run.json", cfg)),
                 "--out", str(out)]) == 0
    assert read_report(out)["grid"] == {"dt": 0.025, "steps": 600, "t_max": 15.0}


def test_simulate_runs_dt_above_old_stability_bound(tmp_path):
    pytest.importorskip("scipy")
    from _matrices import exact_populations
    from cavitydark.basis import ladder_spaces
    from cavitydark.dynamics import build_ladder_hamiltonian
    from cavitydark.states import dark_reports, resolve_state

    # dt = 0.2 is four times the old RK4 bound of 0.05
    cfg = simulate_config(dt=0.2)
    path = write_config(tmp_path, "run.json", cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    report = read_report(tmp_path / "o")
    assert report["grid"]["steps"] == 5
    params, _ = cli._system_params(cfg)
    ladder = ladder_spaces(2, 1)
    dark_report = dark_reports(build_ladder_hamiltonian(params, ladder))
    psi = resolve_state(ladder, params, cfg["initial"], dark_report)
    watch = [resolve_state(ladder, params, e["state"], dark_report) for e in cfg["watch"]]
    [exact] = exact_populations(params, ladder, np.outer(psi, psi.conj()), watch,
                                [cfg["t_max"]])
    final = report["populations"]["final"]
    for entry, p in zip(cfg["watch"], exact):
        assert final[entry["name"]] == pytest.approx(p, abs=1e-13)


def test_sim_n6_runs_with_the_default_dt(tmp_path):
    # t_max = 0.5 at the default dt exited 1: the step-halving check found
    # the populations 1.0149e-6 apart, above its 1e-6 limit
    cfg = json.loads((ROOT / "perfbench" / "workloads" / "sim_n6.json").read_text())
    del cfg["dt"]
    cfg["t_max"] = 0.5
    path = write_config(tmp_path, "n6.json", cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    report = read_report(tmp_path / "o")
    assert report["grid"]["steps"] == 26
    assert report["integrity"]["convergence_error"] < 1e-15


def test_simulate_preset_loading(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["simulate", "--preset", "fig2b", "--out", str(out),
         "--set", "t_max=1.0"]
    )
    assert code == 0
    report = read_report(out)
    assert report["config"]["preset"] == "fig2b"
    assert report["config"]["params"]["g"] == [1.0, 1.0]
    assert report["config"]["params"]["kappa"] == 0.3
    # the antisymmetric combination stays put while the bright half drains
    assert report["populations"]["max_abs_change"]["L2"] <= 1e-6
    assert report["top_subspace_dark_count"] == 1


def test_simulate_unknown_preset(tmp_path, capsys):
    code = main(["simulate", "--preset", "fig9z", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown preset" in capsys.readouterr().err


def test_simulate_preset_and_config_conflict(tmp_path):
    path = write_config(tmp_path, "run.json", simulate_config())
    code = main(
        ["simulate", "--preset", "fig2b", "--config", str(path),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2


@pytest.mark.parametrize("name, n_atoms, g", [
    ("fig2b", 2, [1.0, 1.0]),
    ("fig3c", 3, [1.0, 0.9, -1.9]),
    ("fig3d", 3, [1.0, 0.8, 1.5]),
    ("fig4b", 4, [1.0, 0.8, 1.5, 1.2]),
    ("fig5b", 4, [1.0, 2.0, 2.0, -1.0]),
])
def test_preset_parameters_match_captions(name, n_atoms, g):
    from cavitydark.cli import _load_preset

    cfg = _load_preset(name)
    assert cfg["schema_version"] == 1
    assert cfg["units"] == "g1"
    assert cfg["params"]["n_atoms"] == n_atoms
    assert cfg["params"]["g"] == g
    assert cfg["params"]["V"] == 0.5
    assert cfg["params"]["delta_a"] == 0.0


# ------------------------------------------------------ geometry form


def equilateral_geometry_config():
    d = 0.6
    h = d * 3 ** 0.5 / 2
    return {
        "schema_version": 1,
        "units": "g1",
        "geometry": {
            "positions": [
                [-d / 2, -h / 3, 0.0],
                [d / 2, -h / 3, 0.0],
                [0.0, 2 * h / 3, 0.0],
            ],
            "lambda": 0.9,
        },
        "excitation": 1,
    }


def test_geometry_three_atoms_equilateral(tmp_path):
    path = write_config(tmp_path, "geo.json", equilateral_geometry_config())
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    report = read_report(out)
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[1].startswith("derived couplings g: 0.886920437, ")
    assert summary[2].startswith("derived interactions V (upper triangle): 4.6296")
    assert summary[3].endswith("(degenerate: yes)")
    assert report["derived"]["axial_profile"] == "linear"
    assert report["discriminant"]["degenerate"] is True
    assert report["discriminant"]["magnitudes_equal"] is True
    assert report["detected"]["total_dark"] == 2
    assert report["agreement"]["agrees"] is True
    gvals = report["derived"]["params"]["g"]
    assert gvals[0] == pytest.approx(gvals[1], rel=1e-12)
    assert gvals[0] == pytest.approx(gvals[2], rel=1e-12)


def test_geometry_two_atoms_no_discriminant(tmp_path):
    cfg = {
        "schema_version": 1,
        "units": "g1",
        "geometry": {
            "positions": [[0.3, 0.1, 0.0], [-0.3, -0.1, 0.0]],
            "lambda": 0.9,
        },
        "excitation": 1,
    }
    path = write_config(tmp_path, "geo.json", cfg)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    report = read_report(out)
    assert report["discriminant"] is None
    assert "cubic discriminant" not in (out / "summary.txt").read_text()
    assert report["detected"]["total_dark"] == 1  # mirrored pair: g1 = g2


def test_geometry_rejects_coincident_atoms(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "units": "g1",
        "geometry": {
            "positions": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            "lambda": 0.9,
        },
        "excitation": 1,
    }
    path = write_config(tmp_path, "geo.json", cfg)
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "coincident" in capsys.readouterr().err


TRIANGLE = {"positions": [[0.3, 0.1, 0.0], [-0.3, -0.1, 0.0], [0.0, 0.3, 0.1]],
            "lambda": 0.9}


def test_simulate_on_a_placement_matches_its_derived_params(tmp_path):
    # one reader: a placement runs as the params it derives, to the byte
    placed = simulate_config(watch=[
        {"name": "ground", "state": "0,gg"},
        {"name": "dark", "state": {"detected_dark": 1, "excitation": 1}}])
    del placed["params"]
    placed.update(geometry={"positions": PAIR, "lambda": 0.9}, kappa=0.3,
                  axial_profile="quadratic")
    path = write_config(tmp_path, "placed.json", placed)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "p")]) == 0
    analyzed = {key: placed[key] for key in ("schema_version", "units", "geometry",
                                             "kappa", "axial_profile")}
    path = write_config(tmp_path, "geo.json", {**analyzed, "excitation": 1})
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    by_params = {key: value for key, value in placed.items()
                 if key not in ("geometry", "kappa", "axial_profile")}
    by_params["params"] = read_report(tmp_path / "a")["derived"]["params"]
    assert by_params["params"]["kappa"] == 0.3
    path = write_config(tmp_path, "params.json", by_params)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "q")]) == 0
    trajectory = (tmp_path / "p" / "trajectory.csv").read_bytes()
    assert trajectory == (tmp_path / "q" / "trajectory.csv").read_bytes()
    populations = read_report(tmp_path / "p")["populations"]
    assert populations == read_report(tmp_path / "q")["populations"]
    assert 0.0 < populations["final"]["dark"] < 1.0


def test_scan_on_a_placement_overrides_its_derived_params(tmp_path):
    cfg = {"schema_version": 1, "units": "g1", "geometry": TRIANGLE,
           "excitation": 1, "oracle_samples": 2,
           "grid": [{"key": "V[0][1]", "values": [0.5, 2.0]}]}
    path = write_config(tmp_path, "scan.json", cfg)
    out = tmp_path / "o"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 0
    report = read_report(out)
    assert (report["points"], report["oracle_checked"]) == (2, 2)
    assert report["oracle_all_agree"] is True
    rows = scan_rows(out)
    assert [row[0] for row in rows[1:]] == [0.5, 2.0]
    assert [row[3] for row in rows[1:]] == [1.0, 1.0]


@pytest.mark.parametrize("command", ["analyze", "simulate", "scan"])
@pytest.mark.parametrize("sections", ["both", "neither"])
def test_a_run_config_takes_exactly_one_system_section(tmp_path, capsys, command,
                                                        sections):
    cfg = {"analyze": analyze_config, "simulate": simulate_config,
           "scan": scan_config}[command]()
    if sections == "both":
        cfg["geometry"] = {"positions": PAIR, "lambda": 0.9}
    else:
        del cfg["params"]
    path = write_config(tmp_path, "run.json", cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert (f"{command} config must hold exactly one of ['params', 'geometry'], "
            f"got {sorted(cfg)}") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_the_geometry_command_is_gone(tmp_path, capsys):
    path = write_config(tmp_path, "geo.json", equilateral_geometry_config())
    with pytest.raises(SystemExit) as exc:
        main(["geometry", "--config", str(path), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid choice: 'geometry'" in capsys.readouterr().err


# ------------------------------------------------------------------- scan


def scan_config(**overrides):
    cfg = {
        "schema_version": 1,
        "units": "g1",
        "params": {
            "n_atoms": 2,
            "delta_a": 0.0,
            "g": [1.0, 0.0],
            "V": 0.5,
            "kappa": 0.0,
        },
        "excitation": 1,
        "grid": [
            {
                "key": "g[1]",
                "values": [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0],
            }
        ],
    }
    cfg.update(overrides)
    return cfg


def test_scan_two_atom_dark_line(tmp_path):
    path = write_config(tmp_path, "scan.json", scan_config())
    out = tmp_path / "out"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 0
    report = read_report(out)
    assert report["points"] == 9
    assert report["dark_count_histogram"] == {"0": 7, "1": 2}
    rows = list(csv.reader((out / "scan.csv").read_text().splitlines()))
    assert rows[0] == ["g[1]", "dark_count", "rank_margin", "oracle_agrees"]
    by_value = {float(r[0]): int(r[1]) for r in rows[1:]}
    assert by_value[1.0] == 1 and by_value[-1.0] == 1
    assert all(v == 0 for g2, v in by_value.items() if abs(g2) != 1.0)


def test_scan_rank_margin_column(tmp_path):
    # two atoms: dressed states couple with (1 -+ g2)/sqrt2, and the rank
    # threshold is 1e-10 * ||(1, g2)||; no coupling is kept at g = (1, 0) only
    # if both vanish, which never happens on this grid
    path = write_config(tmp_path, "scan.json", scan_config())
    out = tmp_path / "out"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 0
    rows = list(csv.reader((out / "scan.csv").read_text().splitlines()))
    assert rows[0][2] == "rank_margin"
    for row in rows[1:]:
        g2 = float(row[0])
        kept = min(s for s in (abs(1.0 - g2), abs(1.0 + g2)) if s) / 2**0.5
        want = kept / (1e-10 * (1.0 + g2 * g2) ** 0.5)
        assert float(row[2]) == pytest.approx(want, rel=1e-12)


def test_scan_four_atom_balanced_surface(tmp_path):
    cfg = scan_config()
    cfg["params"] = {
        "n_atoms": 4,
        "delta_a": 0.0,
        "g": [1.0, 0.8, 1.5, 0.0],
        "V": 0.5,
        "kappa": 0.0,
    }
    cfg["grid"] = [{"key": "g[3]", "values": [-3.3, 0.7, 1.2]}]
    path = write_config(tmp_path, "scan.json", cfg)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 0
    report = read_report(out)
    assert report["dark_count_histogram"] == {"2": 2, "3": 1}


def test_scan_empty_grid(tmp_path):
    path = write_config(tmp_path, "scan.json", scan_config(grid=[]))
    out = tmp_path / "out"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 0
    rows = list(csv.reader((out / "scan.csv").read_text().splitlines()))
    assert rows == [["dark_count", "rank_margin", "oracle_agrees"]]
    assert read_report(out)["points"] == 0


def test_scan_with_oracle_and_workers(tmp_path):
    cfg = scan_config(oracle_samples=3)
    cfg["grid"] = [
        {"key": "g[0]", "values": [0.8, 1.2]},
        {"key": "g[1]", "values": [-1.0, 0.3]},
    ]
    path = write_config(tmp_path, "scan.json", cfg)
    out = tmp_path / "out"
    code = main(
        ["scan", "--config", str(path), "--out", str(out), "--workers", "2",
         "--seed", "5"]
    )
    assert code == 0
    report = read_report(out)
    assert report["points"] == 4
    assert report["oracle_checked"] == 3
    assert report["oracle_all_agree"] is True
    rows = list(csv.reader((out / "scan.csv").read_text().splitlines()))
    assert rows[0][:2] == ["g[0]", "g[1]"]
    flags = [r[4] for r in rows[1:]]
    assert sum(1 for f in flags if f == "1") == 3
    assert sum(1 for f in flags if f == "") == 1


def test_scan_linspace_axis(tmp_path):
    cfg = scan_config()
    cfg["grid"] = [{"key": "g[1]", "start": -1.0, "stop": 1.0, "num": 5}]
    path = write_config(tmp_path, "scan.json", cfg)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 0
    rows = list(csv.reader((out / "scan.csv").read_text().splitlines()))
    values = [float(r[0]) for r in rows[1:]]
    assert values == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert read_report(out)["dark_count_histogram"] == {"0": 3, "1": 2}


def test_scan_unknown_grid_key(tmp_path, capsys):
    cfg = scan_config()
    cfg["grid"] = [{"key": "mystery", "values": [1.0]}]
    path = write_config(tmp_path, "scan.json", cfg)
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown grid key" in capsys.readouterr().err


def test_scan_interaction_grid_key(tmp_path):
    cfg = scan_config()
    cfg["params"]["n_atoms"] = 3
    cfg["params"]["g"] = [1.0, 1.0, 0.5]
    cfg["grid"] = [{"key": "V[0][1]", "values": [0.2, 0.8]}]
    path = write_config(tmp_path, "scan.json", cfg)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 0
    assert read_report(out)["points"] == 2


def test_scan_pair_axis_after_a_whole_v_sets_one_pair_of_it(tmp_path):
    # on three atoms a whole V sets three pairs and V[0][1] only one of them,
    # so both axes reach every point
    cfg = scan_config()
    cfg["params"] = {"n_atoms": 3, "delta_a": 0.0, "g": [1.0, 1.0, 0.5],
                     "V": 0.5, "kappa": 0.0}
    cfg["grid"] = [{"key": "V", "values": [0.2, 0.8]},
                   {"key": "V[0][1]", "values": [0.5, 0.7]},
                   {"key": "V[1][2]", "values": [0.3]}]
    path = write_config(tmp_path, "scan.json", cfg)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 0
    assert read_report(out)["points"] == 4


# --------------------------------------------------------- lower-block memo


def fresh_arrowhead(ham, lower=None):
    """Reference for the scan's memo: diagonalize every point's lower block."""
    return to_arrowhead(ham)


def full_detect_ranks(arrow):
    """Reference for the scan's rank pass: the full detector on every point."""
    report = darkstates.detect(arrow)
    return report.clusters, report.rank_margin


V_AXIS = {"key": "V[0][1]", "values": [0.3, 0.5, 0.9]}
G_AXIS = {"key": "g[1]", "start": -2.0, "stop": 2.0, "num": 10}


@pytest.mark.parametrize("axes, n_blocks", [
    ([V_AXIS, G_AXIS], 3),  # the lower block changes every tenth point
    ([G_AXIS, V_AXIS], 30),  # ... and at every point
])
def test_scan_lower_block_memo_matches_fresh_arrowhead(tmp_path, monkeypatch,
                                                       axes, n_blocks):
    cfg = scan_config(oracle_samples=8, grid=axes)
    cfg["params"] = {"n_atoms": 5, "delta_a": 0.2, "g": [1.0, -1.0, 0.5, 0.8, 0.0],
                     "V": 0.5, "kappa": 0.0}
    cfg["excitation"] = 2
    path = write_config(tmp_path, "scan.json", cfg)
    args = ["scan", "--config", str(path), "--seed", "4"]
    calls, detects = [], []

    def counted_eigh(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    def counted_detect(arrow):
        detects.append(arrow.n_lower)
        return darkstates.detect(arrow)

    monkeypatch.setattr(cli, "eigh", counted_eigh)
    monkeypatch.setattr(cli, "detect", counted_detect)
    outs = {}
    for workers in ("1", "2"):
        calls.clear()
        detects.clear()
        outs[workers] = tmp_path / f"w{workers}"
        assert main([*args, "--workers", workers, "--out", str(outs[workers])]) == 0
        assert len(calls) == n_blocks
        # the full detector runs on the oracle's sample only
        assert len(detects) == read_report(outs[workers])["oracle_checked"] == 8
    monkeypatch.setattr(cli, "to_arrowhead", fresh_arrowhead)
    fresh = tmp_path / "fresh"
    assert main([*args, "--workers", "1", "--out", str(fresh)]) == 0
    monkeypatch.setattr(cli, "cluster_ranks", full_detect_ranks)
    full = tmp_path / "full"
    assert main([*args, "--workers", "1", "--out", str(full)]) == 0
    for ref in (fresh, full):
        assert read_report(ref)["oracle_checked"] == 8
        for out in outs.values():
            for name in ("report.json", "scan.csv", "summary.txt"):
                assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_scan_lower_block_memo_is_read_only_and_reset(tmp_path, monkeypatch):
    basis = enumerate_subspace(3, 1)
    base = SystemParams(n_atoms=3, delta_a=0.0, g=[1.0, 0.5, 0.0], V=0.5)
    memo = {}
    cli._scan_point(replace(base, g=[1.0, 0.5, 0.7]), basis, memo, False)
    [pair] = memo.values()
    for arr in pair:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # same lower block
    cli._scan_point(replace(base, g=[1.0, 0.5, -0.7]), basis, memo, False)
    [again] = memo.values()
    assert again is pair
    V = base.V.copy()
    V[0, 1] = V[1, 0] = 0.9
    cli._scan_point(replace(base, V=V), basis, memo, False)  # another lower block
    [other] = memo.values()  # replaces the one entry
    assert other is not pair
    # one memo serves the whole scan, at any --workers: it is empty at the
    # first point only, and a new lower block replaces its entry
    memos = []
    scan_point = cli._scan_point

    def recorded(params, basis, memo, with_oracle):
        memos.append((len(memo), memo))
        return scan_point(params, basis, memo, with_oracle)

    monkeypatch.setattr(cli, "_scan_point", recorded)
    cfg = scan_config(grid=[{"key": "V[0][1]", "values": [0.3, 0.9]},
                            {"key": "g[1]", "values": [0.5, 1.0]}])
    path = write_config(tmp_path, "scan.json", cfg)
    args = ["scan", "--config", str(path), "--workers", "2"]
    assert main([*args, "--out", str(tmp_path / "o")]) == 0
    assert [n for n, _ in memos] == [0, 1, 1, 1]
    assert all(memo is memos[0][1] for _, memo in memos)


def no_start(*args, **kwargs):
    raise AssertionError("a thread or process was started")


def refuse_starts(monkeypatch):
    """Patch thread and process starts to raise: ``--workers`` is accepted
    and changes nothing, and every point runs on the calling thread."""
    monkeypatch.setattr(threading, "Thread", no_start)
    monkeypatch.setattr(os, "fork", no_start)
    monkeypatch.setattr(subprocess, "Popen", no_start)


def assert_same_artifacts(out, ref):
    for name in ("report.json", "scan.csv", "summary.txt"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def five_atom_scan(tmp_path, grid):
    cfg = scan_config(oracle_samples=8, grid=grid)
    cfg["params"] = {"n_atoms": 5, "delta_a": 0.2, "g": [1.0, -1.0, 0.5, 0.8, 0.0],
                     "V": 0.5, "kappa": 0.0}
    cfg["excitation"] = 2
    return write_config(tmp_path, "scan.json", cfg)


def test_scan_pool_matches_serial_run(tmp_path, monkeypatch):
    refuse_starts(monkeypatch)
    cfg = scan_config(oracle_samples=5)
    cfg["params"] = {"n_atoms": 4, "delta_a": 0.2, "g": [1.0, 0.8, 1.5, 0.0],
                     "V": 0.5, "kappa": 0.0}
    cfg["grid"] = [
        {"key": "V[0][1]", "values": [0.3, 0.5]},
        {"key": "g[3]", "values": [-3.3, 0.7, 1.2]},
    ]
    path = write_config(tmp_path, "scan.json", cfg)
    outs = {}
    for workers in ("1", "2"):
        outs[workers] = tmp_path / f"w{workers}"
        args = ["scan", "--config", str(path), "--seed", "9", "--workers", workers]
        assert main([*args, "--out", str(outs[workers])]) == 0
    assert read_report(outs["2"])["oracle_checked"] == 5
    assert_same_artifacts(outs["2"], outs["1"])


def test_scan_on_threads_starts_no_process(tmp_path, monkeypatch):
    refuse_starts(monkeypatch)
    path = write_config(tmp_path, "scan.json", scan_config(oracle_samples=3))
    outs = {}
    for workers in ("1", "2"):
        outs[workers] = tmp_path / f"w{workers}"
        args = ["scan", "--config", str(path), "--seed", "2", "--workers", workers]
        assert main([*args, "--out", str(outs[workers])]) == 0
    assert read_report(outs["2"])["points"] == 9
    assert_same_artifacts(outs["2"], outs["1"])


def test_scan_bytes_equal_serial_at_two_and_three_threads(tmp_path, monkeypatch):
    refuse_starts(monkeypatch)
    path = five_atom_scan(tmp_path, [V_AXIS, G_AXIS])
    outs = {}
    for workers in ("1", "2", "3"):
        outs[workers] = tmp_path / f"w{workers}"
        args = ["scan", "--config", str(path), "--seed", "4", "--workers", workers]
        assert main([*args, "--out", str(outs[workers])]) == 0
    assert read_report(outs["1"])["oracle_checked"] == 8
    for workers in ("2", "3"):
        assert_same_artifacts(outs[workers], outs["1"])


def test_scan_threads_beyond_the_cores_match_serial_at_a_short_switch_interval(
        tmp_path, monkeypatch):
    # --workers 6 on a grid whose lower block changes every point, with the
    # interpreter switching threads every microsecond: a point computed out
    # of grid order, or from another point's params, would change the table
    refuse_starts(monkeypatch)
    path = five_atom_scan(tmp_path, [G_AXIS, V_AXIS])
    args = ["scan", "--config", str(path), "--seed", "4"]
    assert main([*args, "--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        assert main([*args, "--workers", "6", "--out", str(tmp_path / "w6")]) == 0
        assert time.perf_counter() - started < 60.0
    finally:
        sys.setswitchinterval(interval)
    assert read_report(tmp_path / "w1")["oracle_checked"] == 8
    assert_same_artifacts(tmp_path / "w6", tmp_path / "w1")


@pytest.mark.parametrize("grid", [
    [],
    [{"key": "g[1]", "start": -1.0, "stop": 1.0, "num": 0}],
    [{"key": "g[1]", "values": [0.5, 1.0]},
     {"key": "g[0]", "start": -1.0, "stop": 1.0, "num": 0}],
], ids=["no_axes", "num_0", "num_0_second_axis"])
def test_scan_without_points_writes_a_header_only_table_without_forking(
        tmp_path, monkeypatch, grid):
    monkeypatch.setattr(threading, "Thread", no_start)
    path = write_config(tmp_path, "scan.json",
                        scan_config(grid=grid, oracle_samples=3))
    out = tmp_path / "o"
    assert main(["scan", "--config", str(path), "--workers", "2",
                 "--out", str(out)]) == 0
    header = [ax["key"] for ax in grid] + ["dark_count", "rank_margin",
                                           "oracle_agrees"]
    assert (out / "scan.csv").read_text() == ",".join(header) + "\n"
    assert read_report(out)["points"] == 0


@pytest.mark.parametrize("key, message", [
    ("g[99]", "grid key 'g[99]': index out of range"),
    ("V[1][1]", "grid key 'V[1][1]': bad index pair"),
    ("V[0][7]", "grid key 'V[0][7]': bad index pair"),
    ("omega", "unknown grid key 'omega'"),
])
def test_scan_bad_grid_key_exits_2_before_any_pool(tmp_path, capsys, monkeypatch,
                                                   key, message):
    monkeypatch.setattr(threading, "Thread", no_start)
    cfg = scan_config(grid=[{"key": "g[1]", "values": [0.5, 1.0]},
                            {"key": key, "values": [0.1, 0.2]}])
    path = write_config(tmp_path, "scan.json", cfg)
    args = ["scan", "--config", str(path), "--workers", "2"]
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, values, message", [
    # the Hamiltonian fails to build, inside the point's computation
    ("g[1]", [1e308, 0.5, 1.0, 1.5], "Hamiltonian scale"),  # at the first point
    ("g[1]", [0.5, 1.0, 1.5, 1e308], "Hamiltonian scale"),  # at the last
    # the params fail to validate, before the point's computation; twice: the
    # first failure in grid order is the one reported
    ("kappa", [0.0, -2.0, -1.0, 0.0], "must be >= 0, got -2.0"),
    ("kappa", [0.0, 0.0, -1.0, -2.0], "must be >= 0, got -1.0"),
])
def test_scan_point_failure_exits_2_with_the_serial_message(tmp_path, capsys,
                                                           monkeypatch, key, values,
                                                           message):
    first_bad = next(i for i, v in enumerate(values) if v < 0.0 or v == 1e308)
    computed = []  # (point's value, whether it failed) in the order computed
    scan_point = cli._scan_point

    def recorded(params, basis, memo, with_oracle):
        value = params.kappa if key == "kappa" else params.g[1]
        computed.append((value, True))
        result = scan_point(params, basis, memo, with_oracle)
        computed[-1] = value, False
        return result

    monkeypatch.setattr(cli, "_scan_point", recorded)
    path = write_config(tmp_path, "scan.json",
                        scan_config(grid=[{"key": key, "values": values}]))
    errs = []
    for workers in ("1", "2"):
        computed.clear()
        out = tmp_path / f"w{workers}"
        args = ["scan", "--config", str(path), "--workers", workers]
        assert main([*args, "--out", str(out)]) == 2
        errs.append(capsys.readouterr().err)
        # the scan stops at its first failing point, before any later point
        # and before writing the table
        assert computed[:first_bad] == [(v, False) for v in values[:first_bad]]
        inside = [(values[first_bad], True)] if key == "g[1]" else []
        assert computed[first_bad:] == inside
        assert not (out / "scan.csv").exists()
    assert errs[0] == errs[1]
    assert errs[0].count("error: ") == 1 and errs[0].endswith("\n")
    assert message in errs[0]


def test_scan_interrupt_stops_at_the_point_it_reaches(tmp_path, monkeypatch):
    computed = []
    scan_point = cli._scan_point

    def recorded(params, basis, memo, with_oracle):
        computed.append(params.g[1])
        if len(computed) == 2:
            raise KeyboardInterrupt
        return scan_point(params, basis, memo, with_oracle)

    monkeypatch.setattr(cli, "_scan_point", recorded)
    cfg = scan_config(grid=[{"key": "g[1]", "values": [i / 10 for i in range(20)]}])
    path = write_config(tmp_path, "scan.json", cfg)
    args = ["scan", "--config", str(path), "--workers", "2"]
    with pytest.raises(KeyboardInterrupt):
        main([*args, "--out", str(tmp_path / "o")])
    assert computed == [0.0, 0.1]
    assert not (tmp_path / "o" / "scan.csv").exists()


@pytest.mark.parametrize("k", [0, 3, 9, 20])
def test_scan_oracle_sample_is_a_seeded_draw_without_replacement(tmp_path, k):
    path = write_config(tmp_path, "scan.json", scan_config(oracle_samples=k))
    tables = []
    for workers in ("1", "2", "3"):
        out = tmp_path / f"w{workers}"
        args = ["scan", "--config", str(path), "--seed", "11", "--workers", workers]
        assert main([*args, "--out", str(out)]) == 0
        tables.append((out / "scan.csv").read_bytes())
    assert tables[1] == tables[0] and tables[2] == tables[0]
    rows = list(csv.reader(tables[0].decode().splitlines()))[1:]
    checked = {i for i, row in enumerate(rows) if row[3]}
    assert len(rows) == 9 and len(checked) == min(k, 9)
    assert read_report(out)["oracle_checked"] == len(checked)
    if k == 3:  # random.Random(11).sample(range(9), 3); a new sampler edits this
        assert checked == {3, 7, 8}


def with_flipped_eigenvectors(monkeypatch, seed):
    """Wrap ``eigh`` wherever it is bound so that a seeded random subset of
    eigenvector columns comes back with the opposite sign: an equally valid
    eigensolver output."""
    rng = np.random.default_rng(seed)

    def flipped_eigh(matrix):
        w, Q = eigh(matrix)
        return w, Q * np.where(rng.random(Q.shape[1]) < 0.5, -1.0, 1.0)

    for module in (cli, arrowhead, darkstates):
        monkeypatch.setattr(module, "eigh", flipped_eigh)


def assert_numbers_close(a, b, path="report"):
    """Equal JSON-like values, numbers equal to 1e-12 (relative above 1)."""
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), path
        for key in a:
            assert_numbers_close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for k, (x, y) in enumerate(zip(a, b)):
            assert_numbers_close(x, y, f"{path}[{k}]")
    elif isinstance(a, float):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (path, a, b)
    else:
        assert a == b, path


def scan_rows(out):
    rows = list(csv.reader((out / "scan.csv").read_text().splitlines()))
    return [rows[0], *[[float(x) if x else None for x in r] for r in rows[1:]]]


EQUILATERAL = [[-0.3, -0.3 / math.sqrt(3), 0.0], [0.3, -0.3 / math.sqrt(3), 0.0],
               [0.0, 0.6 / math.sqrt(3), 0.0]]
SIGN_RUNS = {
    "analyze": (analyze_config(
        params={"n_atoms": 8, "delta_a": 0.0, "g": [1.0] * 8, "V": 0.5,
                "kappa": 0.0},
        excitation=4), 14),
    "geometry": ({"schema_version": 1, "units": "g1", "excitation": 1,
                  "geometry": {"positions": EQUILATERAL, "lambda": 0.9}}, 2),
    "scan": (scan_config(
        params={"n_atoms": 5, "delta_a": 0.2, "g": [1.0, -1.0, 0.5, 0.8, 0.0],
                "V": 0.5, "kappa": 0.0},
        excitation=2, oracle_samples=6, grid=[V_AXIS, G_AXIS]), None),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("command", sorted(SIGN_RUNS))
def test_eigenvector_signs_do_not_reach_artifacts(tmp_path, monkeypatch, command,
                                                  seed):
    cfg, darks = SIGN_RUNS[command]
    path = write_config(tmp_path, "run.json", cfg)
    args = [command_of(command), "--config", str(path),
            *(["--seed", "3"] if command == "scan" else [])]
    ref, flipped = tmp_path / "ref", tmp_path / "flipped"
    code = main([*args, "--out", str(ref)])
    with_flipped_eigenvectors(monkeypatch, seed)
    assert main([*args, "--out", str(flipped)]) == code == 0
    want, got = read_report(ref), read_report(flipped)
    assert_numbers_close(want, got)
    if command == "scan":
        assert got["oracle_checked"] == 6
        assert_numbers_close(scan_rows(ref), scan_rows(flipped))
    else:
        assert got["detected"]["total_dark"] == darks
        assert got["brute_force"]["total_dark"] == darks


def count_calls(monkeypatch, name, owner=basis):
    """Calls of ``owner.<name>`` through every package module that binds it."""
    fn, calls = getattr(owner, name), []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("cavitydark") and \
                vars(module).get(name) is fn:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_and_geometry_enumerate_the_basis_once(tmp_path, monkeypatch):
    # both forms of an analyze config
    subspaces = count_calls(monkeypatch, "enumerate_subspace")
    ladders = count_calls(monkeypatch, "ladder_spaces")
    analyze = write_config(tmp_path, "run.json", analyze_config())
    assert main(["analyze", "--config", str(analyze), "--out", str(tmp_path / "a")]) == 0
    geo = write_config(tmp_path, "geo.json", {
        "schema_version": 1,
        "units": "g1",
        "geometry": {"positions": [[0.3, 0.1, 0.0], [-0.3, -0.1, 0.0]],
                     "lambda": 0.9},
        "excitation": 1,
    })
    assert main(["analyze", "--config", str(geo), "--out", str(tmp_path / "g")]) == 0
    assert subspaces == [(2, 1), (2, 1)] and ladders == []
    # simulate resolves its states and integrates on the one ladder it builds,
    # a detected dark state included
    sim = write_config(tmp_path, "sim.json", simulate_config(
        n_max=2,
        initial={"detected_dark": 1, "excitation": 1},
        watch=[{"name": "dark", "state": {"detected_dark": 1, "excitation": 1}}]))
    del subspaces[:]
    assert main(["simulate", "--config", str(sim), "--out", str(tmp_path / "s")]) == 0
    assert ladders == [(2, 2)]
    assert subspaces == [(2, 0), (2, 1), (2, 2)]


def test_simulate_builds_its_operators_through_the_traced_builders(tmp_path,
                                                                    monkeypatch):
    # the benchmark times these three as its dynamics.operators span, which
    # would read 0 if simulate built its operators some other way; the three
    # subspace Hamiltonians of fig5b are built once each, the top one
    # included, which the report's dark count reuses
    builders = {name: count_calls(monkeypatch, name, dynamics) for name in
                ("build_ladder_hamiltonian", "lowering_operator", "excitation_diagonal")}
    blocks = count_calls(monkeypatch, "build_hamiltonian", hamiltonian)
    assert main(["simulate", "--preset", "fig5b", "--set", "t_max=0.5",
                 "--out", str(tmp_path / "o")]) == 0
    assert {name: len(calls) for name, calls in builders.items()} == \
        dict.fromkeys(builders, 1)
    assert len(blocks) == 3


def test_simulate_builds_and_detects_each_block_once(tmp_path, monkeypatch):
    # a detected dark initial state and two detected dark watch states, all
    # on excitation 1: the ladder's two blocks are built once each, and the
    # one block they name is detected once, its arrowhead included; the
    # report's top dark count reads that detection
    blocks = count_calls(monkeypatch, "build_hamiltonian", hamiltonian)
    detects = count_calls(monkeypatch, "detect", darkstates)
    arrows = count_calls(monkeypatch, "to_arrowhead", arrowhead)
    dark = {"detected_dark": 1, "excitation": 1}
    path = write_config(tmp_path, "sim.json", simulate_config(
        params={"n_atoms": 3, "delta_a": 0.0, "g": [1.0, 1.0, 1.0], "V": 0.5,
                "kappa": 0.3},
        initial=dark,
        watch=[{"name": "d1", "state": dark},
               {"name": "d2", "state": {**dark, "detected_dark": 2}}]))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert [sub.excitation for _, sub in blocks] == [0, 1]
    assert len(detects) == 1
    assert len(arrows) == 1
    assert read_report(tmp_path / "o")["top_subspace_dark_count"] == 2
    assert read_report(tmp_path / "o")["populations"]["initial"] == \
        pytest.approx({"d1": 1.0, "d2": 0.0}, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-9, 1.0, 1e100])
def test_dark_count_does_not_depend_on_the_overall_scale(tmp_path, scale):
    # uniform g and V: the dark states are the collective spin's lowest-weight
    # states, C(8, 4) - C(8, 3) = 14 of them at every scale (Dicke 1954)
    cfg = analyze_config(params={"n_atoms": 8, "delta_a": 0.0, "g": [scale] * 8,
                                 "V": 0.5 * scale, "kappa": 0.0}, excitation=4)
    path = write_config(tmp_path, "run.json", cfg)
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    report = read_report(tmp_path / "o")
    dicke = math.comb(8, 4) - math.comb(8, 3)
    assert report["detected"]["total_dark"] == report["brute_force"]["total_dark"] == dicke


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1.0, 1e100])
def test_v_symmetry_check_does_not_depend_on_the_overall_scale(tmp_path, capsys,
                                                               scale):
    # V[1][0] = 3 V[0][1] is refused at every scale, V[1][0] = V[0][1] never
    def run(v10):
        cfg = analyze_config(params={"n_atoms": 2, "delta_a": 0.0,
                                     "g": [scale, 0.5 * scale],
                                     "V": [[0.0, scale], [v10, 0.0]],
                                     "kappa": 0.0})
        path = write_config(tmp_path, "run.json", cfg)
        return main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")])

    assert run(3.0 * scale) == 2
    assert "dipole matrix V must be symmetric" in capsys.readouterr().err
    assert run(scale) == 0


# ----------------------------------------------------------- malformed sizes


SEVENTEEN = {"n_atoms": 17, "g": [1.0] * 17}
MALFORMED_SIZES = [
    (SEVENTEEN, 1, "need 1 <= N <= 16"),
    ({}, -1, "excitation number must be >= 0"),
    ({}, "abc", "excitation must be an integer"),
]


@pytest.mark.parametrize("params, excitation, message", MALFORMED_SIZES)
@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_malformed_sizes_exit_2(tmp_path, capsys, command, params, excitation,
                                message):
    cfg = analyze_config() if command == "analyze" else scan_config()
    cfg["params"].update(params)
    cfg["excitation"] = excitation
    path = write_config(tmp_path, "run.json", cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


NO_N_ATOMS = {"delta_a": 0.0, "g": 1.0, "V": 0.5}
LINSPACE = {"key": "g[1]", "start": -1.0, "stop": 1.0}
NAN, INF = float("nan"), float("inf")
PAIR = [[0.3, 0.1, 0.0], [-0.3, -0.1, 0.0]]


def with_params(**params):
    return {"params": {**analyze_config()["params"], **params}}


def geometry_config():
    return {
        "schema_version": 1,
        "units": "g1",
        "geometry": {"positions": PAIR, "lambda": 0.9},
        "excitation": 1,
    }


CONFIGS = {
    "analyze": analyze_config,
    "simulate": simulate_config,
    "geometry": geometry_config,
    "scan": scan_config,
}


# malformed state specs, each tried as the initial state and as a watch state
BAD_STATES = [
    ({"amplitudes": {"0,eg": [1]}}, "must be a finite number or [re, im]"),
    ({"amplitudes": {"0,eg": {}}}, "must be a finite number or [re, im]"),
    ({"amplitudes": {"0,eg": [0.6, 0.0, 0.8]}}, "must be a finite number or [re, im]"),
    ({"amplitudes": {"0,eg": "NaN"}}, "must be a finite number or [re, im]"),
    ({"amplitudes": None}, "amplitudes must map state labels"),
    ({"dressed": [1]}, "dressed must be an integer"),
    ({"detected_dark": [1]}, "detected_dark must be an integer"),
    ({"detected_dark": 1, "excitation": {}}, "excitation must be an integer"),
]


@pytest.mark.parametrize("command, overrides, message", [
    ("analyze", {"params": NO_N_ATOMS}, "bad params section"),
    ("scan", {"params": NO_N_ATOMS}, "bad params section"),
    ("scan", {"grid": [{"key": "g[1]", "values": ["x"]}]}, "bad grid axis 'g[1]'"),
    ("scan", {"grid": [{"key": "g[1]", "values": 5}]}, "bad grid axis 'g[1]'"),
    ("scan", {"grid": [{**LINSPACE, "num": "ten"}]}, "bad grid axis 'g[1]'"),
    ("scan", {"grid": 5}, "scan grid must be a list"),
    ("scan", {"grid": [5]}, "grid axis must be a JSON object, got 5"),
    ("scan", {"grid": [{"key": 5, "values": [1.0]}]}, "each grid axis needs a key"),
    ("scan", {"oracle_samples": "many"}, "oracle_samples must be an integer"),
    ("scan", {"workers": 2}, "unknown config keys: ['workers']"),
    ("analyze", with_params(g=[NAN, 1.0]), "g must be finite"),
    ("analyze", with_params(V=INF), "V must be finite"),
    ("analyze", with_params(delta_a=NAN), "delta_a must be a finite number"),
    ("simulate", with_params(kappa=INF), "kappa must be a finite number"),
    ("simulate", with_params(kappa=NAN), "kappa must be a finite number"),
    ("scan", {"grid": [{"key": "g[1]", "values": ["nan"]}]},
     "values must be a finite number, got 'nan'"),
    ("geometry", {"geometry": 5}, "bad geometry section"),
    ("geometry", {"geometry": {"positions": PAIR, "lambda": [1]}},
     "bad geometry section"),
    ("geometry", {"delta_a": [1]}, "delta_a must be a finite number, got [1]"),
    ("simulate", {"watch": 5}, "watch must be a list of objects"),
    ("simulate", {"watch": ["x"]}, "watch entry must be a JSON object, got 'x'"),
    ("simulate", {"watch": [{"name": "a"}]}, "watch must be a list of objects"),
    ("simulate", {"n_max": [1]}, "n_max must be an integer"),
    ("simulate", {"t_max": [1]}, "t_max must be a finite number"),
    ("simulate", {"t_max": INF}, "t_max must be a finite number"),
    ("simulate", {"dt": [1]}, "dt must be a finite number"),
    ("simulate", {"initial": {"amplitudes": [1]}}, "state label must be a string"),
    ("simulate", {"initial": {"detected_dark": 2, "excitation": 1}},
     "detected_dark index 2 out of range; subspace has 1 dark state(s)"),
    *[("simulate", {"initial": spec}, message) for spec, message in BAD_STATES],
    *[("simulate", {"watch": [{"name": "w", "state": spec}]}, message)
      for spec, message in BAD_STATES],
    ("simulate", {"watch": [{"name": 5, "state": "1,gg"}]},
     "watch must be a list of objects"),
    ("simulate", {"t_max": 1e308}, "more than the 10000000 allowed"),
    ("simulate", {"n_max": 1e308}, "above the limit of 2048"),
    ("analyze", {"excitation": 1e308}, "excitation number must be >= 0 and <="),
    # finite parameters whose spectrum overflows float64
    ("analyze", with_params(n_atoms=3, g=[1.0, 1e308, 1.0]), "Hamiltonian scale"),
    ("analyze", with_params(V=1e308), "Hamiltonian scale"),
    ("analyze", with_params(delta_a=1e308), "Hamiltonian scale"),
    ("geometry", {"delta_a": 1e308}, "Hamiltonian scale"),
    ("scan", {"grid": [{"key": "g[1]", "values": [1.0, 1e308]}]}, "Hamiltonian scale"),
    ("scan", {"grid": [{"key": "V", "values": [1e308]}]}, "Hamiltonian scale"),
    ("scan", {"oracle_samples": -1}, "oracle_samples must be at least 0"),
    # integers are not truncated, and a JSON boolean is not an integer
    ("scan", {"oracle_samples": 2.9}, "oracle_samples must be an integer, got 2.9"),
    ("scan", {"oracle_samples": True}, "oracle_samples must be an integer, got True"),
    ("simulate", {"watch": [{"name": "w",
                             "state": {"detected_dark": 1, "excitation": 2}}]},
     "excitation 2 outside ladder 0..1"),
    ("scan", {"seed": 3}, "unknown config keys: ['seed']"),
    ("simulate", {"n_max": 1.5}, "n_max must be an integer, got 1.5"),
    ("simulate", {"n_max": True}, "n_max must be an integer, got True"),
    # a numeric string, a boolean or a fraction is refused, never converted
    ("analyze", {"excitation": 1.5}, "excitation must be an integer, got 1.5"),
    ("analyze", {"excitation": True}, "excitation must be an integer, got True"),
    ("analyze", {"excitation": "1"}, "excitation must be an integer, got '1'"),
    ("analyze", with_params(n_atoms=2.5), "n_atoms must be an integer, got 2.5"),
    ("scan", {"grid": [{**LINSPACE, "num": 2.5}]}, "num must be an integer, got 2.5"),
    ("scan", {"grid": [{**LINSPACE, "num": True}]}, "num must be an integer, got True"),
    ("simulate", {"initial": {"dressed": 1.5}}, "dressed must be an integer, got 1.5"),
    ("simulate", {"initial": {"dressed": True}}, "dressed must be an integer, got True"),
    ("simulate", with_params(kappa=True), "kappa must be a finite number, got True"),
    ("geometry", {"kappa": True}, "kappa must be a finite number, got True"),
    ("simulate", {"t_max": True}, "t_max must be a finite number, got True"),
    ("simulate", {"t_max": "0.01"}, "t_max must be a finite number, got '0.01'"),
    # the header's version is the integer 1, not true or 1.0
    ("analyze", {"schema_version": True}, "schema_version must be 1, got True"),
    ("analyze", {"schema_version": 1.0}, "schema_version must be 1, got 1.0"),
    ("scan", {"schema_version": True}, "schema_version must be 1, got True"),
    # arrays, a scalar V and amplitudes hold JSON numbers only
    ("analyze", with_params(g=[True, "1"]), "g must hold numbers only, got True"),
    ("analyze", with_params(g=[1.0, "1"]), "g must hold numbers only, got '1'"),
    ("analyze", with_params(V=True), "V must hold numbers only, got True"),
    ("analyze", with_params(V="0.5"), "V must hold numbers only, got '0.5'"),
    ("analyze", with_params(V=[[0.0, "0.5"], [0.5, 0.0]]),
     "V must hold numbers only, got '0.5'"),
    ("scan", with_params(g=[1.0, True]), "g must hold numbers only, got True"),
    ("simulate", {"initial": {"amplitudes": {"0,eg": "0.6", "0,ge": 0.8}}},
     "amplitude of state '0,eg' must be a finite number or [re, im], got '0.6'"),
    ("simulate", {"initial": {"amplitudes": {"0,eg": True}}},
     "amplitude of state '0,eg' must be a finite number or [re, im], got True"),
    ("simulate", {"initial": {"amplitudes": {"0,eg": [0.6, "0"], "0,ge": 0.8}}},
     "amplitude of state '0,eg' must be a finite number or [re, im]"),
    ("simulate", {"initial": {"amplitudes": {"0,eg": 10**400}}},
     "amplitude of state '0,eg' must be a finite number or [re, im]"),
    ("geometry", {"geometry": {"positions": [[0.3, "0.1", 0.0], PAIR[1]],
                               "lambda": 0.9}},
     "positions must hold numbers only, got '0.1'"),
    ("geometry", {"geometry": {"positions": [[0.3, 0.1, True], PAIR[1]],
                               "lambda": 0.9}},
     "positions must hold numbers only, got True"),
    # an integer beyond float range is a config error, not a traceback
    ("analyze", with_params(g=[10**400, 1.0]), "bad params section"),
    ("geometry", {"geometry": {"positions": [[10**400, 0.1, 0.0], PAIR[1]],
                               "lambda": 0.9}}, "bad geometry section"),
    ("simulate", {"watch": []}, "at least one watch state"),
    # "c3" is the field name; the config key is "C3"
    ("geometry", {"geometry": {"positions": PAIR, "lambda": 0.9, "c3": 5.0}},
     "bad geometry section: unknown config keys: ['c3'] in geometry"),
    # a misspelt top-level key, where dt would run at its default
    ("simulate", {"Dt": 0.5}, "unknown config keys: ['Dt']"),
    # an axis whose values a later axis overwrites at every point
    ("scan", {"grid": [{"key": "g[1]", "values": [0.1, 0.9]},
                       {"key": "g[1]", "values": [0.5]}]},
     "grid key 'g[1]' is overwritten by later grid key 'g[1]'"),
    ("scan", {"grid": [{"key": "V[0][1]", "values": [0.1, 0.9]},
                       {"key": "V[1][0]", "values": [0.5]}]},
     "grid key 'V[0][1]' is overwritten by later grid key 'V[1][0]'"),
    ("scan", {"grid": [{"key": "V[0][1]", "values": [0.1, 0.9]},
                       {"key": "V", "values": [0.5]}]},
     "grid key 'V[0][1]' is overwritten by later grid key 'V'"),
    # two atoms have one pair, so V[0][1] sets all of an earlier whole V
    ("scan", {"grid": [{"key": "V", "values": [0.1, 0.9]},
                       {"key": "V[0][1]", "values": [0.5]}]},
     "grid key 'V' is overwritten by later grid key 'V[0][1]'"),
    ("scan", {"grid": [{"key": "kappa", "values": [0.1, 0.9]},
                       {"key": "g[0]", "values": [0.5]},
                       {"key": "kappa", "values": [0.5]}]},
     "grid key 'kappa' is overwritten by later grid key 'kappa'"),
    # a placement whose derived quantities overflow float64, named, with no
    # numpy warning (warnings fail the test)
    ("geometry", {"geometry": {"positions": PAIR, "lambda": 0.9, "w0": 1e200}},
     "derived Rayleigh range is not finite (inf)"),
    ("geometry", {"geometry": {"positions": [[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]],
                               "lambda": 0.9}},
     "derived distance of atoms 0 and 1 is not finite (inf)"),
    ("simulate", {"watch": [{"name": "w", "state": "0,gg"},
                            {"name": "w", "state": "1,gg"}]},
     "watch entries need unique names, got 'w'"),
    ("simulate", {"initial": {"bright": False}}, "bright must be true"),
    ("simulate", {"watch": [{"name": "w", "state": {"bright": False}}]},
     "bright must be true"),
])
def test_malformed_values_exit_2(tmp_path, capsys, command, overrides, message):
    cfg = CONFIGS[command]()
    cfg.update(overrides)
    path = write_config(tmp_path, "run.json", cfg)
    args = [command_of(command), "--config", str(path), "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert message in capsys.readouterr().err


KINDS = "['amplitudes', 'dressed', 'bright', 'analytic_dark', 'detected_dark']"


# a misspelt key in each config object, a state spec naming two kinds and a
# grid axis mixing its two forms: each exits 2 naming the object and the key
@pytest.mark.parametrize("command, overrides, message", [
    ("analyze", {"excitaton": 1}, "unknown config keys: ['excitaton'] in analyze config"),
    ("geometry", {"kapa": 0.1}, "unknown config keys: ['kapa'] in analyze config"),
    ("scan", with_params(kapa=0.1), "unknown config keys: ['kapa'] in params"),
    ("simulate", with_params(omega=1.0), "unknown config keys: ['omega'] in params"),
    ("geometry", {"geometry": {"positions": PAIR, "lambda": 0.9, "W0": 1.0}},
     "unknown config keys: ['W0'] in geometry"),
    ("simulate", {"watch": [{"name": "w", "state": "0,gg", "colour": 1}]},
     "unknown config keys: ['colour'] in watch entry"),
    ("scan", {"grid": [{"key": "g[1]", "value": [0.5]}]},
     "unknown config keys: ['value'] in grid axis"),
    ("simulate", {"initial": {"detected_dark": 1, "excitaton": 1}},
     "unknown config keys: ['excitaton'] in state spec"),
    ("simulate", {"watch": [{"name": "w", "state": {"dressed": 1, "excitation": 1}}]},
     "unknown config keys: ['excitation'] in state spec"),
    ("simulate", {"n_max": 2, "initial": {"dressed": 2, "detected_dark": 1,
                                          "excitation": 2}},
     f"state spec must hold exactly one of {KINDS}, "
     "got ['detected_dark', 'dressed', 'excitation']"),
    ("simulate", {"initial": {}}, f"state spec must hold exactly one of {KINDS}, got []"),
    ("scan", {"grid": [{"key": "g[1]", "values": [0.5], "num": 3}]},
     "unknown config keys: ['num'] in grid axis"),
    ("scan", {"grid": [{**LINSPACE, "num": 2, "values": [0.5]}]},
     "grid axis must hold exactly one of ['values', 'start'], "
     "got ['key', 'num', 'start', 'stop', 'values']"),
    ("analyze", {"params": [1.0]}, "params must be a JSON object, got [1.0]"),
    ("simulate", {"initial": 5}, "state spec must be a JSON object, got 5"),
])
def test_every_config_object_refuses_a_key_it_does_not_take(tmp_path, capsys, command,
                                                           overrides, message):
    cfg = CONFIGS[command]()
    cfg.update(overrides)
    path = write_config(tmp_path, "run.json", cfg)
    args = [command_of(command), "--config", str(path), "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not any((tmp_path / "o").glob("*"))  # no artifact written


def test_a_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "run.json", [analyze_config()])
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "analyze config must be a JSON object, got [{" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, message", [
    ("simulate", "initial", "simulate config needs an initial state"),
    ("scan", "grid", "scan config needs a grid section"),
])
def test_a_run_config_without_a_required_entry_exits_2(tmp_path, capsys, command,
                                                       key, message):
    cfg = CONFIGS[command]()
    del cfg[key]
    path = write_config(tmp_path, "run.json", cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_scan_axis_that_sets_nothing_exits_2(tmp_path, capsys):
    # one atom has no pair for V to set: every point would be the same
    cfg = scan_config(params={"n_atoms": 1, "delta_a": 0.0, "g": [1.0], "V": 0.5,
                              "kappa": 0.0},
                      grid=[{"key": "V", "values": [0.1, 0.9]}])
    path = write_config(tmp_path, "scan.json", cfg)
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "grid key 'V' sets nothing on 1 atom(s)" in capsys.readouterr().err
    assert not (tmp_path / "o" / "scan.csv").exists()


@pytest.mark.parametrize("target, fault, message", [
    ("evolve", np.linalg.LinAlgError("SVD did not converge"), "integration failed"),
    ("evolve", ValueError("H must conserve the excitation number"),
     "integration failed"),
    ("simulate", np.linalg.LinAlgError("eigh did not converge"), "numerical failure"),
], ids=["kernel_linalg", "kernel_invariant", "simulate_linalg"])
def test_simulate_numerical_fault_exits_1(tmp_path, capsys, monkeypatch, target,
                                          fault, message):
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(kernels if target == "evolve" else dynamics, target, broken)
    path = write_config(tmp_path, "sim.json", simulate_config())
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert message in err and str(fault) in err
    assert "error:" not in err  # not reported as a config error
    assert not (tmp_path / "o" / "report.json").exists()
    assert not (tmp_path / "o" / "summary.txt").exists()


@pytest.mark.parametrize("command, cfg", [
    ("analyze", analyze_config()),
    ("geometry", equilateral_geometry_config()),
    ("scan", scan_config(oracle_samples=9)),
])
def test_disagreeing_routes_exit_1_and_still_write_both_files(tmp_path, monkeypatch,
                                                             command, cfg):
    oracle = darkstates.brute_force_dark_states

    def no_darks(ham):
        report = oracle(ham)
        return replace(report, clusters=(), vectors=report.vectors[:, :0],
                       eigenvalues=report.eigenvalues[:0])

    monkeypatch.setattr(darkstates, "brute_force_dark_states", no_darks)
    monkeypatch.setattr(cli, "brute_force_dark_states", no_darks)
    path = write_config(tmp_path, "run.json", cfg)
    out = tmp_path / "o"
    assert main([command_of(command), "--config", str(path), "--out", str(out)]) == 1
    report = read_report(out)
    assert (report["schema_version"], report["command"], report["config"]) \
        == (1, command_of(command), cfg)
    summary = (out / "summary.txt").read_text()
    assert "agreement=NO" in summary or "agreement: NO" in summary


@pytest.mark.parametrize("role", ["initial", "watch"])
def test_every_state_of_a_run_takes_one_norm_tolerance(tmp_path, capsys, role):
    def run(amplitudes):
        state = {"amplitudes": {"0,eg": 0.6, "0,ge": amplitudes}}
        cfg = simulate_config(**({"initial": state} if role == "initial" else
                                 {"watch": [{"name": "w", "state": state}]}))
        path = write_config(tmp_path, "run.json", cfg)
        return main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])

    assert run(0.80000000004) == 0  # |psi| = 1 + 3.2e-11, inside 1e-10
    assert run(0.80000000125) == 2  # |psi| = 1 + 1e-9
    what = "initial state" if role == "initial" else "watch state 'w'"
    assert f"{what} is not normalized" in capsys.readouterr().err


def test_simulate_asks_the_kernel_for_no_snapshots(tmp_path, monkeypatch):
    snap_steps, evolve = [], kernels.evolve

    def recorded(*args):
        snap_steps.append(args[7])
        return evolve(*args)

    monkeypatch.setattr(kernels, "evolve", recorded)
    path = write_config(tmp_path, "sim.json", simulate_config())
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert [s.tolist() for s in snap_steps] == [[]]  # one run, no rerun


CHAIN_17 = [[0.0, 0.0, 0.1 * (k + 1)] for k in range(17)]


@pytest.mark.parametrize("positions, excitation, message", [
    (CHAIN_17, 1, "need 1 <= N <= 16"),
    (PAIR, -1, "excitation number must be >= 0"),
    (PAIR, "abc", "excitation must be an integer"),
    ([[NAN, 0.1, 0.0], [-0.3, -0.1, 0.0]], 1, "must be finite"),
])
def test_geometry_malformed_sizes_exit_2(tmp_path, capsys, positions, excitation,
                                         message):
    cfg = {
        "schema_version": 1,
        "units": "g1",
        "geometry": {"positions": positions, "lambda": 0.9},
        "excitation": excitation,
    }
    path = write_config(tmp_path, "geo.json", cfg)
    assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_set_override_is_read_like_the_config(tmp_path, capsys):
    path = write_config(tmp_path, "run.json", analyze_config())
    args = ["analyze", "--config", str(path), "--set", "excitation=true"]
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    assert "excitation must be an integer, got True" in capsys.readouterr().err


def test_scan_refuses_an_oversized_grid_before_building_it(tmp_path, capsys,
                                                          monkeypatch):
    def build_axis(*args, **kwargs):  # a build without the bound fails here, not
        raise AssertionError("grid axis built")  # by running out of memory

    monkeypatch.setattr(np, "linspace", build_axis)
    axis = {"start": 0.0, "stop": 1.0, "num": 10**5}
    grid = [{"key": "g[1]", **axis}, {"key": "V", **axis}]
    path = write_config(tmp_path, "scan.json", scan_config(grid=grid))
    start = time.perf_counter()
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1.0
    assert "10000000000 points, more than the 1000000 allowed" in capsys.readouterr().err


def test_scan_rejects_zero_workers_flag(tmp_path, capsys):
    path = write_config(tmp_path, "scan.json", scan_config())
    args = ["scan", "--config", str(path), "--workers", "0"]
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    (["--seed", "-1"], "seed must be at least 0, got -1"),
    (["--workers", "0"], "workers must be at least 1, got 0"),
])
def test_scan_checks_its_flags_before_building_the_grid(tmp_path, capsys,
                                                        monkeypatch, flag, message):
    def build_subspace(*args, **kwargs):
        raise AssertionError("subspace built")

    monkeypatch.setattr(cli, "enumerate_subspace", build_subspace)
    path = write_config(tmp_path, "scan.json", scan_config())
    args = ["scan", "--config", str(path), *flag]
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("oracle_samples", [0, 2])
def test_scan_rejects_negative_seed_flag(tmp_path, capsys, oracle_samples):
    cfg = scan_config(oracle_samples=oracle_samples)
    path = write_config(tmp_path, "scan.json", cfg)
    args = ["scan", "--config", str(path), "--seed", "-1"]
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    assert "seed must be at least 0" in capsys.readouterr().err


# ------------------------------------------------------------ determinism


def test_simulate_byte_identical(tmp_path):
    path = write_config(tmp_path, "run.json", simulate_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
    for name in ("report.json", "trajectory.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_scan_byte_identical(tmp_path):
    path = write_config(tmp_path, "scan.json", scan_config(oracle_samples=2))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["scan", "--config", str(path), "--seed", "3"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    for name in ("report.json", "scan.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_scan_workers_change_no_byte_under_default_blas_threads(tmp_path):
    # a fresh interpreter with the BLAS thread count left to its default, so
    # the shares' LAPACK calls run with the library's own threads alongside
    cfg = scan_config(oracle_samples=4, excitation=3, grid=[
        {"key": "V[0][1]", "values": [0.1, 0.5, 0.9]},
        {"key": "g[1]", "start": -2.0, "stop": 2.0, "num": 4},
    ])
    cfg["params"] = {"n_atoms": 10, "delta_a": 0.2,
                     "g": [1.0, -1.0, 0.5, 0.8, 0.3, -0.6, 1.2, 0.7, -0.4, 0.0],
                     "V": 0.5, "kappa": 0.0}
    path = write_config(tmp_path, "scan.json", cfg)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    outs = {}
    for workers in ("1", "2"):
        outs[workers] = tmp_path / f"w{workers}"
        proc = subprocess.run(
            [sys.executable, "-m", "cavitydark.cli", "scan", "--config", str(path),
             "--seed", "3", "--workers", workers, "--out", str(outs[workers])],
            env=env, capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
    assert read_report(outs["1"])["oracle_checked"] == 4
    for name in ("report.json", "scan.csv", "summary.txt"):
        assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes()
