"""Shared fixtures and the acceptance-suite summary hook."""

import time
from types import SimpleNamespace

import pytest

# Filled in by test_acceptance.py: criterion number -> (passed, detail).
ACCEPTANCE = {}

ACCEPTANCE_TITLES = {
    1: "exact-matrix suite",
    2: "dark-count table",
    3: "detector vs oracle equivalence",
    4: "two-atom decay benchmark",
    5: "figure-preset properties",
    6: "master-equation integrity",
    7: "geometry suite",
    8: "byte-identical reruns",
}

PRESET_NAMES = ("fig2b", "fig3c", "fig3d", "fig4b", "fig5b")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_TITLES):
        if num in ACCEPTANCE:
            passed, detail = ACCEPTANCE[num]
            status = "PASS" if passed else "FAIL"
        else:
            status, detail = "NOT RUN", "criterion test did not execute"
        terminalreporter.write_line(
            f"[acceptance] criterion {num} ({ACCEPTANCE_TITLES[num]}): "
            f"{status} - {detail}"
        )


@pytest.fixture(scope="session")
def preset_runs():
    """Every shipped preset integrated once, with wall-clock times.

    A short warmup run first warms the imports and BLAS so the recorded
    times measure the integration itself.
    """
    from cavitydark.basis import ladder_spaces
    from cavitydark.cli import _load_preset, _params_from_config
    from cavitydark.dynamics import simulate
    from cavitydark.states import resolve_state, spec_min_excitation

    runs = {}
    warmed = False
    for name in PRESET_NAMES:
        cfg = _load_preset(name)
        params = _params_from_config(cfg["params"])
        n_max = int(cfg.get("n_max", spec_min_excitation(cfg["initial"])))
        ladder = ladder_spaces(params.n_atoms, n_max)
        initial = resolve_state(ladder, params, cfg["initial"])
        watch = {
            entry["name"]: resolve_state(ladder, params, entry["state"])
            for entry in cfg["watch"]
        }
        if not warmed:
            simulate(params, ladder, initial, watch, t_max=10 * cfg["dt"], dt=cfg["dt"])
            warmed = True
        t0 = time.perf_counter()
        # criterion 6 reads the minimum eigenvalue of 13 snapshots
        trajectory = simulate(params, ladder, initial, watch, t_max=cfg["t_max"],
                              dt=cfg["dt"], n_snapshots=13)
        wall = time.perf_counter() - t0
        runs[name] = SimpleNamespace(
            name=name,
            config=cfg,
            params=params,
            n_max=n_max,
            ladder=ladder,
            initial=initial,
            trajectory=trajectory,
            wall_seconds=wall,
        )
    return runs
