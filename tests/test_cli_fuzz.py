"""Table-driven fuzz test of the command-line interface.

Every leaf and every section of a small config for each command is replaced,
one at a time, by each value of a fixed menu of malformed or extreme values.
``main`` must come back with exit code 0, 1 or 2 for every case: a result, a
failed check or integration, or a config error.  An exception escaping
``main`` would reach the user as a traceback.
"""

import copy
import json

import pytest

from cavitydark.cli import main

MENU = [[1], {}, "x", None, -1, 1e308, "NaN"]

PARAMS = {"n_atoms": 2, "delta_a": 0.1, "g": [1.0, 1.0], "V": 0.5, "kappa": 0.3}

BASES = {
    "analyze": {
        "schema_version": 1,
        "units": "g1",
        "params": PARAMS,
        "excitation": 1,
    },
    "simulate": {
        "schema_version": 1,
        "units": "g1",
        "params": PARAMS,
        "n_max": 1,
        "initial": {"amplitudes": {"0,eg": [0.6, 0.0], "0,ge": 0.8}},
        "watch": [
            {"name": "cavity", "state": "1,gg"},
            {"name": "dressed", "state": {"dressed": 1}},
            {"name": "dark", "state": {"detected_dark": 1, "excitation": 1}},
        ],
        "t_max": 0.01,
        "dt": 0.0025,
    },
    "geometry": {
        "schema_version": 1,
        "units": "g1",
        "geometry": {
            "positions": [[0.3, 0.1, 0.0], [-0.3, -0.1, 0.0], [0.0, 0.3, 0.1]],
            "lambda": 0.9,
        },
        "axial_profile": "linear",
        "delta_a": 0.0,
        "kappa": 0.0,
        "excitation": 1,
    },
    "scan": {
        "schema_version": 1,
        "units": "g1",
        "params": PARAMS,
        "excitation": 1,
        "grid": [
            {"key": "g[1]", "values": [-1.0, 1.0]},
            {"key": "V", "start": 0.2, "stop": 0.4, "num": 2},
        ],
        "oracle_samples": 1,
    },
}


def node_paths(node, path=()):
    """Key paths of every leaf and every section below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def replaced(cfg, path, value):
    out = copy.deepcopy(cfg)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return out


@pytest.mark.parametrize("command", sorted(BASES))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e308 overflows on purpose
def test_every_replaced_entry_ends_in_an_exit_code(tmp_path, capsys, command):
    base = BASES[command]
    path = tmp_path / "run.json"
    out = tmp_path / "out"
    path.write_text(json.dumps(base))
    assert main([command, "--config", str(path), "--out", str(out)]) == 0

    crashes, cases = [], 0
    for keys in node_paths(base):
        for value in MENU:
            path.write_text(json.dumps(replaced(base, keys, value)))
            cases += 1
            try:
                code = main([command, "--config", str(path), "--out", str(out)])
            except Exception as exc:  # noqa: BLE001 - any escape is the finding
                crashes.append((keys, value, f"{type(exc).__name__}: {exc}"))
                continue
            if code not in (0, 1, 2):
                crashes.append((keys, value, f"exit code {code!r}"))
    capsys.readouterr()
    assert cases >= 7 * 8
    assert not crashes, "\n".join(map(repr, crashes))
