"""Table-driven fuzz test of the command-line interface.

Every leaf and every section of a small config for each command, and of an
``analyze`` config in geometry form, is replaced, one at a time, by each value
of a fixed menu of malformed or extreme values.
``main`` must come back with exit code 0, 1 or 2 for every case: a result, a
failed check or integration, or a config error.  An exception escaping
``main`` would reach the user as a traceback.  The ``--seed`` flag is fuzzed
the same way; there argparse itself may end the run with exit code 2, as it
does for every command but ``scan``, the one that takes a seed.

Every entry whose key is in the config key table (``cavitydark.config.KEYS``)
is also replaced by values of the wrong kind, which must exit 2 with a message
naming the key, and so is every number in an array or an amplitude map.
"""

import copy
import json

import pytest

from cavitydark.cli import main
from cavitydark.config import KEYS

MENU = [[1], {}, "x", None, -1, 1e308, "NaN", 2.5, True, 10**400]
SEEDS = ["-1", "0", str(2**70), str(-(2**70)), "x", "1.5", ""]
# values each kind of table key must refuse
WRONG_KIND = {"integer": [2.5, True], "real": [True, "x"], "boolean": [1, "x"]}

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
        # three atoms with unequal couplings: a bright state and a dark state
        "params": {**PARAMS, "n_atoms": 3, "g": [1.0, 0.8, 1.5]},
        "n_max": 1,
        "initial": {"amplitudes": {"0,egg": [0.6, 0.0], "0,geg": 0.8}},
        "watch": [
            {"name": "cavity", "state": "1,ggg"},
            {"name": "dressed", "state": {"dressed": 1}},
            {"name": "bright", "state": {"bright": True}},
            {"name": "dark", "state": {"detected_dark": 1, "excitation": 1}},
        ],
        "t_max": 0.01,
        "dt": 0.0025,
    },
    # an analyze config whose system is a placement
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


def command_of(name):
    """The command a base config runs under."""
    return "analyze" if name == "geometry" else name


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
    assert main([command_of(command), "--config", str(path), "--out", str(out)]) == 0

    crashes, cases = [], 0
    for keys in node_paths(base):
        for value in MENU:
            path.write_text(json.dumps(replaced(base, keys, value)))
            cases += 1
            try:
                code = main([command_of(command), "--config", str(path),
                             "--out", str(out)])
            except Exception as exc:  # noqa: BLE001 - any escape is the finding
                crashes.append((keys, value, f"{type(exc).__name__}: {exc}"))
                continue
            if code not in (0, 1, 2):
                crashes.append((keys, value, f"exit code {code!r}"))
    capsys.readouterr()
    assert cases >= 7 * 8
    assert not crashes, "\n".join(map(repr, crashes))


@pytest.mark.parametrize("command", sorted(BASES))
def test_every_table_key_refuses_the_wrong_kind(tmp_path, capsys, command):
    base = BASES[command]
    path = tmp_path / "run.json"
    out = tmp_path / "out"
    misses, cases = [], 0
    for keys in node_paths(base):
        # an entry of a list is read under the list's key ("values")
        key = keys[-1] if isinstance(keys[-1], str) else keys[-2]
        if key not in KEYS:
            continue
        for value in WRONG_KIND[KEYS[key].kind]:
            path.write_text(json.dumps(replaced(base, keys, value)))
            cases += 1
            code = main([command_of(command), "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            if code != 2 or key not in err:
                misses.append((keys, value, code, err))
    assert cases >= 2 * 3
    assert not misses, "\n".join(map(repr, misses))


# arrays and amplitude maps: every number in them is checked the same way
ARRAYS = {"g", "V", "positions", "amplitudes"}


@pytest.mark.parametrize("command", sorted(BASES))
def test_every_array_entry_and_amplitude_refuses_booleans_and_strings(
        tmp_path, capsys, command):
    base = BASES[command]
    path = tmp_path / "run.json"
    out = tmp_path / "out"
    misses, cases = [], 0
    for keys in node_paths(base):
        node = base
        for key in keys:
            node = node[key]
        inside = [k for k, key in enumerate(keys) if key in ARRAYS]
        if not inside or isinstance(node, (dict, list)):  # a number leaf only
            continue
        # messages name the array, or an amplitude's state label
        k = inside[-1]
        name = keys[k + 1] if keys[k] == "amplitudes" else keys[k]
        for value in (True, "1"):
            path.write_text(json.dumps(replaced(base, keys, value)))
            cases += 1
            code = main([command_of(command), "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            if code != 2 or name not in err:
                misses.append((keys, value, code, err))
    assert cases >= 2 * 2
    assert not misses, "\n".join(map(repr, misses))


@pytest.mark.parametrize("command", sorted(BASES))
def test_every_seed_ends_in_an_exit_code(tmp_path, capsys, command):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASES[command]))
    crashes = []
    for seed in SEEDS:
        argv = [command_of(command), "--config", str(path),
                "--out", str(tmp_path / "out"), "--seed", seed]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit on a non-integer
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape is the finding
            crashes.append((seed, f"{type(exc).__name__}: {exc}"))
            continue
        if code not in ((0, 1, 2) if command == "scan" else (2,)):
            crashes.append((seed, f"exit code {code!r}"))
    capsys.readouterr()
    assert not crashes, "\n".join(map(repr, crashes))
