"""Command-line interface.

Four commands, all driven by JSON configs carrying ``"schema_version": 1``
and an explicit ``"units": "g1"`` declaration (all rates are measured in
units of the first atom's cavity coupling):

* ``analyze``  -- dark-state detection on one excitation subspace, with the
  independent eigenspace cross-check; exits non-zero if the routes disagree.
* ``simulate`` -- photon-loss master-equation run; writes the population
  trajectory and integrity metrics.  ``--preset`` loads a bundled scenario.
* ``geometry`` -- derive couplings from atom positions, then analyze.
* ``scan``     -- dark-state detection over a parameter grid on a worker
  pool, with the cross-check on a seeded subsample of grid points.

Outputs (``report.json``, ``trajectory.csv``, ``scan.csv``, ``summary.txt``)
are byte-identical across repeated runs with the same config and seed: no
timestamps, no machine info, sorted JSON keys, LF line endings.
"""

from __future__ import annotations

import argparse
import copy
import csv
import itertools
import json
import math
import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .arrowhead import to_arrowhead
from .basis import enumerate_subspace, ladder_spaces
from .darkstates import (
    analyze_subspace,
    brute_force_dark_states,
    detect,
    reports_agree,
)
from .dynamics import IntegrationError, SimulationConfig, simulate
from .geometry import AtomGeometry, cardano_discriminant, params_from_geometry
from .hamiltonian import SystemParams, build_hamiltonian
from .linalg import eigh
from .states import resolve_state, spec_min_excitation

SCHEMA_VERSION = 1

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


# ----------------------------------------------------------------- config IO


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _preset_names():
    root = resources.files("cavitydark") / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir()
                  if p.name.endswith(".json"))


def _load_preset(name):
    root = resources.files("cavitydark") / "presets"
    candidate = root / f"{name}.json"
    if not candidate.is_file():
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(_preset_names())}"
        )
    return json.loads(candidate.read_text())


_PATH_TOKEN = re.compile(r"([^.\[\]]+)|\[(\d+)\]")


def _parse_path(path):
    tokens = []
    pos = 0
    for m in _PATH_TOKEN.finditer(path):
        if m.start() != pos and path[pos:m.start()] != ".":
            raise ConfigError(f"malformed override path {path!r}")
        tokens.append(m.group(1) if m.group(1) is not None else int(m.group(2)))
        pos = m.end()
    if pos != len(path) or not tokens:
        raise ConfigError(f"malformed override path {path!r}")
    return tokens


def _apply_override(config, assignment):
    """Apply one ``--set path=value`` assignment to the loaded config."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    path, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    tokens = _parse_path(path.strip())
    node = config
    for i, tok in enumerate(tokens[:-1]):
        try:
            node = node[tok]
        except (KeyError, IndexError, TypeError):
            raise ConfigError(
                f"override path {path!r} does not exist at segment {tok!r}"
            ) from None
    last = tokens[-1]
    if isinstance(node, dict):
        if last not in node:
            raise ConfigError(f"override {path!r} references unknown key {last!r}")
        node[last] = value
    elif isinstance(node, list):
        if not isinstance(last, int) or not 0 <= last < len(node):
            raise ConfigError(f"override {path!r} has index {last!r} out of range")
        node[last] = value
    else:
        raise ConfigError(f"override path {path!r} does not address a container")


def _validate_header(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    if cfg.get("units") != "g1":
        raise ConfigError('config must declare "units": "g1"')


def _params_from_config(d):
    if not isinstance(d, dict):
        raise ConfigError("params section must be a JSON object")
    known = {"n_atoms", "delta_a", "g", "V", "kappa", "omega_a", "omega_c"}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown params keys: {sorted(unknown)}")
    if "g" not in d:
        raise ConfigError("params section needs the coupling vector g")
    try:
        return SystemParams(
            n_atoms=int(d.get("n_atoms", len(d["g"]))),
            delta_a=d.get("delta_a"),
            g=d["g"],
            V=d.get("V", 0.0),
            kappa=d.get("kappa", 0.0),
            omega_a=d.get("omega_a"),
            omega_c=d.get("omega_c"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params section: {exc}") from exc


def _config_subspace(cfg, n_atoms, default=None):
    """Basis of the config's excitation subspace for ``n_atoms`` atoms."""
    try:
        return enumerate_subspace(n_atoms, int(cfg.get("excitation", default)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad excitation subspace: {exc}") from exc


def _config_int(cfg, key, default):
    try:
        return int(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from exc


def _config_float(cfg, key):
    """``cfg[key]``, checked to be a finite number; None if absent."""
    value = cfg.get(key)
    try:
        if value is None or math.isfinite(float(value)):
            return value
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


# ------------------------------------------------------------ output helpers


def _sanitize(obj):
    """Make an object strict-JSON safe (NaN/Inf become null)."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, np.floating):
        return _sanitize(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _write_report(out_dir, report):
    text = json.dumps(_sanitize(report), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    (out_dir / "report.json").write_text(text, newline="\n")


def _write_summary(out_dir, lines):
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", newline="\n")


def _fmt(x):
    if x is None:
        return "n/a"
    return f"{x:.9g}"


def _cluster_lines(report):
    lines = ["dressed clusters (eigenvalue, size, rank, dark):"]
    for c in report.clusters:
        lines.append(
            f"  {_fmt(c.eigenvalue):>14}  size {c.size}  rank {c.rank}  "
            f"dark {c.dark_dim}"
        )
    return lines


# ------------------------------------------------------------------ analyze


def cmd_analyze(cfg, out_dir, seed):
    params = _params_from_config(cfg.get("params"))
    if "excitation" not in cfg:
        raise ConfigError("analyze config needs an excitation number")
    basis = _config_subspace(cfg, params.n_atoms)
    result = analyze_subspace(params, basis=basis)
    det, brute = result.detected, result.brute_force

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "config": cfg,
        "agreement": {
            "agrees": result.agrees,
            "max_principal_angle": result.angle,
        },
        "detected": det.to_dict(),
        "brute_force": brute.to_dict(),
    }
    _write_report(out_dir, report)

    lines = [
        f"analyze: N={basis.n_atoms} atoms, excitation {basis.excitation} "
        f"(dim {basis.dim} = {basis.n_upper} upper + {basis.n_lower} lower)",
    ]
    lines += _cluster_lines(det)
    lines.append(
        f"dark states: detected={det.total_dark}, cross-check={brute.total_dark}, "
        f"agreement={'yes' if result.agrees else 'NO'} "
        f"(principal angle {_fmt(result.angle)})"
    )
    labels = basis.labels()
    for k in range(det.total_dark):
        amps = det.vectors[:, k]
        shown = [
            f"{labels[i]}: {amps[i].real:+.6f}"
            for i in np.flatnonzero(np.abs(amps) > 1e-9)
        ]
        lines.append(
            f"dark state {k + 1} (eigenvalue {_fmt(det.eigenvalues[k])}): "
            + ", ".join(shown)
        )
    _write_summary(out_dir, lines)
    return 0 if result.agrees else 1


# ----------------------------------------------------------------- simulate


def cmd_simulate(cfg, out_dir, seed):
    params = _params_from_config(cfg.get("params"))
    if "initial" not in cfg:
        raise ConfigError("simulate config needs an initial state")
    watch_cfg = cfg.get("watch", [])
    if not isinstance(watch_cfg, list) or not all(
        isinstance(e, dict) and isinstance(e.get("name"), str) and "state" in e
        for e in watch_cfg
    ):
        raise ConfigError(
            "watch must be a list of objects with a string name and a state"
        )
    try:
        n_max = _config_int(cfg, "n_max", spec_min_excitation(cfg["initial"]))
        ladder = ladder_spaces(params.n_atoms, n_max)
        initial = resolve_state(ladder, params, cfg["initial"])
        watch = {}
        for entry in watch_cfg:
            name = entry.get("name")
            if not name or name in watch:
                raise ConfigError(f"watch entries need unique names, got {name!r}")
            watch[name] = resolve_state(ladder, params, entry["state"])
        sim_cfg = SimulationConfig(
            params=params,
            n_max=n_max,
            initial=initial,
            watch=watch,
            t_max=_config_float(cfg, "t_max"),
            dt=_config_float(cfg, "dt"),
        )
        trajectory = simulate(sim_cfg, convergence_check=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    trajectory.to_csv(out_dir / "trajectory.csv")

    top_report = detect(to_arrowhead(build_hamiltonian(params, n_max)))
    final = trajectory.final_state
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "config": cfg,
        "grid": {
            "dt": trajectory.dt,
            "steps": len(trajectory.times) - 1,
            "t_max": float(trajectory.times[-1]),
        },
        "integrity": {
            "trace_drift": trajectory.trace_drift,
            "hermiticity_drift": trajectory.hermiticity_drift,
            "final_min_eigenvalue": final.min_eigenvalue(),
            "excitation_initial": float(trajectory.excitation[0]),
            "excitation_final": float(trajectory.excitation[-1]),
            "max_excitation_rise": trajectory.max_excitation_rise,
            "convergence_error": trajectory.convergence_error,
        },
        "populations": {
            "initial": trajectory.initial_populations(),
            "final": trajectory.final_populations(),
            "max_abs_change": {
                name: float(np.abs(p - p[0]).max())
                for name, p in trajectory.populations.items()
            },
        },
        "top_subspace_dark_count": top_report.total_dark,
    }
    _write_report(out_dir, report)

    lines = [
        f"simulate: N={params.n_atoms} atoms, ladder 0..{n_max} "
        f"(dim {ladder.dim})",
        f"steps={len(trajectory.times) - 1}, dt={_fmt(trajectory.dt)}, "
        f"t_max={_fmt(float(trajectory.times[-1]))}",
        f"trace drift: {_fmt(trajectory.trace_drift)}",
        f"hermiticity drift: {_fmt(trajectory.hermiticity_drift)}",
        f"final min eigenvalue: {_fmt(final.min_eigenvalue())}",
        f"excitation: {_fmt(float(trajectory.excitation[0]))} -> "
        f"{_fmt(float(trajectory.excitation[-1]))} "
        f"(max rise {_fmt(trajectory.max_excitation_rise)})",
        f"step-halving convergence error: {_fmt(trajectory.convergence_error)}",
        f"dark states in top subspace: {top_report.total_dark}",
        "final populations:",
    ]
    for name in trajectory.names:
        lines.append(f"  {name:<12} {trajectory.populations[name][-1]:.6f}")
    _write_summary(out_dir, lines)
    return 0


# ----------------------------------------------------------------- geometry


def cmd_geometry(cfg, out_dir, seed):
    if "geometry" not in cfg:
        raise ConfigError("geometry config needs a geometry section")
    try:
        geo = AtomGeometry.from_dict(cfg["geometry"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad geometry section: {exc}") from exc
    profile = cfg.get("axial_profile", "linear")
    try:
        params = params_from_geometry(
            geo,
            delta_a=cfg.get("delta_a", 0.0),
            kappa=cfg.get("kappa", 0.0),
            axial_profile=profile,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    g, V = params.g, params.V
    basis = _config_subspace(cfg, geo.n_atoms, default=1)
    result = analyze_subspace(params, basis=basis)

    disc = None
    if geo.n_atoms == 3:
        disc = cardano_discriminant(V[0, 1], V[0, 2], V[1, 2]).to_dict()

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "geometry",
        "config": cfg,
        "derived": {"params": params.to_dict(), "axial_profile": profile},
        "discriminant": disc,
        "agreement": {
            "agrees": result.agrees,
            "max_principal_angle": result.angle,
        },
        "detected": result.detected.to_dict(),
        "brute_force": result.brute_force.to_dict(),
    }
    _write_report(out_dir, report)

    lines = [
        f"geometry: {geo.n_atoms} atoms -> excitation {basis.excitation} analysis",
        "derived couplings g: " + ", ".join(_fmt(x) for x in g),
        "derived interactions V (upper triangle): "
        + ", ".join(
            _fmt(V[j, k]) for j in range(geo.n_atoms)
            for k in range(j + 1, geo.n_atoms)
        ),
    ]
    if disc is not None:
        lines.append(
            f"cubic discriminant: {_fmt(disc['delta'])} "
            f"(degenerate: {'yes' if disc['degenerate'] else 'no'})"
        )
    lines += _cluster_lines(result.detected)
    lines.append(
        f"dark states: detected={result.detected.total_dark}, "
        f"cross-check={result.brute_force.total_dark}, "
        f"agreement={'yes' if result.agrees else 'NO'}"
    )
    _write_summary(out_dir, lines)
    return 0 if result.agrees else 1


# --------------------------------------------------------------------- scan


def _apply_param_key(pdict, key, value):
    if key in ("delta_a", "kappa", "V"):
        pdict[key] = value
        return
    m = re.fullmatch(r"g\[(\d+)\]", key)
    if m:
        idx = int(m.group(1))
        if not 0 <= idx < len(pdict["g"]):
            raise ConfigError(f"grid key {key!r}: index out of range")
        pdict["g"][idx] = value
        return
    m = re.fullmatch(r"V\[(\d+)\]\[(\d+)\]", key)
    if m:
        j, k = int(m.group(1)), int(m.group(2))
        n = len(pdict["g"])
        if j == k or not (0 <= j < n and 0 <= k < n):
            raise ConfigError(f"grid key {key!r}: bad index pair")
        V = pdict.get("V", 0.0)
        if not isinstance(V, list):
            V = [[0.0 if a == b else float(V) for b in range(n)] for a in range(n)]
        V[j][k] = V[k][j] = value
        pdict["V"] = V
        return
    raise ConfigError(f"unknown grid key {key!r}")


# The scan's subspace basis, set once per process by _init_scan_worker, and a
# one-entry memo (lower-block bytes, read-only EigDecomposition) that
# _init_scan_worker empties.  The lower block does not depend on g, so a scan
# over g at fixed V diagonalizes it once per worker.  The key is the exact
# matrix the eigensolver would see, so a hit returns what a fresh eigh would.
_scan_basis = None
_scan_lower = None


def _init_scan_worker(basis):
    global _scan_basis, _scan_lower
    _scan_basis = basis
    _scan_lower = None


def _lower_eig(ham):
    """Eigendecomposition of ``ham.lower_block``, reused while it repeats."""
    global _scan_lower
    key = ham.lower_block.tobytes()
    if _scan_lower is None or _scan_lower[0] != key:
        dec = eigh(ham.lower_block)
        dec.eigenvalues.flags.writeable = False
        dec.eigenvectors.flags.writeable = False
        _scan_lower = (key, dec)
    return _scan_lower[1]


def _scan_point(task):
    base, assignments, with_oracle = task
    pdict = copy.deepcopy(base)
    for key, value in assignments:
        _apply_param_key(pdict, key, value)
    params = _params_from_config(pdict)
    ham = build_hamiltonian(params, basis=_scan_basis)
    arrow = to_arrowhead(ham, lower=_lower_eig(ham))
    report = detect(arrow)
    oracle = None
    if with_oracle:
        brute = brute_force_dark_states(ham)
        agrees, _ = reports_agree(report, brute)
        oracle = bool(agrees)
    return report.total_dark, report.rank_margin, oracle


def _grid_axes(cfg):
    if "grid" not in cfg:
        raise ConfigError("scan config needs a grid section")
    if not isinstance(cfg["grid"], list):
        raise ConfigError("scan grid must be a list of axes")
    axes = []
    for ax in cfg["grid"]:
        if not isinstance(ax, dict) or not isinstance(ax.get("key"), str):
            raise ConfigError("each grid axis needs a key")
        try:
            if "values" in ax:
                values = [float(v) for v in ax["values"]]
            else:
                values = np.linspace(
                    float(ax["start"]), float(ax["stop"]), int(ax["num"])
                ).tolist()
        except KeyError as exc:
            raise ConfigError(
                f"grid axis {ax['key']!r} needs values or start/stop/num"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad grid axis {ax['key']!r}: {exc}") from exc
        axes.append((ax["key"], values))
    return axes


def cmd_scan(cfg, out_dir, seed, workers=1):
    base = cfg.get("params")
    if not isinstance(base, dict) or "g" not in base:
        raise ConfigError("scan config needs a params section with g")
    if "excitation" not in cfg:
        raise ConfigError("scan config needs an excitation number")
    basis = _config_subspace(cfg, _params_from_config(base).n_atoms)
    axes = _grid_axes(cfg)
    keys = [k for k, _ in axes]
    if axes:
        points = list(itertools.product(*(vals for _, vals in axes)))
    else:
        points = []  # empty grid -> empty table

    n_oracle = _config_int(cfg, "oracle_samples", 0)
    sampled = set()
    if n_oracle > 0:
        rng = np.random.default_rng(seed)
        sampled = set(
            rng.choice(len(points), size=min(n_oracle, len(points)), replace=False)
        )

    tasks = [
        (base, list(zip(keys, point)), i in sampled)
        for i, point in enumerate(points)
    ]
    # The basis reaches each worker once, not with every task.
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_scan_worker, initargs=(basis,)
        ) as pool:
            results = list(pool.map(_scan_point, tasks))
    else:
        _init_scan_worker(basis)
        results = [_scan_point(t) for t in tasks]

    with open(out_dir / "scan.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*keys, "dark_count", "rank_margin", "oracle_agrees"])
        for point, (count, margin, oracle) in zip(points, results):
            writer.writerow(
                [
                    *(repr(float(v)) for v in point),
                    count,
                    "" if margin is None else repr(margin),
                    "" if oracle is None else int(oracle),
                ]
            )

    counts = [r[0] for r in results]
    histogram = {}
    for c in counts:
        histogram[c] = histogram.get(c, 0) + 1
    oracle_checked = [r[2] for r in results if r[2] is not None]
    all_agree = all(oracle_checked) if oracle_checked else True

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "scan",
        "config": cfg,
        "seed": seed,
        "points": len(points),
        "dark_count_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "oracle_checked": len(oracle_checked),
        "oracle_all_agree": all_agree,
    }
    _write_report(out_dir, report)

    lines = [
        f"scan: {len(points)} grid points over {', '.join(keys)} "
        f"(excitation {basis.excitation})",
        "dark count histogram: "
        + ", ".join(f"{k} darks x {v}" for k, v in sorted(histogram.items())),
        f"cross-checked points: {len(oracle_checked)} "
        f"(agreement: {'yes' if all_agree else 'NO'})",
    ]
    _write_summary(out_dir, lines)
    return 0 if all_agree else 1


# --------------------------------------------------------------------- main


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cavitydark",
        description="Dark states of dipole-coupled atoms in a lossy cavity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "analyze": "detect dark states on one excitation subspace",
        "simulate": "integrate the photon-loss master equation",
        "geometry": "derive couplings from atom positions and analyze",
        "scan": "dark-state detection over a parameter grid",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON run configuration")
        if name == "simulate":
            p.add_argument(
                "--preset",
                help="bundled scenario name (see README); exclusive with --config",
            )
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            dest="overrides",
            metavar="KEY=VALUE",
            help="override a config entry (repeatable), e.g. params.kappa=0.5",
        )
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized subsampling")
        if name == "scan":
            p.add_argument("--workers", type=int, default=None,
                           help="worker processes for grid points")
    return parser


_DISPATCH = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "geometry": cmd_geometry,
    "scan": cmd_scan,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        preset = getattr(args, "preset", None)
        if preset and args.config:
            raise ConfigError("pass either --config or --preset, not both")
        if preset:
            cfg = _load_preset(preset)
            cfg["preset"] = preset
        elif args.config:
            cfg = _load_json(args.config)
        else:
            raise ConfigError("a --config file (or --preset) is required")
        for assignment in args.overrides:
            _apply_override(cfg, assignment)
        _validate_header(cfg)
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "scan":
            workers = args.workers
            if workers is None:
                workers = _config_int(cfg, "workers", 1)
            if workers < 1:
                raise ConfigError(f"workers must be at least 1, got {workers}")
            return cmd_scan(cfg, out_dir, args.seed, workers=workers)
        return _DISPATCH[args.command](cfg, out_dir, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
