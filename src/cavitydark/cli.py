"""Command-line interface.

Three commands, all driven by JSON configs carrying ``"schema_version": 1``
and an explicit ``"units": "g1"`` declaration (all rates are measured in
units of the first atom's cavity coupling).  Each object of a config (the
top level, ``params``, the ``geometry`` section, watch entries, grid axes,
state specs) takes only the keys ``config.OBJECTS`` lists for it; any other
key is a configuration error (exit 2) naming the object and the key.  Each
command reads its system from exactly one of a ``params`` section or a
``geometry`` placement, from which g and V are derived:

* ``analyze``  -- dark-state detection on one excitation subspace, with the
  independent eigenspace cross-check; exits non-zero if the routes disagree.
  On a placement it also reports the derived params (and for three atoms the
  Cardano discriminant).
* ``simulate`` -- photon-loss master-equation run; writes the population
  trajectory and integrity metrics.  ``--preset`` loads a bundled scenario.
* ``scan``     -- dark-state detection over a parameter grid, point by point
  in grid order on the calling thread, with one lower-block memo for the
  whole grid.  The cross-check runs on a seeded subsample of grid points.
  ``--workers`` is accepted (at least 1) and changes nothing.

Each command returns its exit code, report body and summary lines; ``main``
adds the shared header (``schema_version``, ``command``, ``config``) and
writes ``report.json`` and ``summary.txt``, after any CSV the command wrote.
A ``simulate`` run whose integration fails writes neither.

Outputs (``report.json``, ``trajectory.csv``, ``scan.csv``, ``summary.txt``)
are byte-identical across repeated runs with the same config, seed and BLAS
thread count: no timestamps, no machine info, sorted JSON keys, LF line
endings.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import re
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .arrowhead import to_arrowhead
from .basis import enumerate_subspace, ladder_spaces
from .config import ConfigError, check, check_object, numbers, read
from .darkstates import brute_force_dark_states, cluster_ranks, detect, reports_agree
from .hamiltonian import ScaleError, SystemParams, build_hamiltonian
from .linalg import eigh

# dynamics and states are imported by simulate, and geometry by a config that
# places atoms, so the other runs do not pay for their import

SCHEMA_VERSION = 1

#: most points a scan grid may have, counted before any axis is built
MAX_GRID_POINTS = 10**6
#: a dark state's summary line lists each basis state whose |amplitude| in
#: the unit-norm vector exceeds this
SHOWN_AMPLITUDE = 1e-9
#: most containers a config may nest one inside another; a run reads at most
#: 6 (top level, watch, entry, state, amplitudes, [re, im]), and the report's
#: writer recurses once per level
MAX_CONFIG_DEPTH = 100
_SPAN = ("start", "stop", "num")

__all__ = ["main", "ConfigError"]


# ----------------------------------------------------------------- config IO


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to read") from None


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
    except RecursionError:
        raise ConfigError(f"override {path!r} nests too deeply to read") from None
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


def _refuse_deep(cfg):
    """ConfigError if ``cfg`` nests more than ``MAX_CONFIG_DEPTH`` containers
    deep; read level by level, so that no depth recurses."""
    level = [cfg]
    for _ in range(MAX_CONFIG_DEPTH):
        level = [v for node in level if isinstance(node, (dict, list))
                 for v in (node.values() if isinstance(node, dict) else node)]
    if any(isinstance(node, (dict, list)) for node in level):
        raise ConfigError(f"config nests more than {MAX_CONFIG_DEPTH} levels deep")


def _validate_header(cfg, command):
    """Refuse a config without the header, or with a top-level key that
    ``command`` does not take."""
    check_object(f"{command} config", cfg)
    version = cfg.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # not True or 1.0
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    if cfg.get("units") != "g1":
        raise ConfigError('config must declare "units": "g1"')


def _system_params(cfg):
    """``(params, derived)`` of a run config: its ``params`` section and None,
    or the params derived from its ``geometry`` placement and the report's
    ``derived`` entry."""
    if "params" in cfg:
        d = cfg["params"]
        check_object("params", d)
        if "g" not in d:
            raise ConfigError("params section needs the coupling vector g")
        try:
            return SystemParams(
                n_atoms=read(d, "n_atoms", default=len(d["g"])),
                delta_a=read(d, "delta_a"),
                g=numbers("g", d["g"]),
                V=numbers("V", d.get("V", 0.0)),
                kappa=read(d, "kappa"),
                omega_a=read(d, "omega_a"),
                omega_c=read(d, "omega_c"),
            ), None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad params section: {exc}") from exc
    from .geometry import AtomGeometry, params_from_geometry

    profile = cfg.get("axial_profile", "linear")
    delta_a, kappa = read(cfg, "delta_a", default=0.0), read(cfg, "kappa")
    try:
        params = params_from_geometry(AtomGeometry.from_dict(cfg["geometry"]),
                                      delta_a=delta_a, kappa=kappa,
                                      axial_profile=profile)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad geometry section: {exc}") from exc
    return params, {"params": params.to_dict(), "axial_profile": profile}


def _subspace(n_atoms, excitation):
    """Basis of one excitation subspace, a config error if there is none."""
    try:
        return enumerate_subspace(n_atoms, excitation)
    except ValueError as exc:
        raise ConfigError(f"bad excitation subspace: {exc}") from exc


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


# ------------------------------------------------------------------ analyze


def cmd_analyze(cfg, out_dir):
    params, derived = _system_params(cfg)
    basis = _subspace(params.n_atoms, read(cfg, "excitation", "analyze config"))
    ham = build_hamiltonian(params, basis)
    det = detect(to_arrowhead(ham)).canonical()
    brute = brute_force_dark_states(ham).canonical()
    agrees, angle = reports_agree(det, brute)
    report = {"agreement": {"agrees": agrees, "max_principal_angle": angle},
              "detected": det.to_dict(), "brute_force": brute.to_dict()}
    lines = [f"analyze: N={basis.n_atoms} atoms, excitation {basis.excitation} "
             f"(dim {basis.dim} = {basis.n_upper} upper + {basis.n_lower} lower)"]
    if derived is not None:
        pairs = params.V[np.triu_indices(params.n_atoms, 1)]  # row by row
        report["derived"], report["discriminant"] = derived, None
        lines += ["derived couplings g: " + ", ".join(map(_fmt, params.g)),
                  "derived interactions V (upper triangle): "
                  + ", ".join(map(_fmt, pairs))]
        if params.n_atoms == 3:
            from .geometry import cardano_discriminant

            disc = report["discriminant"] = cardano_discriminant(*pairs)
            lines.append(f"cubic discriminant: {_fmt(disc['delta'])} "
                         f"(degenerate: {'yes' if disc['degenerate'] else 'no'})")
    lines.append("dressed clusters (eigenvalue, size, rank, dark):")
    for c in det.clusters:
        lines.append(
            f"  {_fmt(c.eigenvalue):>14}  size {c.size}  rank {c.rank}  "
            f"dark {c.dark_dim}"
        )
    lines.append(
        f"dark states: detected={det.total_dark}, cross-check={brute.total_dark}, "
        f"agreement={'yes' if agrees else 'NO'} (principal angle {_fmt(angle)})"
    )
    labels = basis.labels()
    for k, eigenvalue in enumerate(det.eigenvalues):
        amps = det.vectors[:, k]
        shown = [
            f"{labels[i]}: {amps[i].real:+.6f}"
            for i in np.flatnonzero(np.abs(amps) > SHOWN_AMPLITUDE)
        ]
        lines.append(
            f"dark state {k + 1} (eigenvalue {_fmt(eigenvalue)}): "
            + ", ".join(shown)
        )
    return (0 if agrees else 1), report, lines


# ----------------------------------------------------------------- simulate


_WATCH_SHAPE = "watch must be a list of objects with a string name and a state"


def cmd_simulate(cfg, out_dir):
    from .dynamics import (
        IntegrationError,
        build_ladder_hamiltonian,
        min_eigenvalue,
        simulate,
    )
    from .states import dark_reports, resolve_state, spec_min_excitation

    params, _ = _system_params(cfg)
    if "initial" not in cfg:
        raise ConfigError("simulate config needs an initial state")
    watch_cfg = cfg.get("watch", [])
    if not isinstance(watch_cfg, list):
        raise ConfigError(_WATCH_SHAPE)
    if not watch_cfg:
        raise ConfigError("simulate needs at least one watch state to record")
    try:
        n_max = read(cfg, "n_max", default=spec_min_excitation(cfg["initial"]))
        ladder = ladder_spaces(params.n_atoms, n_max)
        hamiltonians = build_ladder_hamiltonian(params, ladder)
        dark_report = dark_reports(hamiltonians)
        initial = resolve_state(ladder, params, cfg["initial"], dark_report)
        watch = {}
        for entry in watch_cfg:
            check_object("watch entry", entry)
            name = entry.get("name")
            if not isinstance(name, str) or "state" not in entry:
                raise ConfigError(_WATCH_SHAPE)
            if not name or name in watch:
                raise ConfigError(f"watch entries need unique names, got {name!r}")
            watch[name] = resolve_state(ladder, params, entry["state"], dark_report)
        trajectory = simulate(params, ladder, hamiltonians, initial, watch,
                              t_max=read(cfg, "t_max"), dt=read(cfg, "dt"))
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1, None, None
    except np.linalg.LinAlgError:
        raise  # a numerical fault, not a malformed config
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    trajectory.to_csv(out_dir / "trajectory.csv")

    top_dark = dark_report(n_max).total_dark
    final_min_eigenvalue = min_eigenvalue(trajectory.final_state)
    report = {
        "grid": {
            "dt": trajectory.dt,
            "steps": len(trajectory.times) - 1,
            "t_max": float(trajectory.times[-1]),
        },
        "integrity": {
            "trace_drift": trajectory.trace_drift,
            "hermiticity_drift": trajectory.hermiticity_drift,
            "final_min_eigenvalue": final_min_eigenvalue,
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
        "top_subspace_dark_count": top_dark,
    }

    lines = [
        f"simulate: N={params.n_atoms} atoms, ladder 0..{n_max} "
        f"(dim {ladder.dim})",
        f"steps={len(trajectory.times) - 1}, dt={_fmt(trajectory.dt)}, "
        f"t_max={_fmt(float(trajectory.times[-1]))}",
        f"trace drift: {_fmt(trajectory.trace_drift)}",
        f"hermiticity drift: {_fmt(trajectory.hermiticity_drift)}",
        f"final min eigenvalue: {_fmt(final_min_eigenvalue)}",
        f"excitation: {_fmt(float(trajectory.excitation[0]))} -> "
        f"{_fmt(float(trajectory.excitation[-1]))} "
        f"(max rise {_fmt(trajectory.max_excitation_rise)})",
        f"a-priori truncation bound: {_fmt(trajectory.convergence_error)}",
        f"dark states in top subspace: {top_dark}",
        "final populations:",
    ]
    for name in trajectory.names:
        lines.append(f"  {name:<12} {trajectory.populations[name][-1]:.6f}")
    return 0, report, lines


# --------------------------------------------------------------------- scan


def _grid_cells(key, n_atoms):
    """The params cells ``{(field, index)}`` a grid key writes, read with the
    ``--set`` path grammar: ``delta_a`` or ``kappa`` (index None), ``g[i]``
    (index i), ``V[j][k]`` (both (j, k) and (k, j)) or ``V`` (every pair
    j != k)."""
    try:  # no grid key holds a dot: each names params cells directly
        tokens = _parse_path(key) if "." not in key else None
    except ConfigError:
        tokens = None
    match tokens:
        case ["delta_a" | "kappa" as name]:
            return {(name, None)}
        case ["V"]:
            return {("V", (j, k)) for j in range(n_atoms) for k in range(n_atoms)
                    if j != k}
        case ["g", int(i)]:
            if not 0 <= i < n_atoms:
                raise ConfigError(f"grid key {key!r}: index out of range")
            return {("g", i)}
        case ["V", int(j), int(k)]:
            if j == k or not (0 <= j < n_atoms and 0 <= k < n_atoms):
                raise ConfigError(f"grid key {key!r}: bad index pair")
            return {("V", (j, k)), ("V", (k, j))}
    raise ConfigError(f"unknown grid key {key!r}")


def _refuse_unused_axes(keys, cells, n_atoms):
    """ConfigError if no point uses an axis's values: the axis writes no cell
    (a whole ``V`` on one atom), or later axes write every cell it writes."""
    for i, key in enumerate(keys):
        if not cells[i]:
            raise ConfigError(f"grid key {key!r} sets nothing on {n_atoms} atom(s)")
        if cells[i] <= set().union(*cells[i + 1 :]):
            later = [k for k, c in zip(keys[i + 1 :], cells[i + 1 :]) if c & cells[i]]
            raise ConfigError(f"grid key {key!r} is overwritten by later grid key "
                              f"{', '.join(map(repr, later))}")


def _point_params(base, cells, point):
    """``base`` with one grid point's values written into its cells in axis
    order, validated as the base params were."""
    fields = {"g": base.g.copy(), "V": base.V.copy()}
    for written, value in zip(cells, point):
        for name, index in written:
            if index is None:
                fields[name] = value
            else:
                fields[name][index] = value
    try:
        return replace(base, **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params section: {exc}") from exc


def _scan_point(params, basis, memo, with_oracle):
    """``(dark count, rank margin, oracle verdict)`` of one grid point.

    ``memo`` is the scan's one-entry memo of the lower block, {block bytes:
    read-only eigh pair (w, Q)}.  The lower block does not depend on g, so
    along a run of points at one V it is diagonalized once, not once per
    point; the key is the exact matrix the eigensolver would see, so a hit
    returns what a fresh eigh would.  Only the rank pass runs, unless
    ``with_oracle``: then the full :func:`detect` gives the dark vectors the
    oracle compares with, and the verdict is not None.
    """
    ham = build_hamiltonian(params, basis)
    key = ham.lower_block.tobytes()
    if key not in memo:
        w, Q = eigh(ham.lower_block)
        w.flags.writeable = Q.flags.writeable = False
        memo.clear()
        memo[key] = (w, Q)
    arrow = to_arrowhead(ham, lower=memo[key])
    if with_oracle:
        report = detect(arrow)
        agrees, _ = reports_agree(report, brute_force_dark_states(ham))
        return report.total_dark, report.rank_margin, bool(agrees)
    clusters, rank_margin = cluster_ranks(arrow)
    return sum(c.dark_dim for c in clusters), rank_margin, None


def _grid_axes(cfg):
    """``[(key, values)]`` of the scan grid, refused above ``MAX_GRID_POINTS``
    points before any axis is built."""
    if "grid" not in cfg:
        raise ConfigError("scan config needs a grid section")
    if not isinstance(cfg["grid"], list):
        raise ConfigError("scan grid must be a list of axes")
    axes = []
    for ax in cfg["grid"]:
        form = check_object("grid axis", ax)
        if not isinstance(ax.get("key"), str):
            raise ConfigError("each grid axis needs a key")
        try:
            if form == "start":  # (start, stop, num): spread once the grid fits
                axes.append((ax["key"], tuple(read(ax, k, "axis") for k in _SPAN)))
            elif isinstance(ax["values"], list):
                axes.append((ax["key"], [check("values", v) for v in ax["values"]]))
            else:
                raise ConfigError(f"values must be a list, got {ax['values']!r}")
        except ConfigError as exc:
            raise ConfigError(f"bad grid axis {ax['key']!r}: {exc}") from exc
    n_points = math.prod(len(v) if isinstance(v, list) else v[2] for _, v in axes)
    if n_points > MAX_GRID_POINTS:
        raise ConfigError(f"scan grid has {n_points} points, more than the "
                          f"{MAX_GRID_POINTS} allowed")
    return [(key, v if isinstance(v, list) else np.linspace(*v).tolist())
            for key, v in axes]


def cmd_scan(cfg, out_dir, seed, workers):
    if seed < 0:
        raise ConfigError(f"seed must be at least 0, got {seed}")
    if workers < 1:  # checked, but every point runs on the calling thread
        raise ConfigError(f"workers must be at least 1, got {workers}")
    excitation = read(cfg, "excitation", "scan config")
    params, _ = _system_params(cfg)
    basis = _subspace(params.n_atoms, excitation)
    axes = _grid_axes(cfg)
    keys = [k for k, _ in axes]
    cells = [_grid_cells(k, params.n_atoms) for k in keys]
    _refuse_unused_axes(keys, cells, params.n_atoms)
    if axes:
        points = list(itertools.product(*(vals for _, vals in axes)))
    else:
        points = []  # empty grid -> empty table

    n_oracle = read(cfg, "oracle_samples")
    # the standard library's sampler: numpy.random would cost every scan
    # process its import time and memory
    import random

    k = min(n_oracle, len(points))
    sampled = set(random.Random(seed).sample(range(len(points)), k))

    memo = {}
    results = [_scan_point(_point_params(params, cells, point), basis, memo,
                           i in sampled)
               for i, point in enumerate(points)]

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
        "seed": seed,
        "points": len(points),
        "dark_count_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "oracle_checked": len(oracle_checked),
        "oracle_all_agree": all_agree,
    }

    lines = [
        f"scan: {len(points)} grid points over {', '.join(keys)} "
        f"(excitation {basis.excitation})",
        "dark count histogram: "
        + ", ".join(f"{k} darks x {v}" for k, v in sorted(histogram.items())),
        f"cross-checked points: {len(oracle_checked)} "
        f"(agreement: {'yes' if all_agree else 'NO'})",
    ]
    return (0 if all_agree else 1), report, lines


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
        if name == "scan":
            p.add_argument("--seed", type=int, default=0,
                           help="seed for randomized subsampling")
            p.add_argument("--workers", type=int, default=1,
                           help="accepted but inert (must be at least 1): every "
                                "point runs in order on one thread")
    return parser


# each command, returning (exit code, report body or None, summary lines); the
# top-level keys it takes are config.OBJECTS' "<command> config"
_DISPATCH = {"analyze": cmd_analyze, "simulate": cmd_simulate, "scan": cmd_scan}


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
        _refuse_deep(cfg)
        _validate_header(cfg, args.command)
        out_dir = args.out
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {out_dir}: {exc}") from exc
        flags = (args.seed, args.workers) if args.command == "scan" else ()
        code, body, lines = _DISPATCH[args.command](cfg, out_dir, *flags)
        if body is not None:  # None: the run failed before it had a result
            _write_report(out_dir, {"schema_version": SCHEMA_VERSION,
                                    "command": args.command, "config": cfg, **body})
            _write_summary(out_dir, lines)
        return code
    except (ConfigError, ScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
