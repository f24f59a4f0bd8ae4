"""Command-line interface.

Four commands, all driven by JSON configs carrying ``"schema_version": 1``
and an explicit ``"units": "g1"`` declaration (all rates are measured in
units of the first atom's cavity coupling):

* ``analyze``  -- dark-state detection on one excitation subspace, with the
  independent eigenspace cross-check; exits non-zero if the routes disagree.
* ``simulate`` -- photon-loss master-equation run; writes the population
  trajectory and integrity metrics.  ``--preset`` loads a bundled scenario.
* ``geometry`` -- derive couplings from atom positions, then analyze.
* ``scan``     -- dark-state detection over a parameter grid, cut into
  contiguous shares: the first runs in this process, each further one in a
  forked worker.  The cross-check runs on a seeded subsample of grid points.

Outputs (``report.json``, ``trajectory.csv``, ``scan.csv``, ``summary.txt``)
are byte-identical across repeated runs with the same config and seed: no
timestamps, no machine info, sorted JSON keys, LF line endings.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import pickle
import re
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .arrowhead import to_arrowhead
from .basis import enumerate_subspace, ladder_spaces
from .config import ConfigError, check, numbers, read
from .darkstates import (
    analyze_subspace,
    brute_force_dark_states,
    cluster_ranks,
    detect,
    reports_agree,
)
from .hamiltonian import (
    ScaleError,
    SystemParams,
    build_hamiltonian,
    uniform_dipole_matrix,
)
from .linalg import eigh

# dynamics, states and geometry are imported by the commands that run them,
# so analyze and scan do not pay for their import

SCHEMA_VERSION = 1

#: most points a scan grid may have, counted before any axis is built
MAX_GRID_POINTS = 10**6
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


def _validate_header(cfg, keys):
    """Refuse a config without the header, or with a top-level key that is
    neither in ``keys`` nor a header, description or --preset key."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # not True or 1.0
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    if cfg.get("units") != "g1":
        raise ConfigError('config must declare "units": "g1"')
    unknown = set(cfg) - keys - {"schema_version", "units", "description", "preset"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")


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
            n_atoms=read(d, "n_atoms", default=len(d["g"])),
            delta_a=read(d, "delta_a"),
            g=numbers("g", d["g"]),
            V=numbers("V", d.get("V", 0.0)),
            kappa=read(d, "kappa"),
            omega_a=read(d, "omega_a"),
            omega_c=read(d, "omega_c"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad params section: {exc}") from exc


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


def _analysis_output(result):
    """Report entries and summary lines of an :class:`AnalysisResult`, shared
    by ``analyze`` and ``geometry``."""
    det, brute = result.detected, result.brute_force
    entries = {
        "agreement": {
            "agrees": result.agrees,
            "max_principal_angle": result.angle,
        },
        "detected": det.to_dict(),
        "brute_force": brute.to_dict(),
    }
    lines = ["dressed clusters (eigenvalue, size, rank, dark):"]
    for c in det.clusters:
        lines.append(
            f"  {_fmt(c.eigenvalue):>14}  size {c.size}  rank {c.rank}  "
            f"dark {c.dark_dim}"
        )
    lines.append(
        f"dark states: detected={det.total_dark}, cross-check={brute.total_dark}, "
        f"agreement={'yes' if result.agrees else 'NO'}"
    )
    return entries, lines


# ------------------------------------------------------------------ analyze


def cmd_analyze(cfg, out_dir):
    params = _params_from_config(cfg.get("params"))
    basis = _subspace(params.n_atoms, read(cfg, "excitation", "analyze config"))
    result = analyze_subspace(params, basis)
    det = result.detected
    entries, analysis_lines = _analysis_output(result)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "config": cfg,
        **entries,
    }
    _write_report(out_dir, report)

    lines = [
        f"analyze: N={basis.n_atoms} atoms, excitation {basis.excitation} "
        f"(dim {basis.dim} = {basis.n_upper} upper + {basis.n_lower} lower)",
        *analysis_lines,
    ]
    lines[-1] += f" (principal angle {_fmt(result.angle)})"
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


def cmd_simulate(cfg, out_dir):
    from .dynamics import IntegrationError, min_eigenvalue, simulate
    from .states import resolve_state, spec_min_excitation

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
    if not watch_cfg:
        raise ConfigError("simulate needs at least one watch state to record")
    try:
        n_max = read(cfg, "n_max", default=spec_min_excitation(cfg["initial"]))
        ladder = ladder_spaces(params.n_atoms, n_max)
        initial = resolve_state(ladder, params, cfg["initial"])
        watch = {}
        for entry in watch_cfg:
            name = entry.get("name")
            if not name or name in watch:
                raise ConfigError(f"watch entries need unique names, got {name!r}")
            watch[name] = resolve_state(ladder, params, entry["state"])
        trajectory = simulate(params, ladder, initial, watch,
                              t_max=read(cfg, "t_max"), dt=read(cfg, "dt"))
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError:
        raise  # a numerical fault, not a malformed config
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    trajectory.to_csv(out_dir / "trajectory.csv")

    top = build_hamiltonian(params, ladder.subspaces[n_max])
    top_clusters, _ = cluster_ranks(to_arrowhead(top))
    top_dark = sum(c.dark_dim for c in top_clusters)
    final_min_eigenvalue = min_eigenvalue(trajectory.final_state)
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
    _write_report(out_dir, report)

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
    _write_summary(out_dir, lines)
    return 0


# ----------------------------------------------------------------- geometry


def cmd_geometry(cfg, out_dir):
    from .geometry import AtomGeometry, cardano_discriminant, params_from_geometry

    if "geometry" not in cfg:
        raise ConfigError("geometry config needs a geometry section")
    try:
        geo = AtomGeometry.from_dict(cfg["geometry"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad geometry section: {exc}") from exc
    profile = cfg.get("axial_profile", "linear")
    try:
        params = params_from_geometry(
            geo,
            delta_a=read(cfg, "delta_a", default=0.0),
            kappa=read(cfg, "kappa"),
            axial_profile=profile,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    g, V = params.g, params.V
    basis = _subspace(geo.n_atoms, read(cfg, "excitation", default=1))
    result = analyze_subspace(params, basis)

    disc = None
    if geo.n_atoms == 3:
        disc = cardano_discriminant(V[0, 1], V[0, 2], V[1, 2]).to_dict()

    entries, analysis_lines = _analysis_output(result)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "geometry",
        "config": cfg,
        "derived": {"params": params.to_dict(), "axial_profile": profile},
        "discriminant": disc,
        **entries,
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
    _write_summary(out_dir, lines + analysis_lines)
    return 0 if result.agrees else 1


# --------------------------------------------------------------------- scan


_GRID_INDEX = re.compile(r"g\[(\d+)\]|V\[(\d+)\]\[(\d+)\]")


def _grid_setter(key, n_atoms):
    """Parse a grid key into ``(field, index)``: a whole params field
    (``delta_a``, ``kappa`` or ``V``; index None), an entry ``g[i]`` (index
    i) or a symmetric pair ``V[j][k]`` (index (j, k))."""
    if key in ("delta_a", "kappa", "V"):
        return key, None
    m = _GRID_INDEX.fullmatch(key)
    if m is None:
        raise ConfigError(f"unknown grid key {key!r}")
    if m.group(1) is not None:
        i = int(m.group(1))
        if not 0 <= i < n_atoms:
            raise ConfigError(f"grid key {key!r}: index out of range")
        return "g", i
    j, k = int(m.group(2)), int(m.group(3))
    if j == k or not (0 <= j < n_atoms and 0 <= k < n_atoms):
        raise ConfigError(f"grid key {key!r}: bad index pair")
    return "V", (j, k)


def _point_params(base, setters, point):
    """``base`` with one grid point's values set in axis order, validated as
    the base params were."""
    fields = {"g": base.g.copy(), "V": base.V.copy()}
    for (name, index), value in zip(setters, point):
        if index is None:
            fields[name] = value
        elif name == "g":
            fields["g"][index] = value
        else:
            if np.ndim(fields["V"]) == 0:  # an earlier axis set V as a whole
                fields["V"] = uniform_dipole_matrix(base.n_atoms, fields["V"])
            j, k = index
            fields["V"][j, k] = fields["V"][k, j] = value
    try:
        return replace(base, **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params section: {exc}") from exc


def _scan_point(task, grid, memo):
    """``(dark count, rank margin, oracle verdict)`` of one grid point.

    ``grid`` is what every point shares: (subspace basis, validated base
    params, parsed grid setters).  ``memo`` is its share's one-entry memo of
    the lower block, {block bytes: read-only eigh pair (w, Q)}.  The lower
    block does not depend on g, so along a run of points at one V it is
    diagonalized once per share, not once per point; the key is the exact
    matrix the eigensolver would see, so a hit returns what a fresh eigh
    would.  Only the rank pass runs, unless the point is in the oracle
    sample: then the full :func:`detect` gives the dark vectors the oracle
    compares with, and the verdict is not None.
    """
    point, with_oracle = task
    basis, base, setters = grid
    ham = build_hamiltonian(_point_params(base, setters, point), basis)
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


def _shares(tasks, workers):
    """``tasks`` cut into at most ``workers`` contiguous, non-empty shares of
    about equal cost: each task joins the share its cost midpoint falls in.
    An oracle point counts as four rank-only points (a ratio of about 3.9
    measured on the benchmark's N = 10 grid).  No tasks give no shares."""
    cost = np.array([4 if oracle else 1 for _, oracle in tasks])
    owner = (np.cumsum(cost) - cost / 2) * workers // cost.sum()
    bounds = np.searchsorted(owner, np.arange(workers + 1)).tolist()
    return [tasks[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]


def _run_share(share, grid):
    """``(True, results)`` of a share, or ``(False, exception)`` raised at its
    first failing point.  The share starts its own lower-block memo."""
    memo = {}
    try:
        return True, [_scan_point(task, grid, memo) for task in share]
    except Exception as exc:
        return False, exc


def _fork_join(shares, grid):
    """Results of every share in share order.  The first share runs here, each
    other one in a forked child that pickles its outcome into a pipe: one
    share forks nothing, and no share gives no results.  The first failure in
    grid order is raised; a child that ends without an outcome raises
    ChildProcessError naming its exit status or signal, and a failed pipe or
    fork raises its OSError once the started children are reaped."""
    sys.stdout.flush()
    sys.stderr.flush()
    children, outcomes = [], []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child never returns into the caller
                code = 1
                try:
                    with os.fdopen(write_fd, "wb") as fh:
                        pickle.dump(_run_share(share, grid), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd))
        if shares:
            outcomes.append(_run_share(shares[0], grid))
    finally:  # every pipe read to EOF and every child reaped, whatever happened
        for pid, read_fd in children:
            with os.fdopen(read_fd, "rb") as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            lost = ChildProcessError(f"a scan worker ended without a result ({how})")
            outcomes.append(pickle.loads(data) if data and code == 0 else (False, lost))
    for ok, value in outcomes:
        if not ok:
            raise value
    return [result for _, value in outcomes for result in value]


def _cpus():
    """CPUs this process may run on: its affinity set where the platform has
    one, else the machine's count (None if unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _grid_axes(cfg):
    """``[(key, values)]`` of the scan grid, refused above ``MAX_GRID_POINTS``
    points before any axis is built."""
    if "grid" not in cfg:
        raise ConfigError("scan config needs a grid section")
    if not isinstance(cfg["grid"], list):
        raise ConfigError("scan grid must be a list of axes")
    axes = []
    for ax in cfg["grid"]:
        if not isinstance(ax, dict) or not isinstance(ax.get("key"), str):
            raise ConfigError("each grid axis needs a key")
        try:
            if "values" not in ax:  # (start, stop, num): spread once the grid fits
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
    excitation = read(cfg, "excitation", "scan config")
    params = _params_from_config(cfg.get("params"))
    basis = _subspace(params.n_atoms, excitation)
    axes = _grid_axes(cfg)
    keys = [k for k, _ in axes]
    setters = [_grid_setter(k, params.n_atoms) for k in keys]
    if axes:
        points = list(itertools.product(*(vals for _, vals in axes)))
    else:
        points = []  # empty grid -> empty table

    n_oracle = read(cfg, "oracle_samples")
    if seed < 0:
        raise ConfigError(f"seed must be at least 0, got {seed}")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    # the standard library's sampler: numpy.random would cost every scan
    # process its import time and memory
    import random

    k = min(n_oracle, len(points))
    sampled = set(random.Random(seed).sample(range(len(points)), k))

    tasks = [(point, i in sampled) for i, point in enumerate(points)]
    workers = min(workers, _cpus() or 1) if hasattr(os, "fork") else 1
    try:
        results = _fork_join(_shares(tasks, workers), (basis, params, setters))
    except OSError as exc:  # a failed pipe or fork, or a lost worker
        print(f"scan failed: {exc}", file=sys.stderr)
        return 1

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
        if name == "scan":
            p.add_argument("--seed", type=int, default=0,
                           help="seed for randomized subsampling")
            p.add_argument("--workers", type=int, default=1,
                           help="worker processes for grid points")
    return parser


# each command and the top-level config keys it reads
_DISPATCH = {
    "analyze": (cmd_analyze, {"params", "excitation"}),
    "simulate": (cmd_simulate, {"params", "initial", "watch", "n_max", "t_max", "dt"}),
    "geometry": (cmd_geometry,
                 {"geometry", "axial_profile", "delta_a", "kappa", "excitation"}),
    "scan": (cmd_scan, {"params", "excitation", "grid", "oracle_samples"}),
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
        run, keys = _DISPATCH[args.command]
        _validate_header(cfg, keys)
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "scan":
            return cmd_scan(cfg, out_dir, args.seed, args.workers)
        return run(cfg, out_dir)
    except (ConfigError, ScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
