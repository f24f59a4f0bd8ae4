"""Benchmark of the cavitydark command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measured run is one fresh
``python3 perfbench/child.py ... -- <cavitydark arguments>`` process, which
imports ``cavitydark.cli`` from ``src/`` and calls ``main``.  One client
runs one invocation at a time (a closed loop), with BLAS and OpenMP pinned
to one thread in the processes the harness starts.  The workloads, their
reasons and the defects they expose are in ``perfbench/NOTES.md``.

``--trace 0`` prints the end-to-end metrics: the lower quartile of full
runs' throughput (``work_per_s_p25``: RK4 steps per second on the simulate
workloads, grid points per second on the scan), ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced runs and
prints the per-layer metrics taken from the traced ones.  Every run's
outputs are checked; a run fails when it exits non-zero or an output check
fails.  The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_REPS = 9
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
REFERENCE_TOL = 1e-7
SCAN_HISTOGRAM = {"40": 10, "8": 90}
SCAN_ORACLE_SAMPLES = 24


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple        # cavitydark arguments of one full run, without --out
    setup_argv: tuple  # the same command shrunk to one unit of work
    throughput: str    # name of the throughput in this workload's terms
    workers: int = 1   # scan pool size; the traced run always uses 1

    def command(self, setup=False, workers=None):
        argv = list(self.setup_argv if setup else self.argv)
        if self.argv[0] == "scan":
            argv += ["--workers", str(workers or self.workers)]
        return argv


def workloads(seed):
    scan = ("scan", "--config", "perfbench/workloads/scan_n10.json",
            "--seed", str(seed))
    n6 = ("simulate", "--config", "perfbench/workloads/sim_n6.json")
    fig5b = ("simulate", "--preset", "fig5b")
    return {
        "sim-fig5b": Workload("sim-fig5b", fig5b + ("--set", "t_max=0.5"),
                              fig5b + ("--set", "t_max=0.00125"), "steps_per_s"),
        "sim-n6": Workload("sim-n6", n6, n6 + ("--set", "t_max=0.005"),
                           "steps_per_s"),
        "scan-n10": Workload("scan-n10", scan,
                             scan + ("--set", "grid[0].values=[0.5]",
                                     "--set", "grid[1].num=1"),
                             "points_per_s", workers=2),
    }


# ------------------------------------------------------------------ processes

def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def descendants(pid):
    """Live descendants of a process, read from /proc."""
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found += kids
            todo += kids
    return found


def peak_rss_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class DescendantRss(threading.Thread):
    """Polls the peak resident memory (VmHWM) of a process's descendants,
    such as scan pool workers, every 10 ms until stopped."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.peaks = {}
        self._stop_event = threading.Event()

    def run(self):
        while not self._stop_event.wait(0.01):
            for pid in descendants(self.pid):
                self.peaks[pid] = max(self.peaks.get(pid, 0), peak_rss_kb(pid))

    def stop(self):
        self._stop_event.set()
        self.join()
        return sum(self.peaks.values())


@dataclass
class Invocation:
    argv: list
    out_dir: Path
    wall: float
    exit_code: int
    rss_mb: float = None
    result: dict = field(default_factory=dict)
    stderr: str = ""


def invoke(argv, out_dir, deadline, trace=False):
    """Run one CLI invocation in a fresh interpreter and wait for it and
    everything it started."""
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = out_dir.with_suffix(".result.json")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
           *(["--trace"] if trace else []), "--", *argv, "--out", str(out_dir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    poller = DescendantRss(proc.pid)
    poller.start()
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        stderr += "\nkilled: benchmark deadline reached"
    wall = time.perf_counter() - start
    workers_kb = poller.stop()
    _reap_group(proc.pid)
    inv = Invocation(argv=argv, out_dir=out_dir, wall=wall,
                     exit_code=proc.returncode, stderr=stderr)
    if result_path.is_file():
        inv.result = json.loads(result_path.read_text())
        inv.rss_mb = (inv.result["maxrss_kb"] + workers_kb) * 1024 / 1e6
    return inv


def _reap_group(pgid):
    """Kill and wait out any process left in the invocation's group."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# --------------------------------------------------------------------- checks

class Checks:
    """Counts every output check that ran and every run that failed one."""

    def __init__(self, reference):
        self.reference = reference
        self.ran = {}
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.reference_err = 0.0

    def _check(self, name, ok, problems, message):
        self.ran[name] = self.ran.get(name, 0) + 1
        if not ok:
            problems.append(f"{name}: {message}")

    def verify(self, wl, inv, setup):
        """Check one invocation's exit code and outputs; returns the units of
        work it completed (RK4 steps or grid points)."""
        self.attempted += 1
        problems = []
        self._check("exit_code", inv.exit_code == 0, problems,
                    f"exit code {inv.exit_code}")
        try:
            report = json.loads((inv.out_dir / "report.json").read_text())
        except (OSError, ValueError):
            report = None
        self._check("report", report is not None, problems, "no readable report.json")
        units = 0
        if report is not None:
            try:
                units = self._check_report(wl, report, setup, problems)
            except (KeyError, TypeError) as exc:
                problems.append(f"report: unexpected layout ({exc!r})")
            digest = _digest(inv.out_dir)
            if setup in self.digests:
                self._check("byte_identical", digest == self.digests[setup],
                            problems, "artifacts differ from the first run's")
            else:
                self.digests[setup] = digest
        if problems:
            self.failed += 1
            units = 0
            print(f"FAILED {' '.join(inv.argv)}: {'; '.join(problems)}\n"
                  f"{inv.stderr.strip()}", file=sys.stderr)
        return units

    def _check_report(self, wl, report, setup, problems):
        if wl.argv[0] == "simulate":
            units = 3 * report["grid"]["steps"]
            steps = 1 if setup else self.reference[wl.name]["steps"]
            self._check("grid_steps", units == 3 * steps, problems,
                        f"grid {report['grid']}")
            if not setup:
                ref = self.reference[wl.name]["final_populations"]
                final = report["populations"]["final"]
                err = max(abs(final[k] - v) for k, v in ref.items())
                self.reference_err = max(self.reference_err, err)
                self._check("reference_populations", err <= REFERENCE_TOL, problems,
                            f"final populations differ from the expm reference "
                            f"by {err:.3g}")
            return units
        units = report["points"]
        self._check("scan_points", units == (1 if setup else 100), problems,
                    f"{units} points")
        expect_oracle = 1 if setup else SCAN_ORACLE_SAMPLES
        self._check("oracle_agrees", report["oracle_all_agree"] is True
                    and report["oracle_checked"] == expect_oracle, problems,
                    f"oracle checked {report['oracle_checked']}, "
                    f"all agree {report['oracle_all_agree']}")
        if not setup:
            hist = report["dark_count_histogram"]
            self._check("dark_count_histogram", hist == SCAN_HISTOGRAM, problems,
                        f"{hist}")
        return units


def _digest(out_dir):
    h = hashlib.sha256()
    for name in ("report.json", "trajectory.csv", "scan.csv"):
        path = out_dir / name
        if path.is_file():
            h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -------------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else 0.0


def lower_quartile(values):
    """25th percentile, interpolated between samples (the ``inclusive``
    method of ``statistics.quantiles``, numpy's default)."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def layer_metrics(spans, counts, wall, steps, rows):
    """Per-layer numbers of one traced invocation that made ``steps`` RK4
    steps and wrote ``rows`` trajectory rows."""
    total, calls, child_time = {}, {}, [0.0] * len(spans)
    for name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start

    def self_time(name):
        return sum((end - start - child_time[i]
                    for i, (n, start, end, _) in enumerate(spans) if n == name),
                   0.0)

    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    evolve = total.get("kernels.evolve", 0.0)
    return {
        "kernels.evolve_s": evolve,
        "kernels.us_per_step": 1e6 * evolve / steps if steps else 0.0,
        "kernels.evolve_calls": calls.get("kernels.evolve", 0),
        "dynamics.operators_s": total.get("dynamics.operators", 0.0),
        "dynamics.simulate_self_s": self_time("dynamics.simulate"),
        "dynamics.csv_s": total.get("dynamics.csv", 0.0),
        "dynamics.csv_rows": rows,
        "basis.ladder_s": total.get("basis.ladder", 0.0),
        "states.resolve_s": total.get("states.resolve", 0.0),
        "hamiltonian.build_s": total.get("hamiltonian.build", 0.0),
        "hamiltonian.matrix_element_calls": counts.get("hamiltonian.matrix_element", 0),
        "arrowhead.to_arrowhead_s": total.get("arrowhead.to_arrowhead", 0.0),
        "darkstates.detect_s": total.get("darkstates.detect", 0.0),
        "darkstates.oracle_s": total.get("darkstates.oracle", 0.0),
        "darkstates.oracle_calls": calls.get("darkstates.oracle", 0),
        "darkstates.agree_s": total.get("darkstates.agree", 0.0),
        "linalg.eigh_s": total.get("linalg.eigh", 0.0),
        "linalg.eigh_calls": calls.get("linalg.eigh", 0),
        "linalg.rank_nullspace_s": total.get("linalg.rank_nullspace", 0.0),
        "cli.import_s": total.get("cli.import", 0.0),
        "cli.scan_point_s": total.get("cli.scan_point", 0.0),
        "cli.report_s": total.get("cli.report", 0.0),
        "cli.self_s": self_time("cli.main"),
        "trace.coverage_frac": top / wall,
    }


def measure_end_to_end(wl, seconds, checks, deadline):
    """Rounds of one set-up run and one full run until ``seconds`` have
    passed, then set-up runs up to SETUP_REPS.  Interleaving spreads both
    kinds of run over the whole measured time."""
    setup, rates, rss, rounds = [], [], [], []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start + median(rounds) <= seconds
                         and time.perf_counter() < deadline):
        t0 = time.perf_counter()
        inv = invoke(wl.command(setup=True), WORK / f"setup{len(rounds)}", deadline)
        checks.verify(wl, inv, setup=True)
        setup.append(inv.wall)
        inv = invoke(wl.command(), WORK / f"run{len(rounds)}", deadline)
        units = checks.verify(wl, inv, setup=False)
        rates.append(units / inv.wall)
        if inv.rss_mb is not None:
            rss.append(inv.rss_mb)
        rounds.append(time.perf_counter() - t0)
    while len(setup) < SETUP_REPS and time.perf_counter() < deadline:
        inv = invoke(wl.command(setup=True), WORK / f"setup{len(setup)}", deadline)
        checks.verify(wl, inv, setup=True)
        setup.append(inv.wall)
    summary = {wl.throughput: rates, "setup_s": setup, "peak_rss_mb": rss}
    metrics = {"work_per_s_p25": lower_quartile(rates), "setup_s": median(setup),
               "peak_rss_mb": median(rss)}
    return metrics, summary


def measure_layers(wl, seconds, checks, deadline):
    """Rounds of untraced runs (at 1 and at the workload's pool size) and a
    traced run at 1 worker, until ``seconds`` have passed."""
    untraced = {1: [], wl.workers: []}
    traced, layers = [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + sum(median(w) for w in untraced.values()) + median(traced)
                         <= seconds and time.perf_counter() < deadline):
        k = len(traced)
        for workers in untraced:
            inv = invoke(wl.command(workers=workers), WORK / f"w{workers}_{k}", deadline)
            checks.verify(wl, inv, setup=False)
            untraced[workers].append(inv.wall)
        inv = invoke(wl.command(workers=1), WORK / f"traced{k}", deadline, trace=True)
        units = checks.verify(wl, inv, setup=False)
        traced.append(inv.wall)
        if "spans" in inv.result:
            csv = inv.out_dir / "trajectory.csv"
            rows = len(csv.read_text().splitlines()) - 1 if csv.is_file() else 0
            steps = units if wl.argv[0] == "simulate" else 0
            layers.append(layer_metrics(inv.result["spans"], inv.result["counts"],
                                        inv.wall, steps, rows))
    metrics = {name: median([m[name] for m in layers])
               for name in (layers[0] if layers else layer_metrics([], {}, 1.0, 0, 0))}
    metrics["cli.pool_speedup"] = median(untraced[1]) / median(untraced[wl.workers])
    metrics["trace.overhead_frac"] = median(traced) / median(untraced[1]) - 1.0
    summary = {"untraced_s": untraced, "traced_s": traced}
    return metrics, summary


# ---------------------------------------------------------------- environment

PROBE = """
import json, platform
import numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
try:
    import scipy
    scipy_version = scipy.__version__
except ImportError:
    scipy_version = None
try:
    import numba
    numba_imports = True
except ImportError:
    numba_imports = False
import cavitydark.cli
from cavitydark import kernels
print(json.dumps({
    "python": platform.python_version(),
    "numpy": np.__version__,
    "scipy": scipy_version,
    "blas": {"name": blas.get("name"), "version": blas.get("version")},
    "kernels_backend": kernels.backend(),
    "numba_imports": numba_imports,
    "cli_file": cavitydark.cli.__file__,
}))
"""


def environment():
    """Versions and settings the measurement depends on.  The probe also
    compiles the package's bytecode before anything is timed."""
    probe = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
                           capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        raise SystemExit(f"cannot import cavitydark from {ROOT / 'src'}:\n"
                         f"{probe.stderr.strip()}")
    env = json.loads(probe.stdout)
    if Path(env.pop("cli_file")).resolve().parent != ROOT / "src" / "cavitydark":
        raise SystemExit(f"cavitydark was not imported from {ROOT / 'src'}")
    env["nproc"] = len(os.sched_getaffinity(0))
    env["platform"] = platform.platform()
    env["thread_env"] = {k: child_env().get(k) for k in
                         (*THREAD_ENV, "MKL_NUM_THREADS", "CAVITYDARK_NO_NUMBA")}
    env["git_commit"] = git_commit()
    return env


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout;
    None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ----------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    wl = workloads(args.seed)[args.workload]
    env = environment()
    reference = json.loads((HERE / "workloads/reference.json").read_text())
    checks = Checks(reference)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, summary = measure(wl, args.seconds, checks, deadline)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("environment " + json.dumps(env, sort_keys=True))
    print("checks " + json.dumps(checks.ran, sort_keys=True))
    print("samples " + json.dumps(summary))
    print(f"workload {wl.name}: {checks.attempted} runs, {checks.failed} failed")
    if "reference_populations" in checks.ran:
        print(f"  largest deviation from the expm reference {checks.reference_err:.3g}")
    if not args.trace:
        rates = summary[wl.throughput]
        print(f"  {wl.throughput + ' median':<34} {median(rates):.6g} 1/s "
              f"over {len(rates)} runs")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {UNITS[name]}")
    print(f"  {'error_rate':<34} {checks.failed / checks.attempted:.6g} ratio")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
