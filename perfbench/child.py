"""One CLI invocation, as the benchmark harness starts it.

    python3 perfbench/child.py RESULT.json [--trace] -- <cavitydark arguments>

Imports ``cavitydark.cli``, runs ``main`` on the arguments after ``--`` and
writes RESULT.json with the exit code and the process's own peak resident
memory.  With ``--trace`` it first wraps the package's public functions at
every module attribute that binds them (callers look functions up in their
own module's namespace) and adds the recorded spans and call counts.  Spans
are kept in memory and written once, after ``main`` returns.  Timestamps use
``time.perf_counter``, the system-wide monotonic clock, so the harness can
set them against its own measurement of the process's wall time.
"""

import functools
import importlib
import json
import resource
import sys
import time

# (module, function) -> span name.  A span name is "<layer>.<operation>".
SPANS = {
    ("cavitydark.cli", "main"): "cli.main",
    ("cavitydark.cli", "_scan_point"): "cli.scan_point",
    ("cavitydark.cli", "_write_report"): "cli.report",
    ("cavitydark.cli", "_write_summary"): "cli.report",
    ("cavitydark.dynamics", "simulate"): "dynamics.simulate",
    ("cavitydark.dynamics", "build_ladder_hamiltonian"): "dynamics.operators",
    ("cavitydark.dynamics", "lowering_operator"): "dynamics.operators",
    ("cavitydark.dynamics", "excitation_diagonal"): "dynamics.operators",
    ("cavitydark.kernels", "evolve"): "kernels.evolve",
    ("cavitydark.basis", "ladder_spaces"): "basis.ladder",
    ("cavitydark.states", "resolve_state"): "states.resolve",
    ("cavitydark.hamiltonian", "build_hamiltonian"): "hamiltonian.build",
    ("cavitydark.arrowhead", "to_arrowhead"): "arrowhead.to_arrowhead",
    ("cavitydark.darkstates", "detect"): "darkstates.detect",
    ("cavitydark.darkstates", "brute_force_dark_states"): "darkstates.oracle",
    ("cavitydark.darkstates", "reports_agree"): "darkstates.agree",
    ("cavitydark.linalg", "eigh"): "linalg.eigh",
    ("cavitydark.linalg", "rank_and_nullspace"): "linalg.rank_nullspace",
}
# Called too often for a span each; only counted.
COUNTS = {("cavitydark.hamiltonian", "matrix_element"): "hamiltonian.matrix_element"}


class Tracer:
    """Spans as [name, start, end, parent index], plus call counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), None, parent]
            self.spans.append(record)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()
        return wrapper

    def counter(self, name, fn):
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _rebind(old, new):
    """Point every global of a loaded cavitydark module that holds ``old``
    at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.partition(".")[0] != "cavitydark":
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer):
    for table, make in ((SPANS, tracer.span), (COUNTS, tracer.counter)):
        for (mod_name, fn_name), name in table.items():
            fn = getattr(importlib.import_module(mod_name), fn_name, None)
            if fn is not None:
                _rebind(fn, make(name, fn))
    # a class attribute, so the module-level rebinding above does not reach it
    traj = importlib.import_module("cavitydark.dynamics").Trajectory
    traj.to_csv = tracer.span("dynamics.csv", traj.to_csv)


def main():
    result_path, rest = sys.argv[1], sys.argv[2:]
    split = rest.index("--")
    trace = "--trace" in rest[:split]
    cli_args = rest[split + 1:]

    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    import cavitydark.cli as cli
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.spans.append(["cli.import", t0, t1, -1])
        install(tracer)
    code = cli.main(cli_args)

    out = {"exit_code": code,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
