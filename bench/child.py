"""One timed `graphflow run` in a fresh interpreter.

Usage: python child.py T0 CONFIG OUTDIR [SPANS]

T0 is the parent's time.monotonic() just before it started this process,
so setup_s covers interpreter start-up and the import of graphflow.cli.
Before graphflow is imported, a fixed kernel that does not touch the
package is timed as calib_s; it is excluded from setup_s, and the parent
uses it to correct both times for the host's speed at that moment.
With SPANS given, the package's public functions are wrapped from outside
(see TRACED) and the spans, all under this process's id as the run id, are
written to that file after the run.  Prints
one JSON object: setup_s, calib_s, run_s, exit_code, peak_rss_mib and the
imported package path.
"""

import importlib
import json
import os
import resource
import sys
import time

# (module, attribute the caller looks up, span name, record len(result))
TRACED = (
    ("graphflow.cli", "parse_config", "cli.parse_config", False),
    ("graphflow.cli", "chart_from_spec", "manifold.chart_from_spec", False),
    ("graphflow.cli", "build_domain", "grid.build_domain", False),
    ("graphflow.cli", "field_from_spec", "cli.field_from_spec", False),
    ("graphflow.cli", "check_dirichlet_solvability",
     "barrier.check_dirichlet_solvability", False),
    ("graphflow.cli", "eps_continuation", "continuation.eps_continuation", False),
    ("graphflow.cli", "time_sequence_uniqueness_check",
     "continuation.time_sequence_uniqueness_check", False),
    ("graphflow.cli", "boundary_attainment_report",
     "continuation.boundary_attainment_report", False),
    ("graphflow.cli", "save_field_csv", "grid.save_field_csv", False),
    ("graphflow.cli", "write_diagnostics_csv", "flow.write_diagnostics_csv", False),
    ("graphflow.cli", "write_manifest", "cli.write_manifest", False),
    ("graphflow.cli", "_dump_json", "cli.dump_json", False),
    ("graphflow.continuation", "run_to_quasi_steady",
     "continuation.run_to_quasi_steady", False),
    ("graphflow.continuation", "initial_state", "flow.initial_state", False),
    ("graphflow.continuation", "flow_step", "flow.flow_step", False),
    ("graphflow.continuation", "e_eps", "functionals.e_eps", False),
    ("graphflow.continuation", "trace_error", "continuation.trace_error", False),
    ("graphflow.flow", "e_eps", "functionals.e_eps", False),
    ("graphflow.barrier", "boundary_lipschitz", "barrier.boundary_lipschitz", False),
    ("graphflow.barrier", "project_to_boundary", "barrier.project_to_boundary", False),
    ("graphflow.barrier", "search_alpha", "barrier.search_alpha", False),
    ("graphflow.barrier", "fit_boundary_graph", "barrier.fit_boundary_graph", False),
    ("graphflow.barrier", "boundary_crossings", "barrier.boundary_crossings", True),
    ("graphflow.barrier", "brentq", "barrier.brentq", False),
    ("graphflow.barrier", "q_on_barrier", "barrier.q_on_barrier", False),
    ("graphflow.barrier", "metric_at", "barrier.metric_at", False),
)


def calibrate(np) -> float:
    """Seconds taken by fixed work resembling the run's mix: strided
    stencils on a 2 MiB array, small-array numpy calls, and allocation-heavy
    interpreter work."""
    t = time.perf_counter()
    big = np.random.default_rng(0).random((512, 512))
    for _ in range(12):
        inner = big[1:-1, 1:-1] + 0.25 * (big[2:, 1:-1] + big[:-2, 1:-1]
                                          + big[1:-1, 2:] + big[1:-1, :-2])
        float(np.sqrt(1.0 + inner * inner).sum())
    small = big[:33, :33].copy()
    for _ in range(4000):
        inner = small[1:-1, 1:-1] * 0.5 + small[2:, 1:-1] * small[:-2, 1:-1]
        float(np.max(np.abs(np.sqrt(1.0 + inner * inner))))
    table = {str(i): [i, 2.0 * i, (i, str(i))] for i in range(25000)}
    sorted(table.items(), key=lambda kv: kv[1][1] % 97)
    return time.perf_counter() - t


class Tracer:
    """In-memory spans [name, start, end, parent index, size or None]."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def call(self, name, fn, args=(), kwargs=None, sized=False):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1], None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if sized:
            rec[4] = len(result)
        return result

    def wrap(self, name, fn, sized):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, sized)
        return traced

    def install(self):
        """Patch every TRACED attribute that exists; returns the ones missing."""
        missing = []
        for module_name, attr, name, sized in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, sized))
        return missing


def main():
    t0 = float(sys.argv[1])
    import numpy  # a dependency of graphflow, so part of its set-up anyway
    calib_s = calibrate(numpy)
    import graphflow.cli
    setup_s = time.monotonic() - t0 - calib_s

    config, out = sys.argv[2], sys.argv[3]
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None
    argv = ["run", config, "--out", out]
    record = {"setup_s": setup_s, "calib_s": calib_s,
              "package": graphflow.cli.__file__}
    if spans_path is None:
        t = time.perf_counter()
        code = graphflow.cli.main(argv)
        record["run_s"] = time.perf_counter() - t
    else:
        tracer = Tracer()
        record["untraced"] = tracer.install()
        t = time.perf_counter()
        code = tracer.call("run", graphflow.cli.main, (argv,))
        record["run_s"] = time.perf_counter() - t
    record["exit_code"] = code
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": os.getpid(), "spans": tracer.spans}, fh)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
