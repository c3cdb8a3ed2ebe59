"""graphflow benchmark: one workload, one seed, one measuring window.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark drives the public CLI, `graphflow.cli.main(["run", conf,
"--out", dir])`, on a config generated from the seed (workloads.py).  Each
run happens in its own child process (child.py) with BLAS pinned to one
thread, in a closed loop: one client, one child at a time, the next child
started when the previous one has been checked.  Children are started until
the window of S seconds is used up.

After every child an untimed correctness gate checks its output (see
check_run); a child that fails any check counts as failed.

--trace 0 reports the end-to-end metrics, medians over the untraced
children: run_s, setup_s and peak_rss_mib.  run_s and setup_s are corrected
for the host's speed: each child times a fixed kernel (child.calibrate) just
before it imports graphflow, and its times are scaled by CALIB_REF_S over
that kernel time.  The host drifts between phases up to 1.7x apart that last
seconds to minutes, and the kernel, timed in the same process a moment
before the run, sees the same phase.  The raw times are in the detail line.
--trace 1 alternates traced and untraced children and reports the per-layer
metrics (LAYER_METRICS), medians over the traced children, plus the tracing
overhead.  The line before the
result holds the details: every sample, the counts, the accuracy figures and
the environment.  The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

LIMIT_ERR_MAX = 1e-6   # sup |u_bar - u_ref| over interior nodes
CALIB_REF_S = 0.25     # child.calibrate on the host the benchmark was defined on
RUN_LIMIT_S = 170.0    # the whole benchmark must end within 180 s
# counts that must repeat exactly from one traced run to the next
REPEATED_COUNTS = ("flow.flow_step.calls", "barrier.brentq.calls",
                   "barrier.search_alpha.calls")

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# name -> unit; computed in layer_metrics
LAYER_METRICS = {
    "flow.flow_step.calls": "count",
    "flow.flow_step.us_per_call": "us",
    "flow.flow_step.self_s": "s",
    "flow.node_steps_per_s": "1/s",
    "functionals.e_eps.calls": "count",
    "functionals.e_eps.us_per_call": "us",
    "continuation.run_to_quasi_steady.calls": "count",
    "continuation.steps": "count",
    "continuation.eps_continuation.s": "s",
    "continuation.time_sequence_uniqueness_check.s": "s",
    "flow.write_diagnostics_csv.rows": "count",
    "flow.write_diagnostics_csv.s": "s",
    "cli.artifact_bytes": "bytes",
    "barrier.check_dirichlet_solvability.s": "s",
    "barrier.points": "count",
    "barrier.search_alpha.calls": "count",
    "barrier.search_alpha.ms_per_call": "ms",
    "barrier.fit_boundary_graph.s": "s",
    "barrier.boundary_crossings.calls": "count",
    "barrier.boundary_crossings.s": "s",
    "barrier.boundary_crossings.points": "count",
    "barrier.brentq.calls": "count",
    "barrier.q_on_barrier.calls": "count",
    "barrier.certified_per_attempt": "1",
    "barrier.boundary_lipschitz.s": "s",
    "barrier.metric_at.calls": "count",
    "continuation.boundary_attainment_report.s": "s",
    "continuation.boundary_attainment_report.points": "count",
    "continuation.trace_error.s": "s",
    "cli.parse_config.s": "s",
    "manifold.chart_from_spec.s": "s",
    "grid.build_domain.s": "s",
    "cli.field_from_spec.s": "s",
    "grid.save_field_csv.s": "s",
    "cli.write_manifest.s": "s",
    "grid.interior_nodes": "count",
    "continuation.limit_err": "1",
    "continuation.trace_error.sup": "1",
    "flow.dissipation_defect": "1",
    "trace.run_s": "s",
    "trace.coverage": "1",
    "trace.overhead_s": "s",
}


# ----------------------------------------------------------------- children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(conf: Path, out: Path, spans: Path | None, timeout: float) -> dict:
    """Start one child, wait for it, and return its record plus wall_s."""
    argv = [sys.executable, str(BENCH / "child.py")]
    t0 = time.monotonic()
    argv += [repr(t0), str(conf), str(out)] + ([str(spans)] if spans else [])
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"child exceeded {timeout:.0f} s"],
                "wall_s": time.monotonic() - t0}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.monotonic() - t0
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"problems": [f"child exited {proc.returncode} without a "
                             f"record: {stderr.strip()[-300:]}"], "wall_s": wall}
    record["wall_s"] = wall
    record["problems"] = []
    return record


# --------------------------------------------------------- correctness gate


def load_reference(name: str, seed: int):
    variant = workloads.variant_of(seed)
    reference = json.loads((BENCH / "refs" / "reference.json").read_text())
    entry = reference["workloads"][name][variant]
    with np.load(BENCH / "refs" / f"{name}.npz") as data:
        u_ref = data[f"v{variant}"]
    return entry, u_ref


def dissipation_defect(rows: list) -> float:
    """Largest |dE + D| / |dE| over legs with at least two diagnostics rows,
    else 0.

    Legs are split where the step counter restarts; dE and D are taken
    between the first and the last row of a leg.
    """
    legs, current, prev = [], [], None
    for row in rows:
        step = int(row["step"])
        if prev is not None and step <= prev:
            legs.append(current)
            current = []
        current.append(row)
        prev = step
    legs.append(current)
    worst = 0.0
    for leg in legs:
        if len(leg) < 2:
            continue
        d_e = float(leg[-1]["energy_eps"]) - float(leg[0]["energy_eps"])
        d_diss = float(leg[-1]["dissipation_cum"]) - float(leg[0]["dissipation_cum"])
        if d_e != 0.0:
            worst = max(worst, abs(d_e + d_diss) / abs(d_e))
    return worst


def check_run(out: Path, entry: dict, u_ref, first_manifest: bytes | None):
    """Untimed checks of one run's artifacts; returns (problems, facts)."""
    import graphflow.cli

    problems, facts = [], {}
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return ["no manifest.json"], facts
    manifest = manifest_path.read_bytes()
    names = list(json.loads(manifest)["artifacts"]) + ["manifest.json"]
    facts["artifact_bytes"] = sum((out / n).stat().st_size for n in names
                                  if (out / n).is_file())
    if graphflow.cli.main(["report", str(out)]) != 0:
        problems.append("graphflow report rejected the manifest")
    if first_manifest is not None and manifest != first_manifest:
        problems.append("manifest differs from the first run of this config")

    barrier = json.loads((out / "barrier.json").read_text())
    attain = json.loads((out / "attainment.json").read_text())
    cont = json.loads((out / "continuation.json").read_text())
    facts["barrier_points"] = len(barrier["points"])
    facts["barrier_certified"] = sum(p["certified"] for p in barrier["points"])
    for key in ("attained", "detached", "uncertified"):
        facts[key] = attain[key]
    for key in ("barrier_certified", "attained", "detached", "uncertified"):
        if facts[key] != entry[key]:
            problems.append(f"{key} = {facts[key]}, reference {entry[key]}")
    facts["steps"] = [leg["steps"] for leg in cont["legs"]]
    facts["trace_error"] = cont["trace_error"]
    facts["time_uniqueness_gap"] = cont.get("time_uniqueness_gap")

    table = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
    interior = table[table[:, -2] == 1, -1]
    facts["interior_nodes"] = int(interior.size)
    if interior.size != u_ref.size:
        problems.append(f"{interior.size} interior nodes, reference {u_ref.size}")
        facts["limit_err"] = float("inf")
    else:
        facts["limit_err"] = float(np.max(np.abs(interior - u_ref)))
    if not facts["limit_err"] <= LIMIT_ERR_MAX:
        problems.append(f"limit_err {facts['limit_err']:.3e} > {LIMIT_ERR_MAX:g}")

    with open(out / "diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    facts["diagnostics_rows"] = len(rows)
    facts["dissipation_defect"] = dissipation_defect(rows)
    return problems, facts


# ------------------------------------------------------------------ tracing


def span_stats(spans: list) -> tuple[dict, float, float]:
    """Per-name calls, inclusive and self seconds and summed sizes; plus the
    run span's duration and the share of it its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    run_idx = next(i for i, s in enumerate(spans) if s[0] == "run" and s[3] < 0)
    for i, (name, start, end, parent, size) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "size": 0})
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - child_time[i]
        st["size"] += size or 0
    run_s = spans[run_idx][2] - spans[run_idx][1]
    return stats, run_s, child_time[run_idx] / run_s


def layer_metrics(spans: list, facts: dict) -> dict:
    stats, run_s, coverage = span_stats(spans)

    def get(name, key="s"):
        return stats.get(name, {}).get(key, 0)

    def per_call(name, scale):
        calls = get(name, "calls")
        return scale * get(name) / calls if calls else 0.0

    step_s = get("flow.flow_step")
    flow_calls = get("flow.flow_step", "calls")
    q_calls = get("barrier.q_on_barrier", "calls")
    m = {
        "flow.flow_step.calls": flow_calls,
        "flow.flow_step.us_per_call": per_call("flow.flow_step", 1e6),
        "flow.flow_step.self_s": get("flow.flow_step", "self_s"),
        "flow.node_steps_per_s": (facts["interior_nodes"] * flow_calls / step_s
                                  if step_s else 0.0),
        "functionals.e_eps.calls": get("functionals.e_eps", "calls"),
        "functionals.e_eps.us_per_call": per_call("functionals.e_eps", 1e6),
        "continuation.run_to_quasi_steady.calls":
            get("continuation.run_to_quasi_steady", "calls"),
        "continuation.steps": sum(facts["steps"]),
        "flow.write_diagnostics_csv.rows": facts["diagnostics_rows"],
        "cli.artifact_bytes": facts["artifact_bytes"],
        "barrier.points": facts["barrier_points"],
        "barrier.search_alpha.calls": get("barrier.search_alpha", "calls"),
        "barrier.search_alpha.ms_per_call": per_call("barrier.search_alpha", 1e3),
        "barrier.boundary_crossings.calls":
            get("barrier.boundary_crossings", "calls"),
        "barrier.boundary_crossings.points":
            get("barrier.boundary_crossings", "size"),
        "barrier.brentq.calls": get("barrier.brentq", "calls"),
        "barrier.q_on_barrier.calls": q_calls,
        "barrier.certified_per_attempt":
            facts["barrier_certified"] / q_calls if q_calls else 0.0,
        "barrier.metric_at.calls": get("barrier.metric_at", "calls"),
        "continuation.boundary_attainment_report.points":
            facts["attained"] + facts["detached"] + facts["uncertified"],
        "grid.interior_nodes": facts["interior_nodes"],
        "continuation.limit_err": facts["limit_err"],
        "continuation.trace_error.sup": facts["trace_error"],
        "flow.dissipation_defect": facts["dissipation_defect"],
        "trace.run_s": run_s,
        "trace.coverage": coverage,
    }
    # every other "<span>.s" metric is that span's inclusive time
    for metric in LAYER_METRICS:
        if metric not in m and metric.endswith(".s"):
            m[metric] = get(metric[:-2])
    return m


# --------------------------------------------------------------------- main


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "machine": platform.machine(), "python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        env[dist] = importlib.metadata.version(dist)
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), None)
    except OSError:
        env["cpu"] = None
    return env


def host_adjusted(child: dict, key: str) -> float:
    return child[key] * CALIB_REF_S / child["calib_s"]


def summary(values: list) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def measure(args, work: Path, t_start: float) -> list:
    """Closed loop of children until the window is used; returns their
    records, each traced one with its layer metrics."""
    entry, u_ref = load_reference(args.workload, args.seed)
    raw = workloads.config(args.workload, args.seed)
    if raw != entry["config"]:
        raise SystemExit(f"{args.workload} seed {args.seed}: the generated "
                         "config differs from the one in refs/reference.json")
    conf = work / "conf.json"
    conf.write_text(json.dumps(raw, indent=1))

    deadline = time.monotonic() + args.seconds
    children, first_layer, first_manifest = [], None, None
    while True:
        began = time.monotonic()
        traced = args.trace == 1 and len(children) % 2 == 0
        out = work / f"run{len(children)}"
        spans = work / f"spans{len(children)}.json" if traced else None
        timeout = RUN_LIMIT_S - (began - t_start)
        rec = run_child(conf, out, spans, timeout)
        rec["traced"] = traced
        if not rec["problems"]:
            if not rec["package"].startswith(str(SRC)):
                rec["problems"].append(f"imported {rec['package']}, not {SRC}")
            if rec["exit_code"] != 0:
                rec["problems"].append(f"graphflow run exited {rec['exit_code']}")
            else:
                try:
                    problems, facts = check_run(out, entry, u_ref, first_manifest)
                except (OSError, KeyError, ValueError) as exc:
                    problems, facts = [f"unreadable artifacts: {exc!r}"], {}
                rec["problems"] += problems
                rec["facts"] = facts
                if first_manifest is None and not problems:
                    first_manifest = (out / "manifest.json").read_bytes()
        if traced and rec.get("facts"):
            layer = layer_metrics(json.loads(spans.read_text())["spans"],
                                  rec["facts"])
            first_layer = first_layer or layer
            for key in REPEATED_COUNTS:
                if layer[key] != first_layer[key]:
                    rec["problems"].append(
                        f"{key} = {layer[key]}, first traced run {first_layer[key]}")
            rec["layer"] = layer
        shutil.rmtree(out, ignore_errors=True)
        now = time.monotonic()
        rec["loop_s"] = now - began
        children.append(rec)

        typical = statistics.median(c["loop_s"] for c in children)
        need_pair = args.trace == 1 and len(children) < 2
        if now - t_start > RUN_LIMIT_S - 2 * typical:
            break
        if now + typical > deadline and not need_pair:
            break
    return children


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.monotonic()

    if not (SRC / "graphflow" / "cli.py").is_file():
        print(f"graphflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphflow
    if not graphflow.__file__.startswith(str(SRC)):
        print(f"imported graphflow from {graphflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # untimed: byte-compile the package the way a first user run would
        subprocess.run([sys.executable, "-c", "import graphflow.cli"],
                       env=child_env(), check=True, cwd=ROOT, timeout=60)
        children = measure(args, work, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [c for c in children if not c["problems"]]
    failed = len(children) - len(ok)
    # with no passing child, report the runs that finished and were checked,
    # under "correct": false
    measured = ok or [c for c in children if c.get("facts")]
    plain = [c for c in measured if not c["traced"]]
    traced = [c["layer"] for c in measured if "layer" in c]
    if not plain or (args.trace == 1 and not traced):
        print(json.dumps({"samples": children}), file=sys.stderr)
        print("no child run finished with checkable output", file=sys.stderr)
        return 1

    detail = {"workload": args.workload, "seed": args.seed,
              "variant": workloads.variant_of(args.seed),
              "environment": environment(), "failed": failed,
              "fail_ratio": failed / len(children),
              "facts": measured[0]["facts"], "samples": children}
    if args.trace == 0:
        values = {"run_s": [host_adjusted(c, "run_s") for c in plain],
                  "setup_s": [host_adjusted(c, "setup_s") for c in plain],
                  "peak_rss_mib": [c["peak_rss_mib"] for c in plain]}
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit in END_TO_END}
        for key in ("run_s", "setup_s", "calib_s"):
            values[f"raw_{key}"] = [c[key] for c in plain]
        detail["end_to_end"] = {name: summary(v) for name, v in values.items()}
    else:
        metrics = {}
        traced_runs = [host_adjusted(c, "run_s") for c in measured if "layer" in c]
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = (statistics.median(traced_runs)
                         - statistics.median(host_adjusted(c, "run_s")
                                             for c in plain))
            else:
                value = statistics.median_low(l[name] for l in traced)
            metrics[name] = {"value": value, "unit": unit}
        detail["layers_n"] = len(traced)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(children),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
