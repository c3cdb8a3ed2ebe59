"""Batch front end: experiment configs in, artifact bundles out.

One experiment per invocation.  A run executes build -> continuation ->
barrier -> attainment and persists every report next to a manifest listing
the produced files with content hashes; a failed run leaves failure.json
instead.  Exit codes: 0 success, 1 configuration, 2 violated estimate,
3 non-convergence or divergence.

All output is deterministic for a fixed config: floats are
serialized by shortest round-trip repr, JSON keys are sorted, and nothing
time- or path-dependent is written, so identical runs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .barrier import check_dirichlet_solvability, search_alpha
from .continuation import (TimeSnapshots, boundary_attainment_report,
                           eps_continuation, time_sequence_uniqueness_check)
from .errors import (ConfigError, ConvergenceError, EstimateViolation,
                     FlowDiverged, GraphflowError)
from .flow import (FlowParams, compatibility_ramp, q_operator,
                   write_diagnostics_csv)
from .functionals import (DiscreteSet, area, j_functional, set_perimeter,
                          subgraph_perimeter)
from .grid import REGION_KEYS, GridField, build_domain, load_field_csv, save_field_csv
from .manifold import (BUILTIN_KINDS, CHART_KEYS, CHART_PARAMS, builtin_chart,
                       chart_dimension, chart_from_spec)

RUN_ARTIFACTS = ("config_resolved.json", "barrier.json", "continuation.json",
                 "attainment.json", "solution.csv", "diagnostics.csv")


# ------------------------------------------------------------- config parsing


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    chart: dict
    region: dict
    h: float
    phi: dict
    u0: dict
    flow: FlowParams
    schedule: list | None
    tol: float
    warm_start: bool
    barrier_k: float
    barrier_gamma: float
    time_check: dict | None
    output_dir: str
    snapshot_every_steps: int

    def resolved_dict(self) -> dict:
        return {
            "chart": self.chart, "region": self.region, "h": self.h,
            "phi": self.phi, "u0": self.u0,
            "flow": {"eps": self.flow.eps, "delta": self.flow.delta,
                     "cfl": self.flow.cfl, "t_end": self.flow.t_end,
                     "assert_estimates": self.flow.assert_estimates},
            "schedule": self.schedule, "tol": self.tol,
            "warm_start": self.warm_start,
            "barrier": {"K": self.barrier_k, "gamma": self.barrier_gamma},
            "time_check": self.time_check, "output_dir": self.output_dir,
            "snapshot_every_steps": self.snapshot_every_steps,
        }


CONFIG_KEYS = ("chart", "region", "h", "phi", "u0", "flow", "schedule", "tol",
               "warm_start", "barrier", "time_check", "output_dir",
               "snapshot_every_steps")
# keys field_from_spec reads for each field kind, besides "kind" itself
FIELD_KEYS = {"constant": ("value",), "linear": ("coeffs", "offset"),
              "sine_product": ("amplitude", "waves"), "scherk": (),
              "radial_step": ("center", "radius", "inside", "outside"),
              "csv": ("path",)}
FIELD_KINDS = tuple(FIELD_KEYS)
LIST_KEYS = ("box", "bounds", "center", "coeffs", "waves", "values", "axes", "table",
             "times_a", "times_b")
# list keys with one entry per chart axis, and the shape of each entry
AXIS_KEYS = {"box": (2,), "bounds": (2,), "center": (), "coeffs": (), "waves": ()}


def field_from_spec(spec: dict, domain) -> GridField:
    """Evaluate a closed-form field spec on the domain lattice.

    The kind table is intentionally small: the constants, linear forms and
    sin/cos/log compositions the oracles use, plus nodal CSV input.  There
    is no expression parser.
    """
    kind = spec.get("kind")
    if kind == "constant":
        return GridField.constant(domain, float(spec["value"]))
    if kind == "linear":
        coeffs = np.asarray(spec["coeffs"], dtype=float)
        off = float(spec.get("offset", 0.0))
        if coeffs.shape != (domain.dim,):
            raise ConfigError(f"linear field needs {domain.dim} coefficients")
        return GridField(domain, domain.points @ coeffs + off)
    if kind == "sine_product":
        amp = float(spec["amplitude"])
        waves = np.asarray(spec["waves"], dtype=float)
        if waves.shape != (domain.dim,):
            raise ConfigError(f"sine_product needs {domain.dim} wave counts")
        vals = amp * np.ones(domain.shape)
        for axis, w in enumerate(waves):
            shape = [1] * domain.dim
            shape[axis] = -1
            vals = vals * np.sin(np.pi * w * domain.axes[axis]).reshape(shape)
        return GridField(domain, vals)
    if kind == "scherk":
        if domain.dim != 2:
            raise ConfigError("scherk field is two-dimensional")
        x1 = domain.points[..., 0]
        x2 = domain.points[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.log(np.cos(x1) / np.cos(x2))
        if not np.all(np.isfinite(vals[domain.used])):
            raise ConfigError("scherk field is singular on this domain")
        return GridField(domain, np.nan_to_num(vals))
    if kind == "radial_step":
        center = np.asarray(spec["center"], dtype=float)
        r = float(spec["radius"])
        inside, outside = float(spec["inside"]), float(spec["outside"])
        d = np.linalg.norm(domain.points - center, axis=-1)
        return GridField(domain, np.where(d < r, inside, outside))
    if kind == "csv":
        return load_field_csv(spec["path"], domain)
    raise ConfigError(f"unknown field kind {kind!r}; expected one of "
                      f"{FIELD_KINDS}")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric(value) -> bool:
    """A JSON number, or a nonempty (nested) list of them."""
    return bool(value) and all(map(_numeric, value)) if isinstance(value, list) else _number(value)


def _shape(value):
    """Shape of a nested list of numbers; None when ragged."""
    if not isinstance(value, list):
        return ()
    shapes = {_shape(v) for v in value}
    return (len(value), *shapes.pop()) if len(shapes) == 1 and None not in shapes else None


def _kind_keys(table: dict, kind):
    """table's entry for a kind read from JSON, None for any other value."""
    return table.get(kind) if isinstance(kind, str) else None


def parse_config(raw: dict, base_dir: Path) -> ExperimentConfig:
    """Validate a raw config dict, collecting every problem (wrong JSON
    types included) before raising."""
    problems = []
    dim = None  # the chart dimension, once the chart's n is known

    def check_keys(name, spec, allowed, numeric=(), required=()):
        # numeric keys hold numbers, those in LIST_KEYS lists of numbers,
        # those in AXIS_KEYS one entry per chart axis
        unknown = sorted(set(spec) - set(allowed))
        if unknown:
            problems.append(f"unknown {name} keys {unknown}; expected keys "
                            f"from {allowed}")
        problems.extend(f"missing required {name} key {key!r}" for key in required
                        if key not in spec)
        for key, value in ((key, spec[key]) for key in numeric if key in spec):
            if not (_numeric(value) and isinstance(value, list) == (key in LIST_KEYS)):
                problems.append(f"{name} {key} must be a {'list of numbers' if key in LIST_KEYS else 'number'}"
                                f", got {value!r:.80}")
            elif key in AXIS_KEYS and dim and _shape(value) != (dim, *AXIS_KEYS[key]):
                problems.append(f"{name} {key} must have shape {(dim, *AXIS_KEYS[key])} on a "
                                f"{dim}-D chart, got {value!r:.80}")

    def obj(name, value):
        if not isinstance(value, dict):
            problems.append(f"{name} must be an object, got {value!r:.80}")
        return value if isinstance(value, dict) else {}

    def number(name, value):  # NaN after a problem: no follow-up range problem
        if _number(value):
            return float(value)
        problems.append(f"{name} must be a number, got {value!r:.80}")
        return float("nan")

    check_keys("config", raw, CONFIG_KEYS)

    def need(key, default=None):
        if key in raw:
            return raw[key]
        if default is None:
            problems.append(f"missing required key {key!r}")
        return default

    chart = need("chart")
    if isinstance(chart, dict):
        n = chart.get("n", 2)
        if _number(n):  # a non-number is reported by check_keys
            try:
                dim = chart_dimension(n)
            except ConfigError as exc:
                problems.extend(exc.problems)
        check_keys("chart", chart, CHART_KEYS, numeric=("n", "box"))
        params = obj("chart params", chart.get("params", {}))
        keys = _kind_keys(CHART_PARAMS, chart.get("kind"))
        if keys is None:
            problems.append(f"chart kind must be one of {BUILTIN_KINDS}, got {chart.get('kind')!r:.80}")
        else:
            check_keys("chart params", params, keys, numeric=[k for k in keys if k != "csv"])
    region = need("region")
    if region is not None:
        region = obj("region", region)
        keys = _kind_keys(REGION_KEYS, region.get("region"))
        if keys is None:
            problems.append(f"region must name a kind from {tuple(REGION_KEYS)}")
        else:
            check_keys("region", region, ("region",) + keys, numeric=keys,
                       required=[k for k in keys if k != "bounds"])
    h = raw.get("h", 0.0)
    if not isinstance(h, (int, float)) or h <= 0:
        problems.append(f"h must be a positive number, got {h!r}")
    phi = need("phi")
    u0 = raw.get("u0", {"kind": "constant", "value": 0.0})

    def check_field(name, spec):
        # csv paths are interpreted relative to the config file
        keys = _kind_keys(FIELD_KEYS, spec.get("kind")) if isinstance(spec, dict) else None
        if keys is None:
            problems.append(f"{name} spec must name a kind from {FIELD_KINDS}")
            return spec
        check_keys(name, spec, ("kind",) + keys, numeric=[k for k in keys if k != "path"],
                   required=[k for k in keys if k != "offset"])
        if spec["kind"] == "csv":
            path = base_dir / spec.get("path", "")
            if not path.is_file():
                problems.append(f"{name} csv file {str(path)!r} does not exist")
            else:
                spec = {**spec, "path": str(path)}
        return spec

    phi = check_field("phi", phi)
    u0 = check_field("u0", u0)

    flow_raw = dict(obj("flow", raw.get("flow", {})))
    flow_raw.setdefault("eps", 0.1)
    flow = None
    try:
        flow = FlowParams(**flow_raw)
    except ConfigError as exc:
        problems.extend(f"flow: {p}" for p in exc.problems)
    except TypeError as exc:
        problems.append(f"flow: {exc}")

    schedule = raw.get("schedule")
    if schedule is not None and not (isinstance(schedule, list) and all(map(_number, schedule))):
        problems.append("schedule must be a list of numbers or null")

    tol = number("tol", raw.get("tol", 1e-5))
    if tol <= 0:
        problems.append(f"tol must be positive, got {tol}")
    warm_start = raw.get("warm_start", True)
    if not isinstance(warm_start, bool):
        problems.append(f"warm_start must be true or false, got {warm_start!r:.80}")

    barrier = obj("barrier", raw.get("barrier", {}))
    check_keys("barrier", barrier, ("K", "gamma"))
    k = number("barrier K", barrier.get("K", 0.3))
    gamma = number("barrier gamma", barrier.get("gamma", 1.1))
    if k <= 0:
        problems.append(f"barrier K must be positive, got {k}")
    if gamma <= 1:
        problems.append(f"barrier gamma must exceed 1, got {gamma}")

    time_check = raw.get("time_check")
    if time_check is not None:
        times = ("times_a", "times_b")
        spec = obj("time_check", time_check)
        check_keys("time_check", spec, times, times, times)
        seqs = [spec.get(key) for key in times]
        problems.extend(f"time_check {key} must be a flat list of numbers, got {s!r:.80}"
                        for key, s in zip(times, seqs)  # _numeric passes nested lists
                        if isinstance(s, list) and _numeric(s) and _shape(s) != (len(s),))
        if flow is not None and all(isinstance(s, list) and s and all(map(_number, s))
                                    for s in seqs):
            try:  # the horizon, checked before any work is done
                TimeSnapshots(flow, *seqs)
            except ConfigError as exc:
                problems.extend(exc.problems)

    cadence = raw.get("snapshot_every_steps", 1)
    if not isinstance(cadence, int) or cadence < 1:
        problems.append("snapshot_every_steps must be a positive integer, "
                        f"got {cadence!r}")
        cadence = 1

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        chart=chart, region=region, h=float(h), phi=phi, u0=u0, flow=flow,
        schedule=None if schedule is None else [float(e) for e in schedule],
        tol=tol, warm_start=warm_start,
        barrier_k=k, barrier_gamma=gamma, time_check=time_check,
        output_dir=str(raw.get("output_dir", "graphflow_out")),
        snapshot_every_steps=cadence)


# --------------------------------------------------------------- persistence


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out: Path, names) -> None:
    manifest = {"artifacts": {name: _sha256(out / name) for name in names}}
    _dump_json(manifest, out / "manifest.json")


def _resolve_out(raw_out: str | None, override: str | None) -> Path:
    env = os.environ.get("GRAPHFLOW_OUT")
    chosen = override or env or raw_out or "graphflow_out"
    out = Path(chosen)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".writable"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}")
    return out


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, EstimateViolation):
        return 2
    if isinstance(exc, (FlowDiverged, ConvergenceError)):
        return 3
    return 1


def _fallback_out(override: str | None) -> Path | None:
    try:
        return _resolve_out(None, override)
    except GraphflowError:
        return None


def _fail(out: Path | None, exc: Exception) -> int:
    code = _exit_code(exc)
    record = {"error": type(exc).__name__, "message": str(exc),
              "exit_code": code}
    if isinstance(exc, ConfigError):
        record["problems"] = exc.problems
    for key in ("step", "node"):
        if getattr(exc, key, None) is not None:
            record[key] = getattr(exc, key)
    if out is not None:
        _dump_json(record, out / "failure.json")
    print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
    return code


# ------------------------------------------------------------------ commands


def _read_raw(config_path: str) -> tuple[dict, Path]:
    path = Path(config_path)
    if not path.is_file():
        raise ConfigError(f"config file {config_path!r} does not exist")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw, path.parent


def _build_problem(cfg: ExperimentConfig):
    chart = chart_from_spec(cfg.chart)
    domain = build_domain(chart, cfg.h, region=cfg.region)
    phi = field_from_spec(cfg.phi, domain)
    u0 = field_from_spec(cfg.u0, domain)
    return domain, phi, u0


def _rides_leg_one(cfg: ExperimentConfig) -> bool:
    """Whether eps-leg 1 (from u0, at the schedule's first eps, 0.1 for the
    default schedule) runs at the time check's FlowParams."""
    return replace(cfg.flow, eps=(cfg.schedule or [0.1])[0]) == cfg.flow


def _run(config_path: str, out_override: str | None, barrier_only: bool) -> int:
    """Full pipeline for one config, or with barrier_only the solvability
    certification alone; returns the process exit code."""
    out = None
    try:
        raw, base_dir = _read_raw(config_path)
        out = _resolve_out(raw.get("output_dir"), out_override)
        cfg = parse_config(raw, base_dir)
        _dump_json(cfg.resolved_dict(), out / "config_resolved.json")

        domain, phi, u0 = _build_problem(cfg)
        solv = check_dirichlet_solvability(phi, domain, K=cfg.barrier_k,
                                           gamma=cfg.barrier_gamma)
        _dump_json(solv.json_dict(), out / "barrier.json")
        if barrier_only:
            write_manifest(out, ("config_resolved.json", "barrier.json"))
            return 0

        times = () if cfg.time_check is None else (cfg.time_check["times_a"],
                                                    cfg.time_check["times_b"])
        riding = TimeSnapshots(cfg.flow, *times) if times and _rides_leg_one(cfg) else None
        report = eps_continuation(cfg.schedule, cfg.flow, phi, u0, tol=cfg.tol,
                                  warm_start=cfg.warm_start, observer=riding)
        if times:
            res = (riding.result() if riding is not None else
                   time_sequence_uniqueness_check(cfg.flow, phi, u0, *times))
            report.time_uniqueness_gap = res.gap
        _dump_json(report.json_dict(), out / "continuation.json")
        if not report.converged:
            raise ConvergenceError(
                "continuation aborted: a leg failed to reach quasi-steady "
                f"state within t_end = {cfg.flow.t_end}")

        att = boundary_attainment_report(report.u_bar, phi, solv)
        _dump_json(att.json_dict(), out / "attainment.json")

        save_field_csv(report.u_bar, out / "solution.csv")
        # keep the cadence rows plus the final row so summaries stay exact
        history, k = report.history or [], cfg.snapshot_every_steps
        history = [s for i, s in enumerate(history) if i % k == 0 or i == len(history) - 1]
        write_diagnostics_csv(history, out / "diagnostics.csv")
        write_manifest(out, RUN_ARTIFACTS)
        return 0
    except GraphflowError as exc:
        return _fail(out if out is not None else _fallback_out(out_override),
                     exc)


def _diagnostics_summary(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    rows = lines[1:]
    summary = {"rows": len(rows), "columns": header}
    if rows:
        summary["first"] = dict(zip(header, rows[0].split(",")))
        summary["last"] = dict(zip(header, rows[-1].split(",")))
    return summary


def emit_report(run_dir: str) -> int:
    """Merge a completed run directory into one report.json.

    Re-running on unchanged inputs reproduces the output byte for byte.
    """
    out = Path(run_dir)
    try:
        manifest_path = out / "manifest.json"
        if not manifest_path.is_file():
            raise ConfigError(f"{run_dir} has no manifest.json; not a "
                              "completed run directory")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        bundle = {"manifest": manifest}
        for name, digest in manifest["artifacts"].items():
            path = out / name
            if not path.is_file():
                raise ConfigError(f"manifest lists {name} but it is missing")
            if _sha256(path) != digest:
                raise ConfigError(f"{name} does not match its manifest hash")
        for name in manifest["artifacts"]:
            key = name.rsplit(".", 1)[0]
            if name.endswith(".json"):
                bundle[key] = json.loads((out / name).read_text("utf-8"))
            elif name == "diagnostics.csv":
                bundle["diagnostics"] = _diagnostics_summary(out / name)
        _dump_json(bundle, out / "report.json")
        return 0
    except GraphflowError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return _exit_code(exc)


# ------------------------------------------------------------------- selftest


def _selftest_battery(seed: int) -> dict:
    """Small deterministic end-to-end battery; every number lands in JSON."""
    results = {}

    # boundary ramp closed forms
    results["ramp"] = {"at_two_thirds": compatibility_ramp(2.0 / 3.0, 1.0),
                       "at_two": compatibility_ramp(2.0, 1.0)}

    # operator annihilates affine graphs
    chart = builtin_chart("euclidean", 2)
    dom8 = build_domain(chart, 1.0 / 8,
                        region={"region": "box", "bounds": [[0, 1], [0, 1]]})
    aff = GridField(dom8, dom8.points @ np.array([0.25, -0.5]) + 0.125)
    results["affine_residual"] = float(np.max(np.abs(q_operator(aff))))

    # one-dimensional dirichlet recovery
    chart1 = builtin_chart("euclidean", 1, box=[[0.0, 1.0]])
    dom1 = build_domain(chart1, 1.0 / 16,
                        region={"region": "box", "bounds": [[0.0, 1.0]]})
    u0 = GridField.constant(dom1, 0.0)
    rep = eps_continuation([0.1, 0.05], FlowParams(eps=0.1, t_end=50.0),
                           lambda x: float(x[0]), u0, tol=1e-7)
    results["affine_continuation"] = {
        "trace_error": rep.trace_error,
        "cauchy_gaps": rep.cauchy_gaps,
        "converged": rep.converged,
        "steps": [leg.steps for leg in rep.legs],
    }

    # flat-boundary barrier certificate
    dom16 = build_domain(chart, 1.0 / 16,
                         region={"region": "box", "bounds": [[0, 1], [0, 1]]})
    res = search_alpha(dom16, np.array([[0.5, 0.0]]), K=0.3, gamma=1.1)[0]
    results["flat_barrier"] = {"certified": res.certified,
                               "margin": res.limit_margin,
                               "alpha": res.spec.alpha if res.spec else None}

    # constant-data solvability on the disc
    ddisc = build_domain(chart, 1.0 / 16,
                         region={"region": "disc", "center": [0.5, 0.5],
                                 "radius": 0.4})
    solv = check_dirichlet_solvability(lambda x: 0.2, ddisc, K=0.3, gamma=1.1)
    results["disc_solvability"] = {"certified": solv.certified,
                                   "oscillation": solv.oscillation,
                                   "lipschitz": solv.lipschitz_constant,
                                   "points": len(solv.points)}

    # graph area against the product-lattice perimeter
    tilt = GridField(dom8, dom8.points @ np.array([1.0, 0.0]))
    results["subgraph_perimeter"] = {"area": area(tilt),
                                     "perimeter": subgraph_perimeter(tilt)}

    # seeded submodularity slack
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(10):
        e = (rng.random(dom8.shape) < 0.5).astype(np.int8)
        f = (rng.random(dom8.shape) < 0.5).astype(np.int8)
        lhs = (set_perimeter(DiscreteSet(dom8, np.maximum(e, f)))
               + set_perimeter(DiscreteSet(dom8, np.minimum(e, f))))
        rhs = (set_perimeter(DiscreteSet(dom8, e))
               + set_perimeter(DiscreteSet(dom8, f)))
        worst = max(worst, lhs - rhs)
    results["submodularity_worst_slack"] = worst

    # penalized functional on a matching field is pure area
    jr = j_functional(aff, lambda x: 0.25 * x[0] - 0.5 * x[1] + 0.125)
    results["j_boundary_term"] = jr.boundary_term

    return results


def run_selftest(out_override: str | None = None, seed: int = 0) -> int:
    """Run the deterministic battery and persist selftest.json + manifest."""
    try:
        out = _resolve_out("graphflow_selftest", out_override)
        results = {"seed": seed, "results": _selftest_battery(seed)}
        _dump_json(results, out / "selftest.json")
        write_manifest(out, ("selftest.json",))
        return 0
    except GraphflowError as exc:
        return _fail(None, exc)


# ----------------------------------------------------------------- interface


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="graphflow",
        description="Minimal graphs via a viscosity-perturbed graphical "
                    "mean curvature flow: batch experiment runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.add_argument("--out", default=None,
                       help="override the output directory")

    p_rep = sub.add_parser("report", help="bundle a completed run directory")
    p_rep.add_argument("rundir", help="directory holding manifest.json")

    p_bar = sub.add_parser("barrier",
                           help="run only the solvability certification")
    p_bar.add_argument("config", help="path to the JSON config")
    p_bar.add_argument("--out", default=None,
                       help="override the output directory")

    p_self = sub.add_parser("selftest",
                            help="deterministic reduced verification battery")
    p_self.add_argument("--out", default=None,
                        help="override the output directory")
    p_self.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args.config, args.out, barrier_only=False)
    if args.command == "report":
        return emit_report(args.rundir)
    if args.command == "barrier":
        return _run(args.config, args.out, barrier_only=True)
    return run_selftest(args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
