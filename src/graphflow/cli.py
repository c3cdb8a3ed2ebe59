"""Batch front end: experiment configs in, artifact bundles out.

One experiment per invocation, in one process.  A run executes build ->
barrier -> continuation (a time check riding eps-leg 1) -> attainment and
persists every report next to a manifest listing the produced files with
content hashes; a failed run leaves failure.json instead.  Exit codes: 0 success, 1 configuration, 2 violated estimate,
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
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .barrier import check_dirichlet_solvability, search_alpha
from .continuation import (SUPER_STAGES, TimeSnapshots, boundary_attainment_report,
                           eps_continuation, eps_schedule, probe_mask)
from .errors import (ConfigError, ConvergenceError, EstimateViolation,
                     FlowDiverged, GraphflowError)
from .flow import FlowParams, compatibility_ramp, l_eps_apply, write_diagnostics_csv
from .functionals import j_functional
from .grid import REGION_KEYS, GridField, build_domain, load_field_csv, save_field_csv
from .manifold import (BUILTIN_KINDS, CHART_KEYS, CHART_PARAMS, builtin_chart,
                       chart_dimension, chart_from_spec)

RUN_ARTIFACTS = ("config_resolved.json", "barrier.json", "continuation.json",
                 "attainment.json", "solution.csv", "diagnostics.csv")


# ------------------------------------------------------------- config parsing


# keys field_from_spec reads for each field kind, besides "kind" itself
FIELD_KEYS = {"constant": ("value",), "linear": ("coeffs", "offset"),
              "sine_product": ("amplitude", "waves"), "scherk": (),
              "radial_step": ("center", "radius", "inside", "outside"),
              "csv": ("path",)}
FIELD_KINDS = tuple(FIELD_KEYS)


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
    """A JSON number that is a finite float: not a bool, and not the NaN or
    Infinity that json.loads accepts."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _nested(value) -> bool:
    """A nonempty list of numbers and of such lists, ragged or not."""
    return isinstance(value, list) and bool(value) and all(_number(v) or _nested(v) for v in value)


def _shape(value):
    """Shape of a nested list of numbers; None when ragged."""
    if not isinstance(value, list):
        return ()
    shapes = {_shape(v) for v in value}
    return (len(value), *shapes.pop()) if len(shapes) == 1 and None not in shapes else None


# The JSON forms of config values: what a value must be, and its test.  A
# per-axis list adds the shape of its entries, one entry per chart axis.
NUMBER = ("a number", _number)
POSITIVE = ("a positive number", lambda v: _number(v) and v > 0)
COUNT = ("a positive integer", lambda v: _number(v) and isinstance(v, int) and v >= 1)
FLAG = ("true or false", lambda v: isinstance(v, bool))
TEXT = ("a string", lambda v: isinstance(v, str))
OBJECT = ("an object", lambda v: isinstance(v, dict))
FLAT = ("a flat list of numbers", lambda v: isinstance(v, list) and all(map(_number, v)))
NESTED = ("a list of numbers", _nested)
PAIRS, SCALARS = (*NESTED, (2,)), (*NESTED, ())
KIND = None  # a kind name, checked by its section's kind table

# the form of every section value by key, the same in every section
FORMS = {
    "kind": KIND, "n": NUMBER, "box": PAIRS, "params": OBJECT,
    "radius": NUMBER, "a": NUMBER, "b": NUMBER, "axes": NESTED, "table": NESTED, "csv": TEXT,
    "region": KIND, "bounds": PAIRS, "center": SCALARS, "r_inner": NUMBER, "r_outer": NUMBER,
    "values": NESTED, "value": NUMBER, "coeffs": SCALARS, "offset": NUMBER,
    "amplitude": NUMBER, "waves": SCALARS, "inside": NUMBER, "outside": NUMBER, "path": TEXT,
    "eps": NUMBER, "delta": NUMBER, "cfl": NUMBER, "t_end": NUMBER, "assert_estimates": FLAG,
    "K": POSITIVE, "gamma": NUMBER, "times_a": FLAT, "times_b": FLAT,
}
REQUIRED = object()  # the default of a key every config must give
# (form, default) of every top-level key; null is accepted where the default is None
TOP = {
    "chart": (OBJECT, REQUIRED), "region": (OBJECT, REQUIRED), "h": (POSITIVE, REQUIRED),
    "phi": (OBJECT, REQUIRED), "u0": (OBJECT, {"kind": "constant", "value": 0.0}),
    "flow": (OBJECT, {}), "schedule": (FLAT, None), "tol": (POSITIVE, 1e-5),
    "warm_start": (FLAG, True), "barrier": (OBJECT, {}), "time_check": (OBJECT, None),
    "output_dir": (TEXT, "graphflow_out"), "snapshot_every_steps": (COUNT, 10),
}


def parse_config(raw: dict, base_dir: Path) -> SimpleNamespace:
    """Validate a raw config dict, collecting every problem (wrong JSON
    types included) before raising.  Range checks read only values whose
    form check passed.  Returns the config with one attribute per
    top-level key and every default filled in, barrier as {"K", "gamma"}
    and flow a FlowParams whose eps is leg 1's, the schedule's first."""
    problems = []
    dim = None  # the chart dimension, once the chart's n is known

    def check(name, spec, allowed, required=()) -> set:
        """Report spec's unknown keys, its missing required keys and every
        value of the wrong form (from TOP when allowed is TOP, else from
        FORMS); returns the keys it reported."""
        where = "" if allowed is TOP else f"{name} "
        unknown = sorted(set(spec) - set(allowed))
        if unknown:
            problems.append(f"unknown {name} keys {unknown}; expected keys "
                            f"from {tuple(allowed)}")
        missing = [key for key in required if key not in spec]
        problems.extend(f"missing required {where}key {key!r}" for key in missing)
        bad = {*unknown, *missing}
        for key in (key for key in allowed if key in spec):
            form, default = TOP[key] if allowed is TOP else (FORMS[key], REQUIRED)
            value = spec[key]
            if form is KIND or value is None and default is None:
                continue
            what, fits, *shape = form
            if not fits(value):
                problems.append(f"{where}{key} must be {what}{' or null' if default is None else ''}"
                                f", got {value!r:.80}")
            elif shape and dim and _shape(value) != (dim, *shape[0]):
                problems.append(f"{where}{key} must have shape {(dim, *shape[0])} on a "
                                f"{dim}-D chart, got {value!r:.80}")
            else:
                continue
            bad.add(key)
        return bad

    def exists(name, path):
        """A problem unless a file is at path, read relative to the config file."""
        path = base_dir / path
        if not path.is_file():
            problems.append(f"{name} csv file {str(path)!r} does not exist")

    def collect(make, prefix=""):
        """make(), or None once the problems of its ConfigError are collected."""
        try:
            return make()
        except ConfigError as exc:
            problems.extend(prefix + p for p in exc.problems)

    reported = check("config", raw, TOP, [key for key, (_, d) in TOP.items() if d is REQUIRED])
    # dict defaults are copied, so editing one parsed config leaves the next parse alone
    cfg = {key: raw.get(key, {**default} if isinstance(default, dict) else default)
           for key, (_, default) in TOP.items()}

    chart = cfg["chart"]
    if "chart" not in reported:
        if _number(chart.get("n", 2)):  # a non-number is reported by check
            dim = collect(lambda: chart_dimension(chart.get("n", 2)))
        kind = chart.get("kind")
        if kind not in BUILTIN_KINDS:
            problems.append(f"chart kind must be one of {BUILTIN_KINDS}, got {kind!r:.80}")
        if "params" not in check("chart", chart, CHART_KEYS) and kind in BUILTIN_KINDS:
            params = chart.get("params", {})
            if "csv" not in check("chart params", params, CHART_PARAMS[kind]) and "csv" in params:
                exists("chart", params["csv"])
    region = cfg["region"]
    if "region" not in reported:
        if region.get("region") not in tuple(REGION_KEYS):
            problems.append(f"region must name a kind from {tuple(REGION_KEYS)}")
        else:
            keys = REGION_KEYS[region["region"]]
            check("region", region, ("region", *keys), [k for k in keys if k != "bounds"])
    for name in ("phi", "u0"):
        if name in reported:
            continue
        spec = cfg[name]
        if spec.get("kind") not in FIELD_KINDS:
            problems.append(f"{name} spec must name a kind from {FIELD_KINDS}")
            continue
        keys = FIELD_KEYS[spec["kind"]]
        if "path" not in check(name, spec, ("kind", *keys), [k for k in keys if k != "offset"]) \
                and spec["kind"] == "csv":
            exists(name, spec["path"])

    first = 0.1  # leg 1's eps: the schedule's first, None while the schedule is broken
    if cfg["schedule"] is not None:
        first = None
        if "schedule" not in reported:
            cfg["schedule"] = collect(lambda: eps_schedule(cfg["schedule"]))
            first = cfg["schedule"] and cfg["schedule"][0]
    flow = None
    if "flow" not in reported and not check("flow", cfg["flow"], FlowParams._fields):
        # the legs and the time check take their eps from the schedule; a
        # config may still state leg 1's (0.1 stands in while the schedule is broken)
        given = cfg["flow"].get("eps", first)
        if first is not None and given != first:
            problems.append(f"flow eps must equal the first eps of schedule, {first}, got {given}")
        flow = cfg["flow"] = collect(lambda: FlowParams(**{**cfg["flow"], "eps": first or 0.1}),
                                     "flow: ")

    barrier = cfg["barrier"]
    if "barrier" not in reported and not check("barrier", barrier, ("K", "gamma")):
        k, gamma = float(barrier.get("K", 0.3)), float(barrier.get("gamma", 1.1))
        cfg["barrier"] = {"K": k, "gamma": gamma}
        if gamma <= 1:
            problems.append(f"barrier gamma must exceed 1, got {gamma}")

    times, time_check = ("times_a", "times_b"), cfg["time_check"]
    if time_check is not None and "time_check" not in reported and \
            not check("time_check", time_check, times, times) and flow is not None:
        collect(lambda: TimeSnapshots(flow, **time_check))  # nonempty, >= 0, <= t_end

    if problems:
        raise ConfigError(problems)
    return SimpleNamespace(**{**cfg, "h": float(cfg["h"]), "tol": float(cfg["tol"])})


# --------------------------------------------------------------- persistence


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out: Path, names) -> None:
    manifest = {"artifacts": {name: _sha256(out / name) for name in names}}
    _dump_json(manifest, out / "manifest.json")


def _resolve_out(raw_out, override: str | None) -> Path:
    env = os.environ.get("GRAPHFLOW_OUT")
    if not isinstance(raw_out, str):  # parse_config reports a non-string output_dir
        raw_out = None
    chosen = override or env or raw_out or "graphflow_out"
    out = Path(chosen)
    probe = out / ".writable"
    try:
        out.mkdir(parents=True, exist_ok=True)
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {config_path!r} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw, path.parent


def _build_problem(cfg: SimpleNamespace, base_dir: Path):
    def located(spec, key):  # spec with its csv path read relative to the config file
        return {**spec, key: str(base_dir / spec[key])} if key in spec else spec

    chart = {**cfg.chart, "params": located(cfg.chart.get("params", {}), "csv")}
    domain = build_domain(chart_from_spec(chart), cfg.h, region=cfg.region)
    phi, u0 = (field_from_spec(located(spec, "path"), domain) for spec in (cfg.phi, cfg.u0))
    return domain, phi, u0


def _run(config_path: str, out_override: str | None, barrier_only: bool) -> int:
    """Full pipeline for one config, or with barrier_only the solvability
    certification alone; returns the process exit code.  A time check rides
    eps-leg 1 (eps_continuation)."""
    out = None
    try:
        raw, base_dir = _read_raw(config_path)
        out = _resolve_out(raw.get("output_dir"), out_override)
        cfg = parse_config(raw, base_dir)
        _dump_json({**vars(cfg), "flow": cfg.flow._asdict()}, out / "config_resolved.json")

        domain, phi, u0 = _build_problem(cfg, base_dir)
        if not barrier_only:
            probe_mask(domain)  # an empty probe set fails before the barrier work
        solv = check_dirichlet_solvability(phi, domain, **cfg.barrier)
        _dump_json(solv.json_dict(), out / "barrier.json")
        if barrier_only:
            write_manifest(out, ("config_resolved.json", "barrier.json"))
            return 0

        report = eps_continuation(cfg.schedule, cfg.flow, phi, u0, tol=cfg.tol,
                                  warm_start=cfg.warm_start, sample_every=cfg.snapshot_every_steps,
                                  stages=SUPER_STAGES, time_check=cfg.time_check)
        _dump_json(report.json_dict(), out / "continuation.json")
        if not report.converged:
            raise ConvergenceError(
                "continuation aborted: a leg failed to reach quasi-steady "
                f"state within t_end = {cfg.flow.t_end}")

        att = boundary_attainment_report(report.u_bar, phi, solv)
        _dump_json(att.json_dict(), out / "attainment.json")

        save_field_csv(report.u_bar, out / "solution.csv")
        write_diagnostics_csv(report.history, out / "diagnostics.csv")
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
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both
            raise ConfigError(f"{manifest_path} is not valid JSON: {exc}")
        if not isinstance(manifest, dict) or not isinstance(manifest.get("artifacts"), dict):
            raise ConfigError(f"{manifest_path} has no artifacts object")
        bundle = {"manifest": manifest}
        for name, digest in manifest["artifacts"].items():
            if name in ("", "..") or Path(name).name != name:  # absolute, nested or parent
                raise ConfigError(f"manifest lists {name!r}, which is not a file in {run_dir}")
            path = out / name
            if not path.is_file():
                raise ConfigError(f"manifest lists {name} but it is missing")
            if _sha256(path) != digest:
                raise ConfigError(f"{name} does not match its manifest hash")
        for name in manifest["artifacts"]:
            key = name.rsplit(".", 1)[0]
            try:
                if name.endswith(".json"):
                    bundle[key] = json.loads((out / name).read_text("utf-8"))
                elif name == "diagnostics.csv":
                    bundle["diagnostics"] = _diagnostics_summary(out / name)
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both
                raise ConfigError(f"{name} matches its manifest hash but cannot be "
                                  f"read: {exc}")
        _dump_json(bundle, out / "report.json")
        return 0
    except GraphflowError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return _exit_code(exc)


# ------------------------------------------------------------------- selftest


def _selftest_battery() -> dict:
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
    results["affine_residual"] = float(np.max(np.abs(l_eps_apply(aff, 0.0))))

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

    # penalized functional on a matching field is pure area
    jr = j_functional(aff, lambda x: 0.25 * x[0] - 0.5 * x[1] + 0.125)
    results["j_boundary_term"] = jr.boundary_term

    return results


def run_selftest(out_override: str | None = None) -> int:
    """Run the deterministic battery and persist selftest.json + manifest."""
    try:
        out = _resolve_out("graphflow_selftest", out_override)
        _dump_json({"results": _selftest_battery()}, out / "selftest.json")
        write_manifest(out, ("selftest.json",))
        return 0
    except GraphflowError as exc:
        return _fail(None, exc)


# ----------------------------------------------------------------- interface


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, as a config error does
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
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

    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args.config, args.out, barrier_only=False)
    if args.command == "report":
        return emit_report(args.rundir)
    if args.command == "barrier":
        return _run(args.config, args.out, barrier_only=True)
    return run_selftest(args.out)


if __name__ == "__main__":
    sys.exit(main())
