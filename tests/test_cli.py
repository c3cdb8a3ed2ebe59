import copy
import csv
import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import graphflow.cli
import graphflow.continuation
import graphflow.errors
import graphflow.flow
from graphflow.cli import (FIELD_KEYS, FORMS, RUN_ARTIFACTS, field_from_spec, main,
                           parse_config)
from graphflow.continuation import time_sequence_uniqueness_check
from graphflow.errors import ConfigError
from graphflow.grid import EXTERIOR, REGION_KEYS, GridField, build_domain, save_field_csv
from graphflow.manifold import CHART_KEYS, CHART_PARAMS, builtin_chart

UNIT_BOX = {"region": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]]}


def unit_domain(h=1.0 / 8):
    return build_domain(builtin_chart("euclidean", 2), h, region=UNIT_BOX)


def base_config(out_dir, **overrides):
    cfg = {
        "chart": {"kind": "euclidean", "n": 2},
        "region": UNIT_BOX,
        "h": 1.0 / 16,
        "phi": {"kind": "constant", "value": 0.25},
        "u0": {"kind": "constant", "value": 0.25},
        "flow": {"eps": 0.1, "t_end": 5.0},
        "schedule": [0.1, 0.05],
        "tol": 1e-6,
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="config.json", **overrides):
    out_dir = tmp_path / "out"
    path = tmp_path / name
    path.write_text(json.dumps(base_config(out_dir, **overrides)))
    return path, out_dir


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------- field specs


def test_field_constant():
    dom = unit_domain()
    f = field_from_spec({"kind": "constant", "value": -1.5}, dom)
    assert np.all(f.values == -1.5)


def test_field_linear():
    dom = unit_domain()
    spec = {"kind": "linear", "coeffs": [0.5, -0.25], "offset": 1.0}
    f = field_from_spec(spec, dom)
    expect = dom.points @ np.array([0.5, -0.25]) + 1.0
    assert np.allclose(f.values, expect)


def test_field_linear_dimension_mismatch():
    dom = unit_domain()
    with pytest.raises(ConfigError):
        field_from_spec({"kind": "linear", "coeffs": [1.0]}, dom)


def test_field_sine_product():
    dom = unit_domain()
    spec = {"kind": "sine_product", "amplitude": 0.3, "waves": [2, 1]}
    f = field_from_spec(spec, dom)
    ref = GridField.from_function(
        dom, lambda x: 0.3 * np.sin(2 * np.pi * x[0]) * np.sin(np.pi * x[1]))
    assert np.allclose(f.values, ref.values)


def test_field_scherk_on_valid_box():
    box = [[-1.0, 1.0], [-1.0, 1.0]]
    dom = build_domain(builtin_chart("euclidean", 2, box=box), 1.0 / 4,
                       region={"region": "box", "bounds": box})
    f = field_from_spec({"kind": "scherk"}, dom)
    live = dom.mask != EXTERIOR
    assert np.all(np.isfinite(f.values[live]))
    expect = np.log(np.cos(dom.points[..., 0]) / np.cos(dom.points[..., 1]))
    assert np.allclose(f.values[live], expect[live])


def test_field_scherk_rejects_singular_domain():
    # cos(x1) changes sign inside [0, 2], so the log blows up on the lattice
    box = [[0.0, 2.0], [0.0, 2.0]]
    dom = build_domain(builtin_chart("euclidean", 2, box=box), 1.0 / 8,
                       region={"region": "box", "bounds": box})
    with pytest.raises(ConfigError, match="singular"):
        field_from_spec({"kind": "scherk"}, dom)


def test_field_radial_step():
    dom = unit_domain()
    spec = {"kind": "radial_step", "center": [0.5, 0.5], "radius": 0.25,
            "inside": 2.0, "outside": 0.0}
    f = field_from_spec(spec, dom)
    d = np.linalg.norm(dom.points - np.array([0.5, 0.5]), axis=-1)
    assert np.all(f.values[d < 0.25] == 2.0)
    assert np.all(f.values[d >= 0.25] == 0.0)


def test_field_csv_roundtrip(tmp_path):
    dom = unit_domain()
    src = GridField.from_function(dom, lambda x: x[0] ** 2 - x[1])
    path = tmp_path / "field.csv"
    save_field_csv(src, path)
    f = field_from_spec({"kind": "csv", "path": str(path)}, dom)
    assert np.allclose(f.values, src.values)


def test_field_unknown_kind():
    dom = unit_domain()
    with pytest.raises(ConfigError, match="unknown field kind"):
        field_from_spec({"kind": "fourier"}, dom)


# -------------------------------------------------------------- config parsing


def test_parse_collects_every_problem(tmp_path):
    raw = {
        "chart": {"kind": "euclidean", "n": 2},
        "region": UNIT_BOX,
        "h": -1.0,
        "u0": {"kind": "mystery"},
        "flow": {"eps": 0.1, "cfl": 1.5},
        "barrier": {"K": 0.3, "gamma": 1.0},
        "tol": 0.0,
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(raw, tmp_path)
    text = "; ".join(exc.value.problems)
    assert "phi" in text
    assert "h must be a positive number" in text
    assert "u0 spec" in text
    assert "cfl" in text
    assert "gamma" in text
    assert "tol" in text
    assert len(exc.value.problems) >= 6


def test_parse_defaults(tmp_path):
    raw = {
        "chart": {"kind": "euclidean", "n": 2},
        "region": UNIT_BOX,
        "h": 0.125,
        "phi": {"kind": "constant", "value": 0.0},
    }
    cfg = parse_config(raw, tmp_path)
    assert cfg.u0 == {"kind": "constant", "value": 0.0}
    assert cfg.tol == 1e-5
    assert cfg.warm_start is True
    assert cfg.schedule is None
    assert cfg.barrier == {"K": 0.3, "gamma": 1.1}
    assert cfg.output_dir == "graphflow_out"


def test_parse_gives_each_config_its_own_defaults(tmp_path):
    # editing a filled-in default of one parse leaves the next parse's alone
    raw = {key: base_config(tmp_path)[key] for key in ("chart", "region", "h", "phi")}
    first = parse_config(raw, tmp_path)
    first.u0["value"] = 7.0
    assert parse_config(raw, tmp_path).u0 == {"kind": "constant", "value": 0.0}


def test_parse_resolves_csv_relative_to_config(tmp_path, monkeypatch):
    # the path is kept as the config gives it and read from the config's directory
    dom = unit_domain(1.0 / 16)
    save_field_csv(GridField.constant(dom, 0.25), tmp_path / "u0.csv")
    raw = base_config(tmp_path / "out")
    raw["u0"] = {"kind": "csv", "path": "u0.csv"}
    cfg = parse_config(raw, tmp_path)
    assert cfg.u0["path"] == "u0.csv"
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    _, _, u0 = graphflow.cli._build_problem(cfg, tmp_path)
    assert np.all(u0.values == 0.25)


def test_parse_missing_csv_is_reported(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["phi"] = {"kind": "csv", "path": "nope.csv"}
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config(raw, tmp_path)


def test_parse_rejects_unknown_flow_key(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["flow"] = {"eps": 0.1, "viscosity": 2.0}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw, tmp_path)
    assert exc.value.problems[0].startswith("unknown flow keys ['viscosity']; expected keys")


@pytest.mark.parametrize("overrides,problem", [
    ({"h": float("inf")}, "h must be a positive number, got inf"),
    ({"flow": {"t_end": float("nan")}}, "flow t_end must be a number, got nan"),
    ({"chart": {"kind": "euclidean", "n": 2, "box": [[0.0, float("inf")], [0.0, 1.0]]}},
     "chart box must be a list of numbers"),
    # a NaN time is never reached: the time check would step forever
    ({"time_check": {"times_a": [float("nan")], "times_b": [0.1]}},
     "time_check times_a must be a flat list of numbers, got [nan]"),
])
def test_parse_rejects_nan_and_infinity(tmp_path, overrides, problem):
    # json.loads reads the NaN and Infinity that json.dumps writes
    raw = json.loads(json.dumps(base_config(tmp_path / "out", **overrides)))
    with pytest.raises(ConfigError) as exc:
        parse_config(raw, tmp_path)
    assert [p for p in exc.value.problems if p.startswith(problem)], exc.value.problems


def test_every_kind_key_has_a_json_form():
    kind_keys = {key for table in (CHART_PARAMS, REGION_KEYS, FIELD_KEYS)
                 for keys in table.values() for key in keys}
    flow_keys = set(graphflow.flow.FlowParams._fields)
    assert kind_keys | flow_keys | set(CHART_KEYS) <= set(FORMS)


def test_readme_config_table_matches_resolved_defaults(tmp_path):
    # the README's config-key table: key, JSON form, default, rule
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | JSON form | default | rule |") + 2
    rows = [line.split(" | ")[:3] for line in lines[start:lines.index("", start)]]
    minimal = {key: base_config(tmp_path)[key] for key in ("chart", "region", "h", "phi")}
    (tmp_path / "config.json").write_text(json.dumps(minimal))
    assert main(["barrier", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 0
    resolved = json.loads((tmp_path / "out" / "config_resolved.json").read_text())
    for key, _, default in rows:
        path = key.strip("| `").split(".")
        if default.startswith("`"):
            value = resolved
            for part in path:
                value = value[part]
            assert json.loads(default.strip("`")) == value, key
    required = {key.strip("| `") for key, _, default in rows if default == "required"}
    assert required == set(minimal)
    assert set(resolved) == {key.strip("| `").split(".")[0] for key, _, _ in rows}


# ------------------------------------------------------------------------- run


def test_run_constant_data_succeeds(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    for name in RUN_ARTIFACTS + ("manifest.json",):
        assert (out / name).is_file(), name
    cont = json.loads((out / "continuation.json").read_text())
    assert cont["converged"] is True
    assert cont["trace_error"] == 0.0
    assert all(leg["steps"] == 0 for leg in cont["legs"])
    att = json.loads((out / "attainment.json").read_text())
    # box corners stay uncertified (no flat barrier there), but nothing detaches
    assert att["detached"] == 0
    assert att["attained"] >= 1
    assert att["attained"] + att["uncertified"] == len(att["points"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == sorted(RUN_ARTIFACTS)
    for name, digest in manifest["artifacts"].items():
        assert sha256(out / name) == digest


def test_run_twice_is_byte_identical(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(a)]) == 0
    assert main(["run", str(cfg_path), "--out", str(b)]) == 0
    for name in RUN_ARTIFACTS + ("manifest.json",):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_with_csv_initial_guess(tmp_path):
    dom = unit_domain(1.0 / 16)
    save_field_csv(GridField.constant(dom, 0.25), tmp_path / "u0.csv")
    cfg_path, out = write_config(tmp_path, u0={"kind": "csv", "path": "u0.csv"})
    assert main(["run", str(cfg_path)]) == 0
    cont = json.loads((out / "continuation.json").read_text())
    assert cont["trace_error"] == 0.0


def write_metric_csv(path, bad=None):
    """An identity metric table on the nodes {0, 0.5, 1}^2; bad replaces the
    s12 entry of the third data row (file row 4) with its text."""
    rows = ["x1,x2,s11,s12,s21,s22"]
    rows += [f"{x},{y},1.0,{bad if bad and k == 2 else 0.0},0.0,1.0"
             for k, (x, y) in enumerate(product((0.0, 0.5, 1.0), repeat=2))]
    path.write_text("\n".join(rows) + "\n")


def test_run_table_chart_csv_from_another_directory(tmp_path, monkeypatch):
    # the chart's csv, like a field's path, is read relative to the config file
    cfg_dir, elsewhere = tmp_path / "cfg", tmp_path / "elsewhere"
    cfg_dir.mkdir()
    elsewhere.mkdir()
    write_metric_csv(cfg_dir / "metric.csv")
    cfg_path, out = write_config(cfg_dir, chart={"kind": "custom_table", "n": 2,
                                                 "params": {"csv": "metric.csv"}})
    monkeypatch.chdir(elsewhere)
    assert main(["run", str(cfg_path)]) == 0
    assert sorted(json.loads((out / "manifest.json").read_text())["artifacts"]) \
        == sorted(RUN_ARTIFACTS)
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["chart"]["params"]["csv"] == "metric.csv"


def test_parse_missing_chart_csv_is_reported(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["chart"] = {"kind": "custom_table", "n": 2, "params": {"csv": "nope.csv"}}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw, tmp_path)
    assert exc.value.problems == [f"chart csv file {str(tmp_path / 'nope.csv')!r} does not exist"]


def _failed_run(cfg_path, out, capsys, error):
    """The run exits 1, writes failure.json naming error, and returns stderr."""
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    assert json.loads((out / "failure.json").read_text())["error"] == error
    assert not (out / "manifest.json").exists()
    return capsys.readouterr().err


def test_run_non_utf8_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(json.dumps(base_config(tmp_path / "o")).encode()[:-1] + b', "x": "\xe9"}')
    err = _failed_run(bad, tmp_path / "o", capsys, "ConfigError")
    assert f"config file {str(bad)!r} is not UTF-8 text" in err


def test_run_lattice_too_large_to_allocate_exits_1(tmp_path, capsys):
    # a 10000001 x 10000001 node mask (90.9 TiB), which numpy refuses at once
    cfg_path, out = write_config(tmp_path, h=1e-7)
    _failed_run(cfg_path, out, capsys, "GridError")
    message = json.loads((out / "failure.json").read_text())["message"]
    assert message.startswith("cannot allocate the lattice of shape (10000001, 10000001) "
                              "(100000020000001 nodes): ")


def test_run_non_numeric_field_csv_exits_1(tmp_path, capsys):
    save_field_csv(GridField.constant(unit_domain(1.0 / 16), 0.25), tmp_path / "u0.csv")
    lines = (tmp_path / "u0.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",abc"
    (tmp_path / "u0.csv").write_text("\n".join(lines))
    cfg_path, out = write_config(tmp_path, u0={"kind": "csv", "path": "u0.csv"})
    err = _failed_run(cfg_path, out, capsys, "GridError")
    assert f"field csv {str(tmp_path / 'u0.csv')!r} row 4: could not convert" in err


@pytest.mark.parametrize("bad,problem", [("zero", "could not convert"),
                                         ("0.0,0.0", "7 columns, expected 6")])
def test_run_malformed_metric_table_exits_1(tmp_path, capsys, bad, problem):
    write_metric_csv(tmp_path / "metric.csv", bad=bad)
    cfg_path, out = write_config(tmp_path, chart={"kind": "custom_table", "n": 2,
                                                  "params": {"csv": "metric.csv"}})
    err = _failed_run(cfg_path, out, capsys, "ChartError")
    assert f"metric table {str(tmp_path / 'metric.csv')!r} row 4: {problem}" in err


def test_run_empty_field_csv_exits_1(tmp_path, capsys):
    (tmp_path / "u0.csv").write_text("")
    cfg_path, out = write_config(tmp_path, u0={"kind": "csv", "path": "u0.csv"})
    err = _failed_run(cfg_path, out, capsys, "GridError")
    assert f"field csv {str(tmp_path / 'u0.csv')!r} is empty" in err


@pytest.mark.parametrize("kept,node", [(0, (0, 0)), (288, (16, 16))], ids=["header_only", "one_row_short"])
def test_run_field_csv_missing_rows_exits_1(tmp_path, capsys, kept, node):
    # the header and the first `kept` node rows of a full 17 x 17 field csv
    save_field_csv(GridField.constant(unit_domain(1.0 / 16), 0.25), tmp_path / "full.csv")
    lines = (tmp_path / "full.csv").read_text().splitlines(keepends=True)
    (tmp_path / "u0.csv").write_text("".join(lines[:1 + kept]))
    cfg_path, out = write_config(tmp_path, u0={"kind": "csv", "path": "u0.csv"})
    _failed_run(cfg_path, out, capsys, "GridError")
    message = json.loads((out / "failure.json").read_text())["message"]
    assert message == f"field csv {str(tmp_path / 'u0.csv')!r} has no row for node {node}"


def test_run_field_csv_negative_node_index_exits_1(tmp_path, capsys):
    # a -1,-1 row stands in for the last row, (16, 16), which numpy would wrap to
    save_field_csv(GridField.constant(unit_domain(1.0 / 16), 0.25), tmp_path / "full.csv")
    *lines, last = (tmp_path / "full.csv").read_text().splitlines(keepends=True)
    assert last.startswith("16,16,")
    (tmp_path / "u0.csv").write_text("".join(lines) + "-1,-1," + last[len("16,16,"):])
    cfg_path, out = write_config(tmp_path, u0={"kind": "csv", "path": "u0.csv"})
    _failed_run(cfg_path, out, capsys, "GridError")
    message = json.loads((out / "failure.json").read_text())["message"]
    assert message == (f"field csv {str(tmp_path / 'u0.csv')!r} row 290: "
                       "node (-1, -1) is outside the grid of shape (17, 17)")


def test_run_field_csv_repeated_node_exits_1(tmp_path, capsys):
    # a second row for node (0, 0), after the full field, must not override the first
    save_field_csv(GridField.constant(unit_domain(1.0 / 16), 0.25), tmp_path / "full.csv")
    lines = (tmp_path / "full.csv").read_text().splitlines(keepends=True)
    (tmp_path / "u0.csv").write_text("".join(lines) + lines[1].rsplit(",", 1)[0] + ",99.0\n")
    cfg_path, out = write_config(tmp_path, u0={"kind": "csv", "path": "u0.csv"})
    _failed_run(cfg_path, out, capsys, "GridError")
    message = json.loads((out / "failure.json").read_text())["message"]
    assert message == f"field csv {str(tmp_path / 'u0.csv')!r} row 291: node (0, 0) repeats row 2"


def test_run_table_chart_with_repeated_axis_sample_exits_1(tmp_path, capsys):
    table = np.broadcast_to(np.eye(2), (3, 2, 2, 2)).tolist()
    cfg_path, out = write_config(tmp_path, chart={
        "kind": "custom_table", "n": 2,
        "params": {"axes": [[0.0, 0.0, 1.0], [0.0, 1.0]], "table": table}})
    err = _failed_run(cfg_path, out, capsys, "ChartError")
    assert ("custom_table axis 0 needs at least two strictly increasing samples, "
            "got [0.0, 0.0, 1.0]") in err


def test_run_empty_metric_table_exits_1(tmp_path, capsys):
    (tmp_path / "metric.csv").write_text("")
    cfg_path, out = write_config(tmp_path, chart={"kind": "custom_table", "n": 2,
                                                  "params": {"csv": "metric.csv"}})
    err = _failed_run(cfg_path, out, capsys, "ChartError")
    assert f"metric table {str(tmp_path / 'metric.csv')!r} is empty" in err


def test_run_writes_the_same_bytes_from_any_config_path(tmp_path, monkeypatch):
    # csv paths are recorded as the config gives them, so a relative and an
    # absolute config path write the same config_resolved.json
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    write_metric_csv(cfg_dir / "metric.csv")
    save_field_csv(GridField.constant(unit_domain(1.0 / 16), 0.25), cfg_dir / "u0.csv")
    cfg_path, _ = write_config(cfg_dir, "c.json", u0={"kind": "csv", "path": "u0.csv"},
                               chart={"kind": "custom_table", "n": 2,
                                      "params": {"csv": "metric.csv"}})
    monkeypatch.chdir(cfg_dir)
    assert main(["run", "c.json", "--out", str(tmp_path / "relative")]) == 0
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "absolute")]) == 0
    for name in ("config_resolved.json", "manifest.json"):
        assert ((tmp_path / "relative" / name).read_bytes()
                == (tmp_path / "absolute" / name).read_bytes()), name
    resolved = json.loads((tmp_path / "absolute" / "config_resolved.json").read_text())
    assert (resolved["u0"]["path"], resolved["chart"]["params"]["csv"]) == ("u0.csv", "metric.csv")


@pytest.mark.parametrize("text,problem", [
    ('{"artifacts": {"barrier.json": "ab', "is not valid JSON"),
    ('{"files": {}}\n', "has no artifacts object"),
])
def test_report_on_a_broken_manifest_exits_1(tmp_path, capsys, text, problem):
    (tmp_path / "manifest.json").write_text(text)
    assert main(["report", str(tmp_path)]) == 1
    assert f"{tmp_path / 'manifest.json'} {problem}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_run_records_time_uniqueness_gap(tmp_path):
    cfg_path, out = write_config(
        tmp_path, time_check={"times_a": [0.01, 0.02],
                              "times_b": [0.015, 0.025]})
    assert main(["run", str(cfg_path)]) == 0
    cont = json.loads((out / "continuation.json").read_text())
    assert cont["time_uniqueness_gap"] == 0.0


def test_run_time_check_beyond_the_horizon_fails_before_any_work(tmp_path):
    cfg_path, out = write_config(
        tmp_path, flow={"eps": 0.1, "t_end": 50.0},
        time_check={"times_a": [0.05, 0.1], "times_b": [0.075, 60]})
    assert main(["run", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert "time sequences reach 60.0, beyond the horizon 50.0" in fail["problems"]
    assert not (out / "barrier.json").exists()


def test_run_negative_check_times_fail_before_any_work(tmp_path):
    # both snapshots were the initial state, and the gap read 0.0
    cfg_path, out = write_config(tmp_path, time_check={"times_a": [-5.0], "times_b": [-1.0]})
    assert main(["run", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "ConfigError" and fail["problems"] == [
        "times_a must hold no negative time, got [-5.0]",
        "times_b must hold no negative time, got [-1.0]"]
    assert not (out / "barrier.json").exists()


@pytest.mark.parametrize("schedule,problem", [
    ([], "eps schedule is empty"),
    ([0.1, -0.05], "eps schedule must be positive: [0.1, -0.05]"),
    ([0.05, 0.1], "eps schedule must be strictly decreasing: [0.05, 0.1]"),
])
def test_run_bad_schedule_fails_before_any_work(tmp_path, schedule, problem):
    cfg_path, out = write_config(tmp_path, schedule=schedule)
    assert main(["run", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "ConfigError" and fail["problems"] == [problem]
    assert not (out / "config_resolved.json").exists() and not (out / "barrier.json").exists()


# moving data: both legs move.  Leg 1 reaches quasi-steady state near
# t = 0.33 in 12 super-steps, off the default cadence; leg 2 takes 5
MOVING = {"phi": {"kind": "scherk"},
          "u0": {"kind": "sine_product", "amplitude": 0.3, "waves": [1, 1]},
          "schedule": [0.1, 0.05], "tol": 3e-4}
CHECKED = {**MOVING, "time_check": {"times_a": [0.05, 0.1], "times_b": [0.075, 0.125]}}


def solution_values(run_dir):
    return np.loadtxt(run_dir / "solution.csv", delimiter=",", skiprows=1)[:, -1]


@pytest.mark.parametrize("data,times", [
    (MOVING, ([0.05, 0.1], [0.075, 0.125])),  # leg 1 runs past the last time
    (MOVING, ([0.3], [0.6])),                # leg 1 would converge before it: 756 explicit steps
    ({}, ([0.01], [0.02])),                  # stationary: leg 1 takes only the check's steps
], ids=["past", "converged", "stationary"])
def test_time_check_changes_no_artifact_but_its_gap(tmp_path, data, times):
    # the check rides leg 1 as its explicit prefix, so leg 1's steps and rows
    # change and u_bar moves within tol: by 1.6e-7 (past) and 1.0e-6
    # (converged) at tol 3e-4, held here to 1e-5.  The barrier and the
    # attainment verdicts stay those of the bare run
    runs = {}
    for name, check in (("checked", {"times_a": times[0], "times_b": times[1]}), ("bare", None)):
        cfg_path, _ = write_config(tmp_path, f"{name}.json", time_check=check, **data)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / name)]) == 0
        runs[name] = tmp_path / name
    assert (runs["checked"] / "barrier.json").read_bytes() == (runs["bare"] / "barrier.json").read_bytes()
    attained, bare_attained = (json.loads((d / "attainment.json").read_text()) for d in runs.values())
    for key in ("attained", "detached", "uncertified"):
        assert attained[key] == bare_attained[key], key
    assert np.max(np.abs(solution_values(runs["checked"]) - solution_values(runs["bare"]))) <= 1e-5
    cont, bare = (json.loads((d / "continuation.json").read_text()) for d in runs.values())
    assert cont["legs"][0]["steps"] > bare["legs"][0]["steps"]
    if not data:  # the prefix's explicit steps keep stationary data as it is
        assert bare["legs"][0]["steps"] == 0
        assert (runs["checked"] / "solution.csv").read_bytes() == \
            (runs["bare"] / "solution.csv").read_bytes()
    # the gap is the library's explicit check at leg 1's eps, from u0
    cfg = parse_config(json.loads((tmp_path / "checked.json").read_text()), tmp_path)
    _, phi, u0 = graphflow.cli._build_problem(cfg, tmp_path)
    assert cfg.flow.eps == cfg.schedule[0]
    assert cont["time_uniqueness_gap"] == time_sequence_uniqueness_check(
        cfg.flow, phi, u0, *times).gap


SCHERK_BOX = {"chart": {"kind": "euclidean", "n": 2, "box": [[-1.0, 1.0], [-1.0, 1.0]]},
              "region": {"region": "box"}, "phi": {"kind": "scherk"},
              "u0": {"kind": "constant", "value": 0.0}, "flow": {"t_end": 50.0}}


def run_with_every_leg_at_tol(monkeypatch, cfg_path, out):
    """graphflow run with no leg held to the gap resolution: every leg at tol."""
    with monkeypatch.context() as patch:
        patch.setattr(graphflow.continuation, "DEFAULT_GAP_STOP", 0.0)
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    return json.loads((out / "continuation.json").read_text())


def test_intermediate_legs_stop_at_the_gap_resolution(tmp_path, monkeypatch):
    # scherk_flow's config: legs 1 and 2 only warm-start the next leg and
    # feed the gaps, so they stop at DEFAULT_GAP_STOP; the last keeps tol.
    # Measured against every leg at tol: 202/48/72 against 226/72/72
    # evaluations, u_bar within 6.8e-13 and the gaps within 1.2e-7 (bench
    # seeds 0-15: 8.0e-12 and 2.8e-7)
    cfg_path, _ = write_config(tmp_path, **SCHERK_BOX, h=0.0625, schedule=[0.1, 0.05, 0.025],
                               time_check={"times_a": [0.05, 0.1], "times_b": [0.075, 0.125]})
    loose, tight = tmp_path / "loose", tmp_path / "tight"
    assert main(["run", str(cfg_path), "--out", str(loose)]) == 0
    ref = run_with_every_leg_at_tol(monkeypatch, cfg_path, tight)
    cont = json.loads((loose / "continuation.json").read_text())
    assert [leg["tol"] for leg in cont["legs"]] == [1e-4, 1e-4, 1e-6]
    assert [leg["tol"] for leg in ref["legs"]] == [1e-6] * 3
    # each leg converged against its own tol; leg 1 (from u0 = 0) stopped
    # above the threshold tol * (1 + 0) of the last leg's tol
    assert all(leg["converged"] for leg in cont["legs"]) and cont["converged"]
    assert cont["legs"][0]["final_sup_ut"] > 1e-6
    assert sum(leg["evaluations"] for leg in cont["legs"]) < \
        sum(leg["evaluations"] for leg in ref["legs"])
    assert np.max(np.abs(solution_values(loose) - solution_values(tight))) <= 1e-10
    assert np.max(np.abs(np.subtract(cont["cauchy_gaps"], ref["cauchy_gaps"]))) <= 1e-5
    assert cont["time_uniqueness_gap"] == ref["time_uniqueness_gap"]
    assert (loose / "barrier.json").read_bytes() == (tight / "barrier.json").read_bytes()
    attained, ref_attained = (json.loads((d / "attainment.json").read_text())
                              for d in (loose, tight))
    for key in ("attained", "detached", "uncertified"):
        assert attained[key] == ref_attained[key], key


def test_default_schedule_holds_every_leg_to_tol(tmp_path, monkeypatch):
    # with schedule null any leg may be the last, so each keeps tol: the run
    # writes what the explicit schedule of its own legs writes at tol
    cfg_path, _ = write_config(tmp_path, "null.json", **SCHERK_BOX, h=0.125, schedule=None)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "null")]) == 0
    cont = json.loads((tmp_path / "null" / "continuation.json").read_text())
    assert len(cont["legs"]) > 2 and all(leg["steps"] for leg in cont["legs"])
    assert [leg["tol"] for leg in cont["legs"]] == [1e-6] * len(cont["legs"])
    explicit, _ = write_config(tmp_path, "explicit.json", **SCHERK_BOX, h=0.125,
                               schedule=cont["eps_schedule"])
    run_with_every_leg_at_tol(monkeypatch, explicit, tmp_path / "explicit")
    for name in ("continuation.json", "attainment.json", "solution.csv", "diagnostics.csv"):
        assert (tmp_path / "null" / name).read_bytes() == \
            (tmp_path / "explicit" / name).read_bytes(), name


def test_resolved_config_is_a_config(tmp_path):
    # running a run's own config_resolved.json, elsewhere, writes the same bytes
    cfg_path, _ = write_config(tmp_path, **CHECKED)
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["run", str(cfg_path), "--out", str(first)]) == 0
    assert main(["run", str(first / "config_resolved.json"), "--out", str(again)]) == 0
    for name in (*RUN_ARTIFACTS, "manifest.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_run_snapshot_cadence_thins_diagnostics(tmp_path):
    moving = {
        "phi": {"kind": "constant", "value": 0.0},
        "u0": {"kind": "sine_product", "amplitude": 0.3, "waves": [1, 1]},
        "flow": {"eps": 0.1, "t_end": 5.0},
        "schedule": [0.1],
        # the mixed super-steps take u to phi = 0 fast: 14 steps at this tol
        "tol": 1e-9,
    }
    cfg_path, _ = write_config(tmp_path, snapshot_every_steps=1, **moving)
    dense = tmp_path / "dense"
    assert main(["run", str(cfg_path), "--out", str(dense)]) == 0
    full = (dense / "diagnostics.csv").read_text().splitlines()

    cfg_path2, _ = write_config(tmp_path, name="config5.json",
                                snapshot_every_steps=5, **moving)
    thin_dir = tmp_path / "thin"
    assert main(["run", str(cfg_path2), "--out", str(thin_dir)]) == 0
    thin = (thin_dir / "diagnostics.csv").read_text().splitlines()

    assert len(full) > 12
    assert len(thin) < len(full)
    assert thin[0] == full[0]          # header
    assert thin[1] == full[1]          # step 0 kept
    assert thin[-1] == full[-1]        # final row always kept
    resolved = json.loads((thin_dir / "config_resolved.json").read_text())
    assert resolved["snapshot_every_steps"] == 5


def test_run_default_cadence_samples_each_leg(tmp_path, monkeypatch):
    # moving data and a time check, whose explicit steps are leg 1's first
    # steps and rows: each leg keeps steps 1, 11, 21, ... and its last step,
    # row for row as the dense run writes them, and E^eps is evaluated for
    # those rows only
    energies, real = [], graphflow.flow.e_eps
    monkeypatch.setattr(graphflow.flow, "e_eps",
                        lambda *args: energies.append(1) or real(*args))
    check = {"times_a": [0.3], "times_b": [0.6]}
    runs, rows = {"dense": {"snapshot_every_steps": 1}, "default": {}}, {}
    for name, cadence in runs.items():
        energies.clear()
        cfg_path, _ = write_config(tmp_path, f"{name}.json", time_check=check,
                                   **MOVING, **cadence)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / name)]) == 0
        rows[name] = (tmp_path / name / "diagnostics.csv").read_bytes().split(b"\r\n")[1:-1]
        assert len(energies) == len(rows[name])
    cont = json.loads((tmp_path / "default" / "continuation.json").read_text())
    steps = [leg["steps"] for leg in cont["legs"]]
    assert steps == [756, 5]
    assert len(rows["dense"]) == sum(steps)
    legs = [rows["dense"][:steps[0]], rows["dense"][steps[0]:]]
    assert rows["default"] == [row for leg in legs for i, row in enumerate(leg)
                               if i % 10 == 0 or i == len(leg) - 1]
    for name in set(RUN_ARTIFACTS) - {"config_resolved.json", "diagnostics.csv"}:
        assert ((tmp_path / "dense" / name).read_bytes()
                == (tmp_path / "default" / name).read_bytes()), name


def test_run_is_byte_identical_across_blas_threads(tmp_path):
    # the least-squares fit of the legs' Anderson mixing is the first
    # BLAS-sized reduction on the flow path: the thread count of a fresh
    # interpreter must not change a byte
    import graphflow
    src = str(Path(graphflow.__file__).resolve().parents[1])
    cfg_path, _ = write_config(tmp_path, **CHECKED)
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "graphflow.cli", "run", str(cfg_path),
                        "--out", str(tmp_path / threads)], env=env, check=True)
    cont = json.loads((tmp_path / "1" / "continuation.json").read_text())
    assert all(leg["steps"] > 1 for leg in cont["legs"])
    for name in RUN_ARTIFACTS + ("manifest.json",):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_run_checks_estimates_on_steps_the_cadence_skips(tmp_path, monkeypatch):
    # the bound is tightened before step 5, which the default cadence does
    # not sample; the check must still fire there
    step = graphflow.continuation.flow_step

    def tightened(state, *args):
        if state.step == 4:
            state.bound_hi = 0.1  # below the actual sup
        return step(state, *args)

    monkeypatch.setattr(graphflow.continuation, "flow_step", tightened)
    cfg_path, out = write_config(tmp_path, **{**MOVING, "flow": {
        "eps": 0.1, "t_end": 5.0, "assert_estimates": True}})
    assert main(["run", str(cfg_path)]) == 2
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "EstimateViolation"
    assert fail["message"].startswith("maximum principle violated at step 5:")


def run_files(out):
    return sorted(p.name for p in out.iterdir())


def test_time_check_estimate_violation_exits_2(tmp_path, monkeypatch):
    # the negated defect rises wherever the real one falls
    real = graphflow.continuation._source_norm
    monkeypatch.setattr(graphflow.continuation, "_source_norm", lambda u, eps: -real(u, eps))
    cfg_path, out = write_config(tmp_path, **CHECKED)
    assert main(["run", str(cfg_path)]) == 2
    assert run_files(out) == ["barrier.json", "config_resolved.json", "failure.json"]
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "EstimateViolation"
    assert fail["message"].startswith("stationarity defect rose from")


def test_time_check_divergence_keeps_step_and_node(tmp_path, monkeypatch):
    # a step of leg 1's explicit prefix diverges
    step, taken = graphflow.continuation.flow_step, []

    def diverging(state, params, sample, stages):
        taken.append(stages)
        if state.step == 6:
            raise graphflow.errors.FlowDiverged("non-finite value at node (3, 4) on step 7",
                                                step=7, node=(3, 4))
        return step(state, params, sample, stages)

    monkeypatch.setattr(graphflow.continuation, "flow_step", diverging)
    cfg_path, out = write_config(tmp_path, **CHECKED)
    assert main(["run", str(cfg_path)]) == 3
    assert taken == [1] * 7
    assert run_files(out) == ["barrier.json", "config_resolved.json", "failure.json"]
    fail = json.loads((out / "failure.json").read_text())
    assert (fail["error"], fail["step"], fail["node"]) == ("FlowDiverged", 7, [3, 4])


def test_time_check_gap_is_recorded_when_a_leg_does_not_converge(tmp_path):
    cfg_path, out = write_config(tmp_path, **{**CHECKED, "flow": {"eps": 0.1, "t_end": 0.2}})
    assert main(["run", str(cfg_path)]) == 3
    assert "continuation.json" in run_files(out) and "manifest.json" not in run_files(out)
    cont = json.loads((out / "continuation.json").read_text())
    assert cont["converged"] is False and cont["time_uniqueness_gap"] > 0


@pytest.mark.parametrize("t_end,times,code", [
    (0.125, CHECKED["time_check"], 3),                # leg 1 still moves at t_end
    (0.6, {"times_a": [0.3], "times_b": [0.6]}, 0),  # leg 1 has converged by t_end
])
def test_time_check_up_to_t_end(tmp_path, t_end, times, code):
    # a requested time may equal t_end, and t_end counts leg 1's explicit steps
    cfg_path, out = write_config(tmp_path, **{**MOVING, "flow": {"eps": 0.1, "t_end": t_end}},
                                 time_check=times)
    assert main(["run", str(cfg_path)]) == code
    cont = json.loads((out / "continuation.json").read_text())
    assert cont["legs"][0]["converged"] is (code == 0)
    assert cont["time_uniqueness_gap"] > 0


@pytest.mark.parametrize("flow,schedule", [
    ({"eps": 0.1, "t_end": 50.0}, [0.1, 0.05, 0.025]),  # the benchmark's scherk_flow
    ({"eps": 0.1}, None),
    ({}, [0.05, 0.025]),
])
def test_parse_accepts_flow_eps_of_leg_1(tmp_path, flow, schedule):
    cfg = parse_config(base_config(tmp_path / "out", flow=flow, schedule=schedule), tmp_path)
    assert cfg.flow.eps == (0.1 if schedule is None else schedule[0])


@pytest.mark.parametrize("schedule,first", [([0.1, 0.05], 0.1), (None, 0.1)])
def test_run_flow_eps_other_than_leg_1s_exits_1(tmp_path, schedule, first):
    cfg_path, out = write_config(tmp_path, flow={"eps": 0.05}, schedule=schedule)
    assert main(["run", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "ConfigError" and fail["problems"] == [
        f"flow eps must equal the first eps of schedule, {first}, got 0.05"]
    assert not (out / "barrier.json").exists()


def test_run_time_check_runs_at_the_first_eps_of_the_schedule(tmp_path):
    # no flow eps: the check, like leg 1, runs at 0.05, not at 0.1
    cfg_path, out = write_config(tmp_path, **{**CHECKED, "flow": {"t_end": 5.0},
                                              "schedule": [0.05, 0.025]})
    assert main(["run", str(cfg_path)]) == 0
    gap = json.loads((out / "continuation.json").read_text())["time_uniqueness_gap"]
    cfg = parse_config(json.loads(cfg_path.read_text()), tmp_path)
    _, phi, u0 = graphflow.cli._build_problem(cfg, tmp_path)
    times = CHECKED["time_check"].values()
    for eps, same in ((0.05, True), (0.1, False)):
        check = time_sequence_uniqueness_check(cfg.flow._replace(eps=eps), phi, u0, *times)
        assert (gap == check.gap) is same, eps


def test_run_empty_probe_set_fails_before_barrier(tmp_path):
    # no node of a radius-0.4 disc at h = 1/8 lies 4 cells inside it
    cfg_path, out = write_config(tmp_path, h=0.125, region={
        "region": "disc", "center": [0.5, 0.5], "radius": 0.4})
    assert main(["run", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "ConfigError"
    assert fail["message"].startswith("probe set is empty")
    assert not (out / "barrier.json").exists()
    # the barrier command reads no probe set
    assert main(["barrier", str(cfg_path), "--out", str(tmp_path / "barrier")]) == 0


def test_run_invalid_snapshot_cadence_exits_1(tmp_path):
    cfg_path, out = write_config(tmp_path, snapshot_every_steps=0)
    assert main(["run", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert any("snapshot_every_steps" in p for p in fail["problems"])


def test_run_invalid_cfl_exits_1(tmp_path, capsys):
    # 0.3 is past the explicit limit 1/4 for n >= 2
    for cfl in (1.5, 0.3):
        cfg_path, out = write_config(tmp_path, f"cfl_{cfl}.json", flow={"eps": 0.1, "cfl": cfl})
        assert main(["run", str(cfg_path)]) == 1
        fail = json.loads((out / "failure.json").read_text())
        assert fail["error"] == "ConfigError"
        assert fail["exit_code"] == 1
        assert any("cfl" in p for p in fail["problems"])
        assert "cfl" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


def test_run_unknown_top_level_key_exits_1(tmp_path):
    cfg_path, out = write_config(tmp_path, threads=2)
    assert main(["run", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "ConfigError"
    assert any("threads" in p for p in fail["problems"])
    assert not (out / "manifest.json").exists()


def test_run_seed_key_exits_1(tmp_path):
    # graphflow draws no random numbers, so no command takes a seed
    cfg_path, out = write_config(tmp_path, seed=0)
    assert main(["run", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert any("unknown config keys ['seed']" in p for p in fail["problems"])


@pytest.mark.parametrize("key,overrides", [
    ("tol", {"tol": "abc"}),
    ("barrier", {"barrier": 5}),
    ("barrier K", {"barrier": {"K": "x"}}),
    ("flow", {"flow": 5}),
    ("region", {"region": "disc"}),
    ("phi value", {"phi": {"kind": "constant", "value": "a"}}),
    ("chart n", {"chart": {"kind": "euclidean", "n": "two"}}),
    ("warm_start", {"warm_start": "no"}),
    # nested lists pass the number check; the flat-list check must catch them
    ("time_check times_a", {"time_check": {"times_a": [[0.05]], "times_b": [0.1]}}),
    ("time_check times_b", {"time_check": {"times_a": [0.05], "times_b": [0.1, [0.2]]}}),
])
def test_run_malformed_value_exits_1(tmp_path, key, overrides):
    cfg_path, out = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "ConfigError"
    assert [p for p in fail["problems"] if p.startswith(f"{key} must be")]
    assert not (out / "manifest.json").exists() and not (out / "barrier.json").exists()


@pytest.mark.parametrize("level,overrides", [
    ("region", {"region": {"region": "disc", "center": [0.5, 0.5],
                           "radius": 0.4, "bounds": [[0.0, 1.0], [0.0, 1.0]]}}),
    ("barrier", {"barrier": {"K": 0.3, "gamma": 1.1, "L": 2.0}}),
    ("time_check", {"time_check": {"times_a": [0.01], "times_b": [0.02],
                                   "times_c": [0.03]}}),
    ("phi", {"phi": {"kind": "constant", "value": 0.25, "offst": 0.1}}),
    ("chart", {"chart": {"kind": "euclidean", "n": 2, "nn": 3}}),
    ("chart params", {"chart": {"kind": "euclidean", "n": 2, "params": {"radius": 2.0}}}),
])
def test_run_unknown_nested_key_exits_1(tmp_path, level, overrides):
    cfg_path, out = write_config(tmp_path, **overrides)
    assert main(["run", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "ConfigError"
    assert any(p.startswith(f"unknown {level} keys") for p in fail["problems"])
    assert not (out / "manifest.json").exists()


def test_run_divergence_records_step_and_node(tmp_path, capsys, monkeypatch):
    # four times the default step is four times the explicit limit in two
    # dimensions; no accepted cfl reaches it
    bound = graphflow.flow.stable_dt
    monkeypatch.setattr(graphflow.flow, "stable_dt", lambda *args: 4.0 * bound(*args))
    cfg_path, out = write_config(
        tmp_path, phi={"kind": "linear", "coeffs": [1.0, 0.5]},
        u0={"kind": "constant", "value": 0.0},
        flow={"eps": 0.1, "t_end": 5.0}, schedule=[0.1])
    assert main(["run", str(cfg_path)]) == 3
    assert "FlowDiverged" in capsys.readouterr().err
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "FlowDiverged"
    assert fail["exit_code"] == 3
    assert isinstance(fail["step"], int) and fail["step"] > 0
    assert len(fail["node"]) == 2
    assert all(0 <= i <= 16 for i in fail["node"])
    assert (f"at node {tuple(fail['node'])} on step {fail['step']}"
            in fail["message"])
    assert not (out / "manifest.json").exists()


def test_run_missing_config_exits_1(tmp_path, capsys):
    out = tmp_path / "fallback"
    rc = main(["run", str(tmp_path / "absent.json"), "--out", str(out)])
    assert rc == 1
    assert "does not exist" in capsys.readouterr().err
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "ConfigError"


def test_run_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_run_nonconvergence_exits_3(tmp_path, capsys):
    # a horizon of 1e-3 cannot relax linear data from a flat start
    cfg_path, out = write_config(
        tmp_path,
        chart={"kind": "euclidean", "n": 1, "box": [[0.0, 1.0]]},
        region={"region": "box", "bounds": [[0.0, 1.0]]},
        phi={"kind": "linear", "coeffs": [1.0], "offset": 0.0},
        u0={"kind": "constant", "value": 0.0},
        flow={"eps": 0.1, "t_end": 1e-3},
        tol=1e-9)
    assert main(["run", str(cfg_path)]) == 3
    assert "quasi-steady" in capsys.readouterr().err
    cont = json.loads((out / "continuation.json").read_text())
    assert cont["converged"] is False
    fail = json.loads((out / "failure.json").read_text())
    assert fail["exit_code"] == 3
    assert not (out / "manifest.json").exists()
    assert not (out / "attainment.json").exists()


@pytest.mark.parametrize("command, source", [
    ("run", "flag"), ("run", "env"), ("run", "config"), ("barrier", "flag"),
    ("barrier", "env"), ("barrier", "config"), ("selftest", "flag"), ("selftest", "env")])
def test_out_under_a_regular_file_exits_1(tmp_path, monkeypatch, capsys, command, source):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    bad = tmp_path / "file" / "sub"
    argv = [command]
    if command != "selftest":
        cfg_path, _ = write_config(tmp_path, output_dir=str(bad) if source == "config" else "out")
        argv.append(str(cfg_path))
    if source == "flag":
        argv += ["--out", str(bad)]
    elif source == "env":
        monkeypatch.setenv("GRAPHFLOW_OUT", str(bad))
    assert main(argv) == 1
    assert f"error (ConfigError): output directory {bad} is not writable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_env_var_overrides_config(tmp_path, monkeypatch):
    cfg_path, out = write_config(tmp_path)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("GRAPHFLOW_OUT", str(env_out))
    assert main(["run", str(cfg_path)]) == 0
    assert (env_out / "manifest.json").is_file()
    assert not out.exists()


def test_run_out_flag_beats_env_var(tmp_path, monkeypatch):
    cfg_path, _ = write_config(tmp_path)
    monkeypatch.setenv("GRAPHFLOW_OUT", str(tmp_path / "env_out"))
    flag_out = tmp_path / "flag_out"
    assert main(["run", str(cfg_path), "--out", str(flag_out)]) == 0
    assert (flag_out / "manifest.json").is_file()
    assert not (tmp_path / "env_out").exists()


@pytest.mark.parametrize("output_dir", [5, 0.5, True, ["out"], {}])
@pytest.mark.parametrize("flag", [True, False])
def test_run_non_string_output_dir_exits_1(tmp_path, monkeypatch, output_dir, flag):
    # without --out the failure goes to the default directory
    monkeypatch.chdir(tmp_path)
    cfg_path, _ = write_config(tmp_path, output_dir=output_dir)
    out = tmp_path / ("flag_out" if flag else "graphflow_out")
    assert main(["run", str(cfg_path)] + (["--out", str(out)] if flag else [])) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert fail["problems"] == [f"output_dir must be a string, got {output_dir!r}"]
    assert not (out / "config_resolved.json").exists()


# ---------------------------------------------------------------------- report


def test_report_bundles_and_reruns_identically(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    assert main(["report", str(out)]) == 0
    first = (out / "report.json").read_bytes()
    assert main(["report", str(out)]) == 0
    assert (out / "report.json").read_bytes() == first
    bundle = json.loads(first)
    for key in ("manifest", "config_resolved", "barrier", "continuation",
                "attainment", "diagnostics"):
        assert key in bundle, key
    assert bundle["diagnostics"]["columns"][0] == "step"


def test_report_summarises_a_run_that_steps(tmp_path):
    cfg_path, out = write_config(
        tmp_path, phi={"kind": "linear", "coeffs": [0.5, -0.25], "offset": 0.0},
        u0={"kind": "constant", "value": 0.0})
    assert main(["run", str(cfg_path)]) == 0
    assert main(["report", str(out)]) == 0
    summary = json.loads((out / "report.json").read_text())["diagnostics"]
    with open(out / "diagnostics.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) > 2 and summary["rows"] == len(rows)
    assert summary["columns"] == header
    assert summary["first"] == dict(zip(header, rows[0]))
    assert summary["last"] == dict(zip(header, rows[-1]))
    assert int(summary["last"]["step"]) > int(summary["first"]["step"]) > 0


def test_report_requires_manifest(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 1
    assert "manifest.json" in capsys.readouterr().err


def test_report_detects_tampered_artifact(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    with open(out / "solution.csv", "a") as fh:
        fh.write("tampered\n")
    assert main(["report", str(out)]) == 1
    assert "manifest hash" in capsys.readouterr().err


def test_report_detects_missing_artifact(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    (out / "attainment.json").unlink()
    assert main(["report", str(out)]) == 1
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["parent", "absolute"])
def test_report_refuses_artifacts_outside_the_run_directory(tmp_path, capsys, where):
    # the entry's hash is right, so only its name can refuse it
    run_dir, outside = tmp_path / "run", tmp_path / "x.json"
    run_dir.mkdir()
    outside.write_text('{"secret": 1}\n')
    name = "../x.json" if where == "parent" else str(outside)
    (run_dir / "manifest.json").write_text(json.dumps({"artifacts": {name: sha256(outside)}}))
    assert main(["report", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and repr(name) in err
    assert not (run_dir / "report.json").exists()


@pytest.mark.parametrize("name,content", [
    ("barrier.json", b'{"points": ['),
    ("diagnostics.csv", b"step,t\n\xff\xfe,0\n"),
], ids=["json-not-json", "csv-not-utf8"])
def test_report_on_an_unreadable_artifact_exits_1(tmp_path, capsys, name, content):
    # the entry's hash is right, so only its content can refuse it
    (tmp_path / name).write_bytes(content)
    (tmp_path / "manifest.json").write_text(
        json.dumps({"artifacts": {name: sha256(tmp_path / name)}}))
    assert main(["report", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error (ConfigError): {name} matches its manifest hash")
    assert not (tmp_path / "report.json").exists()


# --------------------------------------------------------------------- barrier


def test_barrier_region_past_the_chart_box_reports_rim_without_crossing(tmp_path):
    # the region holds every lattice node, so no segment from an interior
    # node to a rim node meets the region edge
    cfg_path, out = write_config(
        tmp_path, region={"region": "box", "bounds": [[-1.0, 2.0], [-1.0, 2.0]]})
    assert main(["barrier", str(cfg_path)]) == 0
    bar = json.loads((out / "barrier.json").read_text())
    assert bar["certified"] is False
    assert bar["points"][0] == {"x0": [0.0, 0.0], "admissible": False, "certified": False,
                                "reason": "no boundary crossing between (1, 1) and (0, 0)",
                                "samples": 0}
    assert all(not p["admissible"] and not p["certified"]
               and p["reason"].startswith("no boundary crossing") for p in bar["points"])


def test_barrier_subcommand_writes_certificate_only(tmp_path):
    # the disc certifies everywhere; box corners would not
    cfg_path, out = write_config(
        tmp_path,
        region={"region": "disc", "center": [0.5, 0.5], "radius": 0.4})
    assert main(["barrier", str(cfg_path)]) == 0
    bar = json.loads((out / "barrier.json").read_text())
    assert bar["certified"] is True
    assert bar["oscillation"] == 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == ["barrier.json",
                                             "config_resolved.json"]
    assert not (out / "continuation.json").exists()


def test_barrier_certifies_table_region(tmp_path):
    # the disc_barrier disc at h = 1/32, given as its sampled signed distance
    axis = np.linspace(0.0, 1.0, 33)
    sdf = np.hypot(*np.meshgrid(axis - 0.5, axis - 0.5, indexing="ij")) - 0.4
    cfg_path, out = write_config(tmp_path, h=1.0 / 32,
                                 region={"region": "table", "values": sdf.tolist()})
    assert main(["barrier", str(cfg_path)]) == 0
    bar = json.loads((out / "barrier.json").read_text())
    assert len(bar["points"]) == 104
    assert all(p["certified"] for p in bar["points"])
    assert bar["certified"] is True


def test_barrier_on_a_table_chart_reaching_the_box_edge(tmp_path):
    axis = [0.0, 0.5, 1.0]
    table = np.broadcast_to(np.eye(2), (3, 3, 2, 2)).tolist()
    cfg_path, out = write_config(
        tmp_path, region={"region": "box"},
        chart={"kind": "custom_table", "n": 2,
               "params": {"axes": [axis, axis], "table": table}})
    assert main(["barrier", str(cfg_path)]) == 0
    bar = json.loads((out / "barrier.json").read_text())
    assert sum(p["certified"] for p in bar["points"]) == 36


# -------------------------------------------------------------------- selftest


@pytest.fixture(scope="module")
def selftest_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("selftest")
    assert main(["selftest", "--out", str(out)]) == 0
    return out


def test_selftest_is_deterministic(tmp_path, selftest_run):
    again = tmp_path / "again"
    assert main(["selftest", "--out", str(again)]) == 0
    assert ((again / "selftest.json").read_bytes()
            == (selftest_run / "selftest.json").read_bytes())


def test_selftest_battery_values(selftest_run):
    doc = json.loads((selftest_run / "selftest.json").read_text())
    assert list(doc) == ["results"]
    res = doc["results"]
    assert abs(res["ramp"]["at_two_thirds"] - 8.0 / 27.0) < 1e-12
    assert res["ramp"]["at_two"] == 0.0
    assert res["affine_residual"] <= 1e-12
    assert res["affine_continuation"]["trace_error"] < 1e-6
    assert res["affine_continuation"]["converged"] is True
    assert res["flat_barrier"]["certified"] is True
    assert abs(res["flat_barrier"]["margin"] - 0.91) < 1e-6
    assert res["disc_solvability"]["certified"] is True
    assert res["j_boundary_term"] == 0.0


# ------------------------------------------------------------------- interface


def test_main_requires_a_subcommand(capsys):
    # every usage error exits 1, as a config error does: 2 is a violated estimate
    for argv in ([], ["bogus"], ["run"], ["selftest", "--seed", "x"], ["report"],
                 ["selftest", "--seed", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0


def test_import_loads_no_scipy():
    import graphflow
    src = str(Path(graphflow.__file__).resolve().parents[1])
    code = ("import sys, graphflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_process_pool_module():
    # a run is one process: multiprocessing and concurrent.futures would
    # add their import time to every run
    import graphflow
    src = str(Path(graphflow.__file__).resolve().parents[1])
    code = ("import sys, graphflow.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_dataclasses():
    # graphflow's records are named tuples and plain classes: generating
    # their dataclass methods took 9-13 ms of every run's start-up
    import graphflow
    src = str(Path(graphflow.__file__).resolve().parents[1])
    code = "import sys, graphflow.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "graphflow.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "selftest" in proc.stdout


# ------------------------------------------------------------------ config fuzz

FUZZ_BASE = {
    "chart": {"kind": "euclidean", "n": 2, "box": [[0.0, 1.0], [0.0, 1.0]]},
    "region": {"region": "disc", "center": [0.5, 0.5], "radius": 0.4},
    "h": 0.125,
    "phi": {"kind": "linear", "coeffs": [0.1, 0.05], "offset": 0.0},
    "u0": {"kind": "radial_step", "center": [0.5, 0.5], "radius": 0.2,
           "inside": 0.1, "outside": 0.0},
    "flow": {"eps": 0.1, "t_end": 1.0, "assert_estimates": False},
    "schedule": [0.1],
    "tol": 1e-4,
    "warm_start": True,
    "barrier": {"K": 0.3, "gamma": 1.1},
    "time_check": {"times_a": [0.01], "times_b": [0.02]},
    "output_dir": "unused",
    "snapshot_every_steps": 1,
}
FUZZ_SWAPS = (None, "x", ["x"], [], {}, True, -1, 0.5)
NULLABLE = (("schedule",), ("time_check",))


def json_type(value):
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return "number" if number else type(value).__name__


def fuzz_mutants():
    """(label, config, retyped): every key of FUZZ_BASE dropped, and its
    value replaced by each of FUZZ_SWAPS, one at a time.  retyped marks a
    swap to another JSON type, which must be a config error (null is a
    value of its own only for the keys in NULLABLE)."""
    def paths(node, prefix=()):
        for key, value in node.items():
            yield prefix + (key,), value
            if isinstance(value, dict):
                yield from paths(value, prefix + (key,))

    for path, value in paths(FUZZ_BASE):
        for swap in ("drop",) + FUZZ_SWAPS:
            cfg = copy.deepcopy(FUZZ_BASE)
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            if swap == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = swap
            retyped = (swap != "drop" and json_type(swap) != json_type(value)
                       and not (swap is None and path in NULLABLE))
            yield f"{'.'.join(path)}={swap!r}", cfg, retyped


def test_config_fuzz_exits_0_or_1_with_failure_json(tmp_path, capsys):
    bad, retyped_count = [], 0
    for k, (label, cfg, retyped) in enumerate(fuzz_mutants()):
        out = tmp_path / f"out{k}"
        path = tmp_path / f"config{k}.json"
        path.write_text(json.dumps(cfg))
        try:
            code = main(["barrier", str(path), "--out", str(out)])
        except Exception as exc:  # a traceback is what the test looks for
            bad.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if code not in (0, 1) or (code == 1) != (out / "failure.json").is_file():
            bad.append(f"{label}: exit {code}")
        elif retyped:
            retyped_count += 1
            error = code == 1 and json.loads((out / "failure.json").read_text())["error"]
            if error != "ConfigError" or (out / "config_resolved.json").exists() \
                    or (out / "barrier.json").exists():
                bad.append(f"{label}: a wrong JSON type gave exit {code}, {error}")
    capsys.readouterr()
    assert k > 300 and retyped_count > 200
    assert bad == [], "\n".join(bad)


@pytest.mark.parametrize("overrides,problem", [
    ({"region": {"region": "disc", "center": [0.5, 0.5]}},
     "missing required region key 'radius'"),
    ({"phi": {"kind": "constant"}}, "missing required phi key 'value'"),
    ({"chart": {"kind": ["euclidean"], "n": 2}}, "chart kind must be one of"),
    ({"region": {"region": ["disc"], "center": [0.5, 0.5], "radius": 0.4}},
     "region must name a kind"),
    ({"region": {"region": "disc", "center": [0.5, 0.5], "radius": [0.4]}},
     "region radius must be a number"),
    # per-axis lists must match the chart dimension
    ({"region": {"region": "disc", "center": [0.5, 0.5, 0.5], "radius": 0.4}},
     "region center must have shape (2,) on a 2-D chart"),
    ({"region": {"region": "annulus", "center": [0.5], "r_inner": 0.1, "r_outer": 0.4}},
     "region center must have shape (2,)"),
    ({"phi": {"kind": "radial_step", "center": [0.5, 0.5, 0.5], "radius": 0.2,
              "inside": 1.0, "outside": 0.0}}, "phi center must have shape (2,)"),
    ({"u0": {"kind": "linear", "coeffs": [1.0, 2.0, 3.0]}}, "u0 coeffs must have shape (2,)"),
    ({"region": {"region": "box", "bounds": [[0.0, 1.0]]}},
     "region bounds must have shape (2, 2)"),
    ({"chart": {"kind": "euclidean", "n": 2, "box": [[0.0, 1.0], [0.0]]}},
     "chart box must have shape (2, 2)"),
    ({"chart": {"kind": "euclidean", "n": 3}}, "region bounds must have shape (3, 2)"),
    # the chart dimension is a whole number >= 1, never truncated
    ({"chart": {"kind": "euclidean", "n": 2.5}}, "chart n must be a whole number >= 1, got 2.5"),
    ({"chart": {"kind": "euclidean", "n": 0}}, "chart n must be a whole number >= 1, got 0"),
])
def test_barrier_malformed_config_is_a_config_error(tmp_path, overrides, problem):
    cfg_path, out = write_config(tmp_path, **overrides)
    assert main(["barrier", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert fail["error"] == "ConfigError"
    assert any(p.startswith(problem) for p in fail["problems"]), fail["problems"]
