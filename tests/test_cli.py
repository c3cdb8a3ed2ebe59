import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from graphflow.cli import (RUN_ARTIFACTS, field_from_spec, main, parse_config)
from graphflow.errors import ConfigError
from graphflow.grid import EXTERIOR, GridField, build_domain, save_field_csv
from graphflow.manifold import builtin_chart

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
    assert (cfg.barrier_k, cfg.barrier_gamma) == (0.3, 1.1)
    assert cfg.seed == 0
    assert cfg.output_dir == "graphflow_out"


def test_parse_resolves_csv_relative_to_config(tmp_path):
    dom = unit_domain(1.0 / 16)
    save_field_csv(GridField.constant(dom, 0.25), tmp_path / "u0.csv")
    raw = base_config(tmp_path / "out")
    raw["u0"] = {"kind": "csv", "path": "u0.csv"}
    cfg = parse_config(raw, tmp_path)
    assert cfg.u0["path"] == str(tmp_path / "u0.csv")


def test_parse_missing_csv_is_reported(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["phi"] = {"kind": "csv", "path": "nope.csv"}
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config(raw, tmp_path)


def test_parse_rejects_unknown_flow_key(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["flow"] = {"eps": 0.1, "viscosity": 2.0}
    with pytest.raises(ConfigError, match="flow"):
        parse_config(raw, tmp_path)


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


def test_run_records_time_uniqueness_gap(tmp_path):
    cfg_path, out = write_config(
        tmp_path, time_check={"times_a": [0.01, 0.02],
                              "times_b": [0.015, 0.025]})
    assert main(["run", str(cfg_path)]) == 0
    cont = json.loads((out / "continuation.json").read_text())
    assert cont["time_uniqueness_gap"] == 0.0


def test_run_snapshot_cadence_thins_diagnostics(tmp_path):
    moving = {
        "phi": {"kind": "constant", "value": 0.0},
        "u0": {"kind": "sine_product", "amplitude": 0.3, "waves": [1, 1]},
        "flow": {"eps": 0.1, "t_end": 5.0},
        "schedule": [0.1],
        "tol": 1e-4,
    }
    cfg_path, _ = write_config(tmp_path, **moving)
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


def test_run_invalid_snapshot_cadence_exits_1(tmp_path):
    cfg_path, out = write_config(tmp_path, snapshot_every_steps=0)
    assert main(["run", str(cfg_path)]) == 1
    fail = json.loads((out / "failure.json").read_text())
    assert any("snapshot_every_steps" in p for p in fail["problems"])


def test_run_invalid_cfl_exits_1(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, flow={"eps": 0.1, "cfl": 1.5})
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


def test_run_divergence_records_step_and_node(tmp_path, capsys):
    # cfl 0.99 is four times the explicit limit in two dimensions
    cfg_path, out = write_config(
        tmp_path, phi={"kind": "linear", "coeffs": [1.0, 0.5]},
        u0={"kind": "constant", "value": 0.0},
        flow={"eps": 0.1, "cfl": 0.99, "t_end": 5.0}, schedule=[0.1])
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


# --------------------------------------------------------------------- barrier


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
    assert doc["seed"] == 0
    res = doc["results"]
    assert abs(res["ramp"]["at_two_thirds"] - 8.0 / 27.0) < 1e-12
    assert res["ramp"]["at_two"] == 0.0
    assert res["affine_residual"] <= 1e-12
    assert res["affine_continuation"]["trace_error"] < 1e-6
    assert res["affine_continuation"]["converged"] is True
    assert res["flat_barrier"]["certified"] is True
    assert abs(res["flat_barrier"]["margin"] - 0.91) < 1e-6
    assert res["disc_solvability"]["certified"] is True
    sg = res["subgraph_perimeter"]
    assert abs(sg["area"] - sg["perimeter"]) < 1e-10
    assert res["submodularity_worst_slack"] <= 0.0
    assert res["j_boundary_term"] == 0.0


def test_selftest_seed_is_recorded(tmp_path):
    out = tmp_path / "seeded"
    assert main(["selftest", "--out", str(out), "--seed", "7"]) == 0
    doc = json.loads((out / "selftest.json").read_text())
    assert doc["seed"] == 7
    assert doc["results"]["submodularity_worst_slack"] <= 0.0


# ------------------------------------------------------------------- interface


def test_main_requires_a_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "graphflow.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "selftest" in proc.stdout
