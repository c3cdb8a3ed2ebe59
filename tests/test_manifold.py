import re

import numpy as np
import pytest

from graphflow.errors import ChartError, ConfigError
from graphflow.manifold import (builtin_chart, chart_from_spec, christoffel_at,
                                fd_christoffel_at, load_metric_table, metric_at)


def test_euclidean_metric_is_identity():
    chart = builtin_chart("euclidean", n=2)
    x = [0.3, 0.7]
    sig, inv, vol = metric_at(chart, x), chart.inverse(x), chart.sqrt_det(x)
    assert np.array_equal(sig, np.eye(2))
    assert np.array_equal(inv, np.eye(2))
    assert vol == 1.0
    assert np.array_equal(christoffel_at(chart, [0.3, 0.7]), np.zeros((2, 2, 2)))


def test_poincare_metric_value():
    # sigma_11 at (0.5, 0): 4 / (1 - 0.25)^2 = 64/9
    chart = builtin_chart("poincare_disk", n=2)
    sig, vol = metric_at(chart, [0.5, 0.0]), chart.sqrt_det([0.5, 0.0])
    assert sig[0, 0] == pytest.approx(64.0 / 9.0, rel=1e-14)
    assert sig[0, 1] == 0.0
    assert vol == pytest.approx(64.0 / 9.0, rel=1e-13)


@pytest.mark.parametrize("n,half", [(1, 0.7), (2, 0.7), (3, 0.7 * np.sqrt(2.0 / 3.0)),
                                     (4, 0.7 * np.sqrt(0.5))], ids=["n1", "n2", "n3", "n4"])
def test_poincare_default_box_stays_inside_the_ball(n, half):
    # (-0.7, 0.7)^n has corner^2 n = 1.47 at n = 3, outside the unit ball
    spec = chart_from_spec({"kind": "poincare_disk", "n": n})
    for chart in (builtin_chart("poincare_disk", n), spec):
        assert chart.box == ((-half, half),) * n
        assert max(b[1] for b in chart.box) ** 2 * n < 1.0


def test_sphere_equator_metric():
    chart = builtin_chart("sphere_polar")
    sig, vol = metric_at(chart, [np.pi / 2, 0.3]), chart.sqrt_det([np.pi / 2, 0.3])
    assert np.allclose(sig, np.eye(2), atol=1e-15)
    assert vol == pytest.approx(1.0, abs=1e-15)


def test_sphere_christoffel_value():
    # Gamma^theta_{phi phi} = -sin(theta) cos(theta) = -sqrt(3)/4 at theta = pi/3
    chart = builtin_chart("sphere_polar")
    gam = christoffel_at(chart, [np.pi / 3, 0.8])
    assert gam[0, 1, 1] == pytest.approx(-np.sqrt(3.0) / 4.0, rel=1e-14)
    assert gam[1, 0, 1] == pytest.approx(1.0 / np.tan(np.pi / 3), rel=1e-14)
    assert gam[1, 0, 1] == gam[1, 1, 0]


def test_warped_christoffel_values():
    chart = builtin_chart("warped_product", n=2, params={"a": 1.0, "b": 0.25})
    x = np.array([0.4, 0.6])
    w, dw = 1.0 + 0.25 * 0.4, 0.25
    gam = christoffel_at(chart, x)
    assert gam[0, 1, 1] == pytest.approx(-w * dw, rel=1e-14)
    assert gam[1, 0, 1] == pytest.approx(dw / w, rel=1e-14)


@pytest.mark.parametrize("kind,params", [
    ("euclidean", {}),
    ("poincare_disk", {}),
    ("sphere_polar", {}),
    ("warped_product", {"a": 1.0, "b": 0.25}),
])
def test_inverse_consistency(kind, params):
    chart = builtin_chart(kind, n=2, params=params)
    rng = np.random.default_rng(11)
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    pts = lo + (hi - lo) * (0.05 + 0.9 * rng.random((100, 2)))
    prod = chart.metric(pts) @ chart.inverse(pts)
    assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def _closed_form_inverse(chart, x):
    """sigma^{ij} written out per kind, as the built-in kinds once carried it:
    the reference for the inverse every chart now derives from its metric."""
    n, out = chart.dim, np.zeros(x.shape[:-1] + (chart.dim, chart.dim))
    if chart.kind == "euclidean":
        out[...] = np.eye(n)
    elif chart.kind == "poincare_disk":
        lam = (2.0 / (1.0 - np.sum(x * x, axis=-1))) ** 2
        out = (1.0 / lam)[..., None, None] * np.eye(n)
    elif chart.kind == "sphere_polar":
        radius = chart.params.get("radius", 1.0)
        out[..., 0, 0] = radius ** -2
        out[..., 1, 1] = 1.0 / (radius * np.sin(x[..., 0])) ** 2
    else:
        w2 = (chart.params["a"] + chart.params["b"] * x[..., 0]) ** 2
        out[..., 0, 0] = 1.0
        for j in range(1, n):
            out[..., j, j] = 1.0 / w2
    return out


def _box_points(chart, count, seed):
    lo, hi = np.array(chart.box).T
    return lo + (hi - lo) * np.random.default_rng(seed).random((count, chart.dim))


@pytest.mark.parametrize("kind,n,box,params", [
    ("euclidean", 2, None, {}),
    ("euclidean", 3, None, {}),
    ("poincare_disk", 2, None, {}),
    ("poincare_disk", 3, [[-0.5, 0.5]] * 3, {}),
    ("warped_product", 2, None, {"a": 1.0, "b": 0.25}),
    ("warped_product", 3, None, {"a": 0.7, "b": -0.3}),
    ("sphere_polar", 2, None, {"radius": 1.0}),
    ("sphere_polar", 2, None, {"radius": 2.0}),
])
def test_derived_inverse_is_the_closed_form_bit_for_bit(kind, n, box, params):
    chart = builtin_chart(kind, n=n, box=box, params=params)
    x = _box_points(chart, 2000, 3)
    assert np.array_equal(chart.inverse(x), _closed_form_inverse(chart, x))


@pytest.mark.parametrize("radius", [1.3, 0.3])
def test_derived_sphere_inverse_within_an_ulp_at_inexact_radii(radius):
    # LAPACK forms sigma^{theta theta} as fl(1 / fl(R^2)), the closed form as
    # R ** -2; at R = 0.3 the two differ in the last place at every point
    chart = builtin_chart("sphere_polar", params={"radius": radius})
    x = _box_points(chart, 2000, 4)
    got, ref = chart.inverse(x), _closed_form_inverse(chart, x)
    assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref)))


@pytest.mark.parametrize("params,ends", [
    ({"a": 1.0, "b": -1.05}, "1.0 at x1 = 0.0 and -0.050000000000000044 at x1 = 1.0"),
    ({"a": 1.0, "b": -1.0}, "1.0 at x1 = 0.0 and 0.0 at x1 = 1.0"),
    ({"a": float("nan"), "b": 0.25}, "nan at x1 = 0.0 and nan at x1 = 1.0"),
])
def test_warp_vanishing_on_the_box_rejected(params, ends):
    # the warp is affine, so its signs at the two ends of axis 0 decide
    message = f"warp a + b x1 vanishes on the chart box: it is {ends}"
    with pytest.raises(ChartError, match=re.escape(message)):
        builtin_chart("warped_product", n=2, params=params)
    assert builtin_chart("warped_product", n=2, params={"a": -1.0, "b": -0.5}).dim == 2


def test_non_finite_table_entry_named(tmp_path):
    rows = ["x1,x2,s11,s12,s21,s22"]
    for x1, x2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        s12 = "nan" if (x1, x2) == (1, 0) else "0"
        rows.append(f"{x1},{x2},1,{s12},0,1")
    path = tmp_path / "metric.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ChartError, match=r"metric entry s12 at sample \(1, 0\) is not finite"):
        chart_from_spec({"kind": "custom_table", "n": 2, "params": {"csv": str(path)}})
    table = np.broadcast_to(np.eye(2), (2, 2, 2, 2)).copy()
    table[0, 1, 1, 1] = np.inf
    with pytest.raises(ChartError, match=r"metric entry s22 at sample \(0, 1\) is not finite"):
        builtin_chart("custom_table", n=2, params={"axes": [[0, 1], [0, 1]], "table": table})


@pytest.mark.parametrize("kind,params,box,message", [
    *[("sphere_polar", {"radius": r}, None,
       f"sphere_polar radius must be positive with a finite square, got {r!r}")
      for r in (float("nan"), float("inf"), 1e200, -1.0)],
    ("warped_product", {"a": float("inf")}, None, "metric of kind 'warped_product' is not finite"),
    ("euclidean", {}, [[0, float("nan")], [0, 1]], "chart box bounds must be finite"),
    ("euclidean", {}, [[0, 1], [float("-inf"), 1]], "chart box bounds must be finite"),
    # finite warps whose square overflows: named before the metric is sampled
    ("warped_product", {"a": 1e200}, None, "the warp a + b x1 with a = 1e+200, b = 0.25 "
     "squares to inf at x1 = 0.0 and inf at x1 = 1.0"),
    ("warped_product", {"b": 1e200}, None, "the warp a + b x1 with a = 1.0, b = 1e+200 "
     "squares to 1.0 at x1 = 0.0 and inf at x1 = 1.0"),
])
def test_non_finite_metric_or_box_rejected(kind, params, box, message):
    with pytest.raises(ChartError, match=re.escape(message)):
        builtin_chart(kind, n=2, box=box, params=params)


@pytest.mark.parametrize("axes,bad", [([[0, 0, 1], [0, 1]], 0), ([[0, 1], [1, 0]], 1),
                                      ([[0], [0, 1]], 0), ([[0, 1], [0, float("nan")]], 1)])
def test_table_axes_must_increase_strictly(axes, bad):
    table = np.broadcast_to(np.eye(2), tuple(len(a) for a in axes) + (2, 2))
    with pytest.raises(ChartError, match=re.escape(
            f"custom_table axis {bad} needs at least two strictly increasing samples, "
            f"got {[float(v) for v in axes[bad]]}")):
        builtin_chart("custom_table", n=2, params={"axes": axes, "table": table})


@pytest.mark.parametrize("rows,message", [
    (["0,0", "0,1", "1,0", "1,0"], "row 5: repeats the lattice point (1.0, 0.0) of row 4"),
    (["0,0", "0,1", "0.0,-0.0", "1,1"], "row 4: repeats the lattice point (0.0, -0.0) of row 2"),
    ([], "has no data rows"),
])
def test_load_metric_table_rejects_repeated_points(tmp_path, rows, message):
    path = tmp_path / "metric.csv"
    path.write_text("\n".join(["x1,x2,s11,s12,s21,s22"] + [f"{r},1,0,0,1" for r in rows]) + "\n")
    with pytest.raises(ChartError, match=re.escape(f"metric table {str(path)!r} {message}")):
        load_metric_table(str(path), 2)


def test_metric_at_evaluates_the_metric_once():
    chart = builtin_chart("poincare_disk", n=2)
    calls = []
    counted = chart._replace(metric_fn=lambda x: calls.append(x.shape) or chart.metric_fn(x))
    x = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, 0.0]])
    assert np.array_equal(metric_at(counted, x), chart.metric(x))
    assert calls == [x.shape]
    with pytest.raises(ChartError, match="outside chart box"):
        metric_at(counted, [0.8, 0.0])
    flipped = chart._replace(metric_fn=lambda x: -chart.metric_fn(x))
    with pytest.raises(ChartError, match="metric not positive definite"):
        metric_at(flipped, x)


@pytest.mark.parametrize("kind,params,x", [
    ("poincare_disk", {}, [0.31, -0.22]),
    ("sphere_polar", {}, [1.1, 0.7]),
])
def test_fd_christoffels_converge_second_order(kind, params, x):
    chart = builtin_chart(kind, n=2, params=params)
    exact = christoffel_at(chart, x)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        errs.append(np.max(np.abs(fd_christoffel_at(chart, np.asarray(x, float), h) - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9)


def test_fd_christoffels_symmetric():
    chart = builtin_chart("poincare_disk", n=2)
    gam = fd_christoffel_at(chart, np.array([0.2, 0.4]), 1e-3)
    assert np.max(np.abs(gam - np.swapaxes(gam, -1, -2))) < 1e-8


def test_point_outside_box_rejected():
    chart = builtin_chart("euclidean", n=2)
    with pytest.raises(ChartError):
        metric_at(chart, [1.5, 0.5])


def test_unknown_kind_rejected():
    with pytest.raises(ChartError):
        builtin_chart("lorentzian")


def test_indefinite_table_rejected():
    axes = [np.linspace(0, 1, 3)] * 2
    table = np.zeros((3, 3, 2, 2))
    table[..., 0, 0] = 1.0
    table[..., 1, 1] = -1.0  # signature (+,-): not a metric
    with pytest.raises(ChartError):
        builtin_chart("custom_table", n=2, box=[[0, 1], [0, 1]],
                      params={"axes": axes, "table": table})


def test_table_chart_interpolates_and_differences(tmp_path):
    # Sample the poincare metric on a fine lattice; the table chart must
    # reproduce metric and (differenced) Christoffels to interpolation error.
    ref = builtin_chart("poincare_disk", n=2)
    axes = [np.linspace(-0.6, 0.6, 121)] * 2
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    table = ref.metric(grid)
    rows = ["x1,x2,s11,s12,s21,s22"]
    for i in range(121):
        for j in range(121):
            vals = [grid[i, j, 0], grid[i, j, 1], *table[i, j].ravel()]
            rows.append(",".join(repr(float(v)) for v in vals))
    path = tmp_path / "metric.csv"
    path.write_text("\n".join(rows) + "\n")

    chart = chart_from_spec({"kind": "custom_table", "n": 2,
                             "box": [[-0.5, 0.5], [-0.5, 0.5]],
                             "params": {"csv": str(path)}})
    x = np.array([0.17, -0.23])
    sig_t, inv_t = metric_at(chart, x), chart.inverse(x)
    sig_r = metric_at(ref, x)
    assert np.max(np.abs(sig_t - sig_r)) < 5e-4
    assert np.max(np.abs(sig_t @ inv_t - np.eye(2))) < 1e-8
    gam = christoffel_at(chart, x)
    # differenced at 1e-4 times the smallest box width, here 1
    assert np.array_equal(gam, fd_christoffel_at(chart, x, 1e-4))
    assert np.max(np.abs(gam - christoffel_at(ref, x))) < 5e-3


@pytest.mark.parametrize("kind,n,box,params,message", [
    ("sphere_polar", 3, None, {}, "sphere_polar chart is two-dimensional"),
    ("sphere_polar", 2, [[0.0, 1.0], [0.0, 1.0]], {},
     "sphere_polar box must avoid the poles theta = 0, pi"),
    ("sphere_polar", 2, [[1.0, np.pi], [0.0, 1.0]], {},
     "sphere_polar box must avoid the poles theta = 0, pi"),
    ("poincare_disk", 2, [[-0.8, 0.8], [-0.8, 0.8]], {},
     "poincare_disk box must stay inside the open unit ball"),
    ("custom_table", 2, None, {"axes": [[0, 0.5, 1], [0, 1]],
                               "table": np.broadcast_to(np.eye(2), (2, 2, 2, 2))},
     "custom_table shape (2, 2, 2, 2) does not match axes"),
    ("custom_table", 2, None, {"axes": [[0, 1], [0, 1]],
                               "table": np.broadcast_to([[1.0, 0.1], [0.0, 1.0]], (2, 2, 2, 2))},
     "custom_table metric samples are not symmetric"),
])
def test_chart_kind_rules_rejected(kind, n, box, params, message):
    with pytest.raises(ChartError, match=re.escape(message)):
        builtin_chart(kind, n=n, box=box, params=params)


def test_load_metric_table_rejects_a_header_of_the_wrong_width(tmp_path):
    path = tmp_path / "metric.csv"
    path.write_text("x1,x2,s11,s12,s22\n0,0,1,0,1\n")
    with pytest.raises(ChartError, match="metric table needs 6 columns, found 5"):
        load_metric_table(str(path), 2)


def test_load_metric_table_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,s11,s12,s21,s22\n0,0,1,0,0,1\n0,1,1,0,0,1\n1,0,1,0,0,1\n")
    with pytest.raises(ChartError):
        load_metric_table(str(path), 2)


def test_chart_spec_roundtrip():
    chart = chart_from_spec({"kind": "sphere_polar", "n": 2,
                             "box": [[0.5, 2.5], [0.0, 1.0]], "params": {"radius": 2.0}})
    sig = metric_at(chart, [np.pi / 2, 0.5])
    assert sig[0, 0] == pytest.approx(4.0)
    assert sig[1, 1] == pytest.approx(4.0)


@pytest.mark.parametrize("n", [2.5, 0, -1, True, "2", float("inf"), float("nan")])
def test_chart_spec_dimension_is_a_whole_number(n):
    with pytest.raises(ConfigError, match="chart n must be a whole number >= 1"):
        chart_from_spec({"kind": "euclidean", "n": n})
    assert chart_from_spec({"kind": "euclidean", "n": 3.0}).dim == 3
