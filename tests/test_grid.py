import numpy as np
import pytest
import sympy as sp

from graphflow.errors import GridError
from graphflow.grid import (DIRICHLET, EXTERIOR, INTERIOR, GridField, build_domain,
                            cell_average, cell_gradient, gradient_sweep, hessian_sweep,
                            interpolate_to, load_field_csv, save_field_csv)
from graphflow.manifold import builtin_chart


def unit_square(h):
    return build_domain(builtin_chart("euclidean", n=2), h)


def test_unit_square_counts():
    dom = unit_square(0.25)
    assert int(np.sum(dom.mask == INTERIOR)) == 9
    assert int(np.sum(dom.mask == DIRICHLET)) == 16
    assert int(np.sum(dom.mask == EXTERIOR)) == 0


def test_box_region_bounds_sub_box():
    chart = builtin_chart("euclidean", n=2)
    dom = build_domain(chart, 1.0 / 16, {"region": "box", "bounds": [[0.0, 0.5], [0.0, 0.5]]})
    assert int(np.sum(dom.mask == INTERIOR)) == 49
    assert np.all(dom.points[dom.interior] < 0.5)


def test_disc_single_interior_node():
    chart = builtin_chart("euclidean", n=2)
    dom = build_domain(chart, 0.5, {"region": "disc", "center": [0.5, 0.5], "radius": 0.5})
    assert int(np.sum(dom.mask == INTERIOR)) == 1
    assert dom.mask[1, 1] == INTERIOR
    # nodes exactly on the circle are dirichlet, the adjacent corners too
    assert dom.mask[0, 1] == DIRICHLET
    assert dom.mask[0, 0] == DIRICHLET


def test_annulus_empty_region_errors():
    chart = builtin_chart("euclidean", n=2)
    with pytest.raises(GridError):
        build_domain(chart, 0.25, {"region": "annulus", "center": [0.5, 0.5],
                                   "r_inner": 0.4, "r_outer": 0.3})


def test_spacing_must_divide_box():
    with pytest.raises(GridError):
        unit_square(0.3)


def test_interior_nodes_never_touch_exterior():
    chart = builtin_chart("euclidean", n=2)
    dom = build_domain(chart, 1.0 / 16,
                       {"region": "disc", "center": [0.5, 0.5], "radius": 0.4})
    ii = np.argwhere(dom.interior)
    for idx in ii:
        block = dom.mask[idx[0] - 1:idx[0] + 2, idx[1] - 1:idx[1] + 2]
        assert np.all(block != EXTERIOR)


def test_dirichlet_exactly_the_touching_nodes():
    chart = builtin_chart("euclidean", n=2)
    dom = build_domain(chart, 1.0 / 8,
                       {"region": "disc", "center": [0.5, 0.5], "radius": 0.35})
    for idx in np.argwhere(dom.dirichlet):
        block = dom.mask[max(idx[0] - 1, 0):idx[0] + 2, max(idx[1] - 1, 0):idx[1] + 2]
        assert np.any(block == INTERIOR)


def test_boundary_nodes_point_outward():
    dom = unit_square(0.25)
    for idx, outward in dom.boundary_nodes:
        inner = tuple(i - o for i, o in zip(idx, outward))
        assert dom.mask[inner] == INTERIOR


def test_gradient_exact_for_affine():
    dom = unit_square(1.0 / 8)
    u = GridField.from_function(dom, lambda x: 2.0 * x[0] - 3.0 * x[1] + 1.0)
    lowered, _, gradsq = gradient_sweep(dom, u.values)
    assert np.allclose(lowered[4, 4], [2.0, -3.0], atol=1e-13)
    assert gradsq[4, 4] == pytest.approx(13.0, abs=1e-12)


def test_poincare_gradient_norm_at_origin():
    # |Du|^2_sigma of u = x1 at the origin: sigma^{11} = 1/4
    chart = builtin_chart("poincare_disk", n=2, box=[[-0.5, 0.5], [-0.5, 0.5]])
    dom = build_domain(chart, 0.125)
    u = GridField.from_function(dom, lambda x: x[0])
    node = (4, 4)
    assert np.allclose(dom.points[node], [0.0, 0.0], atol=1e-14)
    _, _, gradsq = gradient_sweep(dom, u.values)
    assert gradsq[node] == pytest.approx(0.25, rel=1e-13)


def test_hessian_exact_for_quadratics():
    dom = unit_square(1.0 / 8)
    u = GridField.from_function(dom, lambda x: x[0] ** 2 - x[0] * x[1] + 3.0 * x[1] ** 2)
    hess = hessian_sweep(dom, u.values)
    assert np.allclose(hess[3, 5], [[2.0, -1.0], [-1.0, 6.0]], atol=1e-11)


def test_hessian_mirrored_bitwise():
    chart = builtin_chart("poincare_disk", n=2, box=[[-0.5, 0.5], [-0.5, 0.5]])
    dom = build_domain(chart, 0.125)
    rng = np.random.default_rng(5)
    vals = rng.random(dom.shape)
    hess = hessian_sweep(dom, vals)
    for node in [(2, 3), (4, 4), (5, 2)]:
        assert hess[node][0, 1] == hess[node][1, 0]


def _sphere_hessian_oracle():
    theta, phi = sp.symbols("theta phi")
    u = sp.sin(theta) * sp.cos(phi)
    gam_t_pp = -sp.sin(theta) * sp.cos(theta)
    cot = sp.cos(theta) / sp.sin(theta)
    d2 = sp.Matrix([
        [sp.diff(u, theta, 2),
         sp.diff(u, theta, phi) - cot * sp.diff(u, phi)],
        [0,
         sp.diff(u, phi, 2) - gam_t_pp * sp.diff(u, theta)],
    ])
    d2[1, 0] = d2[0, 1]
    return sp.lambdify((theta, phi), d2, "numpy")


def test_sphere_hessian_matches_symbolic_at_second_order():
    chart = builtin_chart("sphere_polar")
    oracle = _sphere_hessian_oracle()
    errs = []
    for levels in (8, 16, 32):
        h = [(np.pi - 0.8) / levels, 1.5 / levels]
        dom = build_domain(chart, h)
        u = GridField.from_function(dom, lambda x: np.sin(x[0]) * np.cos(x[1]))
        node = (levels // 2, levels // 2)
        x = dom.points[node]
        hess = hessian_sweep(dom, u.values)
        errs.append(np.max(np.abs(hess[node] - oracle(*x))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.9)


def _per_node_ops(u, node):
    """Reference stencil at one interior node, written point by point:
    lowered and raised gradient, |Du|^2_sigma and covariant Hessian."""
    dom, n = u.domain, u.domain.dim

    def at(*shifts):
        idx = list(node)
        for axis, step in shifts:
            idx[axis] += step
        return u.values[tuple(idx)]

    lowered = np.array([(at((a, 1)) - at((a, -1))) / (2.0 * dom.h[a])
                        for a in range(n)])
    hess = np.empty((n, n))
    for a in range(n):
        hess[a, a] = (at((a, 1)) - 2.0 * at() + at((a, -1))) / dom.h[a] ** 2
        for b in range(a + 1, n):
            hess[a, b] = hess[b, a] = (
                at((a, 1), (b, 1)) - at((a, 1), (b, -1)) - at((a, -1), (b, 1))
                + at((a, -1), (b, -1))) / (4.0 * dom.h[a] * dom.h[b])
    x = dom.points[node]
    hess -= np.einsum("kij,k->ij", dom.chart.christoffel(x), lowered)
    raised = dom.chart.inverse(x) @ lowered
    return lowered, raised, float(lowered @ raised), hess


def test_sweeps_match_per_node_ops():
    chart = builtin_chart("warped_product", n=2, params={"a": 1.0, "b": 0.25})
    dom = build_domain(chart, 0.125)
    u = GridField.from_function(dom, lambda x: np.sin(x[0] + 0.3) * x[1] ** 2)
    lowered, raised, gradsq = gradient_sweep(dom, u.values)
    hess = hessian_sweep(dom, u.values, lowered)
    for node in [(1, 1), (3, 5), (6, 2)]:
        lo, ra, g2, he = _per_node_ops(u, node)
        assert np.allclose(lowered[node], lo, atol=1e-14)
        assert np.allclose(raised[node], ra, atol=1e-14)
        assert gradsq[node] == pytest.approx(g2, rel=1e-13)
        assert np.allclose(hess[node], he, atol=1e-13)


def test_cell_stencils_exact_for_affine():
    dom = unit_square(0.25)
    vals = 2.0 * dom.points[..., 0] - dom.points[..., 1] + 0.5
    grad = cell_gradient(dom, vals)
    assert np.allclose(grad[..., 0], 2.0, atol=1e-13)
    assert np.allclose(grad[..., 1], -1.0, atol=1e-13)
    avg = cell_average(dom, vals)
    centers = dom.cell_centers
    assert np.allclose(avg, 2.0 * centers[..., 0] - centers[..., 1] + 0.5, atol=1e-13)


def test_eroded_interior_depth():
    dom = unit_square(1.0 / 16)
    probe = dom.eroded_interior(4)
    # interior is 15x15 (indices 1..15); eroding 4 leaves 7x7
    assert int(np.sum(probe)) == 49
    assert probe[8, 8]
    assert not probe[4, 4]


def test_field_csv_roundtrip(tmp_path):
    chart = builtin_chart("euclidean", n=2)
    dom = build_domain(chart, 0.25, {"region": "disc", "center": [0.5, 0.5], "radius": 0.4})
    rng = np.random.default_rng(3)
    vals = np.where(dom.mask != EXTERIOR, rng.random(dom.shape), np.nan)
    u = GridField(dom, vals)
    path = tmp_path / "field.csv"
    save_field_csv(u, path)
    back = load_field_csv(path, dom)
    used = dom.mask != EXTERIOR
    assert np.array_equal(back.values[used], u.values[used])


def test_from_function_samples_floats_on_used_nodes_only():
    chart = builtin_chart("euclidean", n=2)
    dom = build_domain(chart, 1.0 / 16, {"region": "disc", "center": [0.5, 0.5], "radius": 0.4})
    # an int first value must not fix the dtype of the whole field
    u = GridField.from_function(dom, lambda x: 0 if x[0] < .5 else 0.75)
    assert np.nanmax(u.values) == 0.75
    seen = []
    GridField.from_function(dom, lambda x: seen.append(x) or 0.0)
    assert len(seen) == int(np.sum(dom.mask != EXTERIOR)) == 185


def test_interpolation_reproduces_smooth_fields():
    chart = builtin_chart("euclidean", n=2)
    coarse = build_domain(chart, 1.0 / 8)
    fine = build_domain(chart, 1.0 / 32)
    u = GridField.from_function(coarse, lambda x: np.sin(np.pi * x[0]) * x[1])
    v = interpolate_to(u, fine)
    exact = np.sin(np.pi * fine.points[..., 0]) * fine.points[..., 1]
    # linear interpolation error bound h^2 |D^2 u| / 8 with h = 1/8
    assert np.max(np.abs(v.values - exact)) < np.pi ** 2 / (8 * 64) * 1.05


def test_one_dimensional_domain():
    chart = builtin_chart("euclidean", n=1)
    dom = build_domain(chart, 1.0 / 8)
    assert int(np.sum(dom.mask == INTERIOR)) == 7
    assert int(np.sum(dom.mask == DIRICHLET)) == 2
    u = GridField.from_function(dom, lambda x: x[0] ** 2)
    assert hessian_sweep(dom, u.values)[4][0, 0] == pytest.approx(2.0, rel=1e-12)


def test_table_region_classification():
    chart = builtin_chart("euclidean", n=2)
    vals = np.full((5, 5), 1.0)
    vals[1:4, 1:4] = -1.0
    dom = build_domain(chart, 0.25, {"region": "table", "values": vals})
    assert int(np.sum(dom.mask == INTERIOR)) == 9
