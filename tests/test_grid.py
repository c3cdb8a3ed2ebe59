from itertools import product

import numpy as np
import pytest
import sympy as sp

from graphflow.errors import GridError
from graphflow.flow import l_eps_apply, q_operator
from graphflow.functionals import e_eps, product_grid
from graphflow.grid import (DIRICHLET, EXTERIOR, INTERIOR, GridField, build_domain,
                            cell_average, cell_gradient, gradient_sweep, hessian_sweep,
                            interpolate_to, load_field_csv, save_field_csv)
from graphflow.manifold import builtin_chart


def unit_square(h):
    return build_domain(builtin_chart("euclidean", n=2), h)


def at_node(block, node):
    """A sweep's output at a lattice node: the sweeps return (nested lists
    of) arrays over the inner block, which starts at lattice node (1, ..., 1)."""
    if isinstance(block, np.ndarray):
        return block[tuple(i - 1 for i in node)]
    return np.array([at_node(b, node) for b in block])


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
    assert np.allclose(at_node(lowered, (4, 4)), [2.0, -3.0], atol=1e-13)
    assert at_node(gradsq, (4, 4)) == pytest.approx(13.0, abs=1e-12)


def test_poincare_gradient_norm_at_origin():
    # |Du|^2_sigma of u = x1 at the origin: sigma^{11} = 1/4
    chart = builtin_chart("poincare_disk", n=2, box=[[-0.5, 0.5], [-0.5, 0.5]])
    dom = build_domain(chart, 0.125)
    u = GridField.from_function(dom, lambda x: x[0])
    node = (4, 4)
    assert np.allclose(dom.points[node], [0.0, 0.0], atol=1e-14)
    _, _, gradsq = gradient_sweep(dom, u.values)
    assert at_node(gradsq, node) == pytest.approx(0.25, rel=1e-13)


def test_hessian_exact_for_quadratics():
    dom = unit_square(1.0 / 8)
    u = GridField.from_function(dom, lambda x: x[0] ** 2 - x[0] * x[1] + 3.0 * x[1] ** 2)
    hess = hessian_sweep(dom, u.values)
    assert np.allclose(at_node(hess, (3, 5)), [[2.0, -1.0], [-1.0, 6.0]], atol=1e-11)


def test_hessian_mirrored_bitwise():
    chart = builtin_chart("poincare_disk", n=2, box=[[-0.5, 0.5], [-0.5, 0.5]])
    dom = build_domain(chart, 0.125)
    rng = np.random.default_rng(5)
    vals = rng.random(dom.shape)
    hess = hessian_sweep(dom, vals)
    for node in [(2, 3), (4, 4), (5, 2)]:
        assert at_node(hess, node)[0, 1] == at_node(hess, node)[1, 0]


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
        errs.append(np.max(np.abs(at_node(hess, node) - oracle(*x))))
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
        assert np.allclose(at_node(lowered, node), lo, atol=1e-14)
        assert np.allclose(at_node(raised, node), ra, atol=1e-14)
        assert at_node(gradsq, node) == pytest.approx(g2, rel=1e-13)
        assert np.allclose(at_node(hess, node), he, atol=1e-13)


def _table_chart():
    """custom_table chart of a smooth metric with an off-diagonal term,
    sampled on an 11-point lattice per axis."""
    axes = [np.linspace(0.0, 1.0, 11)] * 2
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    table = np.empty(x.shape[:-1] + (2, 2))
    table[..., 0, 0] = 1.0 + 0.3 * x[..., 0] ** 2
    table[..., 1, 1] = 1.5 + 0.2 * np.sin(3.0 * x[..., 1])
    table[..., 0, 1] = table[..., 1, 0] = 0.2 * x[..., 0] * x[..., 1]
    return builtin_chart("custom_table", n=2, box=[[0.0, 1.0], [0.0, 1.0]],
                         params={"axes": axes, "table": table})


def _disc(center, radius):
    return {"region": "disc", "center": center, "radius": radius}


# disc (ball) regions, so the inner block holds exterior NaNs next to the
# interior nodes
ORACLE_DOMAINS = {
    "euclidean_2d": lambda: build_domain(builtin_chart("euclidean", n=2), 1.0 / 16,
                                         _disc([0.5, 0.5], 0.4)),
    "euclidean_3d": lambda: build_domain(builtin_chart("euclidean", n=3), 1.0 / 8,
                                         _disc([0.5, 0.5, 0.5], 0.4)),
    "poincare_disk": lambda: build_domain(builtin_chart("poincare_disk", n=2), 0.0875,
                                          _disc([0.0, 0.0], 0.55)),
    "sphere_polar": lambda: build_domain(builtin_chart("sphere_polar"),
                                         [(np.pi - 0.8) / 16, 1.5 / 16],
                                         _disc([np.pi / 2, 0.75], 0.6)),
    "custom_table": lambda: build_domain(_table_chart(), 1.0 / 16, _disc([0.5, 0.5], 0.4)),
}


def _oracle_field(dom):
    return GridField.from_function(
        dom, lambda x: np.sin(x[0] + 0.3) * np.cos(x[1]) + 0.3 * x[0] * x[-1])


@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_operators_match_per_node_reference(name):
    dom = ORACLE_DOMAINS[name]()
    u = _oracle_field(dom)
    assert np.any(np.isnan(u.values[(slice(1, -1),) * dom.dim]))
    eps = 0.05
    ref_q, ref_l = [], []
    for node in zip(*dom.interior_index):
        _, raised, g2, hess = _per_node_ops(u, node)
        lap = float(np.sum(dom.chart.inverse(dom.points[node]) * hess))
        q = lap - raised @ hess @ raised / (1.0 + g2)
        ref_q.append(q)
        ref_l.append(q + eps * np.sqrt(1.0 + g2) * lap)
    ii = dom.interior_index
    for got, ref in ((q_operator(u), ref_q), (l_eps_apply(u, eps), ref_l)):
        ref = np.array(ref)
        assert np.max(np.abs(got.values[ii] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.all(np.isnan(got.values[~dom.interior]))


def corner_loop_cell_gradient(domain, values):
    """Reference cell gradient: every corner value added into a zero-filled
    stacked (cells..., n) array, axis by axis within each corner."""
    n = domain.dim
    grad = np.zeros(tuple(s - 1 for s in domain.shape) + (n,))
    for corner in product((0, 1), repeat=n):
        sl = tuple(slice(c, s - 1 + c) for c, s in zip(corner, domain.shape))
        v = values[sl]
        for a in range(n):
            sign = 1.0 if corner[a] == 1 else -1.0
            grad[..., a] += sign * v
    for a in range(n):
        grad[..., a] /= (2 ** (n - 1)) * domain.h[a]
    return grad


@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_cell_gradient_and_energy_match_corner_loop(name):
    dom = ORACLE_DOMAINS[name]()
    u = _oracle_field(dom)
    ref = corner_loop_cell_gradient(dom, u.values)
    assert np.array_equal(np.stack(cell_gradient(dom, u.values), axis=-1), ref,
                          equal_nan=True)

    eps = 0.05
    sig = dom.chart.inverse(dom.cell_centers)
    gradsq = np.einsum("...i,...i->...", ref, np.matmul(sig, ref[..., None])[..., 0])
    integrand = np.sqrt(1.0 + gradsq) + 0.5 * eps * gradsq
    cells = dom.cell_complete
    expect = float(np.sum(integrand[cells] * dom.cell_sqrt_det[cells]) * dom.cell_volume)
    assert e_eps(u, eps) == pytest.approx(expect, rel=1e-12)

    pg = product_grid(dom, 1.0, float(np.min(dom.h)))
    chi = np.random.default_rng(7).random(pg.shape)
    assert np.array_equal(np.stack(cell_gradient(pg, chi), axis=-1),
                          corner_loop_cell_gradient(pg, chi))


def test_cell_stencils_exact_for_affine():
    dom = unit_square(0.25)
    vals = 2.0 * dom.points[..., 0] - dom.points[..., 1] + 0.5
    grad = cell_gradient(dom, vals)
    assert np.allclose(grad[0], 2.0, atol=1e-13)
    assert np.allclose(grad[1], -1.0, atol=1e-13)
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
    assert at_node(hessian_sweep(dom, u.values), (4,))[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_table_region_classification():
    chart = builtin_chart("euclidean", n=2)
    vals = np.full((5, 5), 1.0)
    vals[1:4, 1:4] = -1.0
    dom = build_domain(chart, 0.25, {"region": "table", "values": vals})
    assert int(np.sum(dom.mask == INTERIOR)) == 9
