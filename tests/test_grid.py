import csv
import re
from itertools import product

import numpy as np
import pytest
import sympy as sp

import graphflow.grid as grid_mod
from graphflow.errors import GridError
from graphflow.flow import l_eps_apply
from graphflow.functionals import e_eps
from graphflow.grid import (DIRICHLET, EXTERIOR, INTERIOR, GridField, _region_sdf, build_domain,
                            cell_gradient, gradient_sweep, hessian_sweep,
                            interpolate_to, load_field_csv, save_field_csv)
from graphflow.manifold import builtin_chart
from set_functionals import product_grid
from stencil_oracle import every_cell_center, inner_neighbours


def unit_square(h):
    return build_domain(builtin_chart("euclidean", n=2), h)


def at_node(dom, swept, node):
    """A sweep's output at an interior lattice node: the sweeps return
    stacked arrays whose last axis runs over the interior nodes in
    interior_flat order."""
    column = np.flatnonzero(dom.interior_flat == np.ravel_multi_index(node, dom.shape))
    assert column.size == 1, f"{node} is not an interior node"
    return np.asarray(swept)[..., column[0]]


def sweeps(dom, values):
    """gradient_sweep and hessian_sweep of lattice values."""
    nbrs = values.take(dom.node_table)
    lowered, raised, gradsq = gradient_sweep(dom, nbrs)
    return lowered, raised, gradsq, hessian_sweep(dom, nbrs, lowered)


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


@pytest.mark.parametrize("h", [float("nan"), float("inf"), [0.25, float("nan")]])
def test_non_finite_spacing_rejected(h):
    with pytest.raises(GridError, match="spacing must be finite and positive"):
        unit_square(h)


def test_field_holds_nan_at_exterior_nodes():
    dom = build_domain(builtin_chart("euclidean", n=2), 0.125,
                       {"region": "disc", "center": [0.5, 0.5], "radius": 0.4})
    exterior = dom.mask == EXTERIOR
    assert exterior.any()
    given = np.full(dom.shape, 0.5)
    for u in (GridField(dom, given), GridField.constant(dom, 0.5), GridField(dom, given).copy()):
        assert np.isnan(u.values[exterior]).all() and np.all(u.values[~exterior] == 0.5)
    assert np.all(given == 0.5)  # the constructor leaves its input alone


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
    assert np.array_equal(dom.dirichlet_flat, np.flatnonzero(dom.dirichlet))
    for idx, inner in zip(np.argwhere(dom.dirichlet),
                          np.column_stack(np.unravel_index(dom.inner_flat, dom.shape))):
        assert dom.mask[tuple(inner)] == INTERIOR
        assert np.max(np.abs(idx - inner)) == 1


INNER_INDEX_DOMAINS = {
    "disc": (builtin_chart("euclidean", n=2), 1.0 / 32,
             {"region": "disc", "center": [0.47, 0.53], "radius": 0.3}),
    "annulus": (builtin_chart("euclidean", n=2), 1.0 / 32,
                {"region": "annulus", "center": [0.5, 0.5], "r_inner": 0.15, "r_outer": 0.4}),
    "ball_3d": (builtin_chart("euclidean", n=3), 1.0 / 16,
                {"region": "disc", "center": [0.5, 0.5, 0.5], "radius": 0.35}),
    "line": (builtin_chart("euclidean", n=1), 1.0 / 16, None),
    "poincare": (builtin_chart("poincare_disk", n=2), 0.04375,
                 {"region": "disc", "center": [0.0, 0.0], "radius": 0.5}),
    "box": (builtin_chart("euclidean", n=2), 1.0 / 16,
            {"region": "box", "bounds": [[0.25, 0.75], [0.125, 0.875]]}),
}


@pytest.mark.parametrize("name", sorted(INNER_INDEX_DOMAINS))
def test_inner_index_is_first_interior_neighbour(name):
    dom = build_domain(*INNER_INDEX_DOMAINS[name])
    ref = np.ravel_multi_index(inner_neighbours(dom), dom.shape)
    assert dom.inner_flat.dtype == np.intp
    assert dom.inner_flat.tolist() == ref.tolist()


def chebyshev_distance_to(dom, target):
    """Reference: per node, the Chebyshev lattice distance to the nearest
    node of the boolean lattice array target."""
    where = np.argwhere(target)
    out = np.empty(dom.shape, dtype=int)
    for idx in np.ndindex(*dom.shape):
        out[idx] = np.min(np.max(np.abs(where - idx), axis=1))
    return out


@pytest.mark.parametrize("shape", [(12,), (9, 11), (6, 7, 5)])
def test_mask_growth_matches_chebyshev_reference(shape):
    # table regions give arbitrary masks: their values are exact at the nodes
    chart = builtin_chart("euclidean", n=len(shape))
    h = [1.0 / (m - 1) for m in shape]
    rng = np.random.default_rng(len(shape))
    for density in np.repeat([0.3, 0.5, 0.7, 0.9], 5):
        values = np.where(rng.random(shape) < density, -1.0, 1.0)
        values[tuple(m // 2 for m in shape)] = -1.0
        dom = build_domain(chart, h, {"region": "table", "values": values})
        to_interior = chebyshev_distance_to(dom, dom.interior)
        assert np.array_equal(dom.dirichlet, ~dom.interior & (to_interior == 1))
        to_outside = chebyshev_distance_to(dom, ~dom.interior)
        for k in (1, 2, 3):
            assert np.array_equal(dom.eroded_interior(k), to_outside > k)


def test_gradient_exact_for_affine():
    dom = unit_square(1.0 / 8)
    u = GridField.from_function(dom, lambda x: 2.0 * x[0] - 3.0 * x[1] + 1.0)
    lowered, _, gradsq, _ = sweeps(dom, u.values)
    assert np.allclose(at_node(dom, lowered, (4, 4)), [2.0, -3.0], atol=1e-13)
    assert at_node(dom, gradsq, (4, 4)) == pytest.approx(13.0, abs=1e-12)


def test_poincare_gradient_norm_at_origin():
    # |Du|^2_sigma of u = x1 at the origin: sigma^{11} = 1/4
    chart = builtin_chart("poincare_disk", n=2, box=[[-0.5, 0.5], [-0.5, 0.5]])
    dom = build_domain(chart, 0.125)
    u = GridField.from_function(dom, lambda x: x[0])
    node = (4, 4)
    assert np.allclose(dom.points[node], [0.0, 0.0], atol=1e-14)
    _, _, gradsq, _ = sweeps(dom, u.values)
    assert at_node(dom, gradsq, node) == pytest.approx(0.25, rel=1e-13)


def test_hessian_exact_for_quadratics():
    dom = unit_square(1.0 / 8)
    u = GridField.from_function(dom, lambda x: x[0] ** 2 - x[0] * x[1] + 3.0 * x[1] ** 2)
    hess = sweeps(dom, u.values)[3]
    assert np.allclose(at_node(dom, hess, (3, 5)), [[2.0, -1.0], [-1.0, 6.0]], atol=1e-11)


def test_hessian_mirrored_bitwise():
    chart = builtin_chart("poincare_disk", n=2, box=[[-0.5, 0.5], [-0.5, 0.5]])
    dom = build_domain(chart, 0.125)
    rng = np.random.default_rng(5)
    vals = rng.random(dom.shape)
    nbrs = vals.take(dom.node_table)
    hess = hessian_sweep(dom, nbrs, gradient_sweep(dom, nbrs)[0])
    for node in [(2, 3), (4, 4), (5, 2)]:
        assert at_node(dom, hess, node)[0, 1] == at_node(dom, hess, node)[1, 0]


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
        hess = sweeps(dom, u.values)[3]
        errs.append(np.max(np.abs(at_node(dom, hess, node) - oracle(*x))))
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
    lowered, raised, gradsq, hess = sweeps(dom, u.values)
    for node in [(1, 1), (3, 5), (6, 2)]:
        lo, ra, g2, he = _per_node_ops(u, node)
        assert np.allclose(at_node(dom, lowered, node), lo, atol=1e-14)
        assert np.allclose(at_node(dom, raised, node), ra, atol=1e-14)
        assert at_node(dom, gradsq, node) == pytest.approx(g2, rel=1e-13)
        assert np.allclose(at_node(dom, hess, node), he, atol=1e-13)


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
    for node in zip(*np.nonzero(dom.interior)):
        _, raised, g2, hess = _per_node_ops(u, node)
        lap = float(np.sum(dom.chart.inverse(dom.points[node]) * hess))
        q = lap - raised @ hess @ raised / (1.0 + g2)
        ref_q.append(q)
        ref_l.append(q + eps * np.sqrt(1.0 + g2) * lap)
    for got, ref in ((l_eps_apply(u, 0.0), ref_q), (l_eps_apply(u, eps), ref_l)):
        ref = np.array(ref)
        assert got.shape == ref.shape == (len(dom.interior_flat),)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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
    cells = ref.reshape(-1, dom.dim)[dom.cell_flat].T
    assert np.array_equal(cell_gradient(dom, u.values.take(dom.cell_table)), cells)

    eps = 0.05
    sig = dom.chart.inverse(every_cell_center(dom))
    gradsq = np.einsum("...i,...i->...", ref, np.matmul(sig, ref[..., None])[..., 0])
    integrand = np.sqrt(1.0 + gradsq) + 0.5 * eps * gradsq
    cells = dom.cell_complete
    sdet = dom.chart.sqrt_det(every_cell_center(dom))
    expect = float(np.sum(integrand[cells] * sdet[cells]) * dom.cell_volume)
    assert e_eps(u, eps) == pytest.approx(expect, rel=1e-12)

    pg = product_grid(dom, 1.0, float(np.min(dom.h)))
    chi = np.random.default_rng(7).random(pg.shape)
    corners = [chi[tuple(slice(c, s - 1 + c) for c, s in zip(corner, pg.shape))]
               for corner in product((0, 1), repeat=pg.dim)]
    assert np.array_equal(np.moveaxis(cell_gradient(pg, corners), 0, -1),
                          corner_loop_cell_gradient(pg, chi))


def test_cell_stencils_exact_for_affine():
    dom = unit_square(0.25)
    vals = 2.0 * dom.points[..., 0] - dom.points[..., 1] + 0.5
    corners = vals.take(dom.cell_table)
    grad = cell_gradient(dom, corners)
    assert np.allclose(grad[0], 2.0, atol=1e-13)
    assert np.allclose(grad[1], -1.0, atol=1e-13)


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


def test_field_csv_mask_mismatch_rejected(tmp_path):
    chart = builtin_chart("euclidean", n=2)
    save_field_csv(GridField.constant(build_domain(chart, 0.125), 0.5), tmp_path / "box.csv")
    disc = build_domain(chart, 0.125, {"region": "disc", "center": [0.5, 0.5], "radius": 0.4})
    with pytest.raises(GridError, match=re.escape(
            "mask mismatch at node (0, 0): CSV does not match domain")):
        load_field_csv(tmp_path / "box.csv", disc)


def csv_writer_field(u, path):
    """Reference writer: one csv.writer row per node in np.ndindex order."""
    dom = u.domain
    n = dom.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"i{a + 1}" for a in range(n)] + [f"x{a + 1}" for a in range(n)]
                        + ["mask", "value"])
        for idx in np.ndindex(*dom.shape):
            writer.writerow([str(v) for v in idx] + [repr(float(c)) for c in dom.points[idx]]
                            + [str(int(dom.mask[idx])), repr(float(u.values[idx]))])


# the per-axis index and coordinate strings, also on a line and with
# anisotropic spacing (axis entries with different reprs per axis)
@pytest.mark.parametrize("n,h", [(1, 1.0 / 16), (2, 1.0 / 16), (3, 1.0 / 8),
                                 (2, [1.0 / 16, 1.0 / 12]), (3, [1.0 / 8, 1.0 / 6, 1.0 / 10])])
def test_field_csv_bytes_match_csv_writer(tmp_path, n, h):
    # disc or ball: the exterior rows carry nan values
    dom = build_domain(builtin_chart("euclidean", n=n), h, _disc([0.5] * n, 0.4))
    vals = np.random.default_rng(n).normal(size=dom.shape)
    vals[dom.used] *= 10.0 ** np.random.default_rng(5).integers(-12, 12, size=dom.used.sum())
    vals.flat[dom.interior_flat[:3]] = (0.0, -0.0, 1e300)
    u = GridField(dom, np.where(dom.used, vals, np.nan))
    save_field_csv(u, tmp_path / "fast.csv")
    csv_writer_field(u, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b"nan" in (tmp_path / "fast.csv").read_bytes()
    back = load_field_csv(tmp_path / "fast.csv", dom)
    assert np.array_equal(back.values, u.values, equal_nan=True)


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
    disc = build_domain(chart, 1.0 / 32, {"region": "disc", "center": [0.5, 0.5], "radius": 0.4})
    w = interpolate_to(u, disc)
    assert np.array_equal(w.values[disc.used], v.values[disc.used])
    assert np.isnan(w.values[~disc.used]).all()
    with pytest.raises(GridError, match="needs a coarse domain without exterior nodes"):
        interpolate_to(w, fine)


def test_one_dimensional_domain():
    chart = builtin_chart("euclidean", n=1)
    dom = build_domain(chart, 1.0 / 8)
    assert int(np.sum(dom.mask == INTERIOR)) == 7
    assert int(np.sum(dom.mask == DIRICHLET)) == 2
    u = GridField.from_function(dom, lambda x: x[0] ** 2)
    assert at_node(dom, sweeps(dom, u.values)[3], (4,))[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_table_region_classification():
    chart = builtin_chart("euclidean", n=2)
    vals = np.full((5, 5), 1.0)
    vals[1:4, 1:4] = -1.0
    dom = build_domain(chart, 0.25, {"region": "table", "values": vals})
    assert int(np.sum(dom.mask == INTERIOR)) == 9


def test_table_region_interpolates_between_nodes():
    chart = builtin_chart("euclidean", n=2)
    axis = np.linspace(0.0, 1.0, 5)
    vals = np.add.outer(axis, 2.0 * axis) - 1.0   # affine: x1 + 2 x2 - 1
    region = {"region": "table", "values": vals}
    dom = build_domain(chart, 0.25, region)
    assert np.array_equal(dom.sdf, vals)
    pts = np.array([[0.1, 0.3], [0.6, 0.05], [0.875, 0.95]])
    got = _region_sdf(region, pts, chart.box)
    assert np.allclose(got, pts[:, 0] + 2.0 * pts[:, 1] - 1.0, atol=1e-15)
    with pytest.raises(GridError, match="does not match lattice shape"):
        build_domain(chart, 0.125, region)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_window_nodes_hold_every_node_of_the_sup_ball(n, monkeypatch):
    box = [(0.0, 1.0), (-0.5, 1.5), (0.0, 0.6)][:n]
    h = [1.0 / 8, 0.25, 0.1][:n]
    dom = build_domain(builtin_chart("euclidean", n=n, box=box), h)
    pts = dom.points.reshape(-1, n)
    lo, hi = np.array(box).T
    rng = np.random.default_rng(n)
    rim = np.where(rng.random((20, n)) < 0.5, lo, hi)    # on the rim: free along one axis
    free = rng.integers(0, n, 20)
    rim[np.arange(20), free] = rng.uniform(lo[free], hi[free])
    x0s = np.concatenate([rng.uniform(lo - 0.3, hi + 0.3, (40, n)),  # in and off the lattice
                          pts[rng.choice(len(pts), 20)],              # on lattice nodes
                          np.array(list(product(*box)), dtype=float), rim])
    for block, reach in product((grid_mod.BLOCK, 64), (0.0, 0.1, 0.25, 0.37, 5.0)):
        monkeypatch.setattr(grid_mod, "BLOCK", block)  # 64: many blocks of few points
        windows = list(dom.windows(x0s, reach))
        assert np.array_equal(np.concatenate([np.arange(len(x0s))[blk] for blk, _, _ in windows]),
                              np.arange(len(x0s)))     # every point once, in order
        nodes = np.concatenate([box for _, box, _ in windows])
        width = np.minimum(2 * np.ceil(reach / dom.h) + 3, dom.shape)
        assert nodes.shape == (len(x0s), int(np.prod(width)))
        assert nodes.shape[1] <= np.prod(2 * np.ceil(reach / dom.h) + 3)
        assert nodes.min() >= 0 and nodes.max() < len(pts)
        assert np.all(np.diff(nodes, axis=1) > 0)     # ascending, no duplicates
        sup = np.max(np.abs(pts[None] - x0s[:, None]), axis=-1)
        for row, want in zip(nodes, sup <= reach):
            assert set(np.flatnonzero(want)) <= set(row.tolist())
        for blk, box, offsets in windows:  # each box's chart offsets, bit for bit
            for a, off in enumerate(offsets):
                full = np.broadcast_to(off, (len(box), *width.astype(int))).reshape(box.shape)
                assert full.tobytes() == (pts[box][..., a] - x0s[blk, a, None]).tobytes()
    assert list(dom.windows(x0s[:0], 0.25)) == []     # no points, no block
