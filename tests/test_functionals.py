import math

import numpy as np
import pytest

from graphflow.errors import FunctionalError
from graphflow.flow import _operator_arrays, l_eps_apply
from graphflow.functionals import (area, e_eps, interior_integral, j_functional,
                                   total_variation)
from graphflow.grid import GridField, build_domain
from graphflow.manifold import builtin_chart
from set_functionals import (DiscreteSet, ProductGrid, product_grid, set_perimeter,
                             subgraph_perimeter, subgraph_set, vertical_rearrangement)


def euclid_square(h, width=1.0):
    chart = builtin_chart("euclidean", n=2, box=[[0, width], [0, width]])
    return build_domain(chart, h)


def test_w_factor_poincare_origin():
    # u = x1, sigma^{11} = 1/4 at the origin: W = sqrt(1 + 1/4) = sqrt(5)/2
    chart = builtin_chart("poincare_disk", n=2, box=[[-0.5, 0.5], [-0.5, 0.5]])
    dom = build_domain(chart, 0.125)
    u = GridField.from_function(dom, lambda x: x[0])
    w = _operator_arrays(dom, u.values, 0.0)[1]
    center = np.searchsorted(dom.interior_flat, np.ravel_multi_index((4, 4), dom.shape))
    assert w[center] == pytest.approx(np.sqrt(5.0) / 2.0, rel=1e-13)


def test_interior_integral_is_the_metric_node_sum():
    chart = builtin_chart("poincare_disk", n=2, box=[[-0.5, 0.5], [-0.5, 0.5]])
    # an off-center disc, so no lattice symmetry maps sqrt(det sigma) to itself
    dom = build_domain(chart, 0.0625, region={"region": "disc", "center": [0.1, -0.05],
                                             "radius": 0.35})
    values = np.random.default_rng(3).normal(size=dom.interior_flat.size)
    lattice = np.full(dom.shape, np.nan)
    lattice[dom.interior] = values
    # the boolean gather lists the interior nodes in interior_flat order
    expected = float(np.sum(lattice[dom.interior] * dom.sqrt_det[dom.interior])
                     * float(np.prod(dom.h)))
    assert interior_integral(dom, values) == expected
    nodes = zip(*dom.interior_index)
    exact = math.fsum(v * dom.sqrt_det[node] for v, node in zip(values, nodes))
    assert expected == pytest.approx(exact * 0.0625 ** 2, rel=1e-13)


def test_area_flat_and_tilted_exact():
    dom = euclid_square(1.0 / 32)
    assert area(GridField.constant(dom, 0.0)) == pytest.approx(1.0, abs=1e-13)
    tilted = GridField.from_function(dom, lambda x: x[0])
    assert area(tilted) == pytest.approx(np.sqrt(2.0), rel=1e-13)


def test_area_scherk_against_fine_quadrature():
    # independent oracle: midpoint rule on a 10x finer lattice with the
    # analytic integrand sqrt(1 + tan^2 x + tan^2 y)
    chart = builtin_chart("euclidean", n=2, box=[[-1, 1], [-1, 1]])
    dom = build_domain(chart, 1.0 / 64)
    u = GridField.from_function(dom, lambda x: np.log(np.cos(x[0]) / np.cos(x[1])))
    fine = 1280
    xs = -1.0 + 2.0 * (np.arange(fine) + 0.5) / fine
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    oracle = float(np.sum(np.sqrt(1.0 + np.tan(gx) ** 2 + np.tan(gy) ** 2))
                   * (2.0 / fine) ** 2)
    assert area(u) == pytest.approx(oracle, rel=5e-3)


def test_j_flat_graph_with_offset_boundary():
    dom = euclid_square(1.0 / 32)
    rep = j_functional(GridField.constant(dom, 0.0), lambda x: 1.0)
    assert rep.boundary_term == pytest.approx(4.0, abs=1e-12)
    assert rep.value == pytest.approx(5.0, abs=1e-12)


def test_j_matches_brute_resummation():
    dom = euclid_square(1.0 / 32)
    rng = np.random.default_rng(7)
    u = GridField(dom, 0.2 * rng.standard_normal(dom.shape))
    phi = GridField(dom, 0.2 * rng.standard_normal(dom.shape))
    rep = j_functional(u, phi)
    # independent traversal: Python loop over dirichlet nodes, reversed order
    h = float(dom.h[0])
    acc = 0.0
    nodes = list(zip(*dom.dirichlet_index))
    for idx in reversed(nodes):
        acc += abs(u.values[idx] - phi.values[idx]) * dom.sqrt_det[idx] * h
    assert rep.boundary_term == pytest.approx(acc, rel=1e-12)


def test_total_variation_unit_slope():
    dom = euclid_square(1.0 / 32)
    u = GridField.from_function(dom, lambda x: x[0])
    assert total_variation(u) == pytest.approx(1.0, rel=1e-13)


def test_total_variation_against_fine_quadrature():
    chart = builtin_chart("euclidean", n=2)
    dom = build_domain(chart, 1.0 / 64)
    u = GridField.from_function(dom, lambda x: np.sin(np.pi * x[0]) * np.cos(np.pi * x[1]))
    fine = 1280
    xs = (np.arange(fine) + 0.5) / fine
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    dux = np.pi * np.cos(np.pi * gx) * np.cos(np.pi * gy)
    duy = -np.pi * np.sin(np.pi * gx) * np.sin(np.pi * gy)
    oracle = float(np.sum(np.hypot(dux, duy)) / fine ** 2)
    assert total_variation(u) == pytest.approx(oracle, rel=5e-3)


def test_e_eps_tilted_plane_closed_form():
    dom = euclid_square(1.0 / 32)
    u = GridField.from_function(dom, lambda x: x[0])
    assert e_eps(u, 0.5) == pytest.approx(np.sqrt(2.0) + 0.25, rel=1e-13)


def test_e_eps_negative_eps_rejected():
    # negative and non-finite eps, every value FlowParams refuses
    dom = euclid_square(0.25)
    for eps in (-0.1, math.nan, math.inf):
        for fn in (e_eps, l_eps_apply):
            with pytest.raises(FunctionalError,
                               match=f"eps must be finite and nonnegative, got {eps}"):
                fn(GridField.constant(dom, 0.0), eps)


def test_e_eps_midpoint_convexity():
    dom = euclid_square(1.0 / 16)
    rng = np.random.default_rng(21)
    for trial in range(20):
        u = GridField(dom, rng.standard_normal(dom.shape))
        v = GridField(dom, rng.standard_normal(dom.shape))
        mid = GridField(dom, 0.5 * (u.values + v.values))
        lhs = e_eps(mid, 0.3)
        rhs = 0.5 * (e_eps(u, 0.3) + e_eps(v, 0.3))
        assert lhs <= rhs + 1e-12


# -- discrete sets -----------------------------------------------------------


def _block_set(dom, i0, i1, j0, j1):
    ind = np.zeros(dom.shape, dtype=np.int8)
    ind[i0:i1, j0:j1] = 1
    return DiscreteSet(dom, ind)


def test_square_block_perimeter_exact():
    # axis-aligned square of side 0.5 at h = 1/16: 32 separating faces
    dom = euclid_square(1.0 / 16)
    E = _block_set(dom, 4, 12, 4, 12)
    assert set_perimeter(E) == pytest.approx(2.0, abs=1e-13)


def test_empty_and_full_sets_have_zero_perimeter():
    dom = euclid_square(1.0 / 16)
    ind = np.zeros(dom.shape, dtype=np.int8)
    assert set_perimeter(DiscreteSet(dom, ind)) == 0.0
    assert set_perimeter(DiscreteSet(dom, 1 - ind)) == 0.0


def test_perimeter_complementation_exact():
    dom = euclid_square(1.0 / 16)
    rng = np.random.default_rng(3)
    ind = (rng.random(dom.shape) < 0.4).astype(np.int8)
    E = DiscreteSet(dom, ind)
    Ec = DiscreteSet(dom, 1 - ind)
    win = ((2, 14), (3, 13))
    assert set_perimeter(E, win) == set_perimeter(Ec, win)


def test_perimeter_locality_exact():
    dom = euclid_square(1.0 / 16)
    rng = np.random.default_rng(9)
    a = (rng.random(dom.shape) < 0.5).astype(np.int8)
    b = a.copy()
    b[13:, :] = 1 - b[13:, :]  # differ outside the window plus margin
    win = ((2, 11), (2, 11))
    assert set_perimeter(DiscreteSet(dom, a), win) == \
        set_perimeter(DiscreteSet(dom, b), win)


def test_perimeter_submodularity():
    dom = euclid_square(1.0 / 16)
    rng = np.random.default_rng(17)
    for trial in range(25):
        e = (rng.random(dom.shape) < 0.5).astype(np.int8)
        f = (rng.random(dom.shape) < 0.5).astype(np.int8)
        union = DiscreteSet(dom, np.maximum(e, f))
        inter = DiscreteSet(dom, np.minimum(e, f))
        lhs = set_perimeter(union) + set_perimeter(inter)
        rhs = set_perimeter(DiscreteSet(dom, e)) + set_perimeter(DiscreteSet(dom, f))
        assert lhs <= rhs + 1e-12


def test_perimeter_window_validation():
    dom = euclid_square(1.0 / 16)
    E = _block_set(dom, 4, 12, 4, 12)
    with pytest.raises(FunctionalError):
        set_perimeter(E, ((0, 20), (0, 16)))


def test_metric_weighted_perimeter():
    # one face of the cut sits where sqrt(det sigma) is known in closed form
    chart = builtin_chart("poincare_disk", n=2, box=[[-0.5, 0.5], [-0.5, 0.5]])
    dom = build_domain(chart, 0.25)
    ind = np.zeros(dom.shape, dtype=np.int8)
    ind[2:, :] = 1  # half-plane cut along the x2 axis
    per = set_perimeter(DiscreteSet(dom, ind))
    # faces between rows 1 and 2 at x2 in {-0.25, 0, 0.25}: weight is the mean
    # of sqrt(det) at the two endpoint nodes times h
    sd = dom.sqrt_det
    expected = 0.25 * sum(0.5 * (sd[1, j] + sd[2, j]) for j in (1, 2, 3))
    assert per == pytest.approx(expected, rel=1e-13)


def test_subgraph_perimeter_flat_equals_volume():
    dom = euclid_square(1.0 / 16)
    u = GridField.constant(dom, 0.0)
    assert subgraph_perimeter(u) == pytest.approx(1.0, abs=1e-12)


def test_subgraph_perimeter_tilted_plane():
    dom = euclid_square(1.0 / 64)
    u = GridField.from_function(dom, lambda x: x[0])
    per = subgraph_perimeter(u)
    assert abs(per - np.sqrt(2.0)) / np.sqrt(2.0) < 0.05
    # the band construction keeps the bias well below a percent
    assert abs(per - area(u)) / area(u) < 0.01


def test_subgraph_perimeter_gap_shrinks_under_refinement():
    # curvature smeared over the vertical band dominates the gap, so it
    # decays as the lattice refines
    gaps = []
    for h in (1.0 / 16, 1.0 / 32):
        dom = euclid_square(h)
        u = GridField.from_function(
            dom, lambda x: 0.4 * np.sin(2 * np.pi * x[0]) * np.sin(2 * np.pi * x[1]))
        gaps.append(abs(subgraph_perimeter(u) - area(u)) / area(u))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 0.05


def test_subgraph_truncation_guard():
    dom = euclid_square(1.0 / 16)
    u = GridField.from_function(dom, lambda x: x[0])
    with pytest.raises(FunctionalError):
        subgraph_perimeter(u, T=0.5)


def test_rearrangement_exact_on_lattice_subgraphs():
    dom = euclid_square(1.0 / 16)
    rng = np.random.default_rng(4)
    T, h_t = 1.0, 1.0 / 16
    pg = product_grid(dom, T, h_t)
    # u sampled from the vertical lattice levels
    levels = rng.integers(4, len(pg.t_axis) - 4, size=dom.shape)
    u = GridField(dom, pg.t_axis[levels])
    F = subgraph_set(u, T=T, h_t=h_t)
    w = vertical_rearrangement(F)
    assert np.array_equal(w.values, u.values)


def test_product_grid_fields_cannot_be_assigned():
    pg = ProductGrid(*range(len(ProductGrid._fields)))
    for attr in (ProductGrid._fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(pg, attr, 1.0)


def test_rearrangement_containment_guard():
    dom = euclid_square(1.0 / 16)
    pg = product_grid(dom, 1.0, 1.0 / 16)
    ind = np.ones(pg.shape, dtype=np.int8)  # touches the top layer
    with pytest.raises(FunctionalError):
        vertical_rearrangement(DiscreteSet(pg, ind))


def test_lower_semicontinuity_proxy():
    # adding shrinking oscillations never drops the area below the limit's
    dom = euclid_square(1.0 / 32)
    base = GridField.from_function(dom, lambda x: 0.3 * x[0] * x[1])
    a0 = area(base)
    for j in (1, 2, 3, 4):
        osc = GridField.from_function(
            dom, lambda x, j=j: 0.3 * x[0] * x[1]
            + 2.0 ** -j * np.sin(4 * np.pi * x[0]) * np.sin(4 * np.pi * x[1]))
        assert area(osc) >= a0 - 1e-12
