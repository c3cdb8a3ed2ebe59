"""The interior-gather stencils against the frozen block reference in
stencil_oracle.py: the sweeps, the operator, the step bound, the cell
quadratures and whole flow histories must agree bit for bit."""

import numpy as np
import pytest

import stencil_oracle as oracle
from graphflow.continuation import time_sequence_uniqueness_check
from graphflow.errors import FlowDiverged
from graphflow.flow import FlowParams, _operator_arrays, flow_step, initial_state, stable_dt
from graphflow.functionals import area, e_eps, total_variation
from graphflow.grid import GridField, _pair_rows, build_domain, gradient_sweep, hessian_sweep
from graphflow.manifold import builtin_chart
from set_functionals import _product_cell_tv, product_grid
from test_grid import ORACLE_DOMAINS, _disc

# ORACLE_DOMAINS are disc (ball) regions with exterior nodes in the inner
# block; these add the full-box lattices and the remaining charts
DOMAINS = dict(ORACLE_DOMAINS, **{
    "euclidean_1d": lambda: build_domain(builtin_chart("euclidean", n=1), 1.0 / 32),
    "euclidean_box": lambda: build_domain(
        builtin_chart("euclidean", n=2, box=[[-1.0, 1.0], [-1.0, 1.0]]), 1.0 / 16),
    "euclidean_cube": lambda: build_domain(builtin_chart("euclidean", n=3), 1.0 / 8),
    "warped_product": lambda: build_domain(
        builtin_chart("warped_product", n=2, params={"a": 1.0, "b": 0.25}), 1.0 / 16,
        _disc([0.5, 0.5], 0.45)),
    # the poincare_mixed benchmark lattice: 421 of the 961 block nodes are interior
    "poincare_mixed": lambda: build_domain(builtin_chart("poincare_disk", n=2), 0.04375,
                                           _disc([0.0, 0.0], 0.5)),
})


def _random_values(dom, seed):
    vals = np.random.default_rng(seed).normal(size=dom.shape)
    return np.where(dom.used, vals, np.nan)


def _same(got, ref):
    if isinstance(ref, (list, tuple)):
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            _same(g, r)
    else:
        assert np.array_equal(got, ref, equal_nan=True)


def _at_interior(dom, block):
    """The oracle's (nested lists of) inner-block arrays gathered at the
    interior nodes and stacked: the layout of the package's sweeps."""
    if isinstance(block, np.ndarray):
        return block.take(oracle.block_interior(dom))
    return np.array([_at_interior(dom, b) for b in block])


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_sweeps_and_operator_match_reference(name):
    dom = DOMAINS[name]()
    for seed in range(3):
        vals = _random_values(dom, seed)
        nbrs = vals.take(dom.node_table)
        lowered = gradient_sweep(dom, nbrs)
        ref_lowered = oracle.gradient_sweep(dom, vals)
        _same(lowered, [_at_interior(dom, r) for r in ref_lowered])
        _same(hessian_sweep(dom, nbrs, lowered[0]),
              _at_interior(dom, oracle.hessian_sweep(dom, vals, ref_lowered[0])))
        for eps in (0.0, 0.1):
            _same(_operator_arrays(dom, vals, eps),
                  [_at_interior(dom, r) for r in _block_l_eps(dom, vals, eps)])


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_sig_inv_is_evaluated_where_read(name):
    dom = DOMAINS[name]()
    n = dom.dim
    nodes = dom.chart.inverse(dom.points).reshape(-1, n, n).take(dom.interior_flat, axis=0)
    cells = dom.chart.inverse(dom.cell_centers).reshape(-1, n, n).take(dom.cell_flat, axis=0)
    assert np.array_equal(dom.interior_sig_inv, np.moveaxis(nodes, 0, -1))
    assert np.array_equal(dom.interior_lambda_max, np.linalg.eigvalsh(nodes)[:, -1])
    assert np.array_equal(dom.cell_sig_inv, np.moveaxis(cells, 0, -1))
    # the metric is evaluated once per interior node and complete cell, not on the lattice
    points = []

    def counted(x):
        points.append(x.size // n)
        return dom.chart.metric_fn(x)

    fresh = build_domain(dom.chart._replace(metric_fn=counted), dom.h, dom.region)
    fresh.interior_sig_inv, fresh.interior_lambda_max, fresh.cell_sig_inv
    assert sum(points) == len(dom.interior_flat) + len(dom.cell_flat)


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_sqrt_det_and_gamma_are_evaluated_where_read(name):
    dom = DOMAINS[name]()
    chart, n = dom.chart, dom.dim
    a, b = np.array(_pair_rows(n)[0]).T
    gamma = chart.christoffel(dom.points).reshape(-1, n, n, n).take(dom.interior_flat, axis=0)
    assert np.array_equal(dom.interior_gamma, np.moveaxis(gamma[:, :, a, b], 0, -1))
    assert np.array_equal(dom.interior_sqrt_det, chart.sqrt_det(dom.points).take(dom.interior_flat))
    assert np.array_equal(dom.cell_weights, chart.sqrt_det(dom.cell_centers).take(dom.cell_flat))
    # each cache evaluates the chart once per interior node or complete cell
    points = []

    def counted(fn):
        return lambda x: points.append(x.size // n) or fn(x)

    fresh = build_domain(chart._replace(metric_fn=counted(chart.metric_fn),
                                        christoffel_fn=counted(chart.christoffel_fn)),
                         dom.h, dom.region)
    seen = []
    for cache in ("interior_sqrt_det", "cell_weights", "interior_gamma"):
        points.clear()
        getattr(fresh, cache)
        seen.append(sum(points))
    assert seen == [len(dom.interior_flat), len(dom.cell_flat), len(dom.interior_flat)]


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_energy_and_step_bound_match_reference(name):
    dom = DOMAINS[name]()
    u = GridField(dom, _random_values(dom, 5))
    for eps in (0.0, 0.1, 0.37):
        assert e_eps(u, eps) == oracle.e_eps(u, eps)
    # the eps = 0 integrand is W + 0 * gradsq = W, so area sums the same cells
    assert area(u) == oracle.e_eps(u, 0.0)
    assert total_variation(u) == oracle.total_variation(u)
    pg = product_grid(dom, 1.0, float(np.min(dom.h)))
    profile = np.random.default_rng(8).random(pg.shape)
    assert _product_cell_tv(pg, profile) == oracle.product_cell_tv(pg, profile)

    w = 1.0 + np.abs(np.random.default_rng(7).normal(size=dom.interior_flat.size))
    for eps, cfl in ((0.0, 0.25), (0.1, 0.25), (0.37, 0.2), (0.05, 0.1)):
        params = FlowParams(eps=eps, cfl=cfl)
        assert stable_dt(dom, params, w) == oracle.stable_dt(dom, params, w)


def _start(dom):
    u0 = GridField.from_function(dom, lambda x: 0.3 * np.sin(3.0 * x[0] + 0.2) * np.cos(2.0 * x[-1]))
    return u0, (lambda x: 0.2 * x[0] - 0.1 * x[-1] ** 2)


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("name", ["euclidean_1d", "euclidean_box", "euclidean_3d",
                                  "poincare_disk", "poincare_mixed", "sphere_polar",
                                  "custom_table", "warped_product"])
def test_flow_histories_match_reference(name, eps):
    dom = DOMAINS[name]()
    u0, phi = _start(dom)
    # dt <= h^2 / 4, so the ramp (active while t < 2 delta) spans 16 steps or more
    params = FlowParams(eps=eps, delta=2.0 * min(dom.h) ** 2, t_end=10.0)
    got, ref = initial_state(u0, phi, params), initial_state(u0, phi, params)
    for _ in range(200):
        flow_step(got, params)
        oracle.flow_step(ref, params)
    assert got.history == ref.history
    assert np.array_equal(got.u.values, ref.u.values, equal_nan=True)
    assert got.history[-1].t > 2.0 * params.delta


@pytest.mark.parametrize("poison", ["interior", "dirichlet"])
def test_divergence_guard_matches_reference(poison):
    dom = DOMAINS["euclidean_2d"]()
    params = FlowParams(eps=0.1)
    caught = []
    for step in (flow_step, oracle.flow_step):
        u0, phi = _start(dom)
        state = initial_state(u0, phi, params)
        if poison == "interior":
            state.u.values[dom.interior] = 1e308  # overflows within the step
        else:
            state.phi_dirichlet[7] = np.nan  # python's max(finite, nan) is finite
        with pytest.raises(FlowDiverged) as exc:
            step(state, params)
        caught.append((exc.value.step, exc.value.node, str(exc.value)))
    assert caught[0] == caught[1]
    assert caught[0][1] is not None


def _block_l_eps(dom, values, eps):
    """The oracle's L^eps and W on the inner block, combined as l_eps_apply
    combines the package's interior vectors."""
    q, lap, w = oracle.operator_arrays(dom, values)
    return (q if eps == 0.0 else q + eps * w * lap), w


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("name", ["euclidean_1d", "euclidean_2d", "euclidean_3d",
                                  "poincare_mixed", "sphere_polar", "custom_table"])
def test_initial_state_matches_reference(name, eps):
    dom = DOMAINS[name]()
    u0, phi = _start(dom)
    state = initial_state(u0, phi, FlowParams(eps=eps))
    residual, _ = _block_l_eps(dom, state.u.values, eps)
    assert state.sup_l0 == float(np.max(np.abs(residual.take(oracle.block_interior(dom)))))
    # the inner block starts at lattice node (1, ..., 1)
    assert np.array_equal(state.ramp_base, residual[tuple(i - 1 for i in dom.inner_index)])


@pytest.mark.parametrize("name", ["euclidean_box", "poincare_mixed", "custom_table",
                                  "warped_product"])
def test_time_check_source_norms_match_reference(name):
    dom = DOMAINS[name]()
    u0, phi = _start(dom)
    params = FlowParams(eps=0.1, t_end=10.0)
    times = [40 * dom.h_min_sq, 80 * dom.h_min_sq]
    got = time_sequence_uniqueness_check(params, phi, u0, times[:1], times[1:])
    state, ref, block = initial_state(u0, phi, params), [], oracle.block_interior(dom)
    for t in times:
        while state.t < t:
            oracle.flow_step(state, params)
        residual, w = _block_l_eps(dom, state.u.values, params.eps)
        density = (residual.take(block) / w.take(block)) ** 2
        ref.append(float(np.sum(density * dom.sqrt_det[dom.interior]) * float(np.prod(dom.h))))
    assert got.source_norms == ref
