import json
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import barrier_oracle as oracle
import graphflow.barrier as barrier_mod
import graphflow.grid as grid_mod
from barrier_oracle import make_barrier_spec, psi_eval, q_on_barrier_fd
from graphflow.barrier import (FIT_WINDOW_CELLS, BarrierSearchResult, _window_rows,
                               check_dirichlet_solvability, fit_boundary_graph,
                               q_on_barrier, search_alpha)
from graphflow.continuation import boundary_attainment_report
from graphflow.errors import BarrierError
from graphflow.grid import GridDomain, GridField, _pair_rows, _region_sdf, build_domain
from graphflow.manifold import builtin_chart, christoffel_at, metric_at
from stencil_oracle import inner_neighbours

EUCLID = builtin_chart("euclidean", n=2)
# rows-last against rows-first Qv, psi and v, per row, in units of its largest
# term; the worst measured on the oracle domains is 1.7e-15
QV_ROUNDING = 1e-14


def disc_domain(h, radius=0.4):
    return build_domain(EUCLID, h, region={"region": "disc",
                                           "center": [0.5, 0.5],
                                           "radius": radius})


def fit_one(domain, x0):
    """(frame, w_fit, L) of the batched fit at one point; its failure raised."""
    frames, H, L, _, reasons = fit_boundary_graph(domain, np.asarray(x0, dtype=float)[None])
    if reasons[0] is not None:
        raise BarrierError(reasons[0])
    return frames[0], H[0], float(L[0])


def crossings_near(domain, x0, window):
    """Crossing-table rows in the sup-norm window of x0, one per boundary point."""
    return domain.boundary_facts[0][2][_window_rows(domain, x0[None], window)[0]]


def projections(domain):
    """Boundary point between each dirichlet node and its inner neighbour,
    in C order of the dirichlet nodes."""
    inner, outer = inner_neighbours(domain), np.nonzero(domain.dirichlet)
    return domain.segment_crossings(domain.points[inner], domain.points[outer],
                                    domain.sdf[inner], domain.sdf[outer])


@pytest.fixture(scope="module")
def square_16():
    return build_domain(EUCLID, 1.0 / 16)


@pytest.fixture(scope="module")
def flat_spec(square_16):
    return make_barrier_spec(square_16, [0.5, 0.0], K=0.3, gamma=1.1,
                             alpha=0.1, radius=0.2)


def test_flat_boundary_fit_exact(square_16):
    frame, H, L = fit_one(square_16, np.array([0.5, 0.0]))
    assert abs(H[0, 0]) < 1e-12
    assert L < 1e-12
    assert np.allclose(frame[:, 1], [0.0, 1.0], atol=1e-12)  # inner normal up
    assert np.allclose(frame[:, 0], [1.0, 0.0], atol=1e-12)


def test_circle_curvature_recovered():
    errs = []
    for h in (1.0 / 32, 1.0 / 64):
        dom = disc_domain(h)
        _, _, L = fit_one(dom, np.array([0.9, 0.5]))
        errs.append(abs(L - 2.5))
    assert errs[0] < 0.1
    assert errs[1] < errs[0]


def test_corner_fit_is_degenerate(square_16):
    with pytest.raises(BarrierError):
        fit_one(square_16, np.array([0.0, 0.0]))


def test_fit_stops_slopes_that_cannot_converge_in_the_refits_left(square_16, monkeypatch):
    # next to each corner the fitted slope shrinks by about x0.75 a refit, too
    # slowly to get below FLAT_SLOPE within MAX_REFITS refits: the fit stops
    # those points after their second refit, with the verdict the cap gives
    lstsq, calls = barrier_mod._lstsq, []
    monkeypatch.setattr(barrier_mod, "_lstsq", lambda *a: calls.append(None) or lstsq(*a))
    x0s = np.unique(square_16.boundary_facts[1], axis=0)
    reasons = dict(zip(map(tuple, x0s.tolist()), fit_boundary_graph(square_16, x0s)[4]))
    near = {p for c in (1 / 16, 15 / 16) for p in ((0.0, c), (1.0, c), (c, 0.0), (c, 1.0))}
    assert {x for x, r in reasons.items() if r and r.endswith("tangent plane")} == near
    for x in near:
        assert reasons[x] == f"degenerate boundary fit at {list(x)}: no stable tangent plane"
    assert len(calls) <= 9  # 24 refits and the Hessian fit without the stop


def test_boundary_crossings_on_flat_face(square_16):
    pts = crossings_near(square_16, np.array([0.5, 0.0]), 0.2)
    assert pts.shape[0] >= 4
    assert np.max(np.abs(pts[:, 1])) < 1e-12


def scan_crossings(domain, x0, window):
    """Reference: root-find every lattice segment inside the window of x0;
    a segment along the boundary adds its upper end after all crossings."""
    pts = domain.points
    F = _region_sdf(domain.region, pts.reshape(-1, domain.dim),
                    domain.chart.box).reshape(domain.shape)
    near = np.all(np.abs(pts - x0) <= window + 1e-12, axis=-1)
    ends = []
    for a in range(domain.dim):
        lo = tuple(slice(0, s - 1) if ax == a else slice(None)
                   for ax, s in enumerate(domain.shape))
        hi = tuple(slice(1, s) if ax == a else slice(None)
                   for ax, s in enumerate(domain.shape))
        for idx in np.argwhere(near[lo] & near[hi]):
            p = tuple(idx)
            q = tuple(v + (1 if ax == a else 0) for ax, v in enumerate(idx))
            ends.append((p, q))
    if not ends:
        return np.empty((0, domain.dim))
    p, q = (tuple(np.array(axis) for axis in zip(*side)) for side in zip(*ends))
    arr = domain.segment_crossings(pts[p], pts[q], F[p], F[q])
    arr = np.concatenate([arr[~np.isnan(arr[:, 0])], pts[q][(F[p] == 0) & (F[q] == 0)]])
    _, keep = np.unique(np.round(arr / 1e-12).astype(np.int64), axis=0,
                        return_index=True)
    return arr[np.sort(keep)]


CROSSING_DOMAINS = {
    "offcentre_disc": lambda: build_domain(EUCLID, 1.0 / 64, region={
        "region": "disc", "center": [0.47, 0.53], "radius": 0.3}),
    "annulus": lambda: build_domain(EUCLID, 1.0 / 32, region={
        "region": "annulus", "center": [0.5, 0.5], "r_inner": 0.15,
        "r_outer": 0.4}),
    # edges through lattice nodes: each corner node is seen by several segments
    "node_aligned_box": lambda: build_domain(EUCLID, 1.0 / 16, region={
        "region": "box", "bounds": [[0.25, 0.75], [0.125, 0.875]]}),
    "poincare_disc": lambda: build_domain(
        builtin_chart("poincare_disk", n=2), 0.04375,
        region={"region": "disc", "center": [0.0, 0.0], "radius": 0.5}),
    "ball_3d": lambda: build_domain(
        builtin_chart("euclidean", n=3), 1.0 / 16,
        region={"region": "disc", "center": [0.5, 0.5, 0.5], "radius": 0.35}),
}


@pytest.mark.parametrize("name", sorted(CROSSING_DOMAINS))
def test_boundary_crossings_match_per_point_scan(name):
    dom = CROSSING_DOMAINS[name]()
    proj = projections(dom)
    base = [proj[k] for k in (0, len(proj) // 3, len(proj) // 2, len(proj) - 1)]
    # plus a point away from the boundary and the lattice centre
    centre = np.array([0.5 * (lo + hi) for lo, hi in dom.chart.box])
    fit_window = FIT_WINDOW_CELLS * float(np.max(dom.h))
    total = 0
    for x0 in base + [centre, base[0] + 0.3 * fit_window]:
        for window in (fit_window, 2.5 * float(np.max(dom.h)), 0.05, 10.0):
            got = crossings_near(dom, x0, window)
            want = scan_crossings(dom, x0, window)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            total += got.shape[0]
    assert total > 0


def test_boundary_crossings_dedup_node_aligned_corner():
    dom = CROSSING_DOMAINS["node_aligned_box"]()
    pts = crossings_near(dom, np.array([0.25, 0.125]), 1.0 / 16)
    # the corner and its two edge neighbours, each once
    assert pts.tolist() == [[0.25, 0.125], [0.25, 0.1875], [0.3125, 0.125]]


def test_solvability_root_finds_each_segment_once(monkeypatch):
    # the disc_barrier benchmark domain: 208 boundary points, 4997 segments
    # root-found when every point re-solved the segments in its window
    bisected = []
    crossings = GridDomain.segment_crossings

    def counting(domain, a, b, fa, fb):
        bisected.append(int(np.sum(fa * fb < 0)))
        return crossings(domain, a, b, fa, fb)

    monkeypatch.setattr(GridDomain, "segment_crossings", counting)
    dom = disc_domain(1.0 / 64)
    rep = check_dirichlet_solvability(GridField.constant(dom, 0.2), dom,
                                      K=0.3, gamma=1.1)
    assert len(rep.points) == 208
    assert rep.certified
    assert sum(bisected) <= 450


def test_crossing_facts_are_built_once_per_domain(monkeypatch):
    # the fit, the search and every solvability check of a domain share its
    # one bisection pass; a second domain makes its own
    calls = []
    crossings = GridDomain.segment_crossings

    def counting(domain, a, b, fa, fb):
        calls.append(domain)
        return crossings(domain, a, b, fa, fb)

    monkeypatch.setattr(GridDomain, "segment_crossings", counting)
    dom, other = disc_domain(1.0 / 16), disc_domain(1.0 / 16)
    x0s = np.array([[0.5, 0.1], [0.9, 0.5]])
    fit_boundary_graph(dom, x0s)
    search_alpha(dom, x0s, K=0.3, gamma=1.1)
    for _ in range(2):
        check_dirichlet_solvability(GridField.constant(dom, 0.2), dom, K=0.3, gamma=1.1)
    assert len(calls) == 1 and calls[0] is dom
    check_dirichlet_solvability(GridField.constant(other, 0.2), other, K=0.3, gamma=1.1)
    assert len(calls) == 2 and calls[1] is other


def circle_roots(a, b, center, radius):
    """Closed-form points where the segments [a[k], b[k]] meet the circle:
    both roots t of |a + t (b - a) - center| = radius, NaN if none."""
    d, e = b - a, a - center
    A, B = np.sum(d * d, axis=1), np.sum(d * e, axis=1)
    disc = B * B - A * (np.sum(e * e, axis=1) - radius ** 2)
    root = np.sqrt(np.where(disc >= 0, disc, np.nan))
    return [a + ((-B + sign * root) / A)[:, None] * d for sign in (-1.0, 1.0)]


@pytest.mark.parametrize("region,radii", [
    ({"region": "disc", "center": [0.47, 0.53], "radius": 0.3}, [0.3]),
    ({"region": "annulus", "center": [0.5, 0.5], "r_inner": 0.15,
      "r_outer": 0.4}, [0.15, 0.4]),
])
def test_crossings_match_closed_form_circle_roots(region, radii):
    dom = build_domain(EUCLID, 1.0 / 64, region=region)
    center = np.asarray(region["center"])
    pts = dom.points.reshape(-1, 2)
    lo, hi, table = dom.boundary_facts[0]
    inner, outer = inner_neighbours(dom), np.nonzero(dom.dirichlet)
    proj = projections(dom)
    assert not np.isnan(proj).any()
    for a, b, got in ((pts[lo], pts[hi], table),
                      (dom.points[inner], dom.points[outer], proj)):
        roots = np.stack([r for radius in radii
                          for r in circle_roots(a, b, center, radius)])
        err = np.nanmin(np.max(np.abs(roots - got), axis=2), axis=0)
        assert err.max() <= 1e-15


def test_every_box_corner_is_a_crossing_row(square_16):
    table = square_16.boundary_facts[0][2]
    for corner in product((0.0, 1.0), repeat=2):
        assert np.all(table == corner, axis=1).any(), corner


def test_segment_crossings_endpoints_and_one_sided_rows(square_16):
    a = np.array([[0.5, 0.25], [0.5, 0.25], [0.5, 0.25], [0.5, 0.25]])
    b = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    fa = np.array([0.0, -0.2, -0.2, 1e-15])
    fb = np.array([0.3, 1e-15, -0.1, 0.4])
    out = square_16.segment_crossings(a, b, fa, fb)
    assert np.array_equal(out[0], a[0])    # a zero end is returned exactly
    assert np.array_equal(out[1], b[1])    # so is one below 1e-13 of the other
    assert np.isnan(out[2]).all()          # same-sign ends: no crossing
    assert np.array_equal(out[3], a[3])


def test_dirichlet_projections_land_on_circle():
    dom = disc_domain(1.0 / 16)
    hits = 0
    for x0 in projections(dom)[:10]:
        r = np.hypot(x0[0] - 0.5, x0[1] - 0.5)
        assert r == pytest.approx(0.4, abs=1e-10)
        hits += 1
    assert hits == 10


def test_psi_closed_form_on_normal_ray(flat_spec):
    r = 0.1
    psi, v = psi_eval(flat_spec, np.array([0.5, r]))
    assert float(psi) == pytest.approx(0.09 * r * r + 0.2 * r, rel=1e-14)
    assert float(v) == pytest.approx(np.sqrt(0.09 * r * r + 0.2 * r), rel=1e-14)


def test_psi_vanishes_at_base_point(flat_spec):
    psi, v = psi_eval(flat_spec, np.array([0.5, 0.0]))
    assert float(psi) == 0.0
    assert float(v) == 0.0


def test_psi_rejects_negative_side(flat_spec):
    # just below the boundary: 2 alpha x_n dominates and flips the sign
    with pytest.raises(BarrierError):
        psi_eval(flat_spec, np.array([0.5, -0.01]))


def test_limit_margin_flat_values(square_16):
    spec = make_barrier_spec(square_16, [0.5, 0.0], K=0.3, gamma=1.1,
                             alpha=0.1, radius=0.2)
    assert spec.limit_margin == pytest.approx(0.91, abs=1e-12)
    # the K = 1 boundary case of the admissibility window gives margin zero
    spec1 = make_barrier_spec(square_16, [0.5, 0.0], K=1.0, gamma=1.1,
                              alpha=0.1, radius=0.2)
    assert spec1.limit_margin == pytest.approx(0.0, abs=1e-12)


def test_qv_limit_along_normal(flat_spec):
    # v * Qv approaches -(1 + K^2 (1 - n)) = -0.91 at the base point
    prods = []
    for r in (1e-2, 1e-4, 1e-6, 1e-8):
        x = np.array([0.5, r])
        _, v = psi_eval(flat_spec, x)
        prods.append(float(q_on_barrier(flat_spec, x) * v))
    assert prods[-1] == pytest.approx(-0.91, rel=1e-4)
    gaps = [abs(p + 0.91) for p in prods]
    assert gaps == sorted(gaps, reverse=True)


def test_qv_too_close_to_base_point(flat_spec):
    with pytest.raises(BarrierError):
        q_on_barrier(flat_spec, np.array([0.5, 0.0]))


def test_qv_analytic_matches_finite_differences(flat_spec):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        x = np.array([0.5 + rng.uniform(-0.15, 0.15), rng.uniform(0.02, 0.2)])
        qa = float(q_on_barrier(flat_spec, x))
        qf = q_on_barrier_fd(flat_spec, x)
        worst = max(worst, abs(qa - qf) / max(abs(qa), 1e-10))
    assert worst < 1e-4


def test_qv_cross_check_on_conformal_chart():
    # christoffel transport is exercised for real away from euclidean charts
    chart = builtin_chart("poincare_disk", n=2, box=[[-0.5, 0.5], [-0.5, 0.5]])
    dom = build_domain(chart, 1.0 / 16,
                       region={"region": "disc", "center": [0.0, 0.0],
                               "radius": 0.35})
    res = search_alpha(dom, np.array([[0.35, 0.0]]), K=0.3, gamma=1.1)[0]
    assert res.certified
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(20):
        ang = rng.uniform(-0.3, 0.3)
        r = rng.uniform(0.02, 0.1)
        x = np.array([0.35, 0.0]) + r * np.array([-np.cos(ang), np.sin(ang)])
        try:
            qa = float(q_on_barrier(res.spec, x))
        except BarrierError:
            continue
        qf = q_on_barrier_fd(res.spec, x)
        assert abs(qa - qf) / max(abs(qa), 1e-10) < 1e-4
        assert np.sign(qa) == np.sign(qf)
        checked += 1
    assert checked >= 10


def test_search_certifies_flat_boundary(square_16):
    res = search_alpha(square_16, np.array([[0.5, 0.0]]), K=0.3, gamma=1.1)[0]
    assert res.admissible and res.certified
    assert res.limit_margin == pytest.approx(0.91, abs=1e-12)
    assert res.qv_max < -1e-8
    assert res.spec.alpha == 1.0  # largest alpha wins on a flat face


def test_search_reports_inadmissible_k(square_16):
    res = search_alpha(square_16, np.array([[0.5, 0.0]]), K=1.0, gamma=1.0001)[0]
    assert not res.admissible
    assert not res.certified
    assert "not below" in res.reason


def test_search_certifies_circle():
    dom = disc_domain(1.0 / 16)
    res = search_alpha(dom, np.array([[0.9, 0.5]]), K=0.3, gamma=1.1)[0]
    assert res.certified
    assert res.limit_margin > 0


def test_search_handles_corner_without_raising(square_16):
    res = search_alpha(square_16, np.array([[0.0, 0.0]]), K=0.3, gamma=1.1)[0]
    assert res.admissible
    assert not res.certified
    assert "degenerate" in res.reason


def test_search_validates_inputs(square_16):
    with pytest.raises(BarrierError):
        search_alpha(square_16, np.array([[0.5, 0.0]]), K=-0.1, gamma=1.1)
    with pytest.raises(BarrierError):
        search_alpha(square_16, np.array([[0.5, 0.0]]), K=0.3, gamma=0.9)


@pytest.mark.parametrize("K,gamma,message", [(0.3, float("nan"), "gamma must exceed 1, got nan"),
                                             (float("nan"), 1.1, "K must be positive, got nan")])
def test_nan_barrier_parameters_are_refused(K, gamma, message):
    dom = build_domain(EUCLID, 1.0 / 16, region={"region": "disc", "center": [0.5, 0.5],
                                                 "radius": 0.4})
    with pytest.raises(BarrierError, match=message):
        search_alpha(dom, np.array([[0.5, 0.1]]), K, gamma)
    rep = check_dirichlet_solvability(GridField.constant(dom, 0.2), dom, K=K, gamma=gamma)
    assert rep.points and not rep.certified
    assert not any(p.certified for p in rep.points)
    assert {p.reason for p in rep.points} == {message}


def test_assumed_curvature_bound_checked():
    dom = disc_domain(1.0 / 32)
    with pytest.raises(BarrierError):
        make_barrier_spec(dom, [0.9, 0.5], K=0.3, gamma=1.1, alpha=0.1,
                          radius=0.2, L=1.0)  # true curvature is 2.5


def test_table_chart_certifies_up_to_the_box_edge():
    # the differenced Christoffels at the box edge read the table metric a
    # step outside it, where the table extrapolates linearly
    axis = [0.0, 0.5, 1.0]
    identity = builtin_chart("custom_table", n=2, params={
        "axes": [axis, axis], "table": np.broadcast_to(np.eye(2), (3, 3, 2, 2))})
    got, want = (check_dirichlet_solvability(
        lambda x: 0.25, build_domain(chart, 1.0 / 16, region={"region": "box"}),
        K=0.3, gamma=1.1) for chart in (identity, EUCLID))
    assert [p.certified for p in got.points] == [p.certified for p in want.points]
    assert (sum(p.certified for p in got.points), len(got.points)) == (36, 64)
    for p, q in zip(got.points, want.points):
        if q.certified:
            assert abs(p.limit_margin - q.limit_margin) <= 1e-11


def test_solvability_constant_data_certified():
    dom = disc_domain(1.0 / 16)
    rep = check_dirichlet_solvability(lambda x: 0.25, dom, K=0.3, gamma=1.1)
    assert rep.lipschitz_constant == 0.0
    assert rep.oscillation == 0.0
    assert rep.certified
    assert all(p.certified for p in rep.points)
    assert rep.eps_threshold > 0


def test_solvability_linear_data_lipschitz():
    dom = disc_domain(1.0 / 16)
    rep = check_dirichlet_solvability(lambda x: 0.2 * x[0], dom, K=0.3,
                                      gamma=1.1)
    assert rep.lipschitz_constant == pytest.approx(0.2, abs=0.02)
    assert rep.lipschitz_ok
    assert rep.certified


def test_solvability_jump_data_not_certified():
    dom = disc_domain(1.0 / 16)
    rep = check_dirichlet_solvability(
        lambda x: 1.0 if x[0] > 0.5 else 0.0, dom, K=0.3, gamma=1.1)
    assert rep.lipschitz_constant > 5.0
    assert not rep.lipschitz_ok
    assert not rep.certified
    # the geometric component is untouched by the data
    assert all(p.certified for p in rep.points)


def test_oscillation_scaling_flips_only_the_verdict():
    dom = build_domain(EUCLID, 1.0 / 32,
                       region={"region": "annulus", "center": [0.5, 0.5],
                               "r_inner": 0.25, "r_outer": 0.45})

    def data(c):
        def phi(x):
            return c if np.hypot(x[0] - 0.5, x[1] - 0.5) < 0.35 else 0.0
        return phi

    low = check_dirichlet_solvability(data(0.2), dom, K=0.3, gamma=1.1)
    assert low.certified
    assert low.oscillation == pytest.approx(0.2)
    high = check_dirichlet_solvability(data(low.eps_threshold * 1.5), dom,
                                       K=0.3, gamma=1.1)
    assert not high.certified
    assert high.lipschitz_ok == low.lipschitz_ok
    assert [p.certified for p in high.points] == [p.certified for p in low.points]


def test_report_json_shape():
    dom = disc_domain(1.0 / 16)
    rep = check_dirichlet_solvability(lambda x: 0.0, dom, K=0.3, gamma=1.1)
    d = rep.json_dict()
    assert set(d) == {"lipschitz_constant", "lipschitz_ok", "oscillation",
                      "eps_threshold", "certified", "points"}
    p = d["points"][0]
    for key in ("x0", "certified", "alpha", "radius", "limit_margin"):
        assert key in p


# ------------------------------------------------- batched against per-point


def table_chart():
    """custom_table chart of a smooth metric with an off-diagonal term."""
    axes = [np.linspace(0.0, 1.0, 11)] * 2
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    table = np.empty(x.shape[:-1] + (2, 2))
    table[..., 0, 0] = 1.0 + 0.3 * x[..., 0] ** 2
    table[..., 1, 1] = 1.5 + 0.2 * np.sin(3.0 * x[..., 1])
    table[..., 0, 1] = table[..., 1, 0] = 0.2 * x[..., 0] * x[..., 1]
    return builtin_chart("custom_table", n=2, box=[[0.0, 1.0], [0.0, 1.0]],
                         params={"axes": axes, "table": table})


ORACLE_DOMAINS = {
    "offcentre_disc": CROSSING_DOMAINS["offcentre_disc"],
    # the inner circle is concave: its points pass on later rungs
    "annulus": CROSSING_DOMAINS["annulus"],
    "poincare_disc": CROSSING_DOMAINS["poincare_disc"],
    "sphere_polar": lambda: build_domain(
        builtin_chart("sphere_polar"), [(np.pi - 0.8) / 16, 1.5 / 16],
        region={"region": "disc", "center": [np.pi / 2, 0.75], "radius": 0.6}),
    "custom_table": lambda: build_domain(table_chart(), 1.0 / 16, region={
        "region": "disc", "center": [0.5, 0.5], "radius": 0.4}),
    "ball_3d": lambda: build_domain(
        builtin_chart("euclidean", n=3), 1.0 / 8,
        region={"region": "disc", "center": [0.5, 0.5, 0.5], "radius": 0.35}),
    # the corners fail the fit (residual, no stable tangent plane)
    "unit_square": lambda: build_domain(EUCLID, 1.0 / 16),
}


def assert_same(got, want, path="", rel=1e-12):
    """Equal structure, strings, counts and flags; floats within rel (float
    arrays: relative to their largest entry)."""
    if isinstance(want, np.ndarray) and want.dtype.kind == "f":
        assert got.shape == want.shape, path
        scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-3)
        assert float(np.max(np.abs(got - want), initial=0.0)) <= rel * scale, path
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}", rel)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for k, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, f"{path}[{k}]", rel)
    elif isinstance(want, (float, np.floating)) and not isinstance(want, bool):
        assert abs(got - want) <= rel * max(abs(got), abs(want), 1e-3), \
            (path, got, want)
    else:
        assert got == want, (path, got, want)


def same_signs(frame, w_fit, like):
    """frame and w_fit with each tangent column's sign taken from like: the
    sign convention (largest entry positive) is open where two entries tie."""
    flip = np.sign(np.sum(frame * like, axis=0))[:-1]
    return frame * np.append(flip, 1.0), w_fit * np.outer(flip, flip)


@pytest.mark.parametrize("name,K", [(name, 0.3) for name in sorted(ORACLE_DOMAINS)]
                         + [("annulus", 0.9)])
def test_batched_certification_matches_per_point_oracle(name, K):
    dom = ORACLE_DOMAINS[name]()
    phi = GridField.from_function(dom, lambda x: 0.1 * float(np.sum(x)))
    got = check_dirichlet_solvability(phi, dom, K=K, gamma=1.1)
    want = oracle.check_dirichlet_solvability(phi, dom, K=K, gamma=1.1)
    assert_same(got.json_dict(), want.json_dict())
    for p, q in zip(got.points, want.points):
        if q.spec is not None:
            assert_same(list(same_signs(p.spec.frame, p.spec.w_fit, q.spec.frame))
                        + [p.spec.trace_term],
                        [q.spec.frame, q.spec.w_fit, q.spec.trace_term])
    u = GridField.from_function(dom, lambda x: 0.1 * float(np.sum(np.sin(3 * x))))
    assert_same(boundary_attainment_report(u, phi, got).json_dict(),
                oracle.boundary_attainment_report(u, phi, want).json_dict())
    rungs = {(p.spec.radius, p.spec.alpha) for p in want.points if p.certified}
    reasons = {p.reason.split(" within")[0] for p in want.points}
    if (name, K) == ("annulus", 0.3):
        assert len(rungs) > 1       # some points pass only on a later rung
    if K == 0.9:                    # here some pass on none
        assert {"no admissible (radius, alpha) pair found",
                "no interior lattice nodes"} <= reasons
    if name == "unit_square":
        assert not all(p.certified for p in want.points)


@lru_cache(maxsize=None)
def certified_case(name):
    """(domain, phi, u, report) for the gather tests: the solvability report
    of a domain plus verdict points at lattice nodes on the edge and in and
    around the chart box."""
    dom = (ORACLE_DOMAINS[name]() if name != "box_1d"
           else build_domain(builtin_chart("euclidean", n=1), 1.0 / 16))
    h = float(np.max(dom.h))
    lo, hi = np.array(dom.chart.box).T
    extra = np.concatenate([dom.points[dom.dirichlet][::5], np.random.default_rng(1)
                            .uniform(lo - 2 * h, hi + 2 * h, (40, dom.dim))])
    phi = GridField.from_function(dom, lambda x: 0.1 * float(np.sum(x)))
    u = GridField.from_function(dom, lambda x: 0.1 * float(np.sum(np.sin(3 * x))))
    report = check_dirichlet_solvability(phi, dom, K=0.3, gamma=1.1)
    return dom, phi, u, SimpleNamespace(points=report.points + [BarrierSearchResult(
        x0=x0, admissible=True, certified=bool(k % 2), reason="") for k, x0 in enumerate(extra)])


@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS) + ["box_1d"])
@pytest.mark.parametrize("block", [grid_mod.BLOCK, 64])
def test_windowed_gathers_match_all_pairs_bit_for_bit(name, block, monkeypatch):
    dom, phi, u, report = certified_case(name)
    monkeypatch.setattr(grid_mod, "BLOCK", block)  # 64: many blocks of few points
    assert (json.dumps(boundary_attainment_report(u, phi, report).json_dict())
            == json.dumps(oracle.attainment_all_pairs(u, phi, report).json_dict()))
    x0s = np.array([p.x0 for p in report.points])
    open_ = np.random.default_rng(2).random(len(x0s)) < 0.8
    h = float(np.max(dom.h))
    for radius in (FIT_WINDOW_CELLS * h, 2.0 * h, 1.5 * h):
        got = barrier_mod._near_nodes(dom, x0s, open_, radius)
        want = oracle.near_nodes_all_pairs(dom, x0s, open_, radius)
        assert len(got[0]) > 0
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        mask = _window_rows(dom, x0s, radius)
        assert mask.any() and np.array_equal(mask, oracle.window_rows_all_pairs(dom, x0s, radius))
    if dom.dim > 1:  # the fit's compact sample order; its base points lie in the chart box
        x0s = x0s[dom.chart.contains(x0s)]
        got, want = fit_boundary_graph(dom, x0s), oracle.fit_boundary_graph_all_pairs(dom, x0s)
        assert sum(r is None for r in want[4]) > 0
        for a, b in zip(got[:4], want[:4]):
            assert np.array_equal(a, b)
        assert list(got[4]) == list(want[4])


def test_euclidean_search_drops_only_a_zero_christoffel_term():
    # flagged curved, the chart's zero Gamma is contracted in the fit's trace
    # term and on every row; every frame, Hessian, L, trace term, verdict,
    # rung and qv_max keeps its bits
    dom = ORACLE_DOMAINS["annulus"]()
    x0s = np.unique(projections(dom), axis=0)
    curved = build_domain(dom.chart._replace(is_euclidean=False), dom.h, dom.region)
    got, want = fit_boundary_graph(dom, x0s), fit_boundary_graph(curved, x0s)
    assert all(r is None for r in got[4]) and list(got[4]) == list(want[4])
    for a, b in zip(got[:4], want[:4]):
        assert a.tobytes() == b.tobytes()
    for K in (0.3, 0.9):
        got = search_alpha(dom, x0s, K=K, gamma=1.1)
        want = search_alpha(curved, x0s, K=K, gamma=1.1)
        assert sum(r.certified for r in got) > 0
        assert (json.dumps([r.json_dict() for r in got])
                == json.dumps([r.json_dict() for r in want]))


def largest_terms(spec, y, inv_t, gam):
    """Per row, the largest |summand| of psi and of Qv written out in full,
    rows-first from the oracle's psi derivatives: each of g^ab = sigma^ab -
    v^a v^b / W^2 and v_ab = -psi_a psi_b / 4v^3 + psi_ab / 2v splits in
    two, and the Gamma term sums Gamma^k_ij (E g E^T)^ij v_k the same way."""
    psi, pg, ph = oracle._psi_terms(spec, y)
    v = np.sqrt(psi)[:, None, None]
    vi = pg / (2.0 * v[..., 0])
    up = np.einsum("rab,rb->ra", inv_t, vi)
    g_parts = [inv_t, up[:, :, None] * up[:, None, :]
               / (1.0 + np.sum(vi * up, axis=1))[:, None, None]]
    vab_parts = [pg[:, :, None] * pg[:, None, :] / (4.0 * psi[:, None, None] * v), ph / (2.0 * v)]
    terms = [g * d for g in g_parts for d in vab_parts]
    if gam is not None:
        dv = vi @ np.linalg.inv(spec.frame)
        terms += [gam * (spec.frame @ g @ spec.frame.T)[:, None] * dv[:, :, None, None]
                  for g in g_parts]
    n = y.shape[1]
    quad = y[:, :n - 1, None] * spec.w_fit * y[:, None, :n - 1]
    psi_terms = [spec.K ** 2 * y * y, 2.0 * spec.alpha * y[:, -1:], spec.alpha * quad]
    flat = [[np.abs(t).reshape(len(y), -1) for t in ts] for ts in (psi_terms, terms)]
    return tuple(np.max(np.concatenate(f, axis=1), axis=1) for f in flat)


@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_rows_last_qv_matches_rows_first_reference(name):
    # every certified neighbourhood: the rows-last kernel, fed as the rung
    # loop feeds it (domain caches, matvec, _congruence), against the
    # rows-first one fed from metric_at and christoffel_at; the sums run in
    # another order, so rows agree to rounding of their largest term
    dom, _, _, report = certified_case(name)
    ipts, curved = dom.points[dom.interior], not dom.chart.is_euclidean
    specs = [p.spec for p in report.points if p.certified and p.spec is not None]
    assert specs
    for spec in specs:
        k = np.flatnonzero(np.linalg.norm(ipts - spec.x0, axis=1) <= spec.radius)
        x, Einv = ipts[k], np.linalg.inv(spec.frame)
        y, inv_t = (x - spec.x0) @ Einv.T, Einv @ np.linalg.inv(metric_at(dom.chart, x)) @ Einv.T
        gam = christoffel_at(dom.chart, x) if curved else None
        first = [np.broadcast_to(a, (len(k),) + a.shape) for a in (spec.w_fit, spec.frame, Einv)]
        want = oracle._qv(y, spec.K, spec.alpha, *first, inv_t, gam)
        last = [np.broadcast_to(a[..., None], a.shape + (len(k),))
                for a in (spec.w_fit, spec.frame, Einv)]
        gam_k = np.take(dom.interior_gamma[..., k], _pair_rows(dom.dim)[1], axis=1)
        got = barrier_mod._qv(
            barrier_mod.matvec(last[2], (x - spec.x0).T), spec.K, spec.alpha, *last,
            barrier_mod._congruence(last[2], dom.interior_sig_inv[..., k]),
            gam_k if curved else None)
        psi_scale, qv_scale = largest_terms(spec, y, inv_t, gam)
        for a, b, scale in zip(got, want, (qv_scale, psi_scale, np.sqrt(psi_scale))):
            assert np.all(np.abs(a - b) <= QV_ROUNDING * scale)


@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_search_does_not_depend_on_the_block_size(name, monkeypatch):
    # at BLOCK = 64 the rung loop runs one or two rows a block, so owner
    # segments cross block edges; every verdict, rung and qv_max keeps its
    # bits (every fourth boundary point, to bound the run time)
    dom = ORACLE_DOMAINS[name]()
    x0s = np.unique(projections(dom), axis=0)[::4]
    x0s = x0s[~np.isnan(x0s[:, 0])]
    want = json.dumps([r.json_dict() for r in search_alpha(dom, x0s, K=0.3, gamma=1.1)])
    monkeypatch.setattr(grid_mod, "BLOCK", 64)
    assert json.dumps([r.json_dict() for r in search_alpha(dom, x0s, K=0.3, gamma=1.1)]) == want


def test_search_with_a_point_too_few_samples():
    # the far point's window holds no crossing, so its fit is never formed
    dom = build_domain(EUCLID, 1.0 / 16, region={"region": "disc", "center": [0.3, 0.3],
                                                 "radius": 0.2})
    near, far = search_alpha(dom, np.array([[0.3, 0.1], [0.98, 0.98]]), K=0.3, gamma=1.1)
    assert near.certified
    assert not far.certified and far.reason == (
        "boundary near [0.98, 0.98] resolved by only 0 points; need at least 4")


@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_shared_pass_dirichlet_crossings_match_their_own_pass(name):
    # the crossing table's pass also bisects the dirichlet segments; each
    # crossing, NaN included, is the one a pass of its own gives
    dom = ORACLE_DOMAINS[name]()
    shared = dom.boundary_facts[1]
    assert shared.shape == (len(dom.dirichlet_flat), dom.dim)
    assert shared.tobytes() == projections(dom).tobytes()


def test_one_point_calls_match_per_point_oracle():
    dom = ORACLE_DOMAINS["annulus"]()
    for x0 in projections(dom)[::7]:
        frame, H, L = fit_one(dom, x0)
        assert_same(list(same_signs(frame, H, oracle.fit_boundary_graph(dom, x0)[0]))
                    + [L], list(oracle.fit_boundary_graph(dom, x0)))
        got = search_alpha(dom, x0[None], K=0.3, gamma=1.1)[0]
        want = oracle.search_alpha(dom, x0, K=0.3, gamma=1.1)
        assert_same(got.json_dict(), want.json_dict())
        if want.certified:
            pts = dom.points[dom.interior][::5]
            pts = pts[np.linalg.norm(pts - x0, axis=1) <= want.spec.radius]
            assert_same(q_on_barrier(got.spec, pts),
                        oracle.q_on_barrier(want.spec, pts))
    with pytest.raises(BarrierError, match="degenerate boundary fit"):
        fit_one(ORACLE_DOMAINS["unit_square"](), [0.0, 0.0])


def test_fit_ignores_sub_ulp_moves_of_the_base_point():
    # on this ball distances to lattice samples tie, so the nearest 4n used
    # to depend on the last bit of x0 (L moved by 6e-4 for 3.3e-16 moves)
    dom = build_domain(builtin_chart("euclidean", n=3), 1.0 / 16, region={
        "region": "disc", "center": [0.5, 0.5, 0.5], "radius": 0.35})
    x0s = np.unique(projections(dom), axis=0)
    frames, _, L, _, reasons = fit_boundary_graph(dom, x0s)
    assert not any(reasons)
    rng = np.random.default_rng(5)
    for _ in range(3):
        moved = x0s + rng.uniform(-4e-16, 4e-16, x0s.shape)
        frames2, _, L2, _, _ = fit_boundary_graph(dom, moved)
        assert np.max(np.abs(L2 - L)) <= 1e-12
        assert np.max(np.abs(frames2 - frames)) <= 1e-12
