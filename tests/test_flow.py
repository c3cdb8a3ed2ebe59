import csv

import numpy as np
import pytest

from graphflow.continuation import run_to_quasi_steady
from graphflow.errors import ConfigError, EstimateViolation, FlowDiverged, GraphflowError
from graphflow.flow import (FlowParams, compatibility_ramp, flow_step,
                            initial_state, l_eps_apply, stable_dt,
                            write_diagnostics_csv, _operator_arrays, _ramp_profile)
from graphflow.functionals import e_eps
from graphflow.grid import GridField, build_domain
from graphflow.manifold import builtin_chart


def at_node(dom, interior_vector, node):
    """The entry of an interior vector (interior_flat order) at a lattice node."""
    return interior_vector[np.searchsorted(dom.interior_flat,
                                           np.ravel_multi_index(node, dom.shape))]


def euclid(h, box=None, n=2):
    chart = builtin_chart("euclidean", n=n, box=box)
    return build_domain(chart, h)


def test_q_operator_saddle_closed_form():
    # u = x1^2 - x2^2 at (1,0): laplacian 0, correction -(4*2)/5
    dom = euclid(0.25, box=[[0, 2], [-1, 1]])
    u = GridField.from_function(dom, lambda x: x[0] ** 2 - x[1] ** 2)
    q = l_eps_apply(u, 0.0)
    assert at_node(dom, q, (4, 4)) == pytest.approx(-1.6, rel=1e-12)


def test_q_operator_annihilates_affine():
    dom = euclid(0.125)
    u = GridField.from_function(dom, lambda x: 0.3 * x[0] - 0.7 * x[1] + 0.2)
    q = l_eps_apply(u, 0.0)
    assert np.max(np.abs(q)) < 1e-12


def test_l_eps_parabola_closed_form():
    # u = x1^2 at the origin: Qu = 2/(1) - 0 = 2, W = 1, lap = 2
    dom = euclid(0.25, box=[[-1, 1], [-1, 1]])
    u = GridField.from_function(dom, lambda x: x[0] ** 2)
    v = l_eps_apply(u, 0.1)
    assert at_node(dom, v, (4, 4)) == pytest.approx(2.2, rel=1e-12)


def test_l_eps_zero_matches_q_bitwise():
    dom = euclid(0.125)
    rng = np.random.default_rng(11)
    u = GridField(dom, rng.standard_normal(dom.shape))
    a = l_eps_apply(u, 0.0)
    b = _operator_arrays(dom, u.values, 0.0)[0]
    assert np.array_equal(a, b)


def test_ramp_profile_shape():
    assert _ramp_profile(0.0) == 0.0
    # unit slope at zero, checked against a centered difference
    s = 1e-6
    slope = (_ramp_profile(s) - _ramp_profile(-s)) / (2 * s)
    assert slope == pytest.approx(1.0, abs=1e-8)
    assert _ramp_profile(2.0) == 0.0
    # profile maximum 8/27 at s = 2/3
    assert _ramp_profile(2.0 / 3.0) == pytest.approx(8.0 / 27.0, rel=1e-14)
    grid = np.linspace(0.0, 2.0, 2001)
    vals = _ramp_profile(grid)
    assert np.max(vals) <= 8.0 / 27.0 + 1e-14
    # derivative bounded by one on the whole support
    d = np.gradient(vals, grid)
    assert np.max(np.abs(d)) <= 1.0 + 1e-3


def test_compatibility_ramp_support():
    assert compatibility_ramp(0.0, 0.05) == 0.0
    assert compatibility_ramp(0.11, 0.05) == 0.0  # past s = 2
    assert compatibility_ramp(0.05, 0.0) == 0.0   # delta = 0 disables
    assert compatibility_ramp(0.02, 0.05) == pytest.approx(
        0.05 * _ramp_profile(0.4), rel=1e-14)


def test_params_validation_collects_problems():
    with pytest.raises(GraphflowError) as exc:
        FlowParams(eps=-1.0, delta=-2.0, cfl=1.5, t_end=0.0)
    msg = str(exc.value)
    for frag in ("eps", "delta", "cfl", "t_end"):
        assert frag in msg


@pytest.mark.parametrize("field,value", [
    ("eps", float("nan")), ("eps", float("inf")), ("delta", float("nan")),
    ("delta", float("inf")), ("t_end", float("nan")), ("t_end", float("inf")),
])
def test_params_must_be_finite(field, value):
    # a NaN passed the old sign checks, and a NaN t_end never ends a leg
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        FlowParams(**{"eps": 0.1, field: value})


def test_cfl_is_bounded_by_the_explicit_limit():
    # for n >= 2 the explicit step is stable only up to cfl 1/4
    assert FlowParams(eps=0.1, cfl=0.25).cfl == 0.25
    for cfl in (0.3, 0.0):
        with pytest.raises(ConfigError, match="cfl"):
            FlowParams(eps=0.1, cfl=cfl)


def test_affine_data_is_a_bitwise_fixed_point():
    # dyadic coefficients on a dyadic lattice: the stencil cancels exactly
    dom = euclid(0.125)
    affine = lambda x: 0.25 * x[0] + 0.125 * x[1] + 0.5
    u0 = GridField.from_function(dom, affine)
    params = FlowParams(eps=0.125, t_end=0.01)
    state = initial_state(u0, affine, params)
    before = state.u.values.copy()
    for _ in range(5):
        flow_step(state, params)
    assert np.array_equal(state.u.values[~(dom.mask == 0)], before[~(dom.mask == 0)])
    assert state.sup_l0 == 0.0


def test_first_step_rate_equals_initial_residual():
    dom = euclid(1.0 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.5 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    params = FlowParams(eps=0.1, t_end=0.01)
    state = initial_state(u0, lambda x: 0.0, params)
    flow_step(state, params)
    assert state.history[-1].sup_ut == pytest.approx(state.sup_l0, rel=1e-12)


def test_sine_bump_decays_at_discrete_rate():
    # small amplitude keeps the motion in the linear regime; the reference
    # rate is the five-point stencil eigenvalue, not the continuum one
    h = 1.0 / 16
    dom = euclid(h)
    a = 0.01
    u0 = GridField.from_function(
        dom, lambda x: a * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    params = FlowParams(eps=0.0, t_end=0.05)
    state = initial_state(u0, lambda x: 0.0, params)
    while state.t < params.t_end:
        flow_step(state, params)
    lam_h = 8.0 * np.sin(np.pi * h / 2) ** 2 / h ** 2
    predicted = a * np.exp(-lam_h * state.t)
    assert state.history[-1].sup_u == pytest.approx(predicted, rel=0.02)


def test_maximum_principle_on_random_runs():
    chart = builtin_chart("poincare_disk", n=2, box=[[-0.5, 0.5], [-0.5, 0.5]])
    dom = build_domain(chart, 1.0 / 16)
    rng = np.random.default_rng(5)
    for trial in range(3):
        u0 = GridField(dom, 0.5 * rng.standard_normal(dom.shape))
        phi = GridField(dom, 0.5 * rng.standard_normal(dom.shape))
        params = FlowParams(eps=0.05, t_end=0.02, assert_estimates=True)
        state = initial_state(u0, phi, params)
        used = ~(dom.mask == 0)
        lo = min(float(np.min(u0.values[used])), float(np.min(state.phi_dirichlet)))
        hi = max(float(np.max(u0.values[used])), float(np.max(state.phi_dirichlet)))
        while state.t < params.t_end:
            flow_step(state, params)
            vals = state.u.values[used]
            assert np.min(vals) >= lo - 1e-8
            assert np.max(vals) <= hi + 1e-8


def test_rate_bound_holds_with_ramp():
    dom = euclid(1.0 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.4 * np.sin(np.pi * x[0]) * np.sin(2 * np.pi * x[1]))
    params = FlowParams(eps=0.1, delta=0.05, t_end=0.12, assert_estimates=True)
    state = initial_state(u0, lambda x: 0.0, params)
    while state.t < params.t_end:
        flow_step(state, params)  # raises EstimateViolation on failure
    assert state.history[-1].sup_ut <= state.sup_l0 * (1 + 1e-3) + 1e-12


def test_energy_decreases_and_dissipation_matches():
    dom = euclid(1.0 / 32)
    u0 = GridField.from_function(
        dom, lambda x: 0.5 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    params = FlowParams(eps=0.05, t_end=0.05)
    state = initial_state(u0, lambda x: 0.0, params)
    e0 = e_eps(u0, params.eps)
    prev = e0
    while state.t < params.t_end:
        flow_step(state, params)
        e_now = state.history[-1].energy_eps
        assert e_now <= prev + 1e-12
        prev = e_now
    drop = e0 - state.history[-1].energy_eps
    dissipated = state.history[-1].dissipation_cum
    assert dissipated == pytest.approx(drop, rel=0.01)


def test_delta_ramp_comparison_bound():
    dom = euclid(1.0 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.5 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    delta, t_end = 0.05, 0.08

    def run(d):
        params = FlowParams(eps=0.1, delta=d, t_end=t_end)
        st = initial_state(u0, lambda x: 0.0, params)
        snaps = {}
        while st.t < t_end:
            flow_step(st, params)
            snaps[st.step] = st.u.values.copy()
        return st, snaps

    plain, snap0 = run(0.0)
    ramped, snapd = run(delta)
    used = ~(dom.mask == 0)
    worst = 0.0
    for k in sorted(set(snap0) & set(snapd)):
        worst = max(worst, float(np.max(np.abs(snap0[k][used] - snapd[k][used]))))
    # boundary data differ by at most delta * max(psi) * sup|L u0|
    assert worst <= delta * (8.0 / 27.0) * plain.sup_l0


def test_stable_dt_shrinks_with_steep_slopes():
    dom = euclid(1.0 / 16)
    params = FlowParams(eps=0.5, t_end=1.0)
    # W at the interior nodes
    flat = np.ones(dom.interior_flat.size)
    steep = np.full(dom.interior_flat.size, 30.0)
    assert stable_dt(dom, params, steep) < stable_dt(dom, params, flat)


def test_unit_cube_leg_converges_at_default_cfl():
    # h^2 / 2n is the explicit limit, so n = 3 needs the 2/n factor
    dom = euclid(1.0 / 8, n=3)
    params = FlowParams(eps=0.1, t_end=5.0)
    assert params.cfl == 0.25
    state, converged = run_to_quasi_steady(
        params, lambda x: 0.1 * x[0], GridField.constant(dom, 0.0), tol=1e-6)
    assert converged
    assert state.step <= 250


def test_divergence_guard_reports_step_and_node():
    dom = euclid(0.25)
    u0 = GridField.constant(dom, 0.0)
    params = FlowParams(eps=0.0, t_end=1.0)
    state = initial_state(u0, lambda x: 0.0, params)
    state.u.values[dom.interior] = 1e308  # poison the state past overflow
    with pytest.raises(FlowDiverged) as exc:
        flow_step(state, params)
    assert exc.value.step is not None


def test_estimate_guard_trips_when_bounds_tightened():
    dom = euclid(1.0 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.5 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    params = FlowParams(eps=0.1, t_end=0.01, assert_estimates=True)
    state = initial_state(u0, lambda x: 0.0, params)
    state.bound_hi = 0.1  # below the actual sup, so the check must fire
    with pytest.raises(EstimateViolation):
        flow_step(state, params)


def test_estimate_guard_trips_on_the_time_derivative_bound():
    dom = euclid(1.0 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.5 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    params = FlowParams(eps=0.1, t_end=0.01, assert_estimates=True)
    state = initial_state(u0, lambda x: 0.0, params)
    state.sup_l0 = 0.0  # any motion now exceeds sup|L^eps u0|
    with pytest.raises(EstimateViolation, match=r"time-derivative bound violated at step 1: "
                                                r"sup\|u_t\| = .* exceeds sup\|L\^eps u0\| = 0\.0"):
        flow_step(state, params)


def test_diagnostics_csv_bytes_match_csv_writer(tmp_path):
    dom = euclid(1.0 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.3 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    params = FlowParams(eps=0.1, delta=0.002, t_end=1.0)
    state = initial_state(u0, lambda x: 0.1 * x[0], params)
    for _ in range(60):  # past the ramp's support [0, 2 delta]
        flow_step(state, params)
    assert state.t > 2.0 * params.delta
    write_diagnostics_csv(state.history, tmp_path / "fast.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "sup_u", "sup_ut", "energy_eps", "dissipation_cum"])
        for s in state.history:
            writer.writerow([s.step, repr(s.t), repr(s.sup_u), repr(s.sup_ut),
                             repr(s.energy_eps), repr(s.dissipation_cum)])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    write_diagnostics_csv([], tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_bytes() == \
        b"step,t,sup_u,sup_ut,energy_eps,dissipation_cum\r\n"


def test_diagnostics_csv_roundtrip(tmp_path):
    dom = euclid(1.0 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.3 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    params = FlowParams(eps=0.1, t_end=0.005)
    state = initial_state(u0, lambda x: 0.0, params)
    for _ in range(5):
        flow_step(state, params)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(state.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,t,sup_u,sup_ut,energy_eps,dissipation_cum"
    assert len(lines) == 6
    row = lines[3].split(",")
    samp = state.history[2]
    assert int(row[0]) == samp.step
    assert float(row[2]) == samp.sup_u  # repr floats survive the roundtrip
    assert float(row[4]) == samp.energy_eps
