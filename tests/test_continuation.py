import numpy as np
import pytest

from graphflow import continuation, flow
from graphflow.barrier import check_dirichlet_solvability
from graphflow.continuation import (boundary_attainment_report, eps_continuation,
                                    probe_mask, run_to_quasi_steady,
                                    time_sequence_uniqueness_check, trace_error)
from graphflow.errors import ConfigError, EstimateViolation
from graphflow.flow import FlowParams
from graphflow.functionals import j_functional
from graphflow.grid import GridField, build_domain
from graphflow.manifold import builtin_chart


def euclid(h, box=None, n=2, region=None):
    chart = builtin_chart("euclidean", n=n, box=box)
    if region is None:
        bounds = box if box is not None else [[0.0, 1.0]] * n
        region = {"region": "box", "bounds": bounds}
    return build_domain(chart, h, region=region)


def scherk(x):
    return float(np.log(np.cos(x[0]) / np.cos(x[1])))


PARAMS = FlowParams(eps=0.1, t_end=50.0)


# ---------------------------------------------------------------- quasi-steady


def test_stationary_data_converges_in_zero_steps():
    dom = euclid(1 / 8)
    u0 = GridField.constant(dom, 0.7)
    state, ok = run_to_quasi_steady(PARAMS, lambda x: 0.7, u0, 1e-10)
    assert ok
    assert state.step == 0


def test_boundary_mismatch_is_not_stationary():
    # u0 = 0 has zero residual, but phi = x1 forces motion once imposed
    dom = euclid(1 / 8)
    u0 = GridField.constant(dom, 0.0)
    state, ok = run_to_quasi_steady(PARAMS, lambda x: x[0], u0, 1e-6)
    assert ok
    assert state.step > 0


def test_one_dimensional_affine_limit():
    # phi(0) = 0, phi(1) = 1 on (0,1): the affine graph is the exact limit
    dom = euclid(1 / 16, box=[[0.0, 1.0]], n=1)
    u0 = GridField.constant(dom, 0.0)
    state, ok = run_to_quasi_steady(PARAMS, lambda x: float(x[0]), u0, 1e-8)
    assert ok
    err = np.abs(state.u.values[dom.interior] - dom.points[dom.interior][:, 0])
    assert float(np.max(err)) < (1 / 16) ** 2


def test_quasi_steady_tolerance_validation():
    dom = euclid(1 / 8)
    u0 = GridField.constant(dom, 0.0)
    # an infinite tol would stop every leg at its start, reported converged
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            run_to_quasi_steady(PARAMS, lambda x: 0.0, u0, tol)


@pytest.mark.parametrize("key", ["sample_every"])
@pytest.mark.parametrize("value", [0, -3])
def test_step_counts_below_one_are_config_errors(key, value):
    # sample_every 0 used to record no sample and then read history[-1]
    dom = euclid(1 / 16)
    u0 = GridField.from_function(dom, lambda x: 0.1 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    problem = f"{key} must be a positive integer, got {value}"
    with pytest.raises(ConfigError, match=problem):
        run_to_quasi_steady(PARAMS, lambda x: 0.0, u0, 1e-6, **{key: value})
    with pytest.raises(ConfigError, match=problem):
        eps_continuation([0.1], PARAMS, lambda x: 0.0, u0, **{key: value})


def test_not_converged_flag_when_horizon_too_short():
    dom = euclid(1 / 8)
    u0 = GridField.constant(dom, 0.0)
    short = FlowParams(eps=0.1, t_end=1e-4)
    state, ok = run_to_quasi_steady(short, lambda x: x[0], u0, 1e-10)
    assert not ok
    assert state.t >= short.t_end


# ------------------------------------------------------------- eps continuation


def test_zero_data_all_gaps_zero():
    dom = euclid(1 / 16)
    rep = eps_continuation([0.1, 0.05], PARAMS, lambda x: 0.0,
                           GridField.constant(dom, 0.0))
    assert rep.cauchy_gaps == [0.0]
    assert rep.trace_error == 0.0
    assert rep.converged


def test_affine_gaps_below_1e10():
    # eps * W * lap u vanishes on affine graphs, every leg is stationary
    dom = euclid(1 / 16, box=[[0.0, 1.0]], n=1)
    u0 = GridField.constant(dom, 0.0)
    rep = eps_continuation(None, PARAMS, lambda x: float(x[0]), u0, tol=1e-7)
    assert rep.converged
    assert all(g < 1e-10 for g in rep.cauchy_gaps)
    assert rep.legs[-1].steps == 0


def test_smooth_2d_gaps_decrease_monotonically():
    dom = euclid(1 / 16)

    def phi(x):
        return 0.2 * np.sin(2 * np.pi * x[0]) + 0.1 * x[1]

    rep = eps_continuation([0.1, 0.05, 0.025, 0.0125], PARAMS, phi,
                           GridField.constant(dom, 0.0), tol=1e-6)
    assert rep.converged
    assert len(rep.cauchy_gaps) == 3
    assert rep.cauchy_gaps[0] > rep.cauchy_gaps[1] > rep.cauchy_gaps[2] > 0


def test_scherk_graph_reproduced_at_every_stage():
    # log(cos x1 / cos x2) solves the unperturbed equation exactly; the
    # leg limits track it with an O(eps) offset on top of the grid error
    dom = euclid(1 / 16, box=[[-1.0, 1.0], [-1.0, 1.0]])
    u0 = GridField.from_function(dom, scherk)
    rep = eps_continuation([1e-2, 5e-3, 2.5e-3], PARAMS, scherk, u0, tol=1e-6)
    assert rep.converged
    exact = np.array([scherk(p) for p in dom.points[dom.interior]])
    bounds = [1.1e-3, 6e-4, 3e-4]
    for leg, cap in zip(rep.legs, bounds):
        err = float(np.max(np.abs(leg.u_ref.values[dom.interior] - exact)))
        assert err < cap, (leg.eps, err)


def test_default_schedule_halves_from_tenth():
    dom = euclid(1 / 16)
    rep = eps_continuation(None, PARAMS, lambda x: 0.0,
                           GridField.constant(dom, 0.0))
    assert rep.eps_schedule[0] == pytest.approx(0.1)
    for a, b in zip(rep.eps_schedule, rep.eps_schedule[1:]):
        assert b == pytest.approx(a / 2)


def test_failed_leg_recorded_and_aborts_schedule():
    dom = euclid(1 / 16)
    tiny = FlowParams(eps=0.1, t_end=2e-3)
    rep = eps_continuation([0.1, 0.05, 0.025], tiny, lambda x: x[0],
                           GridField.constant(dom, 0.0), tol=1e-8)
    assert not rep.converged
    assert len(rep.legs) == 1
    assert not rep.legs[0].converged


def test_bad_schedules_rejected():
    dom = euclid(1 / 16)
    u0 = GridField.constant(dom, 0.0)
    nan, inf = float("nan"), float("inf")
    for sched in ([], [0.1, 0.1], [0.05, 0.1], [0.1, -0.05], [nan], [inf, 0.1], [0.1, nan]):
        with pytest.raises(ConfigError):
            eps_continuation(sched, PARAMS, lambda x: 0.0, u0)


def _scherk_legs(tol, warm_start=True):
    dom = euclid(1 / 8, box=[[-1.0, 1.0], [-1.0, 1.0]])
    return eps_continuation([0.1, 0.05, 0.025], PARAMS, scherk, GridField.constant(dom, 0.0),
                            tol=tol, warm_start=warm_start, newton=True)


@pytest.mark.parametrize("tol,warm_start,tols", [
    (1e-6, True, [1e-4, 1e-4, 1e-6]),
    (1e-6, False, [1e-4, 1e-4, 1e-6]),
    (1e-4, True, [1e-4] * 3),
    (3e-4, True, [3e-4] * 3),
])
def test_legs_before_the_last_are_held_to_the_gap_resolution(monkeypatch, tol, warm_start, tols):
    # max(tol, DEFAULT_GAP_STOP) before the last leg, tol on it; a tol of
    # DEFAULT_GAP_STOP or more binds every leg, which then runs as before
    rep = _scherk_legs(tol, warm_start)
    assert [leg.tol for leg in rep.legs] == tols
    assert [leg.json_dict()["tol"] for leg in rep.legs] == tols
    monkeypatch.setattr(continuation, "DEFAULT_GAP_STOP", 0.0)
    tight = _scherk_legs(tol, warm_start)
    assert [leg.tol for leg in tight.legs] == [tol] * 3
    if tol >= 1e-4:
        assert [leg.evaluations for leg in rep.legs] == [leg.evaluations for leg in tight.legs]
        assert np.array_equal(rep.u_bar.values, tight.u_bar.values)
    else:
        assert rep.legs[0].evaluations < tight.legs[0].evaluations
        assert np.max(np.abs(rep.u_bar.values - tight.u_bar.values)) <= 1e-10


def test_probe_set_requires_room():
    # ring of width 0.2 at h=1/32 is thinner than two 4-cell collars
    dom = euclid(1 / 32, region={"region": "annulus", "center": [0.5, 0.5],
                                 "r_inner": 0.25, "r_outer": 0.45})
    with pytest.raises(ConfigError):
        probe_mask(dom)


def test_cold_start_matches_warm_start_here():
    # no sequence dependence is detectable on a smooth convex problem
    dom = euclid(1 / 16)

    def phi(x):
        return 0.3 * x[0] * (1 - x[1])

    u0 = GridField.constant(dom, 0.0)
    warm = eps_continuation([0.1, 0.05], PARAMS, phi, u0, tol=1e-7)
    cold = eps_continuation([0.1, 0.05], PARAMS, phi, u0, tol=1e-7,
                            warm_start=False)
    gap = np.max(np.abs(warm.u_bar.values - cold.u_bar.values))
    assert gap < 1e-5
    # cold legs pay the full relaxation each time
    assert cold.legs[1].steps > warm.legs[1].steps


def test_report_json_round_trip():
    import json

    dom = euclid(1 / 16)
    rep = eps_continuation([0.1, 0.05], PARAMS, lambda x: 0.1,
                           GridField.constant(dom, 0.1))
    blob = json.loads(json.dumps(rep.json_dict(), sort_keys=True))
    assert blob["eps_schedule"] == [0.1, 0.05]
    assert len(blob["legs"]) == 2
    assert blob["legs"][0]["dissipation_total"] >= 0.0
    assert blob["time_uniqueness_gap"] is None


def test_graph_variation_stays_bounded():
    # discrete stand-in for the flow staying in W^{1,1}: the leg limits
    # never exceed the variation budget set by the monotone energy
    dom = euclid(1 / 16)

    def phi(x):
        return 0.4 * np.sin(2 * np.pi * x[0]) * x[1]

    rep = eps_continuation([0.1, 0.05, 0.025], PARAMS, phi,
                           GridField.constant(dom, 0.0), tol=1e-6)
    for leg in rep.legs:
        assert np.isfinite(leg.tv_final)
        assert leg.tv_final <= leg.energy_final + 1e-12


# ------------------------------------------------------------------ uniqueness


def test_two_initial_data_same_limit():
    dom = euclid(1 / 16)

    def phi(x):
        return 0.2 * np.sin(2 * np.pi * x[0]) + 0.1 * x[1]

    sched = [0.1, 0.05, 0.025, 0.0125]
    rep_a = eps_continuation(sched, PARAMS, phi, GridField.constant(dom, 0.0),
                             tol=1e-6)
    bump = GridField.from_function(
        dom, lambda x: 0.4 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    rep_b = eps_continuation(sched, PARAMS, phi, bump, tol=1e-6)
    pm = probe_mask(dom)
    gap = float(np.max(np.abs(rep_a.u_bar.values[pm] - rep_b.u_bar.values[pm])))
    assert gap < 1e-4


def test_limit_is_a_local_minimizer():
    dom = euclid(1 / 16)

    def phi(x):
        return 0.2 * np.sin(2 * np.pi * x[0]) + 0.1 * x[1]

    rep = eps_continuation([0.1, 0.05, 0.025, 0.0125], PARAMS, phi,
                           GridField.constant(dom, 0.0), tol=1e-6)
    ubar = rep.u_bar
    j0 = j_functional(ubar, phi).value
    eta = GridField.from_function(
        dom, lambda x: np.sin(np.pi * x[0]) ** 2 * np.sin(np.pi * x[1]) ** 2)
    eta.values[~dom.eroded_interior(2)] = 0.0
    for s in (1e-3, -1e-3, 1e-2, -1e-2):
        shifted = ubar.copy()
        shifted.values = ubar.values + s * eta.values
        assert j0 <= j_functional(shifted, phi).value + 1e-8


def test_energy_monotone_on_pure_decay():
    dom = euclid(1 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.4 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    state, ok = run_to_quasi_steady(PARAMS, lambda x: 0.0, u0, 1e-6)
    assert ok
    energies = np.array([s.energy_eps for s in state.history])
    assert np.all(np.diff(energies) <= 1e-12)


def test_energy_monotone_up_to_quadrature_error_when_boundary_driven():
    # a data jump at t=0 makes the run boundary-driven; the cell quadrature
    # is not an exact Lyapunov function for the node stencil, so per-step
    # increments can wiggle positive at the h^2-mismatch scale (observed
    # +1.6e-6 at h=1/16); a real sign bug in the operator rises by O(1)
    dom = euclid(1 / 16)

    def phi(x):
        return 0.3 * np.sin(2 * np.pi * x[0])

    state, ok = run_to_quasi_steady(PARAMS, phi, GridField.constant(dom, 0.0),
                                    1e-6)
    assert ok
    energies = np.array([s.energy_eps for s in state.history])
    assert np.all(np.diff(energies) <= 1e-5 * (1.0 + energies[0]))
    assert energies[-1] < energies[0]


# -------------------------------------------------------------- time sequences


def test_time_sequences_stationary_gap_zero():
    dom = euclid(1 / 16, box=[[0.0, 1.0]], n=1)
    u0 = GridField.from_function(dom, lambda x: x[0])
    res = time_sequence_uniqueness_check(PARAMS, lambda x: float(x[0]), u0,
                                         [1.0, 2.0], [1.5, 2.5])
    assert res.gap == 0.0


def test_time_sequences_sine_bump(sine_bump_time_check):
    res = sine_bump_time_check
    assert res.gap < 1e-6
    norms = np.array(res.source_norms)
    assert np.all(np.diff(norms) <= 1e-12 + 1e-9 * norms[0])


def test_source_norms_decrease_along_run():
    dom = euclid(1 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.5 * np.sin(np.pi * x[0]) * np.sin(2 * np.pi * x[1]))
    res = time_sequence_uniqueness_check(PARAMS, lambda x: 0.0, u0,
                                         [0.02, 0.05, 0.1, 0.2], [0.03, 0.15])
    norms = res.source_norms
    assert len(norms) == 6
    assert all(b <= a for a, b in zip(norms, norms[1:]))


def test_time_check_records_no_samples(monkeypatch):
    # the check keeps states only: no step of its run evaluates E^eps
    calls, real = [], flow.e_eps
    monkeypatch.setattr(flow, "e_eps", lambda *args: calls.append(1) or real(*args))
    dom = euclid(1 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.5 * np.sin(np.pi * x[0]) * np.sin(2 * np.pi * x[1]))
    res = time_sequence_uniqueness_check(PARAMS, lambda x: 0.0, u0, [0.02, 0.05], [0.03])
    assert len(res.source_norms) == 3 and calls == []


def test_time_check_starts_from_the_imposed_boundary(monkeypatch):
    # u0 = 0 disagrees with phi = x1 on the boundary; the time check must
    # start from phi there, as run_to_quasi_steady does
    dom = euclid(1 / 16)
    u0 = GridField.constant(dom, 0.0)
    starts = []
    real = continuation.initial_state
    monkeypatch.setattr(continuation, "initial_state",
                        lambda *args: starts.append(real(*args)) or starts[-1])
    time_sequence_uniqueness_check(PARAMS, lambda x: float(x[0]), u0, [0.01], [0.02])
    state, _ = run_to_quasi_steady(PARAMS, lambda x: float(x[0]), u0, 1e-6)
    assert starts[0].sup_l0 == state.sup_l0 > 0.0


def test_time_check_trips_when_the_stationarity_defect_rises(monkeypatch):
    norms = iter([1.0, 2.0, 3.0])
    monkeypatch.setattr(continuation, "_source_norm", lambda u, eps: next(norms))
    dom = euclid(1 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.5 * np.sin(np.pi * x[0]) * np.sin(2 * np.pi * x[1]))
    with pytest.raises(EstimateViolation, match=r"stationarity defect rose from 1\.0 at "
                                                r"t=0\.02 to 2\.0 at t=0\.03$"):
        time_sequence_uniqueness_check(PARAMS, lambda x: 0.0, u0, [0.02, 0.05], [0.03])


def test_time_sequences_validation():
    dom = euclid(1 / 16)
    u0 = GridField.constant(dom, 0.0)
    with pytest.raises(ConfigError):
        time_sequence_uniqueness_check(PARAMS, lambda x: 0.0, u0, [], [1.0])
    with pytest.raises(ConfigError):
        time_sequence_uniqueness_check(PARAMS, lambda x: 0.0, u0,
                                       [1.0], [PARAMS.t_end + 1.0])
    with pytest.raises(ConfigError, match=r"^times_b must hold no negative time, got \[-1\.0, 0\.5\]$"):
        time_sequence_uniqueness_check(PARAMS, lambda x: 0.0, u0, [0.0], [0.5, -1.0])


def test_time_check_rides_leg_1_as_its_explicit_prefix(monkeypatch):
    # leg 1 steps explicitly from u0 until the last requested time, as the
    # library check does at leg 1's eps, then solves by Newton, which adds
    # no explicit step; the stationarity defect is read at leg 1's eps too
    defects, real = [], continuation._source_norm
    monkeypatch.setattr(continuation, "_source_norm",
                        lambda u, eps: defects.append(eps) or real(u, eps))
    dom = euclid(1 / 16)
    u0 = GridField.from_function(
        dom, lambda x: 0.5 * np.sin(np.pi * x[0]) * np.sin(2 * np.pi * x[1]))
    times = ([0.02, 0.05], [0.03])
    rep = eps_continuation([0.05, 0.025], PARAMS, lambda x: 0.0, u0, tol=1e-6, newton=True,
                           time_check={"times_a": times[0], "times_b": times[1]})
    leg1 = PARAMS._replace(eps=0.05)
    assert defects == [0.05] * 3
    assert rep.time_uniqueness_gap == time_sequence_uniqueness_check(
        leg1, lambda x: 0.0, u0, *times).gap
    explicit, _ = run_to_quasi_steady(leg1, lambda x: 0.0, u0, 1e-6)
    prefix = 1 + next(i for i, s in enumerate(explicit.history) if s.t >= 0.05)
    assert rep.history[:prefix] == explicit.history[:prefix]
    assert rep.legs[0].steps == prefix and rep.legs[0].newton_iterations > 0
    newton_row = rep.history[prefix]
    assert newton_row.step == prefix + 1 and newton_row.t == rep.history[prefix - 1].t


# ------------------------------------------------------------------ attainment


def test_constant_phi_attained_exactly():
    dom = euclid(1 / 16, region={"region": "disc", "center": [0.5, 0.5],
                                 "radius": 0.4})
    u0 = GridField.constant(dom, 0.3)
    rep = eps_continuation([0.1, 0.05], PARAMS, lambda x: 0.3, u0)
    sol = check_dirichlet_solvability(lambda x: 0.3, dom, K=0.3, gamma=1.1)
    att = boundary_attainment_report(rep.u_bar, lambda x: 0.3, sol)
    assert att.detached == 0 and att.uncertified == 0
    assert all(p.classification == "attained" for p in att.points)
    assert max(p.trace_gap for p in att.points) < 1e-12


def test_smooth_data_on_disc_attained_with_gap_of_order_h():
    def phi(x):
        return 0.1 * x[0]

    gaps = {}
    for h in (1 / 16, 1 / 32):
        dom = euclid(h, region={"region": "disc", "center": [0.5, 0.5],
                                "radius": 0.4})
        params = FlowParams(eps=0.1, t_end=20.0)
        rep = eps_continuation([0.1, 0.05, 0.025], params, phi,
                               GridField.constant(dom, 0.0), tol=1e-4)
        sol = check_dirichlet_solvability(phi, dom, K=0.3, gamma=1.1)
        assert sol.certified
        att = boundary_attainment_report(rep.u_bar, phi, sol)
        assert att.attained == len(att.points)
        gaps[h] = max(p.trace_gap for p in att.points)
    # refinement study: halving h should roughly halve the trace gap
    assert gaps[1 / 32] < 0.7 * gaps[1 / 16]


def test_large_oscillation_on_annulus_detaches():
    # tall inner plateau: the limit graph drops below the prescribed data
    # on the inner ring while still matching the outer ring
    dom = euclid(1 / 32, region={"region": "annulus", "center": [0.5, 0.5],
                                 "r_inner": 0.08, "r_outer": 0.46})

    def phi(x):
        return 2.0 if np.hypot(x[0] - 0.5, x[1] - 0.5) < 0.27 else 0.0

    params = FlowParams(eps=0.1, t_end=40.0)
    rep = eps_continuation([0.1, 0.05, 0.025], params, phi,
                           GridField.constant(dom, 0.0), tol=1e-3)
    assert rep.converged
    sol = check_dirichlet_solvability(phi, dom, K=0.3, gamma=1.1)
    att = boundary_attainment_report(rep.u_bar, phi, sol)
    assert att.detached > 0
    inner = [p for p in att.points
             if np.hypot(p.x0[0] - 0.5, p.x0[1] - 0.5) < 0.27]
    outer = [p for p in att.points
             if np.hypot(p.x0[0] - 0.5, p.x0[1] - 0.5) >= 0.27]
    assert all(p.classification in ("detached", "uncertified") for p in inner)
    assert all(p.classification == "attained" for p in outer)
    assert min(p.trace_gap for p in inner) > 0.5


def test_attainment_json_shape():
    dom = euclid(1 / 16, region={"region": "disc", "center": [0.5, 0.5],
                                 "radius": 0.4})
    u0 = GridField.constant(dom, 0.0)
    rep = eps_continuation([0.1], PARAMS, lambda x: 0.0, u0)
    sol = check_dirichlet_solvability(lambda x: 0.0, dom, K=0.3, gamma=1.1)
    att = boundary_attainment_report(rep.u_bar, lambda x: 0.0, sol)
    blob = att.json_dict()
    assert blob["attained"] + blob["detached"] + blob["uncertified"] \
        == len(blob["points"])
    p0 = blob["points"][0]
    assert set(p0) == {"x0", "certified", "trace_gap", "modulus",
                       "classification"}


# ------------------------------------------------------------------ trace error


def test_trace_error_zero_for_matching_field():
    dom = euclid(1 / 8)
    u = GridField.from_function(dom, lambda x: 0.2 * x[0] - x[1])
    assert trace_error(u, lambda x: 0.2 * x[0] - x[1], dom) == 0.0


def test_trace_error_sees_near_boundary_mismatch():
    dom = euclid(1 / 8)
    u = GridField.constant(dom, 0.0)
    err = trace_error(u, lambda x: 1.0, dom)
    assert err == pytest.approx(1.0)
