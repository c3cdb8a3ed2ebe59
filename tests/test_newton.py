"""Newton-Krylov leg solves against the explicit reference: the same leg
limits on every stencil-reference domain with a probe set and on a
strongly nonlinear detached case, each part of the solve against a direct
computation, explicit steps, bit for bit, wherever the flow's time matters,
and the evaluation counts of graphflow run on two benchmark configs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphflow.continuation
from graphflow.cli import main
from graphflow.continuation import (_gmres, _inverse_laplacian, eps_continuation, probe_mask,
                                    run_to_quasi_steady)
from graphflow.errors import ConfigError
from graphflow.flow import FlowParams, _operator_arrays, flow_step, initial_state, l_eps_apply
from graphflow.grid import GridField, build_domain
from graphflow.manifold import builtin_chart
from test_stencil_reference import DOMAINS, _start

CONFIGS = Path(__file__).parent / "configs"


def _has_probe_set(name):
    try:
        probe_mask(DOMAINS[name]())
    except ConfigError:
        return False
    return True


def _detached_annulus():
    """test_continuation's detached annulus at h=1/32: u0 = 0 and phi = 2 on
    the inner ring (r < 0.27), 0 on the outer one."""
    dom = build_domain(builtin_chart("euclidean", n=2), 1.0 / 32, region={
        "region": "annulus", "center": [0.5, 0.5], "r_inner": 0.08, "r_outer": 0.46})
    return dom, GridField.constant(dom, 0.0), (
        lambda x: 2.0 if np.hypot(x[0] - 0.5, x[1] - 0.5) < 0.27 else 0.0)


@pytest.mark.parametrize("name", [name for name in sorted(DOMAINS) if _has_probe_set(name)]
                         + ["detached_annulus"])
def test_newton_legs_reach_the_explicit_limit(name):
    # measured: within 2.7e-7 of the explicit limit, in 16-84 evaluations
    # (6-14 residuals, 10-71 Krylov products) against 446-5936 explicit steps
    if name == "detached_annulus":
        dom, u0, phi = _detached_annulus()
    else:
        dom = DOMAINS[name]()
        u0, phi = _start(dom)
    params = FlowParams(eps=0.1, t_end=50.0)
    explicit, solved = (eps_continuation([0.1, 0.05], params, phi, u0, tol=1e-6, newton=newton)
                        for newton in (False, True))
    assert explicit.converged and solved.converged
    assert all(leg.evaluations == leg.steps and not leg.newton_iterations for leg in explicit.legs)
    assert solved.legs[0].newton_iterations > 0
    for leg in solved.legs:  # a start that meets the stop rule costs nothing
        residuals = leg.evaluations - leg.krylov_iterations
        assert leg.steps == 0 and residuals >= (leg.newton_iterations + 1 if leg.newton_iterations
                                                else leg.evaluations)
        # the residual reported is the written limit's own
        assert leg.final_sup_ut == np.max(np.abs(l_eps_apply(leg.u_ref, leg.eps)))
    assert sum(leg.evaluations for leg in solved.legs) < sum(leg.steps for leg in explicit.legs)
    used = dom.used
    assert np.max(np.abs(solved.u_bar.values[used] - explicit.u_bar.values[used])) <= 1e-6


@pytest.mark.parametrize("name", [name for name in sorted(DOMAINS) if not _has_probe_set(name)])
def test_newton_leg_reaches_the_explicit_limit_without_a_probe_set(name):
    # the 3-D lattices and sphere_polar's, one leg each: measured within
    # 9.8e-10, in 5-6 Newton iterations against 154-986 explicit steps
    dom = DOMAINS[name]()
    u0, phi = _start(dom)
    params = FlowParams(eps=0.1, t_end=50.0)
    (explicit, explicit_ok), (solved, ok) = (
        run_to_quasi_steady(params, phi, u0, 1e-8, newton=newton) for newton in (False, True))
    assert explicit_ok and ok and solved.newton_iterations > 0
    assert np.nanmax(np.abs(solved.u.values - explicit.u.values)) <= 1e-6


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_exact_jv_matches_a_central_difference(name, eps):
    # the central difference errs by O(d^2): measured at most 3.9e-8 of
    # sup|J v| at d = 1e-5, and 100x that at d = 1e-4
    dom = DOMAINS[name]()
    u0, phi = _start(dom)
    vals = initial_state(u0, phi, FlowParams(eps=eps)).u.values
    v = np.random.default_rng(3).normal(size=dom.interior_flat.size)
    exact = _operator_arrays(dom, vals, eps, tangent=True)[2](v)
    d, moved = 1e-5, []
    for sign in (1.0, -1.0):
        shifted = vals.copy()
        shifted.flat[dom.interior_flat] += sign * d * v
        moved.append(_operator_arrays(dom, shifted, eps)[0])
    central = (moved[0] - moved[1]) / (2.0 * d)
    assert np.max(np.abs(central - exact)) <= 1e-6 * np.max(np.abs(exact))


@pytest.mark.parametrize("box,h", [
    ([[0.0, 1.0]], 1.0 / 16),
    ([[0.0, 1.0], [0.0, 0.75]], 1.0 / 16),
    ([[0.0, 1.0], [0.0, 0.75], [0.0, 0.5]], 1.0 / 8),
], ids=["n1", "n2", "n3"])
def test_sine_preconditioner_inverts_the_dirichlet_laplacian(box, h):
    # on a box every inner-block node is interior, so the block's 5-point
    # Dirichlet Laplacian, assembled densely, is the one the sine basis inverts
    dom = build_domain(builtin_chart("euclidean", n=len(box), box=box), h)
    sizes = [s - 2 for s in dom.shape]
    lap = 0.0
    for a, (size, step) in enumerate(zip(sizes, dom.h)):
        factors = [np.eye(s) for s in sizes]
        factors[a] = (np.eye(size, k=1) + np.eye(size, k=-1) - 2.0 * np.eye(size)) / step ** 2
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        lap = lap + term
    assert lap.shape[0] == dom.interior_flat.size
    r = np.random.default_rng(4).normal(size=lap.shape[0])
    assert np.max(np.abs(_inverse_laplacian(dom, r) - np.linalg.solve(lap, r))) <= 1e-12


def test_gmres_solves_a_nonsymmetric_affine_system():
    # in exact arithmetic GMRES solves an n x n system in at most n iterations
    rng = np.random.default_rng(1)
    n = 6
    a = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
    assert np.max(np.abs(a - a.T)) > 1.0
    b = rng.normal(size=n)
    x, iterations = _gmres(lambda v: a @ v, b, 1e-12, n)
    assert iterations <= n
    assert np.max(np.abs(x - np.linalg.solve(a, b))) <= 1e-12
    # a loose tolerance stops as soon as the tracked residual meets it
    x, iterations = _gmres(lambda v: a @ v, b, 0.5, n)
    assert iterations < n and np.linalg.norm(a @ x - b) <= 0.5 * np.linalg.norm(b)


def test_a_stalled_newton_solve_turns_pseudo_transient(monkeypatch):
    # the detached annulus's leg at eps = 0.003125, from the eps = 0.00625
    # limit: Newton stalls at |F|_2 = 74.5 (from 413), where no halving of
    # its step lowers |F|_2, and pseudo-transient steps from there reach
    # the explicit limit (1844 steps) to 9.1e-8
    dom, u0, phi = _detached_annulus()
    rep = eps_continuation([0.1 * 2.0 ** -i for i in range(5)], FlowParams(eps=0.1, t_end=50.0),
                           phi, u0, tol=1e-6, newton=True)
    params = FlowParams(eps=0.003125, t_end=50.0)
    switched, real = [], graphflow.continuation.stable_dt
    monkeypatch.setattr(graphflow.continuation, "stable_dt",
                        lambda *args: switched.append(args) or real(*args))
    solved, ok = run_to_quasi_steady(params, phi, rep.u_bar, 1e-6, newton=True)
    explicit, explicit_ok = run_to_quasi_steady(params, phi, rep.u_bar, 1e-6)
    assert ok and explicit_ok and len(switched) == 1 and solved.step == solved.newton_iterations
    assert np.nanmax(np.abs(solved.u.values - explicit.u.values)) <= 1e-6


def test_estimate_runs_step_explicitly():
    dom = DOMAINS["euclidean_2d"]()
    u0, phi = _start(dom)
    params = FlowParams(eps=0.1, t_end=50.0, assert_estimates=True)
    explicit, solved = (eps_continuation([0.1, 0.05], params, phi, u0, tol=1e-6, newton=newton)
                        for newton in (False, True))
    assert explicit.legs[0].steps > 0
    assert solved.json_dict() == explicit.json_dict()
    assert solved.history == explicit.history
    assert np.array_equal(solved.u_bar.values, explicit.u_bar.values, equal_nan=True)


def test_ramp_steps_explicitly_until_it_ends():
    # the ramp moves the boundary while t < 2 delta: those steps are the
    # explicit run's, bit for bit, and the solve starts where they end
    dom = DOMAINS["euclidean_2d"]()
    u0, phi = _start(dom)
    params = FlowParams(eps=0.1, delta=10.0 * dom.h_min_sq, t_end=50.0)
    explicit = initial_state(u0, phi, params)
    while explicit.t < 2.0 * params.delta:
        flow_step(explicit, params)
    solved, ok = run_to_quasi_steady(params, phi, u0, 1e-8, newton=True)
    assert ok and explicit.step > 1
    ramp = solved.step - solved.newton_iterations
    assert ramp == explicit.step and solved.newton_iterations > 0
    assert solved.history[:ramp] == explicit.history
    assert solved.evaluations > ramp + solved.krylov_iterations + solved.newton_iterations
    assert solved.t == explicit.t and solved.dissipation_cum == explicit.dissipation_cum


MOVING = {"chart": {"kind": "euclidean", "n": 2},
          "region": {"region": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]]}, "h": 1.0 / 16,
          "phi": {"kind": "scherk"}, "u0": {"kind": "sine_product", "amplitude": 0.3,
                                            "waves": [1, 1]},
          "schedule": [0.1, 0.05], "tol": 1e-6}


def test_newton_cap_exits_3(tmp_path, monkeypatch, capsys):
    # two iterations leave leg 1 short of its tol: the run writes
    # continuation.json, then fails with the leg's eps and residual
    monkeypatch.setattr(graphflow.continuation, "NEWTON_MAX_ITERATIONS", 2)
    (tmp_path / "config.json").write_text(json.dumps(MOVING))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "config.json"), "--out", str(out)]) == 3
    assert "ConvergenceError" in capsys.readouterr().err
    leg, = json.loads((out / "continuation.json").read_text())["legs"]
    assert (leg["converged"], leg["steps"], leg["newton_iterations"]) == (False, 0, 2)
    fail = json.loads((out / "failure.json").read_text())
    assert (fail["error"], fail["exit_code"]) == ("ConvergenceError", 3)
    assert fail["message"] == (
        f"continuation aborted: the leg at eps = 0.1 is not quasi-steady: sup|L^eps u| = "
        f"{leg['final_sup_ut']} (tol 0.0001) after 0 explicit steps (t_end = 1.0) and 2 Newton "
        "iterations")
    assert leg["final_sup_ut"] >= 1e-4
    assert sorted(p.name for p in out.iterdir()) == [
        "barrier.json", "config_resolved.json", "continuation.json", "failure.json"]


def test_non_finite_pseudo_transient_steps_exit_3(tmp_path, monkeypatch, capsys):
    # every trial state's residual is NaN: no halving of the Newton step
    # lowers |F|_2, the solve turns pseudo-transient, no halving of that
    # step is finite either, and the solve gives the leg up unconverged
    real, calls = graphflow.continuation._operator_arrays, []
    halvings = graphflow.continuation.NEWTON_HALVINGS

    def poisoned(dom, values, eps, tangent=False):
        f, *rest = real(dom, values, eps, tangent=tangent)
        calls.append(eps)
        assert len(calls) <= 1 + 2 * halvings, "the solve kept stepping"
        return (f if len(calls) == 1 else f * np.nan, *rest)

    monkeypatch.setattr(graphflow.continuation, "_operator_arrays", poisoned)
    (tmp_path / "config.json").write_text(json.dumps(MOVING))
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / "config.json"), "--out", str(out)]) == 3
    assert "ConvergenceError" in capsys.readouterr().err
    assert len(calls) == 1 + 2 * halvings
    leg, = json.loads((out / "continuation.json").read_text())["legs"]
    assert (leg["converged"], leg["steps"], leg["newton_iterations"]) == (False, 0, 0)
    assert json.loads((out / "failure.json").read_text())["exit_code"] == 3


@pytest.mark.parametrize("name,bound", [("poincare_mixed", 40), ("scherk_flow", 60)])
def test_run_evaluations_stay_within_their_gate(tmp_path, name, bound):
    # seed 0 of the benchmark's configs, copied: the evaluations after leg
    # 1's explicit time-check prefix (scherk_flow's 162 steps) read 23 and
    # 40; the mixed super-steps that Newton replaced took 96 and 160
    out = tmp_path / name
    assert main(["run", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
    legs = json.loads((out / "continuation.json").read_text())["legs"]
    assert sum(leg["evaluations"] - leg["steps"] for leg in legs) <= bound
    assert all(leg["newton_iterations"] for leg in legs)


def test_fine_newton_run_is_byte_identical_across_blas_threads(tmp_path):
    # at h = 1/64 the sine transforms work on 127 x 127 blocks, where
    # OpenBLAS splits a matrix product over threads and changes its bits;
    # the solves' einsum sums do not depend on the thread count
    import graphflow
    src = str(Path(graphflow.__file__).resolve().parents[1])
    cfg = {**json.loads((CONFIGS / "scherk_flow.json").read_text()), "h": 1.0 / 64}
    del cfg["time_check"]
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "graphflow.cli", "run", str(tmp_path / "config.json"),
                        "--out", str(tmp_path / threads)], env=env, check=True)
    legs = json.loads((tmp_path / "1" / "continuation.json").read_text())["legs"]
    assert all(leg["newton_iterations"] for leg in legs)
    assert (tmp_path / "1" / "manifest.json").read_bytes() == \
        (tmp_path / "2" / "manifest.json").read_bytes()
