"""Anderson-mixed RKL1 super-steps against the explicit reference: the same
leg limits on every stencil-reference domain with a probe set and on a
strongly nonlinear detached case, and explicit steps, bit for bit,
wherever the super-step does not apply."""

import re

import numpy as np
import pytest

from graphflow.cli import SUPER_STAGES
from graphflow.continuation import _AndersonMix, eps_continuation, probe_mask
from graphflow.errors import ConfigError
from graphflow.flow import FlowParams, flow_step, initial_state
from graphflow.grid import GridField, build_domain
from graphflow.manifold import builtin_chart
from test_stencil_reference import DOMAINS, _start


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
def test_super_steps_reach_the_explicit_limit(name):
    if name == "detached_annulus":
        dom, u0, phi = _detached_annulus()
    else:
        dom = DOMAINS[name]()
        u0, phi = _start(dom)
    params = FlowParams(eps=0.1, t_end=50.0)
    explicit, stepped = (eps_continuation([0.1, 0.05], params, phi, u0, tol=1e-6, stages=s)
                         for s in (1, SUPER_STAGES))
    assert explicit.converged and stepped.converged
    assert all(leg.evaluations == leg.steps for leg in explicit.legs)
    assert all(leg.evaluations == SUPER_STAGES * leg.steps for leg in stepped.legs)
    assert sum(leg.evaluations for leg in stepped.legs) < sum(leg.steps for leg in explicit.legs)
    used = dom.used
    assert np.max(np.abs(stepped.u_bar.values[used] - explicit.u_bar.values[used])) <= 1e-6


def test_anderson_mix_solves_an_affine_fixed_point():
    # on an affine contraction of R^n, type-II Anderson of depth n is GMRES
    # in disguise: the mix of n + 1 maps is the fixed point, while the plain
    # iteration (spectral radius 0.99) has barely moved
    rng = np.random.default_rng(1)
    n = 6
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q @ np.diag(np.linspace(0.5, 0.99, n)) @ q.T
    b = rng.normal(size=n)
    fixed = np.linalg.solve(np.eye(n) - a, b)
    mix, x, plain = _AndersonMix(n, n), np.zeros(n), np.zeros(n)
    assert np.array_equal(mix(x, a @ x + b), b)  # the first map is not mixed
    x = b
    for _ in range(n):
        x, plain = mix(x, a @ x + b), a @ plain + b
    scale = np.abs(fixed).max()
    assert np.abs(x - fixed).max() <= 1e-9 * scale
    assert np.abs(plain - fixed).max() > 0.5 * scale


def test_estimate_runs_step_explicitly():
    dom = DOMAINS["euclidean_2d"]()
    u0, phi = _start(dom)
    params = FlowParams(eps=0.1, t_end=50.0, assert_estimates=True)
    explicit, stepped = (eps_continuation([0.1, 0.05], params, phi, u0, tol=1e-6, stages=s)
                         for s in (1, SUPER_STAGES))
    assert explicit.legs[0].steps > 0
    assert stepped.json_dict() == explicit.json_dict()
    assert stepped.history == explicit.history
    assert np.array_equal(stepped.u_bar.values, explicit.u_bar.values, equal_nan=True)


def test_ramp_steps_explicitly_until_it_ends():
    dom = DOMAINS["euclidean_2d"]()
    u0, phi = _start(dom)
    params = FlowParams(eps=0.1, delta=10.0 * dom.h_min_sq, t_end=50.0)
    explicit, stepped = (initial_state(u0, phi, params) for _ in range(2))
    while explicit.t < 2.0 * params.delta:
        flow_step(explicit, params)
        flow_step(stepped, params, True, SUPER_STAGES)
        assert stepped.history == explicit.history
        assert np.array_equal(stepped.u.values, explicit.u.values, equal_nan=True)
    assert stepped.step == stepped.evaluations > 1
    flow_step(stepped, params, True, SUPER_STAGES)
    assert stepped.evaluations == explicit.step + SUPER_STAGES


@pytest.mark.parametrize("stages", [0, -3, 2.5, "3"])
def test_flow_step_rejects_stage_counts_below_one(stages):
    # 0 stages gave a step of length 0 and a division by it; a float or a
    # string gave a bare TypeError
    dom = DOMAINS["euclidean_2d"]()
    u0, phi = _start(dom)
    params = FlowParams(eps=0.1)
    state = initial_state(u0, phi, params)
    with pytest.raises(ConfigError,
                       match=re.escape(f"stages must be a positive integer, got {stages!r}")):
        flow_step(state, params, True, stages)
    assert state.step == 0
