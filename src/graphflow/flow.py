"""Explicit time stepping of the perturbed graphical mean curvature flow.

The interior update integrates

    u_t = Q u + eps W Delta_M u,
    Q u = (sigma^{ij} - u^i u^j / W^2) D^2_ij u,   W = sqrt(1 + |Du|^2_sigma),

with forward Euler under a parabolic step restriction recomputed every
step, or with first-order Runge-Kutta-Legendre (RKL1) super-steps (Meyer,
Balsara & Aslam, J. Comput. Phys. 257, 2014), stated in flow_step.  Their
stages reuse the same stencil and keep every fixed point L^eps u = 0, so
both schemes approach the same discrete limit.  The leg loop that mixes
super-steps is continuation._step_until.

The eps term is the uniformly parabolic viscosity perturbation: it makes
the flow the metric gradient flow of the energy

    E^eps(u) = integral W + (eps/2) |Du|^2 dV

with mobility W, so the energy drop balances the cumulative dissipation
integral of u_t^2 / W.  At eps = 0 the stepping reduces bit-for-bit to the
unperturbed flow.

Boundary values are held at phi, optionally ramped on a delta-scale:
phi + delta psi(t/delta) L^eps u0 with psi(s) = s (1 - s/2)^2, which has
psi(0) = 0, psi'(0) = 1, |psi'| <= 1 and support in [0, 2].

The operator is summed in closed form at the interior nodes only.  E^eps
of the new state, a full cell quadrature, is evaluated only on the steps
that record a DiagnosticSample.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EstimateViolation, FlowDiverged, FunctionalError
from .functionals import e_eps, interior_integral
from .grid import (GridDomain, GridField, as_field, contract, gradient_sweep,
                   hessian_sweep, matvec)

UT_BOUND_REL_TOL = 1e-3   # slack on sup|u_t| <= sup|L^eps u0|
SUP_BOUND_REL_TOL = 1e-6  # slack on the maximum principle, scaled by data size


class _FlowFields(NamedTuple):
    eps: float
    delta: float = 0.0
    cfl: float = 0.25
    t_end: float = 1.0
    assert_estimates: bool = False


class FlowParams(_FlowFields):
    """Stepping parameters.  cfl scales stable_dt and lies in (0, 1/4]: for
    n >= 2 the explicit step is stable only up to cfl 1/4; eps, delta and
    t_end are finite.  Every construction, _make and _replace included,
    checks the values."""

    __slots__ = ()

    def __new__(cls, eps: float, delta: float = 0.0, cfl: float = 0.25, t_end: float = 1.0,
                assert_estimates: bool = False):
        problems = []  # each test is written to fail on NaN
        if not 0 <= eps < math.inf:
            problems.append(f"eps must be finite and nonnegative, got {eps}")
        if not 0 <= delta < math.inf:
            problems.append(f"delta must be finite and nonnegative, got {delta}")
        if not 0.0 < cfl <= 0.25:
            problems.append(f"cfl must lie in (0, 1/4], got {cfl}")
        if not 0 < t_end < math.inf:
            problems.append(f"t_end must be finite and positive, got {t_end}")
        if problems:
            raise ConfigError(problems)
        return super().__new__(cls, eps, delta, cfl, t_end, assert_estimates)

    @classmethod
    def _make(cls, iterable):  # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


class DiagnosticSample(NamedTuple):
    step: int
    t: float
    sup_u: float
    sup_ut: float
    energy_eps: float
    dissipation_cum: float


class FlowState:
    """Mutable state of one flow run.  Each step sets a new u and the last
    step's sup|u|, sup|u_t| (sup|L^eps u0| before the first step) and adds
    its dissipation to dissipation_cum and its stage count to evaluations,
    the operator sweeps taken; history holds the samples of the steps that
    recorded one."""

    def __init__(self, u: GridField, t: float = 0.0, step: int = 0, history: list | None = None,
                 phi_dirichlet: np.ndarray | None = None, ramp_base: np.ndarray | None = None,
                 sup_l0: float = 0.0, bound_lo: float = 0.0, bound_hi: float = 0.0,
                 sup_u: float = 0.0, sup_ut: float = 0.0, dissipation_cum: float = 0.0,
                 evaluations: int = 0):
        self.u, self.t, self.step = u, t, step
        self.history = [] if history is None else history
        self.phi_dirichlet, self.ramp_base, self.sup_l0 = phi_dirichlet, ramp_base, sup_l0
        self.bound_lo, self.bound_hi, self.sup_u, self.sup_ut = bound_lo, bound_hi, sup_u, sup_ut
        self.dissipation_cum, self.evaluations = dissipation_cum, evaluations


def _operator_arrays(domain: GridDomain, values: np.ndarray, eps: float):
    """(L^eps u, W) at the interior nodes, in interior_flat order; at
    eps = 0, L^eps u is Qu bit for bit."""
    n = domain.dim
    nbrs = values.take(domain.node_table)
    lowered, raised, gradsq = gradient_sweep(domain, nbrs)
    hess = hessian_sweep(domain, nbrs, lowered)
    w2 = 1.0 + gradsq
    if domain.chart.is_euclidean:
        lap = hess.reshape(n * n, -1)[::n + 1].sum(axis=0)
    else:
        lap = (domain.interior_sig_inv * hess).reshape(n * n, -1).sum(axis=0)
    quu = contract(raised, matvec(hess, raised))
    l_eps, w = lap - quu / w2, np.sqrt(w2)
    if eps != 0.0:
        l_eps = l_eps + eps * w * lap
    return l_eps, w


def l_eps_apply(u: GridField, eps: float) -> np.ndarray:
    """Perturbed operator L^eps u = Qu + eps W Delta_M u at the interior
    nodes, in interior_flat order.

    At eps = 0 this is bit-for-bit the unperturbed operator.
    """
    if not 0 <= eps < math.inf:  # written to fail on NaN
        raise FunctionalError(f"eps must be finite and nonnegative, got {eps}")
    return _operator_arrays(u.domain, u.values, eps)[0]


def _ramp_profile(s):
    """Raw ramp polynomial psi(s) = s (1 - s/2)^2, no support clamp."""
    return s * (1.0 - 0.5 * s) ** 2


def compatibility_ramp(t: float, delta: float) -> float:
    """Boundary increment factor delta * psi(t/delta), zero outside [0, 2 delta]."""
    if delta == 0.0 or t <= 0.0:
        return 0.0
    s = t / delta
    if s >= 2.0:
        return 0.0
    return delta * _ramp_profile(s)


def initial_state(u0: GridField, phi, params: FlowParams) -> FlowState:
    """Set up a flow run: boundary data, ramp base and a-priori bounds.

    phi is a GridField or a callable on chart coordinates.  The run starts
    from u0 with phi imposed on the dirichlet nodes, so a mismatch between
    u0 and phi counts as motion still to happen; the ramp base is L^eps of
    that start carried to each dirichlet node from its interior neighbor.
    """
    dom = u0.domain
    phi_vals = as_field(dom, phi).values[dom.dirichlet_index]
    u = u0.copy()
    u.values[dom.dirichlet_index] = phi_vals

    residual = l_eps_apply(u, params.eps)
    sup_l0 = float(np.max(np.abs(residual)))
    ramp_base = residual[np.searchsorted(dom.interior_flat,
                                         np.ravel_multi_index(dom.inner_index, dom.shape))]

    used = u.values[dom.used]
    return FlowState(u=u, phi_dirichlet=phi_vals, ramp_base=ramp_base,
                     sup_l0=sup_l0, bound_lo=float(np.min(used)),
                     bound_hi=float(np.max(used)), sup_ut=sup_l0)


def stable_dt(domain: GridDomain, params: FlowParams, w: np.ndarray) -> float:
    """Parabolic step bound cfl min(1, 2/n) h_min^2 / max lambda_max (1 + eps W),
    lambda_max of sigma^{ij}; the explicit Laplacian is stable to h^2 / 2n.

    w holds W at the interior nodes, in interior_flat order.  On Euclidean
    charts lambda_max is 1, and the scalar 1 + eps max W equals max(1 + eps W)
    bit for bit, since rounding is monotone.
    """
    if domain.chart.is_euclidean:
        coeff_max = float(1.0 + params.eps * w.max())
    else:
        coeff_max = float((domain.interior_lambda_max * (1.0 + params.eps * w)).max())
    return params.cfl * min(1.0, 2.0 / domain.dim) * domain.h_min_sq / coeff_max


def flow_step(state: FlowState, params: FlowParams, sample: bool = True,
              stages: int = 1) -> FlowState:
    """One explicit step, or with stages s > 1 one RKL1 super-step of length
    dt (s^2 + s)/2, dt = stable_dt at the start state; mutates and returns
    the state.  stages is a positive integer.

    The super-step's stages are Y_1 = Y_0 + dt L^eps(Y_0), the explicit
    step, and Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + mu_j dt L^eps(Y_{j-1})
    with mu_j = (2j - 1)/j and nu_j = (1 - j)/j, each on a lattice whose
    dirichlet values stay phi.  While the delta-ramp moves the boundary
    (t < 2 delta), and when assert_estimates is set, since the estimates
    belong to the explicit scheme, the step is explicit whatever stages is.

    With sample set, appends a DiagnosticSample (record_sample); raises
    FlowDiverged on non-finite values and EstimateViolation when
    assert_estimates is set and a monitored bound fails, sampled or not.
    """
    # run_to_quasi_steady's rule: below 1, tau would be 0 or negative
    if not (isinstance(stages, Integral) and stages >= 1):
        raise ConfigError(f"stages must be a positive integer, got {stages!r}")
    dom = state.u.domain
    vals = state.u.values
    interior = dom.interior_flat
    if params.assert_estimates or state.t < 2.0 * params.delta:
        stages = 1
    # overflow here surfaces as the FlowDiverged guard below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        rhs, w = _operator_arrays(dom, vals, params.eps)
        dt = stable_dt(dom, params, w)
        tau = dt * (stages * (stages + 1) // 2)
        old = vals.take(interior)
        first = new = old + dt * rhs
        t_new = state.t + tau

        bc = state.phi_dirichlet
        ramp = compatibility_ramp(t_new, params.delta)
        if ramp != 0.0:
            bc = bc + ramp * state.ramp_base
        new_vals = vals.copy()
        new_vals[dom.dirichlet] = bc
        prev = old
        for j in range(2, stages + 1):
            new_vals[dom.interior] = new
            rhs_j = _operator_arrays(dom, new_vals, params.eps)[0]
            mu, nu = (2 * j - 1) / j, (1 - j) / j
            prev, new = new, mu * new + nu * prev + (mu * dt) * rhs_j
        new_vals[dom.interior] = new

        # NaN and inf propagate through max, so the sups double as the guard
        sup_new, sup_bc = float(np.abs(new).max()), float(np.abs(bc).max())
        if not (math.isfinite(sup_new) and math.isfinite(sup_bc)):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(new_vals) & dom.used)[0])
            raise FlowDiverged(f"non-finite value at node {bad} on step "
                               f"{state.step + 1}", step=state.step + 1, node=bad)

        rate = (first - old) / dt  # the explicit step's, or the first stage's
        state.sup_ut = float(np.abs(rate).max())
        ut = rate if stages == 1 else (new - old) / tau
        state.sup_u = max(sup_new, sup_bc)
        state.dissipation_cum += interior_integral(dom, ut * ut / w) * tau

    state.u = GridField.trusted(dom, new_vals)
    state.t = t_new
    state.step += 1
    state.evaluations += stages
    if sample:
        record_sample(state, params)
    if params.assert_estimates:
        _check_estimates(state)
    return state


def record_sample(state: FlowState, params: FlowParams) -> None:
    """Append a DiagnosticSample of the state's last step, with E^eps of u."""
    state.history.append(DiagnosticSample(
        step=state.step, t=state.t, sup_u=state.sup_u, sup_ut=state.sup_ut,
        energy_eps=e_eps(state.u, params.eps), dissipation_cum=state.dissipation_cum))


def _check_estimates(state: FlowState) -> None:
    scale = max(1.0, abs(state.bound_lo), abs(state.bound_hi))
    tol = SUP_BOUND_REL_TOL * scale
    used = state.u.values[state.u.domain.used]
    lo, hi = float(np.min(used)), float(np.max(used))
    if lo < state.bound_lo - tol or hi > state.bound_hi + tol:
        raise EstimateViolation(
            f"maximum principle violated at step {state.step}: range "
            f"[{lo}, {hi}] leaves "
            f"[{state.bound_lo}, {state.bound_hi}] by more than {tol}")
    ut_cap = state.sup_l0 * (1.0 + UT_BOUND_REL_TOL) + 1e-12
    if state.sup_ut > ut_cap:
        raise EstimateViolation(
            f"time-derivative bound violated at step {state.step}: sup|u_t| = "
            f"{state.sup_ut} exceeds sup|L^eps u0| = {state.sup_l0} beyond tolerance")


def write_diagnostics_csv(history, path) -> None:
    """Write diagnostic samples as (step, t, sup_u, sup_ut, energy_eps,
    dissipation_cum) rows; floats with repr, lines ending in CRLF as
    csv.writer's do."""
    lines = ["step,t,sup_u,sup_ut,energy_eps,dissipation_cum"]
    lines += [f"{s.step},{s.t!r},{s.sup_u!r},{s.sup_ut!r},{s.energy_eps!r},{s.dissipation_cum!r}"
              for s in history]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([*lines, ""]))
