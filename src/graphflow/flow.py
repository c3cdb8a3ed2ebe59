"""Explicit time stepping of the perturbed graphical mean curvature flow.

The interior update integrates

    u_t = Q u + eps W Delta_M u,
    Q u = (sigma^{ij} - u^i u^j / W^2) D^2_ij u,   W = sqrt(1 + |Du|^2_sigma),

with forward Euler under a parabolic step restriction recomputed every
step.  The operator and its exact derivative also serve continuation's
Newton-Krylov leg solves for the steps' fixed point L^eps u = 0.

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
    step's sup|u|, sup|u_t| (sup|L^eps u0| before the first step), and adds
    its dissipation and 1 to step and evaluations (operator sweeps); history
    holds the samples.  Newton iterations (continuation) are steps too."""

    def __init__(self, u: GridField, phi_dirichlet: np.ndarray, ramp_base: np.ndarray,
                 sup_l0: float, bound_lo: float, bound_hi: float):
        self.u, self.phi_dirichlet, self.ramp_base, self.history = u, phi_dirichlet, ramp_base, []
        self.sup_l0 = self.sup_ut = sup_l0
        self.bound_lo, self.bound_hi = bound_lo, bound_hi
        self.t = self.sup_u = self.dissipation_cum = 0.0
        self.step = self.evaluations = self.newton_iterations = self.krylov_iterations = 0


def _laplacian(domain: GridDomain, hess: np.ndarray) -> np.ndarray:
    n = domain.dim
    if domain.chart.is_euclidean:
        return hess.reshape(n * n, -1)[::n + 1].sum(axis=0)
    return (domain.interior_sig_inv * hess).reshape(n * n, -1).sum(axis=0)


def _operator_arrays(domain: GridDomain, values: np.ndarray, eps: float, tangent: bool = False):
    """(L^eps u, W) at the interior nodes, in interior_flat order; at
    eps = 0, L^eps u is Qu bit for bit.  With tangent, also J: interior v
    (0 elsewhere) to the exact derivative of L^eps u along v."""
    nbrs = values.take(domain.node_table)
    lowered, raised, gradsq = gradient_sweep(domain, nbrs)
    hess = hessian_sweep(domain, nbrs, lowered)
    w2 = 1.0 + gradsq
    lap, h_raised = _laplacian(domain, hess), matvec(hess, raised)
    quu = contract(raised, h_raised)
    l_eps, w = lap - quu / w2, np.sqrt(w2)
    if eps != 0.0:
        l_eps = l_eps + eps * w * lap
    if not tangent:
        return l_eps, w
    lifted = np.zeros(values.size)

    def jv(v):
        lifted[domain.interior_flat] = v
        dn = lifted.take(domain.node_table)
        d_low, d_raised, _ = gradient_sweep(domain, dn)
        d_hess = hessian_sweep(domain, dn, d_low)
        d_lap, d_w2 = _laplacian(domain, d_hess), 2.0 * contract(raised, d_low)
        d_quu = 2.0 * contract(d_raised, h_raised) + contract(raised, matvec(d_hess, raised))
        out = d_lap - d_quu / w2 + quu * d_w2 / (w2 * w2)
        return out + eps * (w * d_lap + lap * d_w2 / (2.0 * w)) if eps != 0.0 else out
    return l_eps, w, jv


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
    phi_vals = as_field(dom, phi).values.take(dom.dirichlet_flat)
    u = u0.copy()
    u.values.flat[dom.dirichlet_flat] = phi_vals

    residual = l_eps_apply(u, params.eps)
    sup_l0 = float(np.max(np.abs(residual)))
    ramp_base = residual[np.searchsorted(dom.interior_flat, dom.inner_flat)]

    used = u.values[dom.used]
    return FlowState(u=u, phi_dirichlet=phi_vals, ramp_base=ramp_base,
                     sup_l0=sup_l0, bound_lo=float(np.min(used)), bound_hi=float(np.max(used)))


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


def flow_step(state: FlowState, params: FlowParams, sample: bool = True) -> FlowState:
    """One explicit step of length stable_dt at the start state; mutates
    and returns the state.

    With sample set, appends a DiagnosticSample (record_sample); raises
    FlowDiverged on non-finite values and EstimateViolation when
    assert_estimates is set and a monitored bound fails, sampled or not.
    """
    dom = state.u.domain
    vals = state.u.values
    # overflow here surfaces as the FlowDiverged guard below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        rhs, w = _operator_arrays(dom, vals, params.eps)
        dt = stable_dt(dom, params, w)
        old = vals.take(dom.interior_flat)
        new = old + dt * rhs
        t_new = state.t + dt

        bc = state.phi_dirichlet
        ramp = compatibility_ramp(t_new, params.delta)
        if ramp != 0.0:
            bc = bc + ramp * state.ramp_base
        new_vals = vals.copy()
        new_vals[dom.dirichlet] = bc
        new_vals[dom.interior] = new

        # NaN and inf propagate through max, so the sups double as the guard
        sup_new, sup_bc = float(np.abs(new).max()), float(np.abs(bc).max())
        if not (math.isfinite(sup_new) and math.isfinite(sup_bc)):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(new_vals) & dom.used)[0])
            raise FlowDiverged(f"non-finite value at node {bad} on step "
                               f"{state.step + 1}", step=state.step + 1, node=bad)

        rate = (new - old) / dt
        state.sup_ut = float(np.abs(rate).max())
        state.sup_u = max(sup_new, sup_bc)
        state.dissipation_cum += interior_integral(dom, rate * rate / w) * dt

    state.u = GridField.trusted(dom, new_vals)
    state.t = t_new
    state.step += 1
    state.evaluations += 1
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
