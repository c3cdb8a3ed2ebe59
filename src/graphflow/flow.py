"""Explicit time stepping of the perturbed graphical mean curvature flow.

The interior update integrates

    u_t = Q u + eps W Delta_M u,
    Q u = (sigma^{ij} - u^i u^j / W^2) D^2_ij u,   W = sqrt(1 + |Du|^2_sigma),

with forward Euler under a parabolic step restriction recomputed every
step.  The eps term is the uniformly parabolic viscosity perturbation: it
makes the flow the metric gradient flow of the energy

    E^eps(u) = integral W + (eps/2) |Du|^2 dV

with mobility W, so the energy drop balances the cumulative dissipation
integral of u_t^2 / W.  At eps = 0 the stepping reduces bit-for-bit to the
unperturbed flow.

Boundary values are held at phi, optionally ramped on a delta-scale:
phi + delta psi(t/delta) L^eps u0 with psi(s) = s (1 - s/2)^2, which has
psi(0) = 0, psi'(0) = 1, |psi'| <= 1 and support in [0, 2].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EstimateViolation, FlowDiverged
from .functionals import e_eps, interior_integral
from .grid import (EXTERIOR, GridDomain, GridField, as_field, gradient_sweep,
                   hessian_sweep)

UT_BOUND_REL_TOL = 1e-3   # slack on sup|u_t| <= sup|L^eps u0|
SUP_BOUND_REL_TOL = 1e-6  # slack on the maximum principle, scaled by data size


@dataclass(frozen=True)
class FlowParams:
    """Stepping parameters; cfl is the fraction of stable_dt's parabolic limit."""

    eps: float
    delta: float = 0.0
    cfl: float = 0.25
    t_end: float = 1.0
    assert_estimates: bool = False

    def __post_init__(self):
        problems = []
        if self.eps < 0:
            problems.append(f"eps must be nonnegative, got {self.eps}")
        if self.delta < 0:
            problems.append(f"delta must be nonnegative, got {self.delta}")
        if not 0.0 < self.cfl < 1.0:
            problems.append(f"cfl must lie in (0, 1), got {self.cfl}")
        if self.t_end <= 0:
            problems.append(f"t_end must be positive, got {self.t_end}")
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True)
class DiagnosticSample:
    step: int
    t: float
    sup_u: float
    sup_ut: float
    energy_eps: float
    dissipation_increment: float
    dissipation_cum: float


@dataclass
class FlowState:
    """Mutable state of one flow run; history collects one sample per step."""

    u: GridField
    t: float = 0.0
    step: int = 0
    history: list = field(default_factory=list)
    phi_dirichlet: np.ndarray | None = None
    ramp_base: np.ndarray | None = None
    sup_l0: float = 0.0
    bound_lo: float = 0.0
    bound_hi: float = 0.0
    dissipation_cum: float = 0.0


def _sig_contract(domain: GridDomain, hess: np.ndarray) -> np.ndarray:
    """sigma^{ij} D^2_ij u over the lattice."""
    if domain.chart.is_euclidean:
        return np.trace(hess, axis1=-2, axis2=-1)
    return np.einsum("...ij,...ij->...", domain.sig_inv, hess)


def _operator_arrays(domain: GridDomain, values: np.ndarray):
    """(Q, lap, W) arrays, meaningful at interior nodes."""
    lowered, raised, gradsq = gradient_sweep(domain, values)
    hess = hessian_sweep(domain, values, lowered)
    w2 = 1.0 + gradsq
    lap = _sig_contract(domain, hess)
    hv = np.matmul(hess, raised[..., None])[..., 0]
    quu = np.einsum("...i,...i->...", raised, hv)
    q = lap - quu / w2
    return q, lap, np.sqrt(w2)


def q_operator(u: GridField) -> GridField:
    """Mean curvature operator Qu = g^{ij} D^2_ij u at interior nodes."""
    q, _, _ = _operator_arrays(u.domain, u.values)
    vals = np.where(u.domain.interior, q, np.nan)
    return GridField(u.domain, vals, interior_only=True)


def l_eps_apply(u: GridField, eps: float) -> GridField:
    """Perturbed operator L^eps u = Qu + eps W Delta_M u at interior nodes.

    At eps = 0 this is bit-for-bit the unperturbed operator.
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if eps == 0.0:
        return q_operator(u)
    q, lap, w = _operator_arrays(u.domain, u.values)
    vals = np.where(u.domain.interior, q + eps * w * lap, np.nan)
    return GridField(u.domain, vals, interior_only=True)


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
    sup_l0 = float(np.max(np.abs(residual.values[dom.interior_index])))
    ramp_base = residual.values[dom.inner_index]

    used = u.values[dom.mask != EXTERIOR]
    return FlowState(u=u, phi_dirichlet=phi_vals, ramp_base=ramp_base,
                     sup_l0=sup_l0, bound_lo=float(np.min(used)),
                     bound_hi=float(np.max(used)))


def stable_dt(domain: GridDomain, params: FlowParams, w: np.ndarray) -> float:
    """Parabolic step bound cfl min(1, 2/n) h_min^2 / max lambda_max (1 + eps W),
    lambda_max of sigma^{ij}; the explicit Laplacian is stable to h^2 / 2n."""
    h_min = float(np.min(domain.h))
    ii = domain.interior_index
    coeff = domain.lambda_max_nodes[ii] * (1.0 + params.eps * w[ii])
    return params.cfl * min(1.0, 2.0 / domain.dim) * h_min ** 2 / float(np.max(coeff))


def flow_step(state: FlowState, params: FlowParams) -> FlowState:
    """One explicit step; mutates and returns the state.

    Appends a DiagnosticSample built from backward differences and the cell
    quadrature energy; raises FlowDiverged on non-finite values and
    EstimateViolation when assert_estimates is set and a monitored bound
    fails.
    """
    dom = state.u.domain
    vals = state.u.values
    # overflow here surfaces as the FlowDiverged guard below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        q, lap, w = _operator_arrays(dom, vals)
        rhs = q if params.eps == 0.0 else q + params.eps * w * lap
        dt = stable_dt(dom, params, w)
        ii = dom.interior_index
        new_vals = vals.copy()
        new_vals[ii] = vals[ii] + dt * rhs[ii]
    t_new = state.t + dt

    didx = dom.dirichlet_index
    bc = state.phi_dirichlet
    ramp = compatibility_ramp(t_new, params.delta)
    if ramp != 0.0:
        bc = bc + ramp * state.ramp_base
    new_vals[didx] = bc

    used = dom.mask != EXTERIOR
    if not np.all(np.isfinite(new_vals[used])):
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(new_vals) & used)[0])
        raise FlowDiverged(f"non-finite value at node {bad} on step "
                           f"{state.step + 1}", step=state.step + 1, node=bad)

    ut = (new_vals[ii] - vals[ii]) / dt
    sup_ut = float(np.max(np.abs(ut)))
    sup_u = float(np.max(np.abs(new_vals[used])))

    diss_density = np.zeros(dom.shape)
    diss_density[ii] = ut * ut / w[ii]
    diss_inc = interior_integral(dom, diss_density) * dt
    state.dissipation_cum += diss_inc

    state.u = GridField(dom, new_vals)
    state.t = t_new
    state.step += 1
    energy = e_eps(state.u, params.eps)
    sample = DiagnosticSample(step=state.step, t=state.t, sup_u=sup_u, sup_ut=sup_ut,
                              energy_eps=energy, dissipation_increment=diss_inc,
                              dissipation_cum=state.dissipation_cum)
    state.history.append(sample)

    if params.assert_estimates:
        _check_estimates(state, sample)
    return state


def _check_estimates(state: FlowState, sample: DiagnosticSample) -> None:
    scale = max(1.0, abs(state.bound_lo), abs(state.bound_hi))
    tol = SUP_BOUND_REL_TOL * scale
    vals = state.u.values
    used = state.u.domain.mask != EXTERIOR
    if float(np.min(vals[used])) < state.bound_lo - tol \
            or float(np.max(vals[used])) > state.bound_hi + tol:
        raise EstimateViolation(
            f"maximum principle violated at step {sample.step}: range "
            f"[{float(np.min(vals[used]))}, {float(np.max(vals[used]))}] leaves "
            f"[{state.bound_lo}, {state.bound_hi}] by more than {tol}")
    ut_cap = state.sup_l0 * (1.0 + UT_BOUND_REL_TOL) + 1e-12
    if sample.sup_ut > ut_cap:
        raise EstimateViolation(
            f"time-derivative bound violated at step {sample.step}: sup|u_t| = "
            f"{sample.sup_ut} exceeds sup|L^eps u0| = {state.sup_l0} beyond tolerance")


def write_diagnostics_csv(history, path) -> None:
    """Stream per-step samples as (step, t, sup_u, sup_ut, energy_eps,
    dissipation_cum) rows."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "sup_u", "sup_ut", "energy_eps", "dissipation_cum"])
        for s in history:
            writer.writerow([s.step, repr(s.t), repr(s.sup_u), repr(s.sup_ut),
                             repr(s.energy_eps), repr(s.dissipation_cum)])
