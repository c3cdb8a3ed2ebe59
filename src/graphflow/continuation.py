"""Vanishing-viscosity continuation toward the generalized Dirichlet solution.

Each leg runs the eps-perturbed flow to quasi-steady state, then eps takes
the schedule's next value (halved when no schedule is given) and the next
leg warm-starts from the previous limit.  The double-limit structure
(t -> infinity inside each leg, then eps -> 0 along the schedule) is
summarized by Cauchy gaps between successive leg limits on an interior
probe set, a boundary trace error, and a cross-time-sequence uniqueness gap
measured inside a single run.

For eps > 0 a leg is the gradient flow of the strictly convex
E^eps = integral W + (eps/2)|Du|^2, so its limit does not depend on its
start.  The run's limit is the last leg's; an explicit schedule's earlier
legs only warm-start the next one and feed the Cauchy gaps, so they stop
at the gap resolution DEFAULT_GAP_STOP when tol is finer (eps_continuation).

That limit is also the unique root of L^eps u = 0 with phi on the
dirichlet nodes, which with newton set a leg solves for (_newton_solve,
after Knoll & Keyes, J. Comput. Phys. 193, 2004).  Explicit steps stay the
library default and the path of what belongs to the flow's time: the
delta-ramp, the estimates, and the time check, a stop rule (TimeSnapshots)
that reads the states at the requested times.  It rides a leg as its
explicit prefix (run_to_quasi_steady's snapshots); eps_continuation runs it
on leg 1, from u0 at leg 1's eps.

Convergence statements live on compact interior subsets, so the probe set
excludes a 4-cell boundary collar; trace behavior at the boundary itself is
classified separately against the barrier certificates.
"""

from __future__ import annotations

import math
from functools import reduce
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EstimateViolation
from .flow import (FlowParams, FlowState, _operator_arrays, flow_step, initial_state,
                   record_sample, stable_dt)
from .functionals import e_eps, interior_integral, total_variation
from .grid import GridDomain, GridField, _norm, as_field

PROBE_COLLAR = 4          # probe set: interior nodes >= this many cells inside
# The default schedule stops once two legs agree this well on the probe set.
# The same scale bounds an explicit schedule's intermediate legs: on the
# benchmark's configs, against legs held to tol, Newton legs held to it move
# the gaps by at most 1.0e-7 and u_bar by 2.9e-9, and cut the evaluations
# after the time check 50 -> 40-45 (scherk_flow) and 25-27 -> 20-23
# (poincare_mixed); 1e-3 cuts no more, 1e-5 about half as much
DEFAULT_GAP_STOP = 1e-4
DEFAULT_MAX_LEGS = 13     # eps_i = 0.1 * 2^-i for i = 0..12
# Newton iterations per leg; a leg that reaches the cap is not converged.  The most
# measured is 21: the detached annulus's pseudo-transient leg at h=1/64
NEWTON_MAX_ITERATIONS = 50
NEWTON_HALVINGS = 10        # of a step whose |F|_2 does not drop, before the solve turns
PTC_STEPS = 100             # pseudo-transient, at a first step of this many explicit dt
GMRES_FORCING, GMRES_MAX_ITERATIONS = 1e-2, 60  # |J s + F| <= GMRES_FORCING |F|


def probe_mask(domain: GridDomain) -> np.ndarray:
    """Interior nodes at least PROBE_COLLAR cells away from the boundary."""
    mask = domain.eroded_interior(PROBE_COLLAR)
    if not mask.any():
        raise ConfigError(
            "probe set is empty: the domain has no interior nodes "
            f"{PROBE_COLLAR} cells away from the boundary")
    return mask


def _inverse_laplacian(domain: GridDomain, r: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """S (S r / (eigenvalues - shift)) on r zero-extended to the inner block,
    read back at the interior nodes; S, symmetric, transforms every axis
    (GridDomain.sine_basis)."""
    mats, eig, at = domain.sine_basis
    block = np.zeros(eig.shape)
    block.flat[at] = r
    for scale in (1.0, 1.0 / (eig - shift)):
        block = scale * block
        for m in mats:  # transform the leading axis and move it last
            block = np.einsum("i...,ij->...j", block, m)
    return block.take(at)


def _dot(a, b) -> float:  # the solves sum by einsum, not BLAS: no thread count changes a bit
    return float(np.einsum("i,i", a, b))


def _gmres(apply, b: np.ndarray, rtol: float, max_iterations: int):
    """(x, iterations), x from 0 with |b - apply(x)| <= rtol |b| or least
    after max_iterations (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7,
    1986); Givens rotations track that residual as |g[k + 1]|."""
    basis, hess = np.zeros((max_iterations + 1, b.size)), np.zeros((max_iterations,) * 2)
    rot, g = np.zeros((max_iterations, 2)), np.zeros(max_iterations + 1)
    g[0] = beta = math.sqrt(_dot(b, b))
    basis[0] = b / beta
    for k in range(max_iterations):
        w, col = apply(basis[k]), hess[:, k]
        for i in range(k + 1):  # modified Gram-Schmidt
            col[i] = _dot(basis[i], w)
            w -= col[i] * basis[i]
        norm = math.sqrt(_dot(w, w))
        for i, (c, s) in enumerate(rot[:k]):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        r = math.hypot(col[k], norm)
        rot[k], col[k] = (col[k] / r, norm / r), r
        g[k], g[k + 1] = rot[k, 0] * g[k], -rot[k, 1] * g[k]
        if abs(g[k + 1]) <= rtol * beta or norm == 0.0:
            break
        basis[k + 1] = w / norm
    y = np.linalg.solve(hess[:k + 1, :k + 1], g[:k + 1])
    return np.einsum("i,ij", y, basis[:k + 1]), k + 1


def _newton_solve(state: FlowState, params: FlowParams, threshold: float,
                  sample_every: int) -> None:
    """Inexact Newton on the interior values until sup|L^eps u| < threshold,
    for at most NEWTON_MAX_ITERATIONS updates of the state (t kept).  GMRES
    solves (J - shift) s = -F, right preconditioned by the block Laplacian
    times lambda_max (1 + eps W); s halves until |F|_2 drops enough.  Where no
    halving does, shift turns from 0 to 1 / (PTC_STEPS dt), then scales by
    each |F|_2 ratio, and any finite step is taken: pseudo-transient
    continuation (Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998)."""
    dom, eps, shift = state.u.domain, params.eps, 0.0
    lam_max = 1.0 if dom.chart.is_euclidean else dom.interior_lambda_max
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite trial is halved
        f, w, jv = _operator_arrays(dom, state.u.values, eps, tangent=True)
        state.evaluations += 1
        state.sup_ut = float(np.abs(f).max())
        while state.sup_ut >= threshold and state.newton_iterations < NEWTON_MAX_ITERATIONS:
            coeff = lam_max * (1.0 + eps * w)
            sigma = shift / float(np.max(coeff))

            def apply(r):  # (J - shift) M^-1 r, M = coeff (Laplacian - sigma)
                z = _inverse_laplacian(dom, r / coeff, sigma)
                return jv(z) - shift * z
            y, krylov = _gmres(apply, -f, GMRES_FORCING, GMRES_MAX_ITERATIONS)
            step, norm_sq = _inverse_laplacian(dom, y / coeff, sigma), _dot(f, f)
            state.evaluations += krylov
            state.krylov_iterations += krylov
            for halving in range(NEWTON_HALVINGS):
                trial = state.u.values.copy()
                trial.flat[dom.interior_flat] += 0.5 ** halving * step
                trial_op = _operator_arrays(dom, trial, eps, tangent=True)
                state.evaluations += 1
                new_sq = _dot(trial_op[0], trial_op[0])
                if new_sq <= (1.0 - 1e-4 * 0.5 ** halving) ** 2 * norm_sq or (
                        shift and new_sq < math.inf):
                    break
            else:
                if shift:
                    return
                shift = 1.0 / (PTC_STEPS * stable_dt(dom, params, w))
                continue
            (f, w, jv), shift = trial_op, shift * math.sqrt(new_sq / norm_sq)
            state.u, state.sup_ut = GridField.trusted(dom, trial), float(np.abs(f).max())
            state.sup_u = float(np.abs(trial[dom.used]).max())
            state.step += 1
            state.newton_iterations += 1
            if (state.step - 1) % sample_every == 0:
                record_sample(state, params)


def run_to_quasi_steady(params: FlowParams, phi, u0: GridField, tol: float,
                        sample_every: int = 1, newton: bool = False,
                        snapshots: TimeSnapshots | None = None) -> tuple[FlowState, bool]:
    """Run a leg until sup|L^eps u| < tol * (1 + sup|u|), u the start
    state u0 with phi on the dirichlet nodes; returns the final state and
    whether it got there.  Stationary data converges in zero steps.
    Explicit steps stop at t_end and read sup|L^eps| at each step's start.
    With snapshots, the leg first steps until they hold, whatever the
    residual.  With newton, it then steps only while the delta-ramp moves
    the boundary (throughout with assert_estimates) and, unless that
    settles it or reaches t_end, solves for the root (_newton_solve).  The
    history holds the samples at the sample_every cadence and the last update."""
    problems = [] if 0 < tol < math.inf else [
        f"quasi-steady tolerance must be finite and positive, got {tol}"]
    if not (isinstance(sample_every, Integral) and sample_every >= 1):
        problems.append(f"sample_every must be a positive integer, got {sample_every!r}")
    if problems:
        raise ConfigError(problems)
    state = initial_state(u0, phi, params)
    threshold = tol * (1.0 + state.u.sup_abs())

    def step_until(stop):
        """Explicit steps until stop(state) holds; stop sees the start and
        every step.  Steps 1, 1+k, 1+2k, ... for k = sample_every record a
        DiagnosticSample."""
        while not stop(state):
            flow_step(state, params, state.step % sample_every == 0)

    def done(s):
        return s.sup_ut < threshold or s.t >= params.t_end

    if snapshots is not None:
        step_until(snapshots)
    if newton and not params.assert_estimates:
        step_until(lambda s: done(s) or s.t >= 2.0 * params.delta)
        if not done(state):
            _newton_solve(state, params, threshold, sample_every)
    else:
        step_until(done)
    if state.step and state.history[-1].step != state.step:
        record_sample(state, params)  # the last update, when the cadence missed it
    return state, state.sup_ut < threshold


class EpsLeg(NamedTuple):
    """Summary of one eps level, with a reference to its quasi-steady field.

    tol is the quasi-steady tolerance the leg was held to, and converged
    says whether it reached it.  tv_final is the graph total variation of
    the leg limit, the discrete stand-in for the flow staying in W^{1,1}.
    steps counts explicit steps; evaluations counts the operator sweeps:
    explicit steps, residuals and Krylov products (J v), but neither the
    start residual (initial_state) nor the time check's source norms.
    """

    eps: float
    tol: float
    steps: int
    evaluations: int
    newton_iterations: int
    krylov_iterations: int
    final_sup_ut: float
    converged: bool
    energy_final: float
    dissipation_total: float
    tv_final: float
    u_ref: GridField

    def json_dict(self) -> dict:
        counts = ("steps", "evaluations", "newton_iterations", "krylov_iterations")
        return {key: bool(v) if key == "converged" else int(v) if key in counts else float(v)
                for key, v in self._asdict().items() if key != "u_ref"}


class ContinuationReport(NamedTuple):
    """Outcome of the eps schedule: leg summaries and convergence gaps."""

    eps_schedule: list
    legs: list
    cauchy_gaps: list
    trace_error: float
    converged: bool
    u_bar: GridField
    probe_count: int
    time_uniqueness_gap: float | None = None
    # the legs' sampled histories concatenated; step and t restart per leg
    history: list | None = None

    def json_dict(self) -> dict:
        return {
            "eps_schedule": [float(e) for e in self.eps_schedule],
            "legs": [leg.json_dict() for leg in self.legs],
            "cauchy_gaps": [float(g) for g in self.cauchy_gaps],
            "trace_error": float(self.trace_error),
            "converged": bool(self.converged),
            "probe_count": int(self.probe_count),
            "time_uniqueness_gap": (None if self.time_uniqueness_gap is None
                                    else float(self.time_uniqueness_gap)),
        }


def trace_error(u: GridField, phi, domain: GridDomain) -> float:
    """sup of |u - phi| over interior nodes adjacent to a dirichlet node."""
    inner = domain.inner_flat
    return float(np.max(np.abs(u.values.take(inner) - as_field(domain, phi).values.take(inner))))


def eps_schedule(schedule) -> list:
    """An explicit eps schedule as floats; ConfigError listing every broken
    rule unless it is nonempty, finite, positive and strictly decreasing."""
    sched = [float(e) for e in schedule]
    problems = [] if sched else ["eps schedule is empty"]
    if not all(map(math.isfinite, sched)):
        problems.append(f"eps schedule must be finite: {sched}")
    if any(e <= 0 for e in sched):
        problems.append(f"eps schedule must be positive: {sched}")
    if any(b >= a for a, b in zip(sched, sched[1:])):
        problems.append(f"eps schedule must be strictly decreasing: {sched}")
    if problems:
        raise ConfigError(problems)
    return sched


def eps_continuation(schedule, params: FlowParams, phi, u0: GridField,
                     tol: float = 1e-5, warm_start: bool = True,
                     sample_every: int = 1, newton: bool = False,
                     time_check: dict | None = None) -> ContinuationReport:
    """Continuation over a decreasing eps schedule.

    schedule None uses eps_i = 0.1 * 2^-i and stops once the probe-set gap
    falls below DEFAULT_GAP_STOP or after DEFAULT_MAX_LEGS legs.  Each leg
    warm-starts from the previous limit by default; warm_start False reruns
    every leg from u0, exposing any dependence on the eps sequence.  A leg
    that fails to reach quasi-steady state is recorded and aborts the
    remaining schedule.  sample_every and newton go to run_to_quasi_steady;
    the report's history holds each leg's samples.

    The last leg is held to tol.  So is every leg of the default schedule,
    since any of them may turn out to be the last.  An explicit schedule's
    earlier legs are held to max(tol, DEFAULT_GAP_STOP): each has a unique
    limit, and they serve only as warm starts and as the Cauchy gaps, which
    need no more than the gap resolution.  Each leg records its tol.

    time_check, {"times_a": [...], "times_b": [...]}, rides leg 1: its
    TimeSnapshots, at leg 1's eps, are leg 1's explicit prefix from u0
    (run_to_quasi_steady), and once the legs end their gap is the report's
    time_uniqueness_gap.
    """
    dom = u0.domain
    phi = as_field(dom, phi)
    dynamic = schedule is None
    sched_iter = ([0.1 * 2.0 ** (-i) for i in range(DEFAULT_MAX_LEGS)] if dynamic
                  else eps_schedule(schedule))
    probe = probe_mask(dom)
    check = (None if time_check is None else
             TimeSnapshots(params._replace(eps=sched_iter[0]), **time_check))

    legs, gaps, history, current = [], [], [], u0
    for i, eps in enumerate(sched_iter):
        leg_tol = tol if dynamic or i == len(sched_iter) - 1 else max(tol, DEFAULT_GAP_STOP)
        state, ok = run_to_quasi_steady(params._replace(eps=eps), phi,
                                        current if warm_start else u0, leg_tol, sample_every,
                                        newton, None if legs else check)
        history.extend(state.history)
        current = state.u
        energy = state.history[-1].energy_eps if state.step else e_eps(current, eps)
        legs.append(EpsLeg(eps=eps, tol=leg_tol, steps=state.step - state.newton_iterations,
                           evaluations=state.evaluations,
                           newton_iterations=state.newton_iterations,
                           krylov_iterations=state.krylov_iterations,
                           final_sup_ut=float(state.sup_ut),
                           converged=ok, energy_final=float(energy),
                           dissipation_total=float(state.dissipation_cum),
                           tv_final=total_variation(current), u_ref=current))
        if len(legs) > 1:
            gaps.append(float(np.max(np.abs(current.values[probe]
                                            - legs[-2].u_ref.values[probe]))))
        if not ok or (dynamic and gaps and gaps[-1] < DEFAULT_GAP_STOP):
            break

    return ContinuationReport(eps_schedule=[leg.eps for leg in legs], legs=legs,
                              cauchy_gaps=gaps, trace_error=trace_error(current, phi, dom),
                              converged=all(leg.converged for leg in legs), u_bar=current,
                              probe_count=int(probe.sum()), history=history,
                              time_uniqueness_gap=None if check is None else check.result()[0])


class AttainmentPoint(NamedTuple):
    """Boundary-trace behavior of the limit at one certified test point."""

    x0: list
    certified: bool
    trace_gap: float
    modulus: float
    classification: str

    def json_dict(self) -> dict:
        return {"x0": [float(c) for c in self.x0],
                "certified": bool(self.certified),
                "trace_gap": float(self.trace_gap),
                "modulus": float(self.modulus),
                "classification": self.classification}


class AttainmentReport(NamedTuple):
    points: list
    attained: int
    detached: int
    uncertified: int

    def json_dict(self) -> dict:
        return {"points": [p.json_dict() for p in self.points],
                "attained": int(self.attained), "detached": int(self.detached),
                "uncertified": int(self.uncertified)}


def boundary_attainment_report(u_bar: GridField, phi,
                               solvability) -> AttainmentReport:
    """Classify each barrier verdict point as attained, detached or uncertified.

    The trace gap is the worst |u_bar - phi| over the inner neighbors of the
    dirichlet nodes within 1.5h (sup norm) of x0; phi(x0) is read at the
    dirichlet node at x0, else at the first one within 1.5h; the modulus is
    the observed linear rate of u_bar's approach to phi(x0) over the
    interior nodes within 4h.  Each point reads only the nodes of its 4h
    lattice window (GridDomain.windows), once, in blocks of points.  A
    certified point is attained when its trace gap stays within a 10h band.
    """
    dom = u_bar.domain
    h_max = float(np.max(dom.h))
    phi_flat, u_flat = as_field(dom, phi).values.reshape(-1), u_bar.values.reshape(-1)
    bgap = np.zeros(u_flat.shape)  # at each dirichlet node, the gap at its inner neighbor
    bgap[dom.dirichlet_flat] = np.abs(u_flat[dom.inner_flat] - phi_flat[dom.dirichlet_flat])
    dirichlet, interior = dom.dirichlet.reshape(-1), dom.interior.reshape(-1)
    x0s = np.array([p.x0 for p in solvability.points], dtype=float).reshape(-1, dom.dim)
    gap, modulus = np.zeros(len(x0s)), np.zeros(len(x0s))
    for blk, nodes, offsets in dom.windows(x0s, 4.0 * h_max):
        sup = reduce(np.maximum, (np.abs(d) for d in offsets)).reshape(nodes.shape)
        close = dirichlet[nodes] & (sup <= 1.5 * h_max)
        gap[blk] = np.max(np.where(close, bgap[nodes], 0.0), axis=1, initial=0.0)
        # nodes run in C order, which is dirichlet_flat order
        on = close & (sup < 1e-12)
        pick = np.where(on.any(axis=1), on.argmax(axis=1), close.argmax(axis=1))
        phi0 = np.where(close.any(axis=1), phi_flat[nodes[np.arange(len(pick)), pick]], 0.0)
        d = _norm(offsets).reshape(nodes.shape)
        near = interior[nodes] & (d <= 4.0 * h_max)
        rate = np.abs(u_flat[nodes] - phi0[:, None]) / np.where(near, d, 1.0)
        modulus[blk] = np.where(near.any(axis=1), np.max(
            np.where(near, rate, -np.inf), axis=1, initial=-np.inf), np.nan)

    out = [AttainmentPoint(
        x0=[float(c) for c in x0], certified=bool(p.certified), trace_gap=float(g),
        modulus=float(m), classification=("uncertified" if not p.certified else
                                          "attained" if g <= 10.0 * h_max else "detached"))
        for p, x0, g, m in zip(solvability.points, x0s, gap, modulus)]
    labels = [p.classification for p in out]
    return AttainmentReport(points=out, attained=labels.count("attained"),
                            detached=labels.count("detached"),
                            uncertified=labels.count("uncertified"))


def _source_norm(u: GridField, eps: float) -> float:
    """integral of (L^eps u / W)^2 dV, the stationarity defect density."""
    l_eps, w = _operator_arrays(u.domain, u.values, eps)
    return interior_integral(u.domain, (l_eps / w) ** 2)


class TimeSnapshots:
    """Time-check stop rule: keeps the first state it sees with t >= each
    requested time, and holds once every time is reached.  flow_step
    builds a new lattice array every step, so a snapshot needs no copy.

    ConfigError, listing every broken rule, unless both sequences are
    nonempty, hold finite times (a NaN is never reached), no negative time
    (the run starts at t = 0, so such a time would read the initial state)
    and stay within params.t_end."""

    def __init__(self, params: FlowParams, times_a, times_b):
        self.params, self.snaps = params, {}
        self.times = [sorted(float(t) for t in ts) for ts in (times_a, times_b)]
        if not all(self.times):
            raise ConfigError("both time sequences must be nonempty")
        named = list(zip(("times_a", "times_b"), self.times))
        problems = [f"{name} must hold finite times, got {ts}"
                    for name, ts in named if not all(map(math.isfinite, ts))]
        problems += [f"{name} must hold no negative time, got {ts}"
                     for name, ts in named if ts[0] < 0]
        horizon = max(ts[-1] for ts in self.times)
        if horizon > params.t_end:
            problems.append(f"time sequences reach {horizon}, beyond the horizon {params.t_end}")
        if problems:
            raise ConfigError(problems)
        self.pending = sorted(set().union(*self.times))

    def __call__(self, state: FlowState) -> bool:
        while self.pending and state.t >= self.pending[0]:
            self.snaps[self.pending.pop(0)] = state.u
        return not self.pending

    def result(self) -> tuple[float, list]:
        """(gap, source norms), once every time is reached: the gap between
        the flow limits along the two sequences, the sup over the probe set
        between their last snapshots, and the stationarity defect at each
        requested time in increasing order.
        The defect must not rise along the times, as the dissipation bound
        demands; where it does, EstimateViolation."""
        probe = probe_mask(self.snaps[self.times[0][0]].domain)
        norms = [(t, _source_norm(u, self.params.eps)) for t, u in self.snaps.items()]
        slack = 1e-12 + 1e-9 * norms[0][1]
        for (t0, n0), (t1, n1) in zip(norms, norms[1:]):
            if n1 > n0 + slack:
                raise EstimateViolation(
                    f"stationarity defect rose from {n0} at t={t0} to {n1} at t={t1}")
        ua, ub = (self.snaps[ts[-1]].values[probe] for ts in self.times)
        return float(np.max(np.abs(ua - ub))), [n for _, n in norms]
