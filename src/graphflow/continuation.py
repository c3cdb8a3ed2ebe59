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

All stepping goes through one loop, _step_until, which states the mixing
and sampling rules; flow.flow_step states the RKL1 super-step.  Mixed
super-steps reach the same leg limits as explicit steps in fewer operator
sweeps.  The time check is a stop rule (TimeSnapshots) on explicit steps,
because it reads the states at the requested times, which super-steps step
over: eps_continuation runs it as leg 1's explicit prefix, from u0 at leg
1's eps, and time_sequence_uniqueness_check as a run of its own.

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
from .flow import FlowParams, FlowState, _operator_arrays, flow_step, initial_state, record_sample
from .functionals import e_eps, interior_integral, total_variation
from .grid import GridDomain, GridField, _norm, as_field

PROBE_COLLAR = 4          # probe set: interior nodes >= this many cells inside
# The default schedule stops once two legs agree this well on the probe set.
# The same scale bounds an explicit schedule's intermediate legs: a leg held
# to it moves its gaps far less than the gap resolution itself (at most
# 2.8e-7 on the benchmark's configs), while 1e-3 moved poincare_mixed's gap
# x9.4 and 1e-5 saved half as many evaluations on scherk_flow (24, not 48)
DEFAULT_GAP_STOP = 1e-4
DEFAULT_MAX_LEGS = 13     # eps_i = 0.1 * 2^-i for i = 0..12
# RKL1 stages per eps-leg super-step in graphflow run.  Operator
# evaluations summed over the legs of the benchmark's scherk_flow at
# h=1/16, 1/32, 1/64 with ANDERSON_DEPTH 5: 4 stages 172/728/2552, 8 stages
# 248/384/1560, 12 stages 324/420/1104 (unmixed at h=1/16: 4 stages 936,
# 8: 480, 12: 504, 16: 512; explicit: 2374)
SUPER_STAGES = 8
# Anderson depth m: the last m + 1 super-step maps mix each start.  The
# same sums with 8 stages: m=3 264/528/2680, m=5 248/384/1560, m=8
# 248/344/1000 (unmixed 480/2088/8496).  Past 5 nothing is saved at the
# benchmark's h=1/16, and the least-squares fit costs more: 48 us at m=5,
# 81 us at m=8, against 70 us per operator evaluation there
ANDERSON_DEPTH = 5


def probe_mask(domain: GridDomain) -> np.ndarray:
    """Interior nodes at least PROBE_COLLAR cells away from the boundary."""
    mask = domain.eroded_interior(PROBE_COLLAR)
    if not mask.any():
        raise ConfigError(
            "probe set is empty: the domain has no interior nodes "
            f"{PROBE_COLLAR} cells away from the boundary")
    return mask


class _AndersonMix:
    """Type-II Anderson mixing (Anderson 1965; Walker & Ni, SIAM J. Numer.
    Anal. 49, 2011) of a fixed-point map G on the interior values.

    Called with a start x_k and its image G(x_k), it returns
    x_{k+1} = G(x_k) - dG gamma, where gamma is the least-squares fit of
    f_k = G(x_k) - x_k by the columns of dF, and dF, dG hold the
    differences of f and G over the last depth + 1 calls, so dG = dX + dF.
    The first call returns G(x_0).  The differences live in preallocated
    rings; their order does not change the mix."""

    def __init__(self, size: int, depth: int):
        self.df, self.dg = np.empty((depth, size)), np.empty((depth, size))
        self.stored = 0
        self.f = self.g = None

    def __call__(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        f = g - x
        if self.f is not None:
            slot = self.stored % len(self.df)
            np.subtract(f, self.f, out=self.df[slot])
            np.subtract(g, self.g, out=self.dg[slot])
            self.stored += 1
        self.f, self.g = f, g
        k = min(self.stored, len(self.df))
        if not k:
            return g
        gamma = np.linalg.lstsq(self.df[:k].T, f, rcond=None)[0]
        return g - gamma @ self.dg[:k]


def _step_until(state: FlowState, params: FlowParams, stop, sample_every=0, stages=1) -> None:
    """Step state, stages at a time (flow.flow_step), until stop(state)
    holds; stop sees the initial state and every step.  Steps 1, 1+k,
    1+2k, ... for k = sample_every > 0 record a DiagnosticSample; with 0,
    no step does.

    When a step took more than one stage and stop does not hold, the next
    step starts from the Anderson mix (_AndersonMix) of the last
    ANDERSON_DEPTH + 1 super-step maps: its interior values replace those of
    the step's result, its dirichlet values stay phi.  t, the samples and
    dissipation_cum stay those of the super-steps, and the stop rule, read
    after each step, sees sup|L^eps| at that step's start, so a leg stops on
    the residual of its last start and ends on that start's super-step."""
    dom = state.u.domain
    interior = dom.interior_flat
    mix = _AndersonMix(interior.size, ANDERSON_DEPTH) if stages > 1 else None
    start = None  # the last step's start values, when that step was a super-step
    while not stop(state):
        if start is not None:
            vals = state.u.values.copy()
            vals[dom.interior] = mix(start, vals.take(interior))
            state.u = GridField.trusted(dom, vals)
        evaluations = state.evaluations
        x = state.u.values.take(interior) if stages > 1 else None
        flow_step(state, params, sample_every > 0 and state.step % sample_every == 0, stages)
        start = x if state.evaluations > evaluations + 1 else None


def run_to_quasi_steady(params: FlowParams, phi, u0: GridField, tol: float,
                        sample_every: int = 1, stages: int = 1,
                        snapshots: TimeSnapshots | None = None) -> tuple[FlowState, bool]:
    """Step the flow until sup|u_t| drops below tol * (1 + sup|u|), u the
    start state: u0 with phi on the dirichlet nodes.

    Returns the final state and whether the threshold was reached before
    t_end.  Stationary data converges in zero steps: the initial residual
    sup|L^eps u0| is checked before any stepping.  With snapshots, the run
    first takes explicit steps until they hold, whatever the residual, and
    t_end counts those steps.  sample_every and stages go to _step_until;
    the history holds its samples and the last step.
    """
    problems = [] if 0 < tol < math.inf else [
        f"quasi-steady tolerance must be finite and positive, got {tol}"]
    problems += [f"{name} must be a positive integer, got {value!r}"
                 for name, value in (("sample_every", sample_every), ("stages", stages))
                 if not (isinstance(value, Integral) and value >= 1)]
    if problems:
        raise ConfigError(problems)
    state = initial_state(u0, phi, params)
    threshold = tol * (1.0 + state.u.sup_abs())

    if snapshots is not None:
        _step_until(state, params, snapshots, sample_every)
    _step_until(state, params, lambda s: s.sup_ut < threshold or s.t >= params.t_end,
                sample_every, stages)
    if state.step and state.history[-1].step != state.step:
        record_sample(state, params)  # the last step, when the cadence missed it
    return state, state.sup_ut < threshold


class EpsLeg(NamedTuple):
    """Summary of one eps level, with a reference to its quasi-steady field.

    tol is the quasi-steady tolerance the leg was held to, and converged
    says whether it reached it.  tv_final is the graph total variation of
    the leg limit, the discrete stand-in for the flow staying in W^{1,1}.
    evaluations counts the operator sweeps, the stages summed over the steps.
    """

    eps: float
    tol: float
    steps: int
    evaluations: int
    final_sup_ut: float
    converged: bool
    energy_final: float
    dissipation_total: float
    tv_final: float
    u_ref: GridField

    def json_dict(self) -> dict:
        return {"eps": float(self.eps), "tol": float(self.tol), "steps": int(self.steps),
                "evaluations": int(self.evaluations),
                "final_sup_ut": float(self.final_sup_ut),
                "converged": bool(self.converged),
                "energy_final": float(self.energy_final),
                "dissipation_total": float(self.dissipation_total),
                "tv_final": float(self.tv_final)}


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
    inner = domain.inner_index
    return float(np.max(np.abs(u.values[inner] - as_field(domain, phi).values[inner])))


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
                     sample_every: int = 1, stages: int = 1,
                     time_check: dict | None = None) -> ContinuationReport:
    """Continuation over a decreasing eps schedule.

    schedule None uses eps_i = 0.1 * 2^-i and stops once the probe-set gap
    falls below DEFAULT_GAP_STOP or after DEFAULT_MAX_LEGS legs.  Each leg
    warm-starts from the previous limit by default; warm_start False reruns
    every leg from u0, exposing any dependence on the eps sequence.  A leg
    that fails to reach quasi-steady state within t_end is recorded and
    aborts the remaining schedule.  sample_every and stages go to
    run_to_quasi_steady; the report's history holds each leg's samples.

    The last leg is held to tol.  So is every leg of the default schedule,
    since any of them may turn out to be the last.  An explicit schedule's
    earlier legs are held to max(tol, DEFAULT_GAP_STOP): each has a unique
    limit, and they serve only as warm starts and as the Cauchy gaps, which
    need no more than the gap resolution.  Each leg records its tol.

    time_check, {"times_a": [...], "times_b": [...]}, rides leg 1: its
    TimeSnapshots are leg 1's explicit prefix (run_to_quasi_steady), and
    once the legs end their gap is the report's time_uniqueness_gap, the
    same as time_sequence_uniqueness_check's at leg 1's eps from u0.
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
                                        stages, None if legs else check)
        history.extend(state.history)
        current = state.u
        energy = state.history[-1].energy_eps if state.step else e_eps(current, eps)
        legs.append(EpsLeg(eps=eps, tol=leg_tol, steps=state.step, evaluations=state.evaluations,
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
                              time_uniqueness_gap=None if check is None else check.result().gap)


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
    bgap[dom.dirichlet_flat] = np.abs(u_bar.values[dom.inner_index] - phi_flat[dom.dirichlet_flat])
    dirichlet, interior = dom.dirichlet.reshape(-1), dom.interior.reshape(-1)
    x0s = np.array([p.x0 for p in solvability.points], dtype=float).reshape(-1, dom.dim)
    gap, modulus = np.zeros(len(x0s)), np.zeros(len(x0s))
    for blk, nodes, offsets in dom.windows(x0s, 4.0 * h_max):
        sup = reduce(np.maximum, (np.abs(d) for d in offsets)).reshape(nodes.shape)
        close = dirichlet[nodes] & (sup <= 1.5 * h_max)
        gap[blk] = np.max(np.where(close, bgap[nodes], 0.0), axis=1, initial=0.0)
        # nodes run in C order, which is dirichlet_index order
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


class TimeUniquenessResult(NamedTuple):
    """Gap between two time-sequence limits sampled from one run."""

    gap: float
    times_a: list
    times_b: list
    source_norms: list


def _source_norm(u: GridField, eps: float) -> float:
    """integral of (L^eps u / W)^2 dV, the stationarity defect density."""
    l_eps, w = _operator_arrays(u.domain, u.values, eps)
    return interior_integral(u.domain, (l_eps / w) ** 2)


class TimeSnapshots:
    """Time-check stop rule: keeps the first state it sees with t >= each
    requested time, and holds once every time is reached.  flow_step
    builds a new lattice array every step, so a snapshot needs no copy.

    ConfigError, listing every broken rule, unless both sequences are
    nonempty, hold no negative time (the run starts at t = 0, so such a
    time would read the initial state) and stay within params.t_end."""

    def __init__(self, params: FlowParams, times_a, times_b):
        self.params, self.snaps = params, {}
        self.times = [sorted(float(t) for t in ts) for ts in (times_a, times_b)]
        if not all(self.times):
            raise ConfigError("both time sequences must be nonempty")
        problems = [f"{name} must hold no negative time, got {ts}"
                    for name, ts in zip(("times_a", "times_b"), self.times) if ts[0] < 0]
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

    def result(self) -> TimeUniquenessResult:
        """Gap and source norms of the snapshots, once every time is reached."""
        probe = probe_mask(self.snaps[self.times[0][0]].domain)
        norms = [(t, _source_norm(u, self.params.eps)) for t, u in self.snaps.items()]
        slack = 1e-12 + 1e-9 * norms[0][1]
        for (t0, n0), (t1, n1) in zip(norms, norms[1:]):
            if n1 > n0 + slack:
                raise EstimateViolation(
                    f"stationarity defect rose from {n0} at t={t0} to {n1} at t={t1}")
        ua, ub = (self.snaps[ts[-1]].values[probe] for ts in self.times)
        return TimeUniquenessResult(gap=float(np.max(np.abs(ua - ub))), times_a=self.times[0],
                                    times_b=self.times[1], source_norms=[n for _, n in norms])


def time_sequence_uniqueness_check(params: FlowParams, phi, u0: GridField,
                                   times_a, times_b) -> TimeUniquenessResult:
    """Compare the flow limits extracted along two time sequences.

    One explicit run at params, snapshots at every requested time (first
    step crossing it), last-iterate limits on the probe set.  Also checks
    that the stationarity defect norms decrease along the sampled times, as
    the dissipation bound demands; a violation raises EstimateViolation.
    """
    check = TimeSnapshots(params, times_a, times_b)
    _step_until(initial_state(u0, phi, params), params, check)
    return check.result()
