"""Boundary supersolution barriers for the minimal graph Dirichlet problem.

At a boundary point x0, pick a sigma(x0)-orthonormal frame whose last column
is the inner unit normal, write the boundary as a quadratic graph y_n = w(y')
over the tangent plane, and form

    psi(y) = K^2 |y|^2 + 2 alpha (y_n - w(y')),    v = sqrt(psi).

On the graph of v the operator

    Q v = g^{ab} (v_ab - Gamma^c_ab v_c),
    g^{ab} = sigma^{ab} - v^a v^b / (1 + |Dv|^2_sigma)

satisfies, as y -> 0,

    v * Qv  ->  -(1 + K^2 (1 - n) + alpha * (tr w'' + sum_a Gamma^n_aa)),

so the construction certifies a strict supersolution once K^2 (n - 1) < 1
and alpha and the neighborhood radius are taken small enough.  Any solution
whose boundary data stays below phi(x0) + K d(x, x0) is then dominated by
phi(x0) + v near x0; the lower bound comes from running the same machinery
on -phi.

Admissibility is checked in the sharper form K < 1/sqrt((n-1) gamma) with
gamma > 1, matching the oscillation hypothesis under which the certificate
is applied.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .errors import BarrierError
from .grid import DIRICHLET, GridDomain, _region_sdf, as_field
from .manifold import christoffel_at, metric_at

MIN_BARRIER_V = 1e-12
QV_MARGIN = -1e-8          # certification demands Qv below this at every sample
ALPHA_FLOOR = 1e-6
FIT_WINDOW_CELLS = 8       # boundary sampling window, in units of max h
DEGENERATE_RESIDUAL = 0.05 # rms graph-fit residual / window above this is no graph
HALVINGS = 53              # bisection steps per crossing: the bracket on [0, 1] ends at 2^-53
_CROSSING_TABLES = weakref.WeakKeyDictionary()  # GridDomain -> _crossing_table


@dataclass(frozen=True, eq=False)
class BarrierSpec:
    """A fitted supersolution candidate at one boundary point.

    frame columns are sigma(x0)-orthonormal chart vectors, inner normal
    last; w_fit is the Hessian of the quadratic boundary graph in frame
    coordinates; limit_margin is the coefficient whose positivity drives
    the sign of v * Qv at the point itself.
    """

    x0: np.ndarray
    K: float
    gamma: float
    alpha: float
    L: float
    radius: float
    w_fit: np.ndarray
    frame: np.ndarray
    trace_term: float
    limit_margin: float
    chart: object

    @property
    def dim(self) -> int:
        return self.x0.shape[0]


@dataclass(frozen=True)
class BarrierSearchResult:
    """Outcome of the (radius, alpha) search at one boundary point."""

    x0: np.ndarray
    admissible: bool
    certified: bool
    reason: str
    spec: BarrierSpec | None = None
    qv_max: float | None = None
    samples: int = 0

    @property
    def limit_margin(self) -> float | None:
        return None if self.spec is None else self.spec.limit_margin

    def json_dict(self) -> dict:
        out = {
            "x0": [float(c) for c in self.x0],
            "admissible": bool(self.admissible),
            "certified": bool(self.certified),
            "reason": self.reason,
            "samples": int(self.samples),
        }
        if self.spec is not None:
            out.update({
                "alpha": float(self.spec.alpha),
                "radius": float(self.spec.radius),
                "K": float(self.spec.K),
                "gamma": float(self.spec.gamma),
                "L": float(self.spec.L),
                "limit_margin": float(self.spec.limit_margin),
                "qv_max": float(self.qv_max),
            })
        return out


def _sdf(domain: GridDomain, pts: np.ndarray) -> np.ndarray:
    return _region_sdf(domain.region, pts, domain.chart.box)


def segment_crossings(domain: GridDomain, a: np.ndarray, b: np.ndarray,
                      fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Boundary point on each segment [a[k], b[k]], NaN where it stays one-sided.

    fa, fb are the region's signed distances at the ends.  An end below 1e-13
    of the larger end value is returned exactly; the segments with strictly
    opposite-sign ends are bisected together, HALVINGS times.
    """
    tiny = 1e-13 * np.maximum(np.maximum(np.abs(fa), np.abs(fb)), 1e-30)
    at_a = np.abs(fa) < tiny
    at_b = ~at_a & (np.abs(fb) < tiny)
    out = np.full(np.shape(a), np.nan)
    out[at_a], out[at_b] = a[at_a], b[at_b]
    todo = ~at_a & ~at_b & (((fa < 0) & (fb > 0)) | ((fa > 0) & (fb < 0)))
    if np.any(todo):
        a, step, side = a[todo], b[todo] - a[todo], np.sign(fa[todo])
        lo, hi = np.zeros(len(a)), np.ones(len(a))
        for _ in range(HALVINGS):
            mid = 0.5 * (lo + hi)
            same = _sdf(domain, a + mid[:, None] * step) * side > 0
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        out[todo] = a + (0.5 * (lo + hi))[:, None] * step
    return out


def _crossing_table(domain: GridDomain):
    """(lo, hi, points) of the axis-aligned lattice segments meeting the region
    edge: flat indices of the end nodes and the crossing, ordered by axis, then
    by lower node in C order.  Built once per domain."""
    if domain in _CROSSING_TABLES:
        return _CROSSING_TABLES[domain]
    flat = np.arange(domain.sdf.size).reshape(domain.shape)
    lo, hi = (np.concatenate([flat[(slice(None),) * a + (cut,)].reshape(-1)
                              for a in range(domain.dim)])
              for cut in (slice(None, -1), slice(1, None)))
    pts, F = domain.points.reshape(-1, domain.dim), domain.sdf.reshape(-1)
    cross = segment_crossings(domain, pts[lo], pts[hi], F[lo], F[hi])
    hit = ~np.isnan(cross[:, 0])
    _CROSSING_TABLES[domain] = lo[hit], hi[hit], cross[hit]
    return _CROSSING_TABLES[domain]


def boundary_crossings(domain: GridDomain, x0: np.ndarray,
                       window: float) -> np.ndarray:
    """Boundary points where lattice segments near x0 cross the region edge.

    Selects the rows of the domain's crossing table whose segment endpoints
    both lie within the sup-norm window of x0; the table root-finds the
    signed distance along each crossing segment once per domain.
    """
    lo, hi, cross = _crossing_table(domain)
    near = np.all(np.abs(domain.points - x0) <= window + 1e-12, axis=-1).reshape(-1)
    arr = cross[near[lo] & near[hi]]
    # lattice nodes sitting exactly on the boundary are seen by every
    # incident segment; keep one copy of each
    _, keep = np.unique(np.round(arr / 1e-12).astype(np.int64), axis=0,
                        return_index=True)
    return arr[np.sort(keep)]


def project_to_boundary(domain: GridDomain, idx: tuple,
                        offset: tuple) -> np.ndarray:
    """Boundary point on the segment from idx's inner neighbor to idx."""
    if domain.mask[idx] != DIRICHLET:
        raise BarrierError(f"node {idx} is not a dirichlet node")
    inner = tuple(i - o for i, o in zip(idx, offset))
    cross = segment_crossings(domain, domain.points[inner][None], domain.points[idx][None],
                              domain.sdf[inner][None], domain.sdf[idx][None])[0]
    if np.isnan(cross[0]):
        raise BarrierError(f"no boundary crossing between {inner} and {idx}")
    return cross


def fit_boundary_graph(domain: GridDomain, x0) -> tuple[np.ndarray, np.ndarray, float]:
    """Frame and quadratic graph of the boundary at x0.

    Returns (frame, w_fit, L): frame columns are sigma(x0)-orthonormal with
    the inner normal last; w_fit is the fitted Hessian of y_n = w(y') with
    zero constant and linear part; L is its spectral norm.
    """
    x0 = np.asarray(x0, dtype=float)
    chart = domain.chart
    n = chart.dim
    if n < 2:
        raise BarrierError("the boundary-graph construction needs dimension >= 2")
    window = FIT_WINDOW_CELLS * float(np.max(domain.h))
    samples = boundary_crossings(domain, x0, window)
    if samples.shape[0] < 2 * n:
        raise BarrierError(
            f"boundary near {x0.tolist()} resolved by only {samples.shape[0]} "
            f"points; need at least {2 * n}")
    # fit on the nearest 4n samples: keeps the stencil local so curvature is
    # read off at scale O(h), and keeps far-away boundary pieces out of it
    order = np.argsort(np.linalg.norm(samples - x0, axis=1), kind="stable")
    samples = samples[order[:4 * n]]
    window = float(np.max(np.linalg.norm(samples - x0, axis=1)))
    if window <= 0:
        raise BarrierError(f"boundary samples near {x0.tolist()} collapse onto it")

    sig0, _, _ = metric_at(chart, x0)
    chol = np.linalg.cholesky(sig0)
    centered = samples - x0
    z = centered @ chol            # rows z_k = chol^T (s_k - x0)
    _, _, vt = np.linalg.svd(z, full_matrices=True)
    frame = np.linalg.solve(chol.T, vt.T)   # columns, normal (least variance) last

    # orient the normal inward
    probe = 0.25 * float(np.min(domain.h))
    if float(_sdf(domain, (x0 + probe * frame[:, -1])[None])[0]) > 0:
        frame[:, -1] = -frame[:, -1]

    # rotate the frame until the fitted linear term vanishes: this is what
    # pins Dw(0) = 0, and an unrotated frame would bias the Hessian
    pairs = list(combinations_with_replacement(range(n - 1), 2))
    for _ in range(24):
        y = np.linalg.solve(frame, centered.T).T
        yp, yn = y[:, :n - 1], y[:, n - 1]
        design = np.concatenate(
            [yp, np.stack([yp[:, i] * yp[:, j] for i, j in pairs], axis=1)],
            axis=1)
        coef, _, rank, _ = np.linalg.lstsq(design, yn, rcond=None)
        if rank < design.shape[1]:
            raise BarrierError(
                f"degenerate boundary fit at {x0.tolist()}: "
                f"rank {rank} < {design.shape[1]}")
        slope = coef[:n - 1]
        if float(np.max(np.abs(slope))) < 1e-11:
            break
        nu_y = np.concatenate([-slope, [1.0]])
        nu = frame @ nu_y
        nu = nu / np.sqrt(nu @ sig0 @ nu)
        cols = []
        for a in range(n - 1):
            t = frame[:, a]
            t = t - (t @ sig0 @ nu) * nu
            for c in cols:
                t = t - (t @ sig0 @ c) * c
            norm = np.sqrt(t @ sig0 @ t)
            if norm < 1e-12:
                raise BarrierError(
                    f"degenerate boundary fit at {x0.tolist()}: tangent collapse")
            cols.append(t / norm)
        frame = np.stack(cols + [nu], axis=1)
    else:
        raise BarrierError(
            f"degenerate boundary fit at {x0.tolist()}: no stable tangent plane")

    for a in range(n - 1):
        lead = np.argmax(np.abs(frame[:, a]))
        if frame[lead, a] < 0:
            frame[:, a] = -frame[:, a]

    y = np.linalg.solve(frame, centered.T).T
    yp, yn = y[:, :n - 1], y[:, n - 1]
    design = np.stack([yp[:, i] * yp[:, j] for i, j in pairs], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(design, yn, rcond=None)
    if rank < len(pairs):
        raise BarrierError(
            f"degenerate boundary fit at {x0.tolist()}: rank {rank} < {len(pairs)}")
    H = np.zeros((n - 1, n - 1))
    for (i, j), c in zip(pairs, coef):
        if i == j:
            H[i, i] = 2.0 * c
        else:
            H[i, j] = H[j, i] = c
    rms = float(np.sqrt(np.mean((design @ coef - yn) ** 2)))
    if rms > DEGENERATE_RESIDUAL * window:
        raise BarrierError(
            f"degenerate boundary fit at {x0.tolist()}: residual {rms:.3e} "
            f"exceeds {DEGENERATE_RESIDUAL:.0e} of the window {window:.3e}")
    L = float(np.linalg.norm(H, 2)) if n > 1 else 0.0
    return frame, H, L


def _frame_coords(spec: BarrierSpec, x: np.ndarray) -> np.ndarray:
    return np.linalg.solve(spec.frame, (x - spec.x0).T).T


def _psi_terms(spec: BarrierSpec, y: np.ndarray):
    """psi, its gradient, and its Hessian in frame coordinates."""
    n = spec.dim
    K2 = spec.K ** 2
    yp = y[..., :n - 1]
    yn = y[..., n - 1]
    w = 0.5 * np.einsum("...i,ij,...j->...", yp, spec.w_fit, yp)
    wg = yp @ spec.w_fit
    psi = K2 * np.sum(y * y, axis=-1) + 2.0 * spec.alpha * (yn - w)
    grad = 2.0 * K2 * y.copy()
    grad[..., :n - 1] -= 2.0 * spec.alpha * wg
    grad[..., n - 1] += 2.0 * spec.alpha
    hess = np.zeros(y.shape + (n,))
    hess[...] = 2.0 * K2 * np.eye(n)
    hess[..., :n - 1, :n - 1] -= 2.0 * spec.alpha * spec.w_fit
    return psi, grad, hess


def psi_eval(spec: BarrierSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """psi and v = sqrt(psi) at chart points x.

    psi = 0 is allowed (the base point itself); the strictly negative side
    is rejected.
    """
    x = np.asarray(x, dtype=float)
    y = _frame_coords(spec, x)
    psi, _, _ = _psi_terms(spec, y)
    if np.any(psi < 0):
        raise BarrierError("psi is negative at the requested point")
    return psi, np.sqrt(psi)


def q_on_barrier(spec: BarrierSpec, x) -> np.ndarray:
    """Qv at chart points x from the closed-form derivatives of v.

    Assembles v_a = psi_a / 2v and v_ab = -psi_a psi_b / 4v^3 + psi_ab / 2v
    in the frame, transports the chart metric and Christoffels into the
    frame, and contracts with the graph metric inverse.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = x[None] if scalar else x
    y = _frame_coords(spec, pts)
    psi, pg, ph = _psi_terms(spec, y)
    if np.any(psi <= 0):
        raise BarrierError("psi is not positive at a requested point")
    v = np.sqrt(psi)
    if np.any(v < MIN_BARRIER_V):
        raise BarrierError("evaluation point is too close to the base point")
    vi = pg / (2.0 * v[..., None])
    vij = (-pg[..., :, None] * pg[..., None, :] / (4.0 * psi[..., None, None] * v[..., None, None])
           + ph / (2.0 * v[..., None, None]))

    _, inv, _ = metric_at(spec.chart, pts)
    gam = christoffel_at(spec.chart, pts)
    E = spec.frame
    Einv = np.linalg.inv(E)
    inv_t = np.einsum("ai,...ij,bj->...ab", Einv, inv, Einv)
    gam_t = np.einsum("ck,...kij,ia,jb->...cab", Einv, gam, E, E)

    vi_up = np.einsum("...ab,...b->...a", inv_t, vi)
    w2 = 1.0 + np.einsum("...a,...a->...", vi, vi_up)
    g = inv_t - vi_up[..., :, None] * vi_up[..., None, :] / w2[..., None, None]
    qv = (np.einsum("...ab,...ab->...", g, vij)
          - np.einsum("...ab,...cab,...c->...", g, gam_t, vi))
    return qv[0] if scalar else qv


def _fit_with_trace(domain: GridDomain, x0: np.ndarray):
    """Boundary fit plus the frame Christoffel trace entering the margin."""
    frame, H, L_fit = fit_boundary_graph(domain, x0)
    n = domain.chart.dim
    gam0 = christoffel_at(domain.chart, x0)
    Einv = np.linalg.inv(frame)
    gam0_t = np.einsum("ck,kij,ia,jb->cab", Einv, gam0, frame, frame)
    trace_term = float(np.trace(H)) + float(np.sum(
        [gam0_t[n - 1, a, a] for a in range(n - 1)]))
    return frame, H, L_fit, trace_term


def _assemble_spec(domain: GridDomain, x0: np.ndarray, K: float, gamma: float,
                   alpha: float, radius: float, L: float | None,
                   fit) -> BarrierSpec:
    frame, H, L_fit, trace_term = fit
    if L is None:
        L_eff = L_fit
    else:
        if L < L_fit - 1e-9:
            raise BarrierError(
                f"boundary curvature {L_fit:.6g} exceeds the assumed bound {L}")
        L_eff = float(L)
    n = domain.chart.dim
    margin = 1.0 + K ** 2 * (1 - n) + alpha * trace_term
    return BarrierSpec(x0=x0, K=float(K), gamma=float(gamma), alpha=float(alpha),
                       L=L_eff, radius=float(radius), w_fit=H, frame=frame,
                       trace_term=trace_term, limit_margin=margin,
                       chart=domain.chart)


def make_barrier_spec(domain: GridDomain, x0, K: float, gamma: float,
                      alpha: float, radius: float,
                      L: float | None = None) -> BarrierSpec:
    """Fit the boundary at x0 and assemble a BarrierSpec with given knobs."""
    x0 = np.asarray(x0, dtype=float)
    _validate_kg(domain.chart.dim, K, gamma)
    fit = _fit_with_trace(domain, x0)
    return _assemble_spec(domain, x0, K, gamma, alpha, radius, L, fit)


def _validate_kg(n: int, K: float, gamma: float) -> None:
    if K <= 0:
        raise BarrierError(f"K must be positive, got {K}")
    if gamma <= 1:
        raise BarrierError(f"gamma must exceed 1, got {gamma}")
    if n < 2:
        raise BarrierError("barriers need dimension >= 2")


def q_on_barrier_fd(spec: BarrierSpec, x, step: float | None = None) -> float:
    """Qv by centered finite differences of v in chart coordinates.

    Independent of the analytic derivative formulas and of the frame
    transport: v is differenced as a black box and contracted with the
    chart-coordinate metric and Christoffels.
    """
    x = np.asarray(x, dtype=float)
    chart = spec.chart
    n = chart.dim
    if step is None:
        _, v0 = psi_eval(spec, x)
        step = 1e-4 * max(float(v0), 1e-2)

    def v_at(p):
        _, v = psi_eval(spec, p)
        return float(v)

    grad = np.zeros(n)
    hess = np.zeros((n, n))
    vc = v_at(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        vp, vm = v_at(x + ei), v_at(x - ei)
        grad[i] = (vp - vm) / (2 * step)
        hess[i, i] = (vp - 2 * vc + vm) / step ** 2
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = step
            ej[j] = step
            cross = (v_at(x + ei + ej) - v_at(x + ei - ej)
                     - v_at(x - ei + ej) + v_at(x - ei - ej)) / (4 * step ** 2)
            hess[i, j] = hess[j, i] = cross
    _, inv, _ = metric_at(chart, x)
    gam = christoffel_at(chart, x)
    grad_up = inv @ grad
    w2 = 1.0 + float(grad @ grad_up)
    g = inv - np.outer(grad_up, grad_up) / w2
    cov_hess = hess - np.einsum("kij,k->ij", gam, grad)
    return float(np.sum(g * cov_hess))


def search_alpha(domain: GridDomain, x0, K: float, gamma: float,
                 L: float | None = None) -> BarrierSearchResult:
    """Largest-radius, then largest-alpha certificate search at x0.

    Radii descend geometrically from the fit window, alpha descends from 1
    by halving down to ALPHA_FLOOR; a pair is accepted when Qv stays below
    QV_MARGIN at every interior lattice node of the neighborhood and the
    point-limit margin is positive.  Everything is deterministic.
    """
    x0 = np.asarray(x0, dtype=float)
    n = domain.chart.dim
    _validate_kg(n, K, gamma)
    bound = 1.0 / np.sqrt((n - 1) * gamma)
    if K >= bound:
        return BarrierSearchResult(
            x0=x0, admissible=False, certified=False,
            reason=f"K={K} is not below 1/sqrt((n-1)*gamma)={bound:.6g}")

    try:
        fit = _fit_with_trace(domain, x0)
    except BarrierError as err:
        return BarrierSearchResult(x0=x0, admissible=True, certified=False,
                                   reason=str(err))

    interior_pts = domain.points[domain.interior]
    dist = np.linalg.norm(interior_pts - x0, axis=1)
    r_max = FIT_WINDOW_CELLS * float(np.max(domain.h))
    radii = [r_max * 2.0 ** (-j) for j in range(6)]
    alphas = [2.0 ** (-m) for m in range(21) if 2.0 ** (-m) >= ALPHA_FLOOR]

    last_reason = "no admissible (radius, alpha) pair found"
    for radius in radii:
        sel = dist <= radius
        if not np.any(sel):
            last_reason = (f"no interior lattice nodes within radius "
                           f"{radius:.3e} of the boundary point")
            continue
        pts = interior_pts[sel]
        for alpha in alphas:
            try:
                spec = _assemble_spec(domain, x0, K, gamma, alpha, radius, L, fit)
            except BarrierError as err:
                return BarrierSearchResult(x0=x0, admissible=True,
                                           certified=False, reason=str(err))
            if spec.limit_margin <= 0:
                continue
            try:
                qv = q_on_barrier(spec, pts)
            except BarrierError:
                continue
            worst = float(np.max(qv))
            if worst < QV_MARGIN:
                return BarrierSearchResult(
                    x0=x0, admissible=True, certified=True,
                    reason="certified", spec=spec, qv_max=worst,
                    samples=int(pts.shape[0]))
    return BarrierSearchResult(x0=x0, admissible=True, certified=False,
                               reason=last_reason)


@dataclass(frozen=True)
class SolvabilityReport:
    """Aggregate certificate for the Dirichlet data on a domain."""

    lipschitz_constant: float
    lipschitz_ok: bool
    oscillation: float
    eps_threshold: float
    points: list
    certified: bool

    def json_dict(self) -> dict:
        return {
            "lipschitz_constant": float(self.lipschitz_constant),
            "lipschitz_ok": bool(self.lipschitz_ok),
            "oscillation": float(self.oscillation),
            "eps_threshold": float(self.eps_threshold),
            "certified": bool(self.certified),
            "points": [p.json_dict() for p in self.points],
        }


def boundary_lipschitz(phi, domain: GridDomain) -> float:
    """Worst difference quotient of phi over adjacent dirichlet node pairs.

    Distances use the chart metric at segment midpoints, a first-order
    geodesic approximation consistent with the staircase boundary.
    """
    vals, n, worst = as_field(domain, phi).values, domain.dim, 0.0
    # the offsets after zero in product order pair each node with the
    # lexicographically larger neighbours, so every pair is seen once
    for off in list(product((-1, 0, 1), repeat=n))[3 ** n // 2 + 1:]:
        lo = tuple(slice(max(-o, 0), s - max(o, 0)) for o, s in zip(off, domain.shape))
        hi = tuple(slice(max(o, 0), s + min(o, 0)) for o, s in zip(off, domain.shape))
        pair = domain.dirichlet[lo] & domain.dirichlet[hi]
        a, b = domain.points[lo][pair], domain.points[hi][pair]
        sig, _, _ = metric_at(domain.chart, 0.5 * (a + b))
        d = np.sqrt(np.einsum("kj,kj->k", np.einsum("ki,kij->kj", b - a, sig), b - a))
        quotient = np.abs(vals[hi][pair] - vals[lo][pair]) / d
        worst = max(worst, float(np.max(quotient, initial=0.0)))
    return worst


def check_dirichlet_solvability(phi, domain: GridDomain, K: float,
                                gamma: float) -> SolvabilityReport:
    """Certified/uncertified verdict for the Dirichlet problem data.

    Checks (a) the discrete Lipschitz bound against K, (b) the data
    oscillation against the smallest certified barrier margin, and (c)
    existence of a barrier certificate at every boundary point.  Never
    raises; per-point failures become uncertified entries.
    """
    phi = as_field(domain, phi)
    vals = phi.values[domain.dirichlet_index]
    lip = boundary_lipschitz(phi, domain)
    lip_ok = lip <= K + 1e-12
    osc = float(np.max(vals) - np.min(vals)) if vals.size else 0.0

    inner, outer = domain.inner_index, domain.dirichlet_index
    points = []
    seen = set()
    crossings = segment_crossings(domain, domain.points[inner], domain.points[outer],
                                  domain.sdf[inner], domain.sdf[outer])
    for k, x0 in enumerate(crossings):
        if np.isnan(x0[0]):
            idx = tuple(ix[k] for ix in outer)
            points.append(BarrierSearchResult(
                x0=domain.points[idx], admissible=False, certified=False,
                reason=f"no boundary crossing between "
                       f"{tuple(ix[k] for ix in inner)} and {idx}"))
            continue
        key = tuple(np.round(x0 / 1e-9).astype(np.int64))
        if key in seen:
            continue
        seen.add(key)
        try:
            points.append(search_alpha(domain, x0, K, gamma))
        except BarrierError as err:
            points.append(BarrierSearchResult(
                x0=x0, admissible=True, certified=False, reason=str(err)))

    margins = [p.limit_margin for p in points if p.certified]
    all_points_ok = bool(points) and all(p.certified for p in points)
    eps_threshold = float(min(margins)) if all_points_ok else 0.0
    certified = lip_ok and all_points_ok and osc <= eps_threshold
    return SolvabilityReport(lipschitz_constant=float(lip), lipschitz_ok=lip_ok,
                             oscillation=osc, eps_threshold=eps_threshold,
                             points=points, certified=certified)
