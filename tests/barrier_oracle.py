"""Per-point reference for the batched barrier certification.

These are the one-point-at-a-time fit, search, solvability and attainment
routines the batched code in `graphflow.barrier` and
`graphflow.continuation` replaced, kept as the oracle the tests compare
against, together with the helpers only the tests use: `psi_eval`,
`q_on_barrier_fd` and `make_barrier_spec`.  `near_nodes_all_pairs`,
`attainment_all_pairs`, `window_rows_all_pairs` and
`fit_boundary_graph_all_pairs` are the batched gathers that measured every
point against every node or crossing-table row, before the gathers read
only each point's lattice window or kept rows; the windowed ones must match
them bit for bit.  `_qv` is the rung loop's rows-first kernel (rows on the
leading axis, contractions by einsum), the reference for the rows-last one.
The fit follows the batched one's tie rules: samples at equal distance (to
1e-12) are taken in coordinate order, and a tangent column's sign is set by
its first entry of largest size (to 1e-12).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from graphflow.barrier import (ALPHA_FLOOR, DEGENERATE_RESIDUAL,
                               FIT_WINDOW_CELLS, MIN_BARRIER_V, QV_MARGIN,
                               BarrierSearchResult, BarrierSpec,
                               SolvabilityReport, _fit_group, boundary_lipschitz)
from graphflow.continuation import AttainmentPoint, AttainmentReport
from graphflow.errors import BarrierError
from graphflow.grid import GridDomain, _blocks, _norm, _region_sdf, as_field
from graphflow.manifold import christoffel_at, metric_at


def boundary_crossings(domain: GridDomain, x0: np.ndarray,
                       window: float) -> np.ndarray:
    """Boundary points where lattice segments near x0 cross the region edge.

    Selects the rows of the domain's crossing table whose segment endpoints
    both lie within the sup-norm window of x0; the table root-finds the
    signed distance along each crossing segment once per domain.
    """
    lo, hi, cross = domain.boundary_facts[0]
    near = np.all(np.abs(domain.points - x0) <= window + 1e-12, axis=-1).reshape(-1)
    arr = cross[near[lo] & near[hi]]
    # lattice nodes sitting exactly on the boundary are seen by every
    # incident segment; keep one copy of each
    _, keep = np.unique(np.round(arr / 1e-12).astype(np.int64), axis=0,
                        return_index=True)
    return arr[np.sort(keep)]


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
    # distances equal to 1e-12 go by the sample coordinates
    dist = np.linalg.norm(samples - x0, axis=1)
    order = np.lexsort(tuple(samples.T[::-1]) + (np.round(dist / 1e-12),))
    samples = samples[order[:4 * n]]
    window = float(np.max(np.linalg.norm(samples - x0, axis=1)))
    if window <= 0:
        raise BarrierError(f"boundary samples near {x0.tolist()} collapse onto it")

    sig0 = metric_at(chart, x0)
    chol = np.linalg.cholesky(sig0)
    centered = samples - x0
    z = centered @ chol            # rows z_k = chol^T (s_k - x0)
    _, _, vt = np.linalg.svd(z, full_matrices=True)
    frame = np.linalg.solve(chol.T, vt.T)   # columns, normal (least variance) last

    # orient the normal inward
    probe = 0.25 * float(np.min(domain.h))
    probe_pt = (x0 + probe * frame[:, -1])[None]
    if float(_region_sdf(domain.region, probe_pt, domain.chart.box)[0]) > 0:
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

    for a in range(n - 1):  # the first entry of largest size (to 1e-12) is positive
        size = np.abs(frame[:, a])
        lead = np.argmax(size >= np.max(size) - 1e-12)
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
    n = len(spec.x0)
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

    inv = np.linalg.inv(metric_at(spec.chart, pts))
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


def _qv(y, K, alpha, w_fit, frame, Einv, inv_t, gam):
    """Qv, psi and v at frame coordinates y (rows, n); w_fit, frame, its
    inverse Einv, the frame's inverse metric inv_t = E^-1 sigma^-1 E^-T and
    the chart's Christoffels gam carry one row each (gam None: Gamma
    vanishes), K and alpha are scalars.

    Assembles v_a = psi_a / 2v and v_ab = -psi_a psi_b / 4v^3 + psi_ab / 2v
    in the frame and contracts with the graph metric inverse; rows with
    psi <= 0 give meaningless values and no warning.
    """
    n, K2 = y.shape[-1], K ** 2
    yp, yn = y[:, :n - 1], y[:, n - 1]
    w = 0.5 * np.einsum("ri,rij,rj->r", yp, w_fit, yp)
    psi = K2 * np.sum(y * y, axis=-1) + 2.0 * alpha * (yn - w)
    pg = 2.0 * K2 * y
    pg[:, :n - 1] -= 2.0 * alpha * np.einsum("ri,rij->rj", yp, w_fit)
    pg[:, n - 1] += 2.0 * alpha
    ph = np.broadcast_to(2.0 * K2 * np.eye(n), y.shape + (n,)).copy()
    ph[:, :n - 1, :n - 1] -= 2.0 * alpha * w_fit
    with np.errstate(invalid="ignore", divide="ignore"):
        v = np.sqrt(psi)
        vi = pg / (2.0 * v[:, None])
        vij = (-pg[:, :, None] * pg[:, None, :] / (4.0 * psi * v)[:, None, None]
               + ph / (2.0 * v[:, None, None]))
        vi_up = np.einsum("rab,rb->ra", inv_t, vi)
        w2 = 1.0 + np.einsum("ra,ra->r", vi, vi_up)
        g = inv_t - vi_up[:, :, None] * vi_up[:, None, :] / w2[:, None, None]
        qv = np.einsum("rab,rab->r", g, vij)
        if gam is not None:  # g^{ab} Gamma^c_ab v_c, the frame's Gamma = E^-1 Gamma(E., E.)
            qv -= np.einsum("rkij,rij,rk->r", gam, frame @ g @ np.swapaxes(frame, 1, 2),
                            np.einsum("rca,rc->ra", Einv, vi))
    return qv, psi, v


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
    inv = np.linalg.inv(metric_at(chart, x))
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
    crossings = domain.segment_crossings(domain.points[inner], domain.points[outer],
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


def boundary_attainment_report(u_bar: GridField, phi,
                               solvability) -> AttainmentReport:
    """Classify each certified boundary point as attained or detached.

    For every barrier verdict point: the trace gap is the worst
    |u_bar - phi| over inner neighbors of nearby dirichlet nodes, the
    modulus is the observed linear rate of u_bar's approach to phi(x0)
    within the fit window, and the classification is attained when the
    certified trace gap stays within a 10h band.
    """
    dom = u_bar.domain
    h_max = float(np.max(dom.h))
    pts = dom.points
    didx = dom.dirichlet_index
    bpts = pts[didx]
    bphi = as_field(dom, phi).values[didx]
    bgap = np.abs(u_bar.values[dom.inner_index] - bphi)
    interior_pts = pts[dom.interior]
    interior_vals = u_bar.values[dom.interior]

    out = []
    attained = detached = uncertified = 0
    for p in solvability.points:
        x0 = np.asarray(p.x0, dtype=float)
        dist = np.max(np.abs(bpts - x0), axis=1)
        close = np.flatnonzero(dist <= 1.5 * h_max)
        gap = float(np.max(bgap[close], initial=0.0))
        # phi(x0) from the dirichlet node at x0, else from the first close one
        on = close[dist[close] < 1e-12]
        pick = on if on.size else close
        phi0 = float(bphi[pick[0]]) if pick.size else 0.0
        d = np.linalg.norm(interior_pts - x0, axis=1)
        near = d <= 4.0 * h_max
        if near.any():
            modulus = float(np.max(np.abs(interior_vals[near] - phi0) / d[near]))
        else:
            modulus = float("nan")
        if not p.certified:
            label = "uncertified"
            uncertified += 1
        elif gap <= 10.0 * h_max:
            label = "attained"
            attained += 1
        else:
            label = "detached"
            detached += 1
        out.append(AttainmentPoint(
            x0=[float(c) for c in x0], certified=bool(p.certified),
            trace_gap=float(gap), modulus=modulus, classification=label))
    return AttainmentReport(points=out, attained=attained, detached=detached,
                            uncertified=uncertified)


def near_nodes_all_pairs(domain: GridDomain, x0s: np.ndarray, open_: np.ndarray,
                         radius: float):
    """(owner, node, dist): every (point, interior node) pair within radius
    of an open point of x0s, ordered by point, then by node; every interior
    node is measured."""
    ipts = domain.points[domain.interior]
    found = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
    for blk in _blocks(len(x0s), len(ipts) * domain.dim):
        dist = _norm(np.moveaxis(ipts - x0s[blk, None], -1, 0))
        p, i = np.nonzero((dist <= radius) & open_[blk, None])
        found.append((p + blk.start, i, dist[p, i]))
    return tuple(np.concatenate(col) for col in zip(*found))


def window_rows_all_pairs(domain: GridDomain, x0s: np.ndarray, window: float) -> np.ndarray:
    """(P, rows) mask of the crossing-table rows whose segment endpoints both
    lie within the sup-norm window of each point, one row per boundary point;
    every row's end nodes are measured against every point."""
    lo, hi, cross = domain.boundary_facts[0]
    pts = domain.points.reshape(-1, domain.dim)
    near = np.all(np.abs(pts[lo] - x0s[:, None]) <= window + 1e-12, axis=-1)
    near &= np.all(np.abs(pts[hi] - x0s[:, None]) <= window + 1e-12, axis=-1)
    _, key = np.unique(np.round(cross / 1e-12).astype(np.int64), axis=0,
                       return_inverse=True)
    p, r = np.nonzero(near)
    _, first = np.unique(p * len(cross) + key.reshape(-1)[r], return_index=True)
    keep = np.zeros_like(near)
    keep[p[first], r[first]] = True
    return keep


def fit_boundary_graph_all_pairs(domain: GridDomain, x0s: np.ndarray):
    """graphflow.barrier.fit_boundary_graph with each point's samples ordered
    among all crossing-table rows: (P, rows) distances, inf off the window,
    and one (P, rows) lexsort."""
    n, P, cross = domain.dim, len(x0s), domain.boundary_facts[0][2]
    frames, H, L, trace = np.zeros((P, n, n)), np.zeros((P, n - 1, n - 1)), np.zeros(P), np.zeros(P)
    reasons = np.full(P, None, dtype=object)
    idx, count = np.zeros((P, 4 * n), dtype=np.int64), np.zeros(P, dtype=np.int64)
    for blk in _blocks(P, len(cross) * n):
        keep = window_rows_all_pairs(domain, x0s[blk],
                                     FIT_WINDOW_CELLS * float(np.max(domain.h)))
        dist = np.where(keep, _norm(np.moveaxis(cross - x0s[blk, None], -1, 0)), np.inf)
        keys = [np.broadcast_to(c, dist.shape) for c in cross.T[::-1]]
        order = np.lexsort(keys + [np.round(dist / 1e-12)], axis=1)[:, :4 * n]
        idx[blk, :order.shape[1]], count[blk] = order, np.sum(keep, axis=1)
    for p in np.flatnonzero(count < 2 * n):
        reasons[p] = (f"boundary near {x0s[p].tolist()} resolved by only "
                      f"{count[p]} points; need at least {2 * n}")
    used = np.where(count < 2 * n, 0, np.minimum(count, 4 * n))
    for m in sorted(set(used[used > 0].tolist())):
        grp = np.flatnonzero(used == m)
        frames[grp], H[grp], L[grp], trace[grp], reasons[grp] = _fit_group(
            domain, x0s[grp], cross[idx[grp, :m]])
    return frames, H, L, trace, reasons


def attainment_all_pairs(u_bar: GridField, phi, solvability) -> AttainmentReport:
    """boundary_attainment_report with every point measured against every
    dirichlet and every interior node, in blocks of points."""
    dom = u_bar.domain
    h_max = float(np.max(dom.h))
    bpts, bphi = dom.points[dom.dirichlet_index], as_field(dom, phi).values[dom.dirichlet_index]
    bgap = np.abs(u_bar.values[dom.inner_index] - bphi)
    interior_pts, interior_vals = dom.points[dom.interior], u_bar.values[dom.interior]
    x0s = np.array([p.x0 for p in solvability.points], dtype=float).reshape(-1, dom.dim)
    gap, modulus = np.zeros(len(x0s)), np.zeros(len(x0s))
    for blk in _blocks(len(x0s), (len(bpts) + len(interior_pts)) * dom.dim):
        x0 = x0s[blk, None]
        dist = np.max(np.abs(bpts - x0), axis=-1)
        close = dist <= 1.5 * h_max
        gap[blk] = np.max(np.where(close, bgap, 0.0), axis=1, initial=0.0)
        on = dist < 1e-12
        pick = np.where(on.any(axis=1), on.argmax(axis=1), close.argmax(axis=1))
        phi0 = np.where(close.any(axis=1), bphi[pick], 0.0)
        d = _norm(np.moveaxis(interior_pts - x0, -1, 0))
        near = d <= 4.0 * h_max
        rate = np.abs(interior_vals - phi0[:, None]) / np.where(near, d, 1.0)
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
