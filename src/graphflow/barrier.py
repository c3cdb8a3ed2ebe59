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

fit_boundary_graph and search_alpha take all P boundary points at once, as
a (P, n) array, and return one result per point:

- gather: each point's fit samples are the rows of the domain's crossing
  table (GridDomain.boundary_facts, bisected once per domain) whose
  segments lie in its sup-norm window (axis flags read by end node), one
  row per boundary point; its own rows alone are sorted nearest first, and
  the nearest 4n form a (P, 4n, n) array;
- fit: the Cholesky factor, the SVD frame and the inward-normal probe are
  stacked calls, and the rotate-and-refit loop runs on the points that have
  not left it yet; a point leaves when its slope is below FLAT_SLOPE, when
  it loses rank or its tangent collapses, or when its slope, shrinking at
  the rate of its last refit, cannot get below FLAT_SLOPE in the refits
  left of MAX_REFITS; a failed fit becomes the point's reason string;
- rungs: the interior nodes within the fit window of each point are found
  once, among its lattice window (GridDomain.windows); the (radius,
  alpha) pairs are walked in a fixed order, and on each rung Qv (on
  euclidean charts with no Christoffel term and the frame's inverse metric
  formed once per point, on curved ones from the domain's interior caches
  of sigma^{ab} and Gamma) is evaluated at those within the radius of
  every point still open, as one batch of rows with an owner index,
  reduced per point; a point keeps the first rung that passes;
- rows-last: a rung's per-row arrays and the window offsets hold their
  components on the leading axes and the rows on the last, contiguous one,
  and every contraction sums its components left to right;
- blocks: the window gathers and the batches run in blocks of at most
  grid.BLOCK array entries (grid._blocks), so memory does not grow with the
  number of points.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import NamedTuple

import numpy as np

from .errors import BarrierError
from .grid import (GridDomain, _blocks, _norm, _pair_rows, _region_sdf, as_field, contract,
                   matvec)
from .manifold import christoffel_at, metric_at

MIN_BARRIER_V = 1e-12
QV_MARGIN = -1e-8          # certification demands Qv below this at every sample
ALPHA_FLOOR = 1e-6
FIT_WINDOW_CELLS = 8       # boundary sampling window, in units of max h
DEGENERATE_RESIDUAL = 0.05 # rms graph-fit residual / window above this is no graph
MAX_REFITS = 24            # rotate-and-refit cap of the boundary fit
FLAT_SLOPE = 1e-11         # a fitted linear term below this has converged


class BarrierSpec(NamedTuple):
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


class BarrierSearchResult(NamedTuple):
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


def _window_rows(domain: GridDomain, x0s: np.ndarray, window: float) -> np.ndarray:
    """(P, rows) mask of the crossing-table rows whose segment endpoints both
    lie within the sup-norm window of each point of x0s: each axis's lattice
    coordinates are compared with the points once, then read by end node."""
    (lo, hi, cross), _, key = domain.boundary_facts
    lo_ix, hi_ix = (np.unravel_index(end, domain.shape) for end in (lo, hi))
    near = np.ones((len(x0s), len(cross)), dtype=bool)
    for a, ax in enumerate(domain.axes):
        inside = np.abs(ax - x0s[:, a, None]) <= window + 1e-12
        near &= inside[:, lo_ix[a]] & inside[:, hi_ix[a]]
    # lattice nodes sitting exactly on the boundary are seen by every
    # incident segment; each point keeps the first of those rows
    p, r = np.nonzero(near)
    _, first = np.unique(p * len(cross) + key[r], return_index=True)
    keep = np.zeros_like(near)
    keep[p[first], r[first]] = True
    return keep


def _lstsq(A: np.ndarray, b: np.ndarray):
    """Stacked least squares A x = b by SVD, with the rank cut-off of
    numpy.linalg.lstsq's default: s > eps max(M, N) s_max."""
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    keep = s > np.finfo(float).eps * max(A.shape[-2:]) * s[:, :1]
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    coef = np.einsum("pji,pj->pi", vt, s_inv * np.einsum("pmj,pm->pj", u, b))
    return coef, np.sum(keep, axis=1)


def fit_boundary_graph(domain: GridDomain, x0s: np.ndarray):
    """Frame and quadratic graph of the boundary at every point of x0s (P, n).

    Each point's frame columns are sigma(x0)-orthonormal with the inner
    normal last; its w_fit is the Hessian of y_n = w(y') fitted with zero
    constant and linear part over the nearest 4n window samples (sorted
    among each point's own window rows only), and L is its spectral norm.
    Points with equal sample counts are fitted together.
    Returns frames (P, n, n), Hessians (P, n-1, n-1), L (P,), the margin's
    trace terms tr w'' + sum_a Gamma^n_aa (P,) and one reason per point,
    None where the fit holds.
    """
    n, P, cross = domain.dim, len(x0s), domain.boundary_facts[0][2]
    if n < 2:
        raise BarrierError("the boundary-graph construction needs dimension >= 2")
    frames, H, L, trace = np.zeros((P, n, n)), np.zeros((P, n - 1, n - 1)), np.zeros(P), np.zeros(P)
    reasons = np.full(P, None, dtype=object)
    idx, count = np.zeros((P, 4 * n), dtype=np.int64), np.zeros(P, dtype=np.int64)
    for blk in _blocks(P, len(cross) * n):
        keep = _window_rows(domain, x0s[blk], FIT_WINDOW_CELLS * float(np.max(domain.h)))
        count[blk] = np.sum(keep, axis=1)
        # each point's kept rows in ascending order, padded with distance inf
        rows = np.argsort(~keep, axis=1, kind="stable")[:, :np.max(count[blk], initial=0)]
        offsets = np.moveaxis(cross[rows] - x0s[blk, None], -1, 0)
        dist = np.where(np.take_along_axis(keep, rows, 1), _norm(offsets), np.inf)
        # nearest first; distances equal to 1e-12 go by the sample coordinates,
        # so sub-ulp moves of x0 cannot reorder symmetric lattice samples
        keys = list(np.moveaxis(cross[rows], -1, 0)[::-1])
        order = np.lexsort(keys + [np.round(dist / 1e-12)], axis=1)[:, :4 * n]
        idx[blk, :order.shape[1]] = np.take_along_axis(rows, order, 1)
    for p in np.flatnonzero(count < 2 * n):
        reasons[p] = (f"boundary near {x0s[p].tolist()} resolved by only "
                      f"{count[p]} points; need at least {2 * n}")
    used = np.where(count < 2 * n, 0, np.minimum(count, 4 * n))
    for m in sorted(set(used[used > 0].tolist())):
        grp = np.flatnonzero(used == m)
        frames[grp], H[grp], L[grp], trace[grp], reasons[grp] = _fit_group(
            domain, x0s[grp], cross[idx[grp, :m]])
    return frames, H, L, trace, reasons


def _fit_group(domain: GridDomain, x0s: np.ndarray, samples: np.ndarray):
    """fit_boundary_graph for G points with m samples each, samples (G, m, n)."""
    chart, n, G = domain.chart, domain.dim, len(x0s)
    why = [None] * G

    def fail(rows, what):
        for p, text in zip(rows, what):
            why[p] = f"degenerate boundary fit at {x0s[p].tolist()}: {text}"

    centered = samples - x0s[:, None]
    window = np.max(_norm(np.moveaxis(centered, -1, 0)), axis=1)
    for p in np.flatnonzero(window <= 0):
        why[p] = f"boundary samples near {x0s[p].tolist()} collapse onto it"

    sig0 = metric_at(chart, x0s)
    chol = np.linalg.cholesky(sig0)
    _, _, vt = np.linalg.svd(centered @ chol, full_matrices=False)  # z = chol^T (s - x0)
    # columns, normal (least variance) last
    frame = np.linalg.solve(np.swapaxes(chol, 1, 2), np.swapaxes(vt, 1, 2))
    # orient the normal inward
    probe = x0s + 0.25 * float(np.min(domain.h)) * frame[:, :, -1]
    frame[_region_sdf(domain.region, probe, domain.chart.box) > 0, :, -1] *= -1

    pairs = list(combinations_with_replacement(range(n - 1), 2))

    def design(rows, linear):  # the fit design and the heights, in frame coordinates
        y = np.swapaxes(np.linalg.solve(frame[rows], np.swapaxes(centered[rows], 1, 2)), 1, 2)
        yp = y[..., :n - 1]
        quad = np.stack([yp[..., i] * yp[..., j] for i, j in pairs], axis=-1)
        return (np.concatenate([yp, quad], axis=-1) if linear else quad), y[..., n - 1]

    def dot(u, w, sig):
        return np.einsum("pi,pij,pj->p", u, sig, w)

    # rotate the frame until the fitted linear term vanishes: this is what
    # pins Dw(0) = 0, and an unrotated frame would bias the Hessian.  A point
    # leaves the loop when its slope is below FLAT_SLOPE, when it loses rank
    # or its tangent collapses, or when its slope, shrinking at the rate of
    # its last refit, cannot get below FLAT_SLOPE in the refits left
    k = n - 1 + len(pairs)
    active = np.array([w is None for w in why])
    last = np.full(G, np.inf)  # each point's slope size at its previous refit
    for left in range(MAX_REFITS - 1, -1, -1):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        coef, rank = _lstsq(*design(rows, True))
        fail(rows[rank < k], [f"rank {r} < {k}" for r in rank[rank < k]])
        slope = coef[:, :n - 1]
        size = np.max(np.abs(slope), axis=1)
        done = size < FLAT_SLOPE
        # a rate of 1 or more already fails; capping it there keeps r^left finite
        stuck = (rank == k) & ~done & (
            size * np.minimum(size / last[rows], 1.0) ** left >= FLAT_SLOPE)
        fail(rows[stuck], ["no stable tangent plane"] * len(rows))
        last[rows] = size
        active[rows[(rank < k) | done | stuck]] = False
        turn = (rank == k) & ~done & ~stuck
        rows, slope = rows[turn], slope[turn]
        sig = sig0[rows]
        nu = np.einsum("pij,pj->pi", frame[rows],
                       np.concatenate([-slope, np.ones((len(rows), 1))], axis=1))
        cols = [nu / np.sqrt(dot(nu, nu, sig))[:, None]]
        ok = np.ones(len(rows), dtype=bool)
        for a in range(n - 1):
            t = frame[rows, :, a]
            for c in cols:
                t = t - dot(t, c, sig)[:, None] * c
            norm = np.sqrt(dot(t, t, sig))
            ok &= norm >= 1e-12
            cols.append(t / np.maximum(norm, 1e-12)[:, None])
        fail(rows[~ok], ["tangent collapse"] * len(rows))
        active[rows[~ok]] = False
        frame[rows[ok]] = np.stack(cols[1:] + cols[:1], axis=-1)[ok]

    rows = np.flatnonzero([w is None for w in why])
    for a in range(n - 1):  # the first entry of largest size (to 1e-12) is positive
        size = np.abs(frame[rows, :, a])
        lead = np.argmax(size >= np.max(size, axis=1, keepdims=True) - 1e-12, axis=1)
        frame[rows[frame[rows, lead, a] < 0], :, a] *= -1
    quad, yn = design(rows, False)
    coef, rank = _lstsq(quad, yn)
    H = np.zeros((G, n - 1, n - 1))
    for (i, j), c in zip(pairs, coef.T):
        H[rows, i, j] = H[rows, j, i] = 2.0 * c if i == j else c
    rms = np.sqrt(np.mean((np.einsum("pmk,pk->pm", quad, coef) - yn) ** 2, axis=1))
    bad = rank < len(pairs)
    fail(rows[bad], [f"rank {r} < {len(pairs)}" for r in rank[bad]])
    far = ~bad & (rms > DEGENERATE_RESIDUAL * window[rows])
    fail(rows[far], [f"residual {r:.3e} exceeds {DEGENERATE_RESIDUAL:.0e} of the "
                     f"window {w:.3e}" for r, w in zip(rms[far], window[rows][far])])

    rows = rows[~bad & ~far]
    L, trace = np.zeros(G), np.zeros(G)
    L[rows] = np.linalg.norm(H[rows], 2, axis=(1, 2))
    trace[rows] = np.trace(H[rows], axis1=1, axis2=2)
    if not chart.is_euclidean:  # sum_a Gamma^n_aa in the frame; zero on euclidean charts
        Einv = np.linalg.inv(frame[rows])
        gam0_t = np.einsum("pck,pkij,pia,pjb->pcab", Einv, christoffel_at(chart, x0s[rows]),
                           frame[rows], frame[rows])
        trace[rows] += np.einsum("paa->p", gam0_t[:, n - 1, :n - 1, :n - 1])
    return frame, H, L, trace, why


def _congruence(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """a s a^T of rows-last (n, n, rows) arrays, as (a s) a^T with matvec's sums."""
    return matvec(matvec(a[:, :, None], s)[:, :, None], np.swapaxes(a, 0, 1))


def _qv(y, K, alpha, w_fit, frame, Einv, inv_t, gam):
    """Qv, psi and v at frame coordinates y (n, rows), rows-last like every
    argument: w_fit (n-1, n-1, rows); frame, its inverse Einv and the
    frame's inverse metric inv_t = E^-1 sigma^-1 E^-T (n, n, rows); the
    chart's Christoffels Gamma^k_ij gam (n, n, n, rows) (None: Gamma
    vanishes); K and alpha are scalars.

    Assembles v_a = psi_a / 2v and v_ab = -psi_a psi_b / 4v^3 + psi_ab / 2v
    in the frame and contracts with the graph metric inverse, each sum over
    components left to right; rows with psi <= 0 give meaningless values
    and no warning.
    """
    n, K2 = len(y), K ** 2
    dw = matvec(w_fit, y[:n - 1])  # D w, w_fit being symmetric
    psi = K2 * contract(y, y) + 2.0 * alpha * (y[n - 1] - 0.5 * contract(dw, y[:n - 1]))
    pg = 2.0 * K2 * y
    pg[:n - 1] -= 2.0 * alpha * dw
    pg[n - 1] += 2.0 * alpha
    ph = np.broadcast_to(2.0 * K2 * np.eye(n)[..., None], (n, n, y.shape[1])).copy()
    ph[:n - 1, :n - 1] -= 2.0 * alpha * w_fit
    with np.errstate(invalid="ignore", divide="ignore"):
        v = np.sqrt(psi)
        vi = pg / (2.0 * v)
        vij = -pg[:, None] * pg / (4.0 * psi * v) + ph / (2.0 * v)
        vi_up = matvec(inv_t, vi)
        g = inv_t - vi_up[:, None] * vi_up / (1.0 + contract(vi, vi_up))
        # double sums go one axis at a time: numpy sums eight or more
        # contiguous entries pairwise, so a one-row block would reorder them
        qv = contract(g, vij).sum(axis=0)
        if gam is not None:  # g^{ab} Gamma^c_ab v_c, in chart coordinates
            G, dv = _congruence(frame, g), matvec(np.swapaxes(Einv, 0, 1), vi)
            qv -= contract((gam * G).sum(axis=2).sum(axis=1), dv)
    return qv, psi, v


def q_on_barrier(spec: BarrierSpec, x) -> np.ndarray:
    """Qv at chart points x from the closed-form derivatives of v."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    R = len(pts)
    E, F, H = (np.broadcast_to(a[..., None], a.shape + (R,))
               for a in (np.linalg.inv(spec.frame), spec.frame, spec.w_fit))
    qv, psi, v = _qv(
        matvec(E, (pts - spec.x0).T), spec.K, spec.alpha, H, F, E,
        _congruence(E, np.moveaxis(np.linalg.inv(metric_at(spec.chart, pts)), 0, -1)),
        np.moveaxis(christoffel_at(spec.chart, pts), 0, -1))
    if np.any(psi <= 0):
        raise BarrierError("psi is not positive at a requested point")
    if np.any(v < MIN_BARRIER_V):
        raise BarrierError("evaluation point is too close to the base point")
    return qv[0] if x.ndim == 1 else qv


def _near_nodes(domain: GridDomain, x0s: np.ndarray, open_: np.ndarray,
                radius: float):
    """(owner, node, dist): every (point, interior node) pair within radius
    of an open point of x0s, by point, then node, read off its window."""
    interior = domain.interior.reshape(-1)
    found = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
    for blk, nodes, offsets in domain.windows(x0s, radius):
        dist = _norm(offsets).reshape(nodes.shape)
        p, k = np.nonzero((dist <= radius) & interior[nodes] & open_[blk, None])
        found.append((p + blk.start, np.searchsorted(domain.interior_flat, nodes[p, k]),
                      dist[p, k]))
    return tuple(np.concatenate(col) for col in zip(*found))


def search_alpha(domain: GridDomain, x0s: np.ndarray, K: float, gamma: float) -> list:
    """Largest-radius, then largest-alpha certificate search at every point
    of x0s (P, n); one BarrierSearchResult per point.

    Radii descend geometrically from the fit window, alpha descends from 1
    by halving down to ALPHA_FLOOR; a pair is accepted when Qv stays below
    QV_MARGIN at every interior lattice node of the neighborhood and the
    point-limit margin is positive.  Everything is deterministic.
    """
    chart, n, P = domain.chart, domain.chart.dim, len(x0s)
    for bad, what in ((K <= 0, f"K must be positive, got {K}"),
                      (gamma <= 1, f"gamma must exceed 1, got {gamma}"),
                      (n < 2, "barriers need dimension >= 2")):
        if bad:
            raise BarrierError(what)
    bound = 1.0 / np.sqrt((n - 1) * gamma)
    if K >= bound:
        return [BarrierSearchResult(
            x0=x0, admissible=False, certified=False,
            reason=f"K={K} is not below 1/sqrt((n-1)*gamma)={bound:.6g}") for x0 in x0s]
    out = [None] * P

    def stop(reasons):
        for p, reason in reasons.items():
            out[p] = BarrierSearchResult(x0=x0s[p], admissible=True,
                                         certified=False, reason=reason)

    frames, H, L, trace, reasons = fit_boundary_graph(domain, x0s)
    stop({p: r for p, r in enumerate(reasons) if r is not None})
    r_max = FIT_WINDOW_CELLS * float(np.max(domain.h))
    open_ = np.array([r is None for r in out])
    owner, node, dist = _near_nodes(domain, x0s, open_, r_max)
    last = ["no admissible (radius, alpha) pair found"] * P
    # rows-last stores; a point with too few samples has no frame to invert
    Einv = np.zeros_like(frames)
    Einv[open_] = np.linalg.inv(frames[open_])
    E_p, F_p, H_p, x0_p = (np.moveaxis(a, 0, -1) for a in (Einv, frames, H, x0s))
    ipts = np.moveaxis(domain.points[domain.interior], 0, -1)
    if chart.is_euclidean:  # sigma^-1 is one matrix: the frame's inverse metric per point
        inv_p = _congruence(E_p, np.moveaxis(np.linalg.inv(metric_at(chart, x0s)), 0, -1))
    else:  # sigma^{ab} and Gamma^k_ab at the interior nodes, from the domain's caches
        sig_n = domain.interior_sig_inv
        gam_n = np.take(domain.interior_gamma, _pair_rows(n)[1], axis=1)

    alphas = [2.0 ** (-m) for m in range(21) if 2.0 ** (-m) >= ALPHA_FLOOR]
    for radius in [r_max * 2.0 ** (-j) for j in range(6)]:
        if not open_.any():
            break
        inside = dist <= radius
        samples = np.bincount(owner[inside], minlength=P)
        for p in np.flatnonzero(open_ & (samples == 0)):
            last[p] = (f"no interior lattice nodes within radius "
                       f"{radius:.3e} of the boundary point")
        for alpha in alphas:
            if not open_.any():
                break
            margin = 1.0 + K ** 2 * (1 - n) + alpha * trace
            rows = np.flatnonzero(inside & (open_ & (margin > 0))[owner])
            if not rows.size:
                continue
            qv, bad = np.empty(len(rows)), np.empty(len(rows), dtype=bool)
            for blk in _blocks(len(rows), 4 * n ** 3):
                o, k = owner[rows[blk]], node[rows[blk]]
                E = E_p.take(o, axis=-1)  # take, not [..., o], keeps rows contiguous
                inv_t, gam = ((inv_p.take(o, axis=-1), None) if chart.is_euclidean else
                              (_congruence(E, sig_n.take(k, axis=-1)), gam_n.take(k, axis=-1)))
                y = matvec(E, ipts.take(k, axis=-1) - x0_p.take(o, axis=-1))
                qv[blk], psi, v = _qv(y, K, alpha, H_p.take(o, axis=-1),
                                      F_p.take(o, axis=-1), E, inv_t, gam)
                bad[blk] = ~(psi > 0) | (v < MIN_BARRIER_V)
            # rows run by owner: one segment per point evaluated on this rung
            starts = np.flatnonzero(np.diff(owner[rows], prepend=-1))
            worst = np.maximum.reduceat(qv, starts)
            won = ~np.logical_or.reduceat(bad, starts) & (worst < QV_MARGIN)
            won_p = owner[rows[starts[won]]]
            for p, q, l_p, tr, mg, ns in zip(*(a.tolist() for a in (
                    won_p, worst[won], L[won_p], trace[won_p], margin[won_p], samples[won_p]))):
                spec = BarrierSpec(
                    x0=x0s[p], K=float(K), gamma=float(gamma), alpha=float(alpha),
                    L=l_p, radius=float(radius), w_fit=H[p], frame=frames[p],
                    trace_term=tr, limit_margin=mg, chart=chart)
                out[p] = BarrierSearchResult(
                    x0=x0s[p], admissible=True, certified=True, reason="certified",
                    spec=spec, qv_max=q, samples=ns)
            open_[won_p] = False
    stop({p: last[p] for p in np.flatnonzero(open_)})
    return out


class SolvabilityReport(NamedTuple):
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
        sig = metric_at(domain.chart, 0.5 * (a + b))
        d = np.sqrt(np.einsum("kj,kj->k", np.einsum("ki,kij->kj", b - a, sig), b - a))
        quotient = np.abs(vals[hi][pair] - vals[lo][pair]) / d
        worst = max(worst, float(np.max(quotient, initial=0.0)))
    return worst


def check_dirichlet_solvability(phi, domain: GridDomain, K: float,
                                gamma: float) -> SolvabilityReport:
    """Certified/uncertified verdict for the Dirichlet problem data.

    Checks (a) the discrete Lipschitz bound against K, (b) the data
    oscillation against the smallest certified barrier margin, and (c)
    existence of a barrier certificate at every boundary point: the
    dirichlet nodes' projections onto the boundary, one per point (to 1e-9),
    gathered, fitted and searched together (see the module docstring).
    Never raises; per-point failures become uncertified entries.
    """
    phi = as_field(domain, phi)
    vals = phi.values[domain.dirichlet_index]
    lip = boundary_lipschitz(phi, domain)
    lip_ok = lip <= K + 1e-12
    osc = float(np.max(vals) - np.min(vals)) if vals.size else 0.0

    inner, outer = domain.inner_index, domain.dirichlet_index
    crossings = domain.boundary_facts[1]
    missing = np.isnan(crossings[:, 0])
    hit = np.flatnonzero(~missing)
    _, first = np.unique(np.round(crossings[hit] / 1e-9).astype(np.int64), axis=0,
                         return_index=True)
    hit = hit[np.sort(first)]
    try:
        found = search_alpha(domain, crossings[hit], K, gamma) if hit.size else []
    except BarrierError as err:
        found = [BarrierSearchResult(x0=x0, admissible=True, certified=False,
                                     reason=str(err)) for x0 in crossings[hit]]
    points = dict(zip(hit.tolist(), found))
    for k in np.flatnonzero(missing).tolist():
        idx = tuple(int(ix[k]) for ix in outer)
        points[k] = BarrierSearchResult(
            x0=domain.points[idx], admissible=False, certified=False,
            reason=f"no boundary crossing between {tuple(int(ix[k]) for ix in inner)} "
                   f"and {idx}")
    points = [points[k] for k in sorted(points)]

    margins = [p.limit_margin for p in points if p.certified]
    all_points_ok = bool(points) and all(p.certified for p in points)
    eps_threshold = float(min(margins)) if all_points_ok else 0.0
    certified = lip_ok and all_points_ok and osc <= eps_threshold
    return SolvabilityReport(lipschitz_constant=float(lip), lipschitz_ok=lip_ok,
                             oscillation=osc, eps_threshold=eps_threshold,
                             points=points, certified=certified)
