"""Frozen reference for the explicit flow step and the energy quadrature.

These are the node sweeps, the operator sum, the step, the epsilon energy,
the total variation, the area derivative and the product-lattice total
variation written over whole lattice blocks: the node sweeps return one
array per component over the inner block values[1:-1, ..., 1:-1], the cell
stencils one array per axis over every lattice cell.  Every slice tuple is
rebuilt per call, every sum starts from the int 0 and the quadrature
gathers complete cells with a boolean mask.  The block helpers (sigma^{ij}
and Gamma^k_ij on the inner block, the interior nodes' block indices,
sigma^{ij} at every cell center) are built here from the domain's node
data, so the package code is free to lay its arrays out differently.  It
must evaluate the same floating-point expressions in the same order, so
tests compare the two with np.array_equal and exact history equality.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from graphflow.errors import FlowDiverged, FunctionalError
from graphflow.flow import DiagnosticSample, _check_estimates, compatibility_ramp
from graphflow.grid import GridField

INNER = slice(1, -1)  # the inner block of an axis: every node off the lattice rim


def _components(arr, depth):
    """Nested tuples of contiguous arrays, one per entry of arr's trailing
    depth axes: _components(g, 3)[k][i][j] is g[..., k, i, j]."""
    if depth == 0:
        return np.ascontiguousarray(arr)
    return tuple(_components(part, depth - 1) for part in np.moveaxis(arr, -depth, 0))


@lru_cache(maxsize=16)
def block_sig_inv(domain):
    """sigma^{ij} on the inner block, [i][j] one contiguous array each."""
    return _components(domain.chart.inverse(domain.points[(INNER,) * domain.dim]), 2)


@lru_cache(maxsize=16)
def block_gamma(domain):
    """Gamma^k_ij on the inner block, [k][i][j] one contiguous array each."""
    return _components(domain.chart.christoffel(domain.points)[(INNER,) * domain.dim], 3)


@lru_cache(maxsize=16)
def block_interior(domain):
    """Flat indices of the interior nodes within the inner block, in
    interior_index order."""
    return np.flatnonzero(domain.interior[(INNER,) * domain.dim])


@lru_cache(maxsize=16)
def cell_sig_inv(domain):
    """sigma^{ij} at every cell center, [i][j] one contiguous array each."""
    return _components(domain.chart.inverse(domain.cell_centers), 2)


def _shifted(values, steps):
    sl = [INNER] * values.ndim
    for axis, step in steps.items():
        sl[axis] = slice(2, None) if step > 0 else slice(0, -2)
    return values[tuple(sl)]


def matvec(m, v):
    if m is None:
        return v
    n = len(v)
    return [sum(m[i][j] * v[j] for j in range(n)) for i in range(n)]


def contract(a, b):
    return sum(x * y for x, y in zip(a, b))


def gradient_sweep(domain, values):
    n = domain.dim
    lowered = [(_shifted(values, {a: 1}) - _shifted(values, {a: -1})) / (2.0 * domain.h[a])
               for a in range(n)]
    raised = matvec(None if domain.chart.is_euclidean else block_sig_inv(domain), lowered)
    return lowered, raised, contract(lowered, raised)


def hessian_sweep(domain, values, lowered):
    n = domain.dim
    h = domain.h
    centre = values[(INNER,) * n]
    hess = [[None] * n for _ in range(n)]
    for a in range(n):
        hess[a][a] = (_shifted(values, {a: 1}) - 2.0 * centre
                      + _shifted(values, {a: -1})) / h[a] ** 2
        for b in range(a + 1, n):
            hess[a][b] = hess[b][a] = (
                _shifted(values, {a: 1, b: 1}) - _shifted(values, {a: 1, b: -1})
                - _shifted(values, {a: -1, b: 1}) + _shifted(values, {a: -1, b: -1})) \
                / (4.0 * h[a] * h[b])
    if not domain.chart.is_euclidean:
        gamma = block_gamma(domain)
        for a in range(n):
            for b in range(a, n):
                corr = sum(gamma[k][a][b] * lowered[k] for k in range(n))
                hess[a][b] = hess[b][a] = hess[a][b] - corr
    return hess


def operator_arrays(domain, values):
    n = domain.dim
    lowered, raised, gradsq = gradient_sweep(domain, values)
    hess = hessian_sweep(domain, values, lowered)
    w2 = 1.0 + gradsq
    if domain.chart.is_euclidean:
        lap = sum(hess[a][a] for a in range(n))
    else:
        sig = block_sig_inv(domain)
        lap = sum(sig[a][b] * hess[a][b] for a in range(n) for b in range(n))
    quu = contract(raised, matvec(hess, raised))
    return lap - quu / w2, lap, np.sqrt(w2)


def cell_gradient(domain, values):
    n = domain.dim
    corners = [(corner, values[tuple(slice(c, s - 1 + c)
                                     for c, s in zip(corner, domain.shape))])
               for corner in product((0, 1), repeat=n)]
    grad = []
    for a in range(n):
        acc = -corners[0][1]
        for corner, v in corners[1:]:
            if corner[a]:
                acc += v
            else:
                acc -= v
        acc /= (2 ** (n - 1)) * domain.h[a]
        grad.append(acc)
    return grad


def e_eps(u, eps):
    if eps < 0:
        raise FunctionalError(f"epsilon must be nonnegative, got {eps}")
    dom = u.domain
    grad = cell_gradient(dom, u.values)
    sig = None if dom.chart.is_euclidean else cell_sig_inv(dom)
    gradsq = contract(grad, matvec(sig, grad))
    w = np.sqrt(1.0 + gradsq)
    integrand = w + 0.5 * eps * gradsq
    cells = dom.cell_complete
    sdet = dom.chart.sqrt_det(dom.cell_centers)
    return float(np.sum(integrand[cells] * sdet[cells]) * dom.cell_volume)


def _cell_sum(dom, density):
    sdet = dom.chart.sqrt_det(dom.cell_centers)
    return float((density.take(dom.cell_flat) * sdet.take(dom.cell_flat)).sum()
                 * dom.cell_volume)


def total_variation(u):
    dom = u.domain
    grad = cell_gradient(dom, u.values)
    sig = None if dom.chart.is_euclidean else cell_sig_inv(dom)
    gradsq = contract(grad, matvec(sig, grad))
    return _cell_sum(dom, np.sqrt(gradsq))


def product_cell_tv(pg, chi):
    base = pg.base
    n = base.dim
    grad = cell_gradient(pg, chi)
    cells_shape = grad[0].shape
    sig = None if base.chart.is_euclidean else cell_sig_inv(base)
    if sig is not None:
        sig = [[s[..., None] for s in row] for row in sig]
    gs = grad[:n]
    norm2 = contract(gs, matvec(sig, gs)) + grad[n] ** 2
    sdet = np.broadcast_to(base.chart.sqrt_det(base.cell_centers)[..., None], cells_shape)
    complete = np.broadcast_to(base.cell_complete[..., None], cells_shape)
    vol = float(np.prod(pg.h))
    return float(np.sum(np.sqrt(norm2[complete]) * sdet[complete]) * vol)


def stable_dt(domain, params, w):
    h_min = float(np.min(domain.h))
    coeff = domain.interior_lambda_max * (1.0 + params.eps * w)
    return params.cfl * min(1.0, 2.0 / domain.dim) * h_min ** 2 / float(coeff.max())


def flow_step(state, params):
    dom = state.u.domain
    vals = state.u.values
    interior, block = dom.interior_flat, block_interior(dom)
    with np.errstate(over="ignore", invalid="ignore"):
        q, lap, w = operator_arrays(dom, vals)
        w = w.take(block)
        rhs = q.take(block)
        if params.eps != 0.0:
            rhs = rhs + params.eps * w * lap.take(block)
        dt = stable_dt(dom, params, w)
        old = vals.take(interior)
        new = old + dt * rhs
        t_new = state.t + dt

        bc = state.phi_dirichlet
        ramp = compatibility_ramp(t_new, params.delta)
        if ramp != 0.0:
            bc = bc + ramp * state.ramp_base
        new_vals = vals.copy()
        new_vals.put(interior, new)
        new_vals[dom.dirichlet_index] = bc

        if not (np.isfinite(new).all() and np.isfinite(bc).all()):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(new_vals) & dom.used)[0])
            raise FlowDiverged(f"non-finite value at node {bad} on step "
                               f"{state.step + 1}", step=state.step + 1, node=bad)

        ut = (new - old) / dt
        sup_ut = float(np.abs(ut).max())
        sup_u = max(float(np.abs(new).max()), float(np.abs(bc).max()))
        diss_density = ut * ut / w * dom.sqrt_det.take(interior)
        state.dissipation_cum += float(diss_density.sum() * dom.cell_volume) * dt

    state.u = GridField.trusted(dom, new_vals)
    state.t = t_new
    state.step += 1
    energy = e_eps(state.u, params.eps)
    sample = DiagnosticSample(step=state.step, t=state.t, sup_u=sup_u, sup_ut=sup_ut,
                              energy_eps=energy, dissipation_cum=state.dissipation_cum)
    state.history.append(sample)

    if params.assert_estimates:
        _check_estimates(state, sample)
    return state
