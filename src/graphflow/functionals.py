"""Geometric functionals of graphs and BV-style set functionals.

Integrals over the domain use midpoint quadrature on complete lattice
cells: the integrand is assembled at each cell center from the 2^n corner
values (compact gradient, corner averages), weighted by sqrt(det sigma) at
the center and the cell volume h^n.  This keeps the stated closed-form
values of flat test fields exact and never reads exterior data.

The area of the graph of u over Omega is

    A(u) = integral_Omega sqrt(1 + |Du|^2_sigma) dV,

the penalized functional adds the boundary mismatch integral_dOmega |u - phi|,
and the epsilon energy adds (eps/2) |Du|^2 (plus an optional linear source).

Set functionals live on node indicators: a face-counting perimeter
weighted by the metric facet measure, subgraph perimeters evaluated as the
product-metric total variation of a vertically mollified indicator, and
vertical rearrangement of a product-lattice set back to a graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FunctionalError
from .grid import (GridDomain, GridField, as_field, cell_average, cell_gradient,
                   contract, gradient_sweep, matvec)

# vertical mollification band of the subgraph indicator, in t-cells
MOLLIFY_BAND_CELLS = 3


@dataclass(frozen=True)
class FunctionalReport:
    """One evaluated functional, ready for the JSON report stream."""

    name: str
    value: float
    quadrature_h: float
    boundary_term: float | None = None

    def json_dict(self) -> dict:
        return {"name": self.name, "value": self.value,
                "boundary_term": self.boundary_term, "h": self.quadrature_h}


def _cell_sig(domain: GridDomain):
    return None if domain.chart.is_euclidean else domain.cell_sig_inv


def _cell_w(domain: GridDomain, values: np.ndarray):
    """Cell-centered (gradsq, W) pair."""
    grad = cell_gradient(domain, values)
    gradsq = contract(grad, matvec(_cell_sig(domain), grad))
    return gradsq, np.sqrt(1.0 + gradsq)


def w_factor(u: GridField) -> GridField:
    """Area density W = sqrt(1 + |Du|^2_sigma) at interior nodes."""
    _, _, gradsq = gradient_sweep(u.domain, u.values)
    return GridField.from_inner_block(u.domain, np.sqrt(1.0 + gradsq))


def area(u: GridField) -> float:
    """Graph area A(u) by cell-centered quadrature over complete cells."""
    dom = u.domain
    _, w = _cell_w(dom, u.values)
    cells = dom.cell_complete
    return float(np.sum(w[cells] * dom.cell_sqrt_det[cells]) * dom.cell_volume)


def area_directional_derivative(u: GridField, eta: GridField) -> float:
    """Exact derivative (d/ds) A(u + s eta) at s = 0 on the same quadrature:
    sum of <Du, D eta>_sigma / W over cells."""
    dom = u.domain
    gu = cell_gradient(dom, u.values)
    raised = matvec(_cell_sig(dom), gu)
    dot = contract(raised, cell_gradient(dom, eta.values))
    w = np.sqrt(1.0 + contract(raised, gu))
    cells = dom.cell_complete
    return float(np.sum((dot / w)[cells] * dom.cell_sqrt_det[cells]) * dom.cell_volume)


def _facet_measure(domain: GridDomain) -> float:
    vol = float(np.prod(domain.h))
    n = domain.dim
    return vol ** ((n - 1) / n) if n > 1 else 1.0


def j_functional(u: GridField, phi) -> FunctionalReport:
    """Penalized area J(u) = A(u) + integral_dOmega |u - phi|.

    The boundary term is a facet-weighted sum over dirichlet nodes.
    """
    dom = u.domain
    a = area(u)
    bvals = as_field(dom, phi).values[dom.dirichlet_index]
    uvals = u.values[dom.dirichlet_index]
    facets = dom.sqrt_det[dom.dirichlet_index] * _facet_measure(dom)
    boundary = float(np.sum(np.abs(uvals - bvals) * facets))
    return FunctionalReport("j_functional", a + boundary,
                            float(np.min(dom.h)), boundary_term=boundary)


def total_variation(u: GridField) -> float:
    """Metric total variation integral of |Du|_sigma."""
    dom = u.domain
    gradsq, _ = _cell_w(dom, u.values)
    cells = dom.cell_complete
    return float(np.sum(np.sqrt(gradsq[cells]) * dom.cell_sqrt_det[cells])
                 * dom.cell_volume)


def e_eps(u: GridField, eps: float, f=None) -> float:
    """Perturbed energy E^eps(u) = integral W + (eps/2) |Du|^2 + f u."""
    if eps < 0:
        raise FunctionalError(f"epsilon must be nonnegative, got {eps}")
    dom = u.domain
    gradsq, w = _cell_w(dom, u.values)
    integrand = w + 0.5 * eps * gradsq
    if f is not None:
        integrand = integrand + cell_average(dom, as_field(dom, f).values * u.values)
    cells = dom.cell_complete
    return float(np.sum(integrand[cells] * dom.cell_sqrt_det[cells]) * dom.cell_volume)


def interior_integral(domain: GridDomain, values: np.ndarray) -> float:
    """Node-based integral over interior nodes with metric volume weights."""
    ii = domain.interior_index
    return float(np.sum(values[ii] * domain.sqrt_det[ii]) * float(np.prod(domain.h)))


# -- discrete sets -----------------------------------------------------------


@dataclass(frozen=True)
class ProductGrid:
    """Spatial domain crossed with a uniform vertical lattice [-T, T]."""

    base: GridDomain
    t_axis: np.ndarray
    h_t: float

    @property
    def shape(self):
        return self.base.shape + (len(self.t_axis),)

    @property
    def dim(self):
        return self.base.dim + 1

    @property
    def h(self) -> np.ndarray:
        return np.concatenate([self.base.h, [self.h_t]])


def product_grid(base: GridDomain, T: float, h_t: float) -> ProductGrid:
    """Vertical lattice with layers at -T + k h_t covering [-T, T]."""
    if T <= 0 or h_t <= 0:
        raise FunctionalError("truncation height and vertical spacing must be positive")
    if h_t > float(np.min(base.h)) * (1 + 1e-12):
        raise FunctionalError(f"vertical spacing {h_t} exceeds spatial spacing")
    layers = int(round(2.0 * T / h_t)) + 1
    t_axis = -T + h_t * np.arange(layers)
    return ProductGrid(base, t_axis, h_t)


@dataclass
class DiscreteSet:
    """Indicator set on a grid or a product grid."""

    domain: GridDomain | ProductGrid
    indicator: np.ndarray

    def __post_init__(self):
        self.indicator = np.asarray(self.indicator)
        shape = self.domain.shape
        if self.indicator.shape != shape:
            raise FunctionalError(f"indicator shape {self.indicator.shape} does not "
                                  f"match lattice shape {shape}")
        used = _used_mask(self.domain)
        vals = self.indicator[used]
        if not np.all((vals == 0) | (vals == 1)):
            raise FunctionalError("indicator must be 0/1 at every non-exterior node")


def _used_mask(domain) -> np.ndarray:
    if isinstance(domain, ProductGrid):
        return np.broadcast_to(domain.base.used[..., None], domain.shape)
    return domain.used


def _node_sqrt_det(domain) -> np.ndarray:
    if isinstance(domain, ProductGrid):
        return np.broadcast_to(domain.base.sqrt_det[..., None], domain.shape)
    return domain.sqrt_det


def set_perimeter(E: DiscreteSet, window=None) -> float:
    """Face-counting perimeter inside a window.

    Sums metric facet measures over lattice faces separating a 1-node from
    a 0-node whose midpoint lies strictly inside the window; faces on the
    window boundary are excluded, so no perimeter is picked up from the
    window (or lattice) rim.
    """
    dom = E.domain
    shape = dom.shape
    ndim = len(shape)
    spacings = dom.h
    if window is None:
        window = tuple((0, s - 1) for s in shape)
    window = tuple((int(lo), int(hi)) for lo, hi in window)
    for (lo, hi), s in zip(window, shape):
        if lo < 0 or hi > s - 1 or lo >= hi:
            raise FunctionalError(f"window {window} exceeds the lattice {shape}")

    used = _used_mask(dom)
    sdet = _node_sqrt_det(dom)
    chi = np.where(used, E.indicator.astype(float), np.nan)
    total = 0.0
    vol = float(np.prod(spacings))
    for a in range(ndim):
        # faces along axis a between p and p+e_a; midpoints must lie strictly
        # inside the window, so transverse indices stay off the window rim
        sl_lo = []
        for b, w in enumerate(window):
            if b == a:
                sl_lo.append(slice(w[0], w[1]))
            else:
                sl_lo.append(slice(w[0] + 1, w[1]))
        sl_hi = list(sl_lo)
        sl_hi[a] = slice(window[a][0] + 1, window[a][1] + 1)
        lo_v = chi[tuple(sl_lo)]
        hi_v = chi[tuple(sl_hi)]
        both = np.isfinite(lo_v) & np.isfinite(hi_v)
        cut = both & (lo_v != hi_v)
        if not np.any(cut):
            continue
        wgt = 0.5 * (sdet[tuple(sl_lo)] + sdet[tuple(sl_hi)])
        total += float(np.sum(wgt[cut])) * (vol / spacings[a])
    return total


def subgraph_set(u: GridField, T: float | None = None, h_t: float | None = None) -> DiscreteSet:
    """Lattice subgraph {(x, t): t < u(x)} of a field on the product grid."""
    dom = u.domain
    sup = u.sup_abs()
    if T is None:
        T = 2.0 * (sup + 1.0)
    if sup >= T:
        raise FunctionalError(f"field reaches the truncation height T={T}")
    if h_t is None:
        h_t = float(np.min(dom.h))
    pg = product_grid(dom, T, h_t)
    chi = (pg.t_axis[None] < u.values.reshape(-1, 1)).reshape(pg.shape).astype(np.int8)
    chi = np.where(_used_mask(pg), chi, 0)
    return DiscreteSet(pg, chi)


def _vertical_mollify(F: DiscreteSet) -> np.ndarray:
    """Box-filter each column over the 3-cell band; pads full below, empty above."""
    chi = F.indicator.astype(float)
    below = np.ones_like(chi[..., :1])
    above = np.zeros_like(chi[..., :1])
    padded = np.concatenate([below, chi, above], axis=-1)
    return (padded[..., :-2] + padded[..., 1:-1] + padded[..., 2:]) / MOLLIFY_BAND_CELLS


def _product_cell_tv(pg: ProductGrid, chi: np.ndarray) -> float:
    """Cell-centered total variation of a profile on the product lattice."""
    base = pg.base
    n = base.dim
    grad = cell_gradient(pg, chi)
    cells_shape = grad[0].shape

    sig = _cell_sig(base)
    if sig is not None:
        sig = [[s[..., None] for s in row] for row in sig]
    gs = grad[:n]
    norm2 = contract(gs, matvec(sig, gs)) + grad[n] ** 2

    sdet = np.broadcast_to(base.cell_sqrt_det[..., None], cells_shape)
    complete = np.broadcast_to(base.cell_complete[..., None], cells_shape)
    vol = float(np.prod(pg.h))
    return float(np.sum(np.sqrt(norm2[complete]) * sdet[complete]) * vol)


def mollified_set_tv(F: DiscreteSet) -> float:
    """Product-metric total variation of the vertically mollified indicator.

    The box filter spreads each vertical jump over MOLLIFY_BAND_CELLS cells,
    so for subgraph-like sets the integral approximates the graph area.
    """
    pg = F.domain
    if not isinstance(pg, ProductGrid):
        raise FunctionalError("mollified TV needs a product-grid set")
    return _product_cell_tv(pg, _vertical_mollify(F))


def subgraph_perimeter(u: GridField, T: float | None = None,
                       h_t: float | None = None) -> float:
    """Perimeter of the subgraph of u in Omega x (-T, T).

    The indicator of {t < u(x)} is mollified linearly over a 3-cell vertical
    band: the profile clip((u - t)/band + 1/2, 0, 1) is the exact vertical
    box mollification of the subgraph indicator, sampled on lattice nodes.
    Keeping the band centered at the true graph height (rather than at the
    nearest lattice level) is what makes the total variation converge to the
    graph area as the lattice refines.
    """
    dom = u.domain
    sup = u.sup_abs()
    if T is None:
        T = 2.0 * (sup + 1.0)
    if h_t is None:
        h_t = float(np.min(dom.h))
    band = MOLLIFY_BAND_CELLS * h_t
    if sup + 0.5 * band >= T:
        raise FunctionalError(
            f"truncation height T={T} clips the graph band (sup|u|={sup})")
    pg = product_grid(dom, T, h_t)
    prof = (u.values.reshape(-1, 1) - pg.t_axis[None]) / band + 0.5
    prof = np.clip(prof, 0.0, 1.0).reshape(pg.shape)
    prof = np.where(_used_mask(pg), prof, 0.0)
    return _product_cell_tv(pg, prof)


def vertical_rearrangement(F: DiscreteSet) -> GridField:
    """Column rearrangement of a product set back to a graph.

    w(x) = h_t * (number of 1-cells in the column over x) - T.  Requires the
    set to contain the bottom layer and avoid the top layer of every used
    column; exact for lattice-aligned subgraphs.
    """
    pg = F.domain
    if not isinstance(pg, ProductGrid):
        raise FunctionalError("vertical rearrangement needs a product-grid set")
    base = pg.base
    used = base.used
    chi = F.indicator
    if not np.all(chi[..., 0][used] == 1):
        raise FunctionalError("set does not contain the bottom lattice layer of Omega")
    if not np.all(chi[..., -1][used] == 0):
        raise FunctionalError("set reaches the top lattice layer of Omega")
    count = np.sum(chi, axis=-1, dtype=float)
    T = -float(pg.t_axis[0])
    w = np.where(used, pg.h_t * count - T, np.nan)
    return GridField(base, w)
