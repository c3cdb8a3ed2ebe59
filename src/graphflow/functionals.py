"""Geometric functionals of graphs and BV-style set functionals.

Integrals over the domain use midpoint quadrature on complete lattice
cells: the integrand is assembled at each cell center from the 2^n corner
values (compact gradient), weighted by sqrt(det sigma) at
the center and the cell volume h^n.  This keeps the stated closed-form
values of flat test fields exact and never reads exterior data.  One take
of the domain's corner table gathers the corners, so the integrand is
evaluated at the complete cells only, in cell_flat order.

The area of the graph of u over Omega is

    A(u) = integral_Omega sqrt(1 + |Du|^2_sigma) dV,

the penalized functional adds the boundary mismatch integral_dOmega |u - phi|,
and the epsilon energy adds (eps/2) |Du|^2.

Set functionals live on node indicators: a face-counting perimeter
weighted by the metric facet measure, the subgraph perimeter evaluated as
the product-metric total variation of a vertically mollified indicator, and
vertical rearrangement of a product-lattice set back to a graph.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import FunctionalError
from .grid import GridDomain, GridField, as_field, cell_gradient, contract, matvec

# vertical mollification band of the subgraph indicator, in t-cells
MOLLIFY_BAND_CELLS = 3


class FunctionalReport(NamedTuple):
    """One evaluated functional and its boundary part."""

    value: float
    boundary_term: float | None = None


def _cell_sig(domain: GridDomain):
    return None if domain.chart.is_euclidean else domain.cell_sig_inv


def _cell_w(domain: GridDomain, values: np.ndarray):
    """(gradsq, W) at the complete cells, in cell_flat order."""
    grad = cell_gradient(domain, values.take(domain.cell_table))
    gradsq = contract(grad, matvec(_cell_sig(domain), grad))
    return gradsq, np.sqrt(1.0 + gradsq)


def _cell_sum(domain: GridDomain, density: np.ndarray) -> float:
    """Midpoint quadrature of a density given at the complete cells, in
    cell_flat order."""
    return float((density * domain.cell_weights).sum() * domain.cell_volume)


def area(u: GridField) -> float:
    """Graph area A(u) by cell-centered quadrature over complete cells."""
    dom = u.domain
    _, w = _cell_w(dom, u.values)
    return _cell_sum(dom, w)


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
    return FunctionalReport(a + boundary, boundary_term=boundary)


def total_variation(u: GridField) -> float:
    """Metric total variation integral of |Du|_sigma."""
    dom = u.domain
    gradsq, _ = _cell_w(dom, u.values)
    return _cell_sum(dom, np.sqrt(gradsq))


def e_eps(u: GridField, eps: float) -> float:
    """Perturbed energy E^eps(u) = integral W + (eps/2) |Du|^2."""
    if not 0 <= eps < np.inf:  # written to fail on NaN
        raise FunctionalError(f"eps must be finite and nonnegative, got {eps}")
    dom = u.domain
    gradsq, w = _cell_w(dom, u.values)
    return _cell_sum(dom, w + 0.5 * eps * gradsq)


def interior_integral(domain: GridDomain, values: np.ndarray) -> float:
    """Node quadrature over the interior nodes of values given there, in
    interior_flat order: sum of values sqrt(det sigma) h^n."""
    return float((values * domain.interior_sqrt_det).sum() * domain.cell_volume)


# -- discrete sets -----------------------------------------------------------


class ProductGrid(NamedTuple):
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

    @property
    def used(self) -> np.ndarray:
        return np.broadcast_to(self.base.used[..., None], self.shape)

    @property
    def sqrt_det(self) -> np.ndarray:
        return np.broadcast_to(self.base.sqrt_det[..., None], self.shape)


def product_grid(base: GridDomain, T: float, h_t: float) -> ProductGrid:
    """Vertical lattice with layers at -T + k h_t covering [-T, T]."""
    if T <= 0 or h_t <= 0:
        raise FunctionalError("truncation height and vertical spacing must be positive")
    if h_t > float(np.min(base.h)) * (1 + 1e-12):
        raise FunctionalError(f"vertical spacing {h_t} exceeds spatial spacing")
    layers = int(round(2.0 * T / h_t)) + 1
    t_axis = -T + h_t * np.arange(layers)
    return ProductGrid(base, t_axis, h_t)


class DiscreteSet:
    """Indicator set on a grid or a product grid."""

    def __init__(self, domain: GridDomain | ProductGrid, indicator: np.ndarray):
        self.domain, self.indicator = domain, np.asarray(indicator)
        shape = self.domain.shape
        if self.indicator.shape != shape:
            raise FunctionalError(f"indicator shape {self.indicator.shape} does not "
                                  f"match lattice shape {shape}")
        vals = self.indicator[self.domain.used]
        if not np.all((vals == 0) | (vals == 1)):
            raise FunctionalError("indicator must be 0/1 at every non-exterior node")


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

    sdet = dom.sqrt_det
    chi = np.where(dom.used, E.indicator.astype(float), np.nan)
    total = 0.0
    vol = float(np.prod(spacings))
    for a in range(ndim):
        # faces along axis a between p and p+e_a; midpoints must lie strictly
        # inside the window, so transverse indices stay off the window rim
        sl_lo = [slice(lo + (b != a), hi) for b, (lo, hi) in enumerate(window)]
        sl_hi = [slice(lo + 1, hi + (b == a)) for b, (lo, hi) in enumerate(window)]
        lo_v = chi[tuple(sl_lo)]
        hi_v = chi[tuple(sl_hi)]
        both = np.isfinite(lo_v) & np.isfinite(hi_v)
        cut = both & (lo_v != hi_v)
        if not np.any(cut):
            continue
        wgt = 0.5 * (sdet[tuple(sl_lo)] + sdet[tuple(sl_hi)])
        total += float(np.sum(wgt[cut])) * (vol / spacings[a])
    return total


def subgraph_set(u: GridField, T: float, h_t: float) -> DiscreteSet:
    """Lattice subgraph {(x, t): t < u(x)} of a field on the product grid
    with layers at -T + k h_t; sup|u| must stay below T."""
    if u.sup_abs() >= T:
        raise FunctionalError(f"field reaches the truncation height T={T}")
    pg = product_grid(u.domain, T, h_t)
    chi = (pg.t_axis[None] < u.values.reshape(-1, 1)).reshape(pg.shape).astype(np.int8)
    chi = np.where(pg.used, chi, 0)
    return DiscreteSet(pg, chi)


def _product_cell_tv(pg: ProductGrid, chi: np.ndarray) -> float:
    """Cell-centered total variation of a profile on the product lattice,
    over the vertical columns of cells above the complete base cells."""
    base = pg.base
    n = base.dim
    layers = chi.shape[-1]
    # per base corner, the columns over the complete base cells in cell_flat
    # order; each yields its lower and upper product corners
    columns = chi.reshape(-1, layers).take(base.cell_table, axis=0)
    grad = cell_gradient(pg, [col[:, t:layers - 1 + t] for col in columns for t in (0, 1)])
    sig = _cell_sig(base)
    if sig is not None:
        sig = sig[..., None]
    gs = grad[:n]
    norm2 = contract(gs, matvec(sig, gs)) + grad[n] ** 2
    return float(np.sum(np.sqrt(norm2) * base.cell_weights[:, None]) * float(np.prod(pg.h)))


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
    prof = np.where(pg.used, prof, 0.0)
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
