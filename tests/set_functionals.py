"""Product-lattice set functionals: the BV identities of the lattice.

These check the discretisation against the set-theoretic side of the
paper's BV setting; no stage of `graphflow run`, `barrier` or `report`
reads them, so they live beside the tests that use them (criteria 07 and
08, test_functionals, test_grid, test_stencil_reference).

Set functionals live on node indicators: a face-counting perimeter
weighted by the metric facet measure, the subgraph perimeter evaluated as
the product-metric total variation of a vertically mollified indicator, and
vertical rearrangement of a product-lattice set back to a graph.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from graphflow.errors import FunctionalError
from graphflow.grid import GridDomain, GridField, cell_gradient, contract, matvec

# vertical mollification band of the subgraph indicator, in t-cells
MOLLIFY_BAND_CELLS = 3


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


def product_grid(base: GridDomain, T: float, h_t: float) -> ProductGrid:
    """Vertical lattice with layers at -T + k h_t covering [-T, T]."""
    if T <= 0 or h_t <= 0:
        raise FunctionalError("truncation height and vertical spacing must be positive")
    if h_t > float(np.min(base.h)) * (1 + 1e-12):
        raise FunctionalError(f"vertical spacing {h_t} exceeds spatial spacing")
    layers = int(round(2.0 * T / h_t)) + 1
    t_axis = -T + h_t * np.arange(layers)
    return ProductGrid(base, t_axis, h_t)


def node_sqrt_det(domain: GridDomain | ProductGrid) -> np.ndarray:
    """sqrt(det sigma) of the spatial chart at every node of a grid or a
    product grid."""
    if isinstance(domain, ProductGrid):
        return np.broadcast_to(node_sqrt_det(domain.base)[..., None], domain.shape)
    return domain.chart.sqrt_det(domain.points)


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

    sdet = node_sqrt_det(dom)
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
    sig = None if base.chart.is_euclidean else base.cell_sig_inv
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
