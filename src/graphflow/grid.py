"""Masked uniform lattices over chart boxes and covariant difference stencils.

A domain is the chart box sampled at spacing h with every node classified
exterior, interior or dirichlet.  Interior nodes are strictly inside the
region and keep their full Moore neighborhood on the lattice; dirichlet
nodes are exactly the non-interior nodes touching an interior one, so every
stencil read from an interior node lands on classified data.  Regions are
snapped inscribed: a node exactly on the region boundary is dirichlet at
best, never interior.

Stencils are the plain second-order ones: central first differences,
central second differences on the axes, the 4-point cross stencil for mixed
partials, and the covariant correction

    D^2_ij u = d^2_ij u - Gamma^k_ij d_k u.

The node stencils run on the interior nodes only.  Each domain keeps a
table of flat lattice indices (node_table): per interior node the node
itself, its neighbours along +e_a and -e_a, and its four diagonal
neighbours per axis pair.  One values.take(node_table) gathers every value
a sweep reads, and the sweeps return one stacked array per quantity whose
last axis runs over the interior nodes in interior_flat order (sigma^{ij}
and Gamma^k_ij are laid out the same way once per domain).  The cell
stencils used for quadrature likewise read the 2^n corners of the complete
cells through a corner table (cell_table), in cell_flat order.  Components
are summed left to right over the stacked axis, so each value is one fixed
expression, pinned by tests/stencil_oracle.py.

The barrier and attainment code read the lattice near boundary points from
the domain: node windows (windows) and edge crossings (boundary_facts).
"""

from __future__ import annotations

import csv
import math
from functools import cached_property, lru_cache
from itertools import combinations, product

import numpy as np

from .errors import GridError
from .manifold import MetricChart, _multilinear_interp

EXTERIOR, INTERIOR, DIRICHLET = 0, 1, 2
HALVINGS = 53    # bisection steps per crossing: the bracket on [0, 1] ends at 2^-53
BLOCK = 1 << 15  # array entries per block of a batched gather or evaluation
# keys _region_sdf reads for each region kind, besides "region" itself
REGION_KEYS = {"box": ("bounds",), "disc": ("center", "radius"),
               "annulus": ("center", "r_inner", "r_outer"), "table": ("values",)}


@lru_cache(maxsize=8)
def _pair_rows(n: int) -> tuple:
    """(pairs, rows) for the second derivatives of an n-D stencil.  They are
    stacked as the n axis pairs (a, a), then the a < b pairs in combinations
    order; pairs lists them, and rows[a, b] is the stacked row of the
    pair {a, b}."""
    pairs = [(a, a) for a in range(n)] + list(combinations(range(n), 2))
    rows = np.empty((n, n), dtype=np.intp)
    for r, (a, b) in enumerate(pairs):
        rows[a, b] = rows[b, a] = r
    return pairs, rows


def _region_sdf(region, points, chart_box):
    """Signed distance style function: negative strictly inside the region."""
    if region is None:
        region = {"region": "box"}
    kind = region.get("region")
    if kind == "box":
        box = np.asarray(region.get("bounds", chart_box), dtype=float)
        lo, hi = box[:, 0], box[:, 1]
        return np.max(np.maximum(lo - points, points - hi), axis=-1)
    if kind == "disc":
        center = np.asarray(region["center"], dtype=float)
        radius = float(region["radius"])
        if radius <= 0:
            raise GridError("disc region needs a positive radius")
        return np.linalg.norm(points - center, axis=-1) - radius
    if kind == "annulus":
        center = np.asarray(region["center"], dtype=float)
        r_in, r_out = float(region["r_inner"]), float(region["r_outer"])
        if r_in >= r_out:
            raise GridError(f"annulus needs r_inner < r_outer, got {r_in} >= {r_out}")
        d = np.linalg.norm(points - center, axis=-1)
        return np.maximum(r_in - d, d - r_out)
    if kind == "table":
        # node values on the chart box lattice, multilinear between nodes
        values = np.asarray(region["values"], dtype=float)
        axes = tuple(np.linspace(lo, hi, m) for (lo, hi), m in zip(chart_box, values.shape))
        return _multilinear_interp(axes, values, points)
    raise GridError(f"unknown region kind {region!r}")


class GridDomain:
    """Lattice over a chart box with node classification and cached geometry."""

    def __init__(self, chart: MetricChart, h, mask: np.ndarray, region, axes):
        self.chart = chart
        self.h = np.asarray(h, dtype=float)
        self.mask = mask
        self.region = region
        self.axes = axes
        self.shape = mask.shape
        self.dim = chart.dim
        self.h_min_sq = float(np.min(self.h)) ** 2

    # -- classification ---------------------------------------------------

    @cached_property
    def points(self) -> np.ndarray:
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)

    @cached_property
    def used(self) -> np.ndarray:
        """Non-exterior nodes: interior and dirichlet."""
        return self.mask != EXTERIOR

    @cached_property
    def interior(self) -> np.ndarray:
        return self.mask == INTERIOR

    @cached_property
    def dirichlet(self) -> np.ndarray:
        return self.mask == DIRICHLET

    @cached_property
    def interior_index(self):
        return np.nonzero(self.interior)

    @cached_property
    def dirichlet_index(self):
        return np.nonzero(self.dirichlet)

    @cached_property
    def interior_flat(self) -> np.ndarray:
        """Flat lattice indices of the interior nodes, ascending as in
        interior_index: the interior_flat order of every interior vector."""
        return np.flatnonzero(self.interior)

    @cached_property
    def dirichlet_flat(self) -> np.ndarray:
        """Flat lattice indices of the dirichlet nodes, in dirichlet_index order."""
        return np.flatnonzero(self.dirichlet)

    @cached_property
    def inner_index(self):
        """Interior neighbor of each dirichlet node, aligned with dirichlet_index.

        Every dirichlet node touches an interior node; each takes the first
        in product((-1, 0, 1), repeat=n) offset order.
        """
        offsets = np.array([off for off in product((-1, 0, 1), repeat=self.dim) if any(off)])
        nbrs = np.stack(self.dirichlet_index, axis=-1)[:, None, :] + offsets
        # a one-node frame of False keeps rim nodes' neighbours in range
        hit = np.pad(self.interior, 1)[tuple(np.moveaxis(nbrs + 1, -1, 0))]
        first = nbrs[np.arange(len(nbrs)), np.argmax(hit, axis=1)]
        return tuple(np.ascontiguousarray(axis) for axis in first.T)

    def windows(self, x0s: np.ndarray, reach: float):
        """(blk, nodes, offsets) per block of x0s (P, n), at most BLOCK offset
        entries a block.  nodes (B, W): each point's window, the ascending
        (C order) flat indices of a box of min(2 ceil(reach/h_a) + 3, shape_a)
        nodes per axis, clipped into the lattice, that holds every node within
        sup-distance reach of the point, on the lattice or off it.  offsets[a]:
        the axis-a chart offsets from the point, (B, 1, .., w_a, .., 1)."""
        n, cells = self.dim, np.ceil(reach / self.h).astype(np.intp)
        width = np.minimum(2 * cells + 3, self.shape)
        box = np.ravel_multi_index(np.indices(width).reshape(n, -1), self.shape)
        for blk in _blocks(len(x0s), int(np.prod(width)) * n):
            first = np.floor((x0s[blk] - [ax[0] for ax in self.axes]) / self.h).astype(np.intp)
            first = np.clip(first - cells - 1, 0, np.array(self.shape) - width)
            yield blk, np.ravel_multi_index(first.T, self.shape)[:, None] + box, [
                (ax[i[:, None] + np.arange(w)] - x0s[blk, a, None]).reshape(
                    (len(first),) + (1,) * a + (w,) + (1,) * (n - 1 - a))
                for a, (ax, i, w) in enumerate(zip(self.axes, first.T, width))]

    def eroded_interior(self, iterations: int) -> np.ndarray:
        """Interior nodes at Chebyshev lattice distance > iterations from any
        non-interior node.  The rim is never interior, so dilating the
        complement within the lattice reaches every node near the edge."""
        outside = ~self.interior
        for _ in range(iterations):
            outside = _dilate(outside)
        return ~outside

    # -- node geometry -----------------------------------------------------

    @cached_property
    def sdf(self) -> np.ndarray:
        """Region signed distance at every node, negative strictly inside."""
        flat = self.points.reshape(-1, self.dim)
        return _region_sdf(self.region, flat, self.chart.box).reshape(self.shape)

    def segment_crossings(self, a: np.ndarray, b: np.ndarray,
                          fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
        """Boundary point on each segment [a[k], b[k]], NaN where it stays one-sided.

        fa, fb are the region's signed distances at the ends.  An end below
        1e-13 of the larger end value is returned exactly; the segments with
        strictly opposite-sign ends are bisected together, HALVINGS times.
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
                same = _region_sdf(self.region, a + mid[:, None] * step, self.chart.box) * side > 0
                lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
            out[todo] = a + (0.5 * (lo + hi))[:, None] * step
        return out

    @cached_property
    def boundary_facts(self) -> tuple:
        """(table, dirichlet, key) from one segment_crossings pass.  table is
        (lo, hi, points) of the axis-aligned lattice segments meeting the
        region edge: end nodes (flat indices) and crossing, by axis, then by
        lower node in C order.  A segment along the edge crosses at its lower
        end, so its upper end (a box's (hi, ..., hi) corner is no segment's
        lower end) is a row after the crossings.  dirichlet holds the
        crossings inner_index -> dirichlet_index, NaN where none; key numbers
        the table's points equal to 1e-12."""
        flat = np.arange(self.sdf.size).reshape(self.shape)
        lo, hi = (np.concatenate([flat[(slice(None),) * a + (cut,)].reshape(-1)
                                  for a in range(self.dim)])
                  for cut in (slice(None, -1), slice(1, None)))
        pts, F = self.points.reshape(-1, self.dim), self.sdf.reshape(-1)
        a = np.concatenate([lo, np.ravel_multi_index(self.inner_index, self.shape)])
        b = np.concatenate([hi, self.dirichlet_flat])
        cross, dirichlet = np.split(self.segment_crossings(pts[a], pts[b], F[a], F[b]), [len(lo)])
        hit = ~np.isnan(cross[:, 0])
        edge = (F[lo] == 0) & (F[hi] == 0)
        table = (np.concatenate([lo[hit], lo[edge]]), np.concatenate([hi[hit], hi[edge]]),
                 np.concatenate([cross[hit], pts[hi[edge]]]))
        _, key = np.unique(np.round(table[2] / 1e-12).astype(np.int64), axis=0,
                           return_inverse=True)
        return table, dirichlet, key.reshape(-1)

    @cached_property
    def interior_sqrt_det(self) -> np.ndarray:
        """sqrt(det sigma), evaluated at the interior nodes only, in
        interior_flat order."""
        return self.chart.sqrt_det(self.points[self.interior_index])

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        """sqrt(det sigma) at every lattice node; j_functional reads it at
        the dirichlet nodes."""
        return self.chart.sqrt_det(self.points)

    @cached_property
    def interior_sig_inv(self) -> np.ndarray:
        """sigma^{ij}, evaluated at the interior nodes only: (n, n, interior)
        in interior_flat order."""
        sig = self.chart.inverse(self.points[self.interior_index])
        return np.ascontiguousarray(np.moveaxis(sig, 0, -1))

    @cached_property
    def interior_gamma(self) -> np.ndarray:
        """Gamma^k_ab, evaluated at the interior nodes only, (n, pairs,
        interior): k first, then the axis pairs (a, b) in _pair_rows order."""
        gamma = self.chart.christoffel(self.points[self.interior_index])
        a, b = np.array(_pair_rows(self.dim)[0]).T
        return np.ascontiguousarray(np.moveaxis(gamma[:, :, a, b], 0, -1))

    @cached_property
    def interior_lambda_max(self) -> np.ndarray:
        """Largest eigenvalue of sigma^{ij} at each interior node."""
        return np.linalg.eigvalsh(np.moveaxis(self.interior_sig_inv, -1, 0))[..., -1]

    @cached_property
    def sine_basis(self) -> tuple:
        """Per-axis orthonormal DST-I matrices of the inner block (the lattice
        without its rim), the eigenvalues of the block's 5-point Dirichlet
        Laplacian, and the interior nodes' flat positions in the block."""
        sizes = [s - 2 for s in self.shape]
        mats, eig = [], 0.0
        for size, h in zip(sizes, self.h):
            k = np.arange(1, size + 1)
            mats.append(math.sqrt(2.0 / (size + 1)) * np.sin(np.pi * np.outer(k, k) / (size + 1)))
            eig = np.add.outer(eig, -4.0 / h ** 2 * np.sin(0.5 * np.pi * k / (size + 1)) ** 2)
        return mats, eig, np.ravel_multi_index([i - 1 for i in self.interior_index], sizes)

    @cached_property
    def node_table(self) -> np.ndarray:
        """Flat lattice indices read by the node stencils, one column per
        interior node in interior_flat order.  The rows are the node, the
        node moved along +e_a for each axis a, then along -e_a, then for
        the axis pairs a < b in combinations order the node moved along
        (+e_a, +e_b) for every pair, then (+, -), (-, +) and (-, -).
        Interior nodes lie off the lattice rim, so every move stays on it."""
        step = np.ravel_multi_index(np.eye(self.dim, dtype=np.intp), self.shape).tolist()
        cross = _pair_rows(self.dim)[0][self.dim:]
        moves = [0, *step, *(-s for s in step)]
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            moves += [sa * step[a] + sb * step[b] for a, b in cross]
        return self.interior_flat + np.array(moves, dtype=np.intp)[:, None]

    @cached_property
    def node_divisors(self) -> tuple:
        """(2 h_a, h_a^2, 4 h_a h_b) as columns: per axis, per axis, and per
        axis pair a < b in combinations order."""
        h = self.h
        cross = _pair_rows(self.dim)[0][self.dim:]
        return tuple(np.array(d, dtype=float).reshape(-1, 1) for d in (
            [2.0 * h[a] for a in range(self.dim)], [h[a] ** 2 for a in range(self.dim)],
            [4.0 * h[a] * h[b] for a, b in cross]))

    # -- cell geometry (quadrature on complete lattice cells) --------------

    @cached_property
    def cell_complete(self) -> np.ndarray:
        """Cells whose 2^n corner nodes are all non-exterior."""
        ok = self.used
        out = np.ones(tuple(s - 1 for s in self.shape), dtype=bool)
        for corner in product((0, 1), repeat=self.dim):
            out &= ok[tuple(slice(c, s - 1 + c) for c, s in zip(corner, self.shape))]
        return out

    @cached_property
    def cell_flat(self) -> np.ndarray:
        """Flat indices of the complete cells, in boolean-gather (C) order."""
        return np.flatnonzero(self.cell_complete)

    @cached_property
    def cell_table(self) -> np.ndarray:
        """Flat lattice indices of the 2^n corners of each complete cell: one
        row per corner in product((0, 1), repeat=n) order, one column per
        cell in cell_flat order."""
        cells = tuple(s - 1 for s in self.shape)
        lowest = np.ravel_multi_index(np.unravel_index(self.cell_flat, cells), self.shape)
        corners = np.ravel_multi_index(np.array([*product((0, 1), repeat=self.dim)]).T, self.shape)
        return lowest + corners[:, None]

    @cached_property
    def cell_centers(self) -> np.ndarray:
        """Center of every lattice cell, complete or not."""
        half = [0.5 * (a[1:] + a[:-1]) for a in self.axes]
        return np.stack(np.meshgrid(*half, indexing="ij"), axis=-1)

    @property
    def complete_centers(self) -> np.ndarray:
        """Centers of the complete cells, (cells, n) in cell_flat order."""
        return self.cell_centers.reshape(-1, self.dim).take(self.cell_flat, axis=0)

    @cached_property
    def cell_weights(self) -> np.ndarray:
        """sqrt(det sigma), evaluated at the centers of the complete cells
        only, in cell_flat order."""
        return self.chart.sqrt_det(self.complete_centers)

    @cached_property
    def cell_sig_inv(self) -> np.ndarray:
        """sigma^{ij}, evaluated at the centers of the complete cells only:
        (n, n, cells) in cell_flat order."""
        return np.ascontiguousarray(np.moveaxis(self.chart.inverse(self.complete_centers), 0, -1))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))


class GridField:
    """Nodal scalar field on a GridDomain: finite on every non-exterior
    node; exterior nodes hold NaN."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: GridDomain, values: np.ndarray):
        self.domain, self.values = domain, np.asarray(values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise GridError(f"field shape {self.values.shape} does not match "
                            f"lattice shape {self.domain.shape}")
        if not np.all(np.isfinite(self.values[self.domain.used])):
            raise GridError("field has non-finite values on non-exterior nodes")

    @classmethod
    def from_function(cls, domain: GridDomain, fn) -> "GridField":
        """Sample fn(x) as a float at every non-exterior node."""
        vals = np.full(domain.shape, np.nan)
        vals[domain.used] = [float(fn(x)) for x in domain.points[domain.used]]
        return cls(domain, vals)

    @classmethod
    def trusted(cls, domain: GridDomain, values: np.ndarray) -> "GridField":
        """Field over a float lattice array the caller has already checked
        finite on every non-exterior node; skips that scan."""
        u = object.__new__(cls)
        u.domain, u.values = domain, values
        return u

    @classmethod
    def constant(cls, domain: GridDomain, value: float) -> "GridField":
        vals = np.where(domain.used, float(value), np.nan)
        return cls(domain, vals)

    def copy(self) -> "GridField":
        return GridField(self.domain, self.values.copy())

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.values[self.domain.used])))


def as_field(domain: GridDomain, data) -> GridField:
    """Boundary or source data, a GridField or a callable on chart
    coordinates, as a GridField on domain.

    Entry points that accept either form call this once; a callable is
    sampled at every non-exterior node.
    """
    if isinstance(data, GridField):
        return data
    if callable(data):
        return GridField.from_function(domain, data)
    raise GridError("data must be a GridField or a callable")


def _dilate(mask: np.ndarray) -> np.ndarray:
    """mask grown by its Moore neighborhood (diagonals included) within the
    lattice: the union of its 3^n one-node shifts."""
    framed = np.pad(mask, 1)
    return np.any([framed[tuple(slice(1 + o, 1 + o + s) for o, s in zip(off, mask.shape))]
                   for off in product((-1, 0, 1), repeat=mask.ndim)], axis=0)


def build_domain(chart: MetricChart, h, region=None) -> GridDomain:
    """Discretize the chart box at spacing h and classify nodes.

    h is a scalar or per-axis sequence and must divide every box width;
    region is a region spec dict, None for the whole chart box.  Raises
    GridError when no interior node survives the mask, and when numpy
    cannot allocate the lattice.
    """
    n = chart.dim
    h_arr = np.broadcast_to(np.asarray(h, dtype=float), (n,)).copy()
    if np.any(h_arr <= 0):
        raise GridError(f"spacing must be positive, got {h_arr}")
    shape = ()
    for a in range(n):
        lo, hi = chart.box[a]
        steps = (hi - lo) / h_arr[a]
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise GridError(f"h={h_arr[a]} does not divide box width {hi - lo} on axis {a}")
        shape += (int(round(steps)) + 1,)
    if isinstance(region, dict) and region.get("region") == "table" \
            and np.shape(region.get("values")) != shape:
        raise GridError(f"table region shape {np.shape(region.get('values'))} does "
                        f"not match lattice shape {shape}")
    try:  # the node mask first: it is the smallest lattice array
        mask = np.zeros(shape, dtype=np.int8)
    except MemoryError as exc:
        raise GridError(f"cannot allocate the lattice of shape {shape} "
                        f"({math.prod(shape)} nodes): {exc}") from None
    axes = [np.linspace(lo, hi, count) for (lo, hi), count in zip(chart.box, shape)]
    dom = GridDomain(chart, h_arr, mask, region, axes)

    # Interior nodes must keep the full Moore neighborhood on the lattice,
    # so only the inner block (every node off the rim) can hold them.
    inner = (slice(1, -1),) * n
    interior = np.zeros(shape, dtype=bool)
    interior[inner] = dom.sdf[inner] < -1e-12 * max(b[1] - b[0] for b in chart.box)
    if not np.any(interior):
        raise GridError("region is empty after masking: no interior nodes")
    dom.mask[interior] = INTERIOR
    dom.mask[_dilate(interior) & ~interior] = DIRICHLET
    return dom


# -- node stencils on the interior nodes -------------------------------------
#
# Component arrays are stacked on their leading axes and hold one entry per
# interior node on the last.  Sums over a stacked axis run left to right.


def matvec(m, v):
    """Components sum_j m[i][j] v[j] of a stacked (n, ...) array, m stacked
    (n, n, ...) (sigma^{ij} raises an index); m None stands for the identity."""
    return v if m is None else (m * v).sum(axis=1)


def contract(a, b):
    """sum_i a_i b_i of two stacked (n, ...) arrays."""
    return (a * b).sum(axis=0)


def _norm(d) -> np.ndarray:
    """Euclidean norm of the components d[0], d[1], ..., summed left to
    right: bit for bit np.linalg.norm's over a last axis holding them."""
    return np.sqrt(sum(c * c for c in d))


def _blocks(count: int, width: int) -> list:
    """Slices of range(count) holding at most BLOCK entries of width each."""
    step = max(1, BLOCK // max(width, 1))
    return [slice(s, s + step) for s in range(0, count, step)]


def gradient_sweep(domain: GridDomain, nbrs: np.ndarray):
    """Central-difference gradient at the interior nodes.

    nbrs is values.take(domain.node_table).  Returns (lowered, raised,
    gradsq): lowered and raised are (n, interior) arrays of the lowered
    and raised gradient, gradsq is |Du|^2_sigma.
    """
    n = domain.dim
    lowered = (nbrs[1:n + 1] - nbrs[n + 1:2 * n + 1]) / domain.node_divisors[0]
    raised = matvec(None if domain.chart.is_euclidean else domain.interior_sig_inv, lowered)
    return lowered, raised, contract(lowered, raised)


def hessian_sweep(domain: GridDomain, nbrs: np.ndarray, lowered: np.ndarray) -> np.ndarray:
    """Covariant Hessian at the interior nodes, (n, n, interior).

    nbrs is values.take(domain.node_table) and lowered the gradient from
    gradient_sweep, which the Christoffel term reads on curved charts;
    hess[a, b] is D^2_ab u, equal to hess[b, a] bit for bit.
    """
    n = domain.dim
    _, h_sq, four_hh = domain.node_divisors
    fwd, bwd = nbrs[1:n + 1], nbrs[n + 1:2 * n + 1]
    pp, pm, mp, mm = nbrs[2 * n + 1:].reshape(4, len(four_hh), nbrs.shape[1])
    second = np.concatenate(((fwd - 2.0 * nbrs[0] + bwd) / h_sq,
                             (pp - pm - mp + mm) / four_hh))
    if not domain.chart.is_euclidean:
        second = second - (domain.interior_gamma * lowered[:, None]).sum(axis=0)
    return second.take(_pair_rows(n)[1], axis=0)


# -- cell-centered quadrature stencils --------------------------------------


def cell_gradient(domain, corners) -> np.ndarray:
    """Compact cell-centered gradient from the 2^n corner values.

    Along each axis: difference of the opposite face averages over h.
    Second order at the cell center and free of exterior reads on
    complete cells.  domain is any lattice with dim and per-axis spacings
    h: a GridDomain, or the tests' product lattice (tests/set_functionals.py)
    with its vertical axis last.
    corners holds one array per corner in product((0, 1), repeat=n) order,
    such as values.take(domain.cell_table).  Returns the stacked (n, ...)
    gradient; each component sums the corners in that order.
    """
    n = domain.dim
    h = domain.h
    signs = list(product((0, 1), repeat=n))[1:]
    grad = np.empty((n, *np.shape(corners[0])))
    for a, acc in enumerate(grad):
        np.negative(corners[0], out=acc)
        for corner, v in zip(signs, corners[1:]):
            if corner[a]:
                acc += v
            else:
                acc -= v
        acc /= (2 ** (n - 1)) * h[a]
    return grad


# -- field refinement --------------------------------------------------------


def interpolate_to(u: GridField, fine: GridDomain) -> GridField:
    """Multilinear interpolation of a field onto a finer domain.

    Only supported when the coarse lattice has no exterior nodes (box-type
    regions), so every interpolation cell has data.
    """
    coarse = u.domain
    if np.any(coarse.mask == EXTERIOR):
        raise GridError("interpolate_to needs a coarse domain without exterior nodes")
    vals = _multilinear_interp(tuple(coarse.axes), u.values, fine.points)
    vals = np.where(fine.used, vals, np.nan)
    return GridField(fine, vals)


# -- CSV persistence ---------------------------------------------------------


def save_field_csv(u: GridField, path) -> None:
    """One row per node, in C order: i1..in, x1..xn, mask, value (indices and
    coordinates from one string per axis entry).  Floats are written with
    repr, and lines end in CRLF as csv.writer's do."""
    dom = u.domain
    n = dom.dim
    header = [f"i{a + 1}" for a in range(n)] + [f"x{a + 1}" for a in range(n)] \
        + ["mask", "value"]
    columns = [map(",".join, product(*[list(map(str, range(s))) for s in dom.shape])),
               map(",".join, product(*[list(map(repr, ax.tolist())) for ax in dom.axes])),
               map(str, dom.mask.ravel().tolist()), map(repr, u.values.ravel().tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, zip(*columns)), ""]))


def load_field_csv(path, domain: GridDomain) -> GridField:
    """Rebuild a field over a matching domain from its CSV form; every
    non-exterior node needs a row, and no node has two."""
    n = domain.dim
    values = np.full(domain.shape, np.nan)
    listed = np.zeros(domain.shape, dtype=np.intp)  # the row that gave each node, 0 for none
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise GridError(f"field csv {str(path)!r} is empty")
        for line, row in enumerate(reader, start=2):
            try:
                idx = tuple(int(v) for v in row[:n])
                if not all(0 <= i < size for i, size in zip(idx, domain.shape)):
                    raise IndexError(f"node {idx} is outside the grid of shape {domain.shape}")
                mask, values[idx] = int(row[2 * n]), float(row[2 * n + 1])
                if listed[idx]:
                    raise ValueError(f"node {idx} repeats row {listed[idx]}")
            except (ValueError, IndexError) as exc:
                raise GridError(f"field csv {str(path)!r} row {line}: {exc}") from None
            if mask != int(domain.mask[idx]):
                raise GridError(f"mask mismatch at node {idx}: CSV does not match domain")
            listed[idx] = line
    unlisted = np.argwhere(domain.used & (listed == 0))
    if unlisted.size:
        node = tuple(int(i) for i in unlisted[0])
        raise GridError(f"field csv {str(path)!r} has no row for node {node}")
    return GridField(domain, values)
