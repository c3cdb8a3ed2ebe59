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

Every interior node lies off the lattice rim, so the node stencils work on
the inner block values[1:-1, ..., 1:-1] only and return one block array
per component (sigma^{ij} and Gamma^k_ij are cached per domain in the same
form); entries at the block's non-interior nodes carry no meaning.  The
cell stencils used for quadrature likewise return one cell array per axis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
from scipy import ndimage

from .errors import GridError
from .manifold import MetricChart

EXTERIOR, INTERIOR, DIRICHLET = 0, 1, 2
INNER = slice(1, -1)  # the inner block of an axis: every node off the lattice rim
# keys _region_sdf reads for each region kind, besides "region" itself
REGION_KEYS = {"box": ("bounds",), "disc": ("center", "radius"),
               "annulus": ("center", "r_inner", "r_outer"), "table": ("values",)}


def _components(arr: np.ndarray, depth: int):
    """Nested tuples of contiguous arrays, one per entry of arr's trailing
    depth axes: _components(g, 3)[k][i][j] is g[..., k, i, j]."""
    if depth == 0:
        return np.ascontiguousarray(arr)
    return tuple(_components(part, depth - 1) for part in np.moveaxis(arr, -depth, 0))


def _region_sdf(region, points, chart_box):
    """Signed distance style function: negative strictly inside the region."""
    if region is None:
        region = {"region": "box"}
    if callable(region):
        return np.apply_along_axis(region, -1, points)
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
        values = np.asarray(region["values"], dtype=float)
        if values.shape != points.shape[:-1]:
            raise GridError(f"table region shape {values.shape} does not match "
                            f"lattice shape {points.shape[:-1]}")
        return values
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
        """Flat lattice indices of the interior nodes, in interior_index order."""
        return np.flatnonzero(self.interior)

    @cached_property
    def block_interior(self) -> np.ndarray:
        """Flat indices of the interior nodes within the inner block
        values[1:-1, ..., 1:-1], in interior_index order."""
        return np.flatnonzero(self.interior[(INNER,) * self.dim])

    @cached_property
    def boundary_nodes(self):
        """Dirichlet nodes with an outward lattice direction.

        Each entry is (index_tuple, outward_offset); the offset points from
        the adjacent interior node toward the dirichlet node.
        """
        offsets = [off for off in product((-1, 0, 1), repeat=self.dim)
                   if any(off)]
        out = []
        for idx in zip(*self.dirichlet_index):
            for off in offsets:
                nb = tuple(i + o for i, o in zip(idx, off))
                if all(0 <= v < s for v, s in zip(nb, self.shape)) \
                        and self.mask[nb] == INTERIOR:
                    out.append((idx, tuple(-o for o in off)))
                    break
        return out

    @cached_property
    def inner_index(self):
        """Interior neighbor of each dirichlet node, aligned with dirichlet_index.

        Every dirichlet node touches an interior node, so boundary_nodes
        lists each of them once, in dirichlet_index order.
        """
        inner = [tuple(i - o for i, o in zip(idx, off))
                 for idx, off in self.boundary_nodes]
        return tuple(np.array(axis, dtype=np.intp) for axis in zip(*inner))

    def eroded_interior(self, iterations: int) -> np.ndarray:
        """Interior nodes at Chebyshev lattice distance > iterations from
        any non-interior node."""
        structure = np.ones((3,) * self.dim, dtype=bool)
        return ndimage.binary_erosion(self.interior, structure=structure,
                                      iterations=iterations, border_value=0)

    # -- node geometry -----------------------------------------------------

    @cached_property
    def sdf(self) -> np.ndarray:
        """Region signed distance at every node, negative strictly inside."""
        flat = self.points.reshape(-1, self.dim)
        return _region_sdf(self.region, flat, self.chart.box).reshape(self.shape)

    @cached_property
    def sig_inv(self) -> np.ndarray:
        return self.chart.inverse(self.points)

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return self.chart.sqrt_det(self.points)

    @cached_property
    def block_sig_inv(self):
        """sigma^{ij} on the inner block, [i][j] one contiguous array each."""
        return _components(self.sig_inv[(INNER,) * self.dim], 2)

    @cached_property
    def block_gamma(self):
        """Gamma^k_ij on the inner block, [k][i][j] one contiguous array each."""
        return _components(self.chart.christoffel(self.points)[(INNER,) * self.dim], 3)

    @cached_property
    def interior_lambda_max(self) -> np.ndarray:
        """Largest eigenvalue of sigma^{ij} at each interior node."""
        if self.chart.is_euclidean:
            return np.ones(self.interior_flat.size)
        return np.linalg.eigvalsh(self.sig_inv[self.interior_index])[..., -1]

    # -- cell geometry (quadrature on complete lattice cells) --------------

    @cached_property
    def cell_complete(self) -> np.ndarray:
        """Cells whose 2^n corner nodes are all non-exterior."""
        ok = self.used
        out = np.ones(tuple(s - 1 for s in self.shape), dtype=bool)
        for corner in product((0, 1), repeat=self.dim):
            sl = tuple(slice(c, s - 1 + c) for c, s in zip(corner, self.shape))
            out &= ok[sl]
        return out

    @cached_property
    def cell_centers(self) -> np.ndarray:
        half = [0.5 * (a[1:] + a[:-1]) for a in self.axes]
        return np.stack(np.meshgrid(*half, indexing="ij"), axis=-1)

    @cached_property
    def cell_sig_inv(self):
        """sigma^{ij} at the cell centers, [i][j] one contiguous array each."""
        return _components(self.chart.inverse(self.cell_centers), 2)

    @cached_property
    def cell_sqrt_det(self) -> np.ndarray:
        return self.chart.sqrt_det(self.cell_centers)

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))


@dataclass
class GridField:
    """Nodal scalar field on a GridDomain; exterior nodes hold NaN.

    Fields marked interior_only (derived densities like W) are finite on
    interior nodes; ordinary fields are finite on every non-exterior node.
    """

    domain: GridDomain
    values: np.ndarray
    interior_only: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise GridError(f"field shape {self.values.shape} does not match "
                            f"lattice shape {self.domain.shape}")
        used = self.domain.interior if self.interior_only else self.domain.used
        if not np.all(np.isfinite(self.values[used])):
            raise GridError("field has non-finite values on non-exterior nodes")

    @classmethod
    def from_function(cls, domain: GridDomain, fn) -> "GridField":
        """Sample fn(x) as a float at every non-exterior node."""
        vals = np.full(domain.shape, np.nan)
        vals[domain.used] = [float(fn(x)) for x in domain.points[domain.used]]
        return cls(domain, vals)

    @classmethod
    def from_inner_block(cls, domain: GridDomain, block: np.ndarray) -> "GridField":
        """Interior-only field holding an inner-block array's interior values."""
        vals = np.full(domain.shape, np.nan)
        vals.put(domain.interior_flat, block.take(domain.block_interior))
        return cls(domain, vals, interior_only=True)

    @classmethod
    def trusted(cls, domain: GridDomain, values: np.ndarray) -> "GridField":
        """Field over a float lattice array the caller has already checked
        finite on every non-exterior node; skips that scan."""
        u = object.__new__(cls)
        u.domain, u.values, u.interior_only = domain, values, False
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
        if data.interior_only:
            raise GridError("data field is not defined on dirichlet nodes")
        return data
    if callable(data):
        return GridField.from_function(domain, data)
    raise GridError("data must be a GridField or a callable")


def build_domain(chart: MetricChart, h, region=None) -> GridDomain:
    """Discretize the chart box at spacing h and classify nodes.

    h is a scalar or per-axis sequence and must divide every box width.
    Raises GridError when no interior node survives the mask.
    """
    n = chart.dim
    h_arr = np.broadcast_to(np.asarray(h, dtype=float), (n,)).copy()
    if np.any(h_arr <= 0):
        raise GridError(f"spacing must be positive, got {h_arr}")
    axes = []
    for a in range(n):
        lo, hi = chart.box[a]
        steps = (hi - lo) / h_arr[a]
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise GridError(f"h={h_arr[a]} does not divide box width {hi - lo} on axis {a}")
        axes.append(np.linspace(lo, hi, int(round(steps)) + 1))
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    sdf = _region_sdf(region, points, chart.box)
    scale = max(b[1] - b[0] for b in chart.box)
    tol = 1e-12 * scale
    strictly_in = sdf < -tol

    # Interior nodes must keep the full Moore neighborhood on the lattice.
    rim = np.zeros(points.shape[:-1], dtype=bool)
    for a in range(n):
        sl = [slice(None)] * n
        sl[a] = 0
        rim[tuple(sl)] = True
        sl[a] = -1
        rim[tuple(sl)] = True
    interior = strictly_in & ~rim

    if not np.any(interior):
        raise GridError("region is empty after masking: no interior nodes")

    structure = np.ones((3,) * n, dtype=bool)
    touched = ndimage.binary_dilation(interior, structure=structure, border_value=0)
    dirichlet = touched & ~interior

    mask = np.zeros(points.shape[:-1], dtype=np.int8)
    mask[interior] = INTERIOR
    mask[dirichlet] = DIRICHLET
    return GridDomain(chart, h_arr, mask, region, axes)


# -- stencils on the inner block values[1:-1, ..., 1:-1] ---------------------


def _shifted(values: np.ndarray, steps: dict) -> np.ndarray:
    """The inner block of values moved one node along some axes: with
    steps {0: -1, 1: 1} it holds v[i0 - 1, i1 + 1] at inner node (i0, i1)."""
    sl = [INNER] * values.ndim
    for axis, step in steps.items():
        sl[axis] = slice(2, None) if step > 0 else slice(0, -2)
    return values[tuple(sl)]


def matvec(m, v) -> list:
    """Components sum_j m[i][j] v[j] of per-component arrays, m nested
    [i][j] (sigma^{ij} raises an index); m None stands for the identity."""
    if m is None:
        return v
    n = len(v)
    return [sum(m[i][j] * v[j] for j in range(n)) for i in range(n)]


def contract(a, b):
    """sum_i a_i b_i of two lists of per-component arrays."""
    return sum(x * y for x, y in zip(a, b))


def gradient_sweep(domain: GridDomain, values: np.ndarray):
    """Central-difference gradient on the inner block.

    Returns (lowered, raised, gradsq): lowered and raised are lists of n
    block arrays, one per component, and gradsq is |Du|^2_sigma on the
    block.  Entries are meaningful at interior nodes, whose stencils never
    touch exterior data.
    """
    n = domain.dim
    lowered = [(_shifted(values, {a: 1}) - _shifted(values, {a: -1})) / (2.0 * domain.h[a])
               for a in range(n)]
    raised = matvec(None if domain.chart.is_euclidean else domain.block_sig_inv, lowered)
    return lowered, raised, contract(lowered, raised)


def hessian_sweep(domain: GridDomain, values: np.ndarray, lowered=None):
    """Covariant Hessian on the inner block, meaningful at interior nodes.

    hess[a][b] is the block array of D^2_ab u; hess[b][a] is the same array.
    lowered, the gradient from gradient_sweep, saves recomputing it on
    curved charts.
    """
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
        if lowered is None:
            lowered = gradient_sweep(domain, values)[0]
        gamma = domain.block_gamma
        for a in range(n):
            for b in range(a, n):
                corr = sum(gamma[k][a][b] * lowered[k] for k in range(n))
                hess[a][b] = hess[b][a] = hess[a][b] - corr
    return hess


# -- cell-centered quadrature stencils --------------------------------------


def cell_average(domain: GridDomain, values: np.ndarray) -> np.ndarray:
    """Mean of the 2^n corner values per lattice cell."""
    n = domain.dim
    out = np.zeros(tuple(s - 1 for s in domain.shape))
    for corner in product((0, 1), repeat=n):
        sl = tuple(slice(c, s - 1 + c) for c, s in zip(corner, domain.shape))
        out += values[sl]
    return out / 2 ** n


def cell_gradient(domain, values: np.ndarray) -> list:
    """Compact cell-centered gradient from the 2^n corner values.

    Along each axis: difference of the opposite face averages over h.
    Second order at the cell center and free of exterior reads on
    complete cells.  domain is any lattice with dim, shape and per-axis
    spacings h: a GridDomain, or a ProductGrid with its vertical axis last.
    Returns one cell array per axis; each sums the corners in
    lexicographic order.
    """
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


# -- field refinement --------------------------------------------------------


def interpolate_to(u: GridField, fine: GridDomain) -> GridField:
    """Multilinear interpolation of a field onto a finer domain.

    Only supported when the coarse lattice has no exterior nodes (box-type
    regions), so every interpolation cell has data.
    """
    from scipy.interpolate import RegularGridInterpolator

    coarse = u.domain
    if np.any(coarse.mask == EXTERIOR):
        raise GridError("interpolate_to needs a coarse domain without exterior nodes")
    interp = RegularGridInterpolator(tuple(coarse.axes), u.values, method="linear",
                                     bounds_error=False, fill_value=None)
    vals = interp(fine.points.reshape(-1, fine.dim)).reshape(fine.shape)
    vals = np.where(fine.used, vals, np.nan)
    return GridField(fine, vals)


# -- CSV persistence ---------------------------------------------------------


def save_field_csv(u: GridField, path) -> None:
    """One row per node: i1..in, x1..xn, mask, value."""
    dom = u.domain
    n = dom.dim
    header = [f"i{a + 1}" for a in range(n)] + [f"x{a + 1}" for a in range(n)] \
        + ["mask", "value"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for idx in np.ndindex(*dom.shape):
            row = [str(v) for v in idx]
            row += [repr(float(c)) for c in dom.points[idx]]
            row.append(str(int(dom.mask[idx])))
            row.append(repr(float(u.values[idx])))
            writer.writerow(row)


def load_field_csv(path, domain: GridDomain) -> GridField:
    """Rebuild a field over a matching domain from its CSV form."""
    n = domain.dim
    values = np.full(domain.shape, np.nan)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            idx = tuple(int(v) for v in row[:n])
            if int(row[2 * n]) != int(domain.mask[idx]):
                raise GridError(f"mask mismatch at node {idx}: CSV does not match domain")
            values[idx] = float(row[2 * n + 1])
    return GridField(domain, values)
