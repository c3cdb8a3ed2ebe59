"""Riemannian coordinate charts.

A chart supplies, at any point x of its coordinate box, the metric
sigma_ij(x), its inverse sigma^{ij}, the volume factor sqrt(det sigma) and
the Christoffel symbols

    Gamma^k_ij = (1/2) sigma^{kl} (d_i sigma_{jl} + d_j sigma_{il} - d_l sigma_{ij}).

Built-in kinds: ``euclidean``, ``poincare_disk`` (4 delta_ij/(1-|x|^2)^2),
``sphere_polar`` (diag(R^2, R^2 sin^2 theta)), ``warped_product``
(diag(1, w(x1)^2, ...) with affine w) and ``custom_table`` (metric entries
interpolated multilinearly from nodal samples, Christoffels by central
differencing).

All evaluators are vectorized over leading point axes: x of shape (..., n)
yields metric arrays of shape (..., n, n).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ChartError

# the params each built-in kind reads; a custom_table takes axes and table
# samples, or a csv path to read them from
CHART_PARAMS = {"euclidean": (), "poincare_disk": (), "sphere_polar": ("radius",),
                "warped_product": ("a", "b"), "custom_table": ("axes", "table", "csv")}
BUILTIN_KINDS = tuple(CHART_PARAMS)
CHART_KEYS = ("kind", "n", "box", "params")  # keys chart_from_spec reads

# Positive-definiteness is sampled on this many points per axis at build time.
_PD_SAMPLES_PER_AXIS = 9


@dataclass(frozen=True)
class MetricChart:
    """A coordinate chart with metric callbacks and bounds.

    The box is the closed coordinate rectangle on which the chart is valid.
    christoffel_h is the differencing step used when no closed form exists.
    """

    kind: str
    dim: int
    box: tuple[tuple[float, float], ...]
    params: dict
    metric_fn: Callable[[np.ndarray], np.ndarray]
    inverse_fn: Callable[[np.ndarray], np.ndarray] | None = None
    christoffel_fn: Callable[[np.ndarray], np.ndarray] | None = None
    christoffel_h: float = 0.0
    is_euclidean: bool = False

    def metric(self, x) -> np.ndarray:
        return self.metric_fn(np.asarray(x, dtype=float))

    def inverse(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.inverse_fn is not None:
            return self.inverse_fn(x)
        return np.linalg.inv(self.metric_fn(x))

    def sqrt_det(self, x) -> np.ndarray:
        sig = self.metric(np.asarray(x, dtype=float))
        sign, logdet = np.linalg.slogdet(sig)
        if np.any(sign <= 0):
            raise ChartError(f"metric of chart '{self.kind}' is not positive definite")
        return np.exp(0.5 * logdet)

    def christoffel(self, x) -> np.ndarray:
        """Gamma indexed [..., k, i, j]: closed form, else central differences."""
        x = np.asarray(x, dtype=float)
        if self.christoffel_fn is not None:
            return self.christoffel_fn(x)
        return fd_christoffel_at(self, x, self.christoffel_h)

    def contains(self, x, margin: float = 0.0) -> np.ndarray:
        """Componentwise box membership with an optional inner margin."""
        x = np.asarray(x, dtype=float)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        tol = 1e-12 * np.maximum(hi - lo, 1.0)
        ok = (x >= lo + margin - tol) & (x <= hi - margin + tol)
        return np.all(ok, axis=-1)


def _check_point_shape(chart: MetricChart, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != chart.dim:
        raise ChartError(f"point has dimension {x.shape[-1]}, chart has {chart.dim}")
    return x


def metric_at(chart: MetricChart, x):
    """Metric data at a point: (sigma, sigma_inv, sqrt_det).

    Raises ChartError if x leaves the chart box or the metric fails to be
    positive definite there.
    """
    x = _check_point_shape(chart, x)
    if not np.all(chart.contains(x)):
        raise ChartError(f"point {x} outside chart box {chart.box}")
    sig = chart.metric(x)
    try:
        np.linalg.cholesky(sig)
    except np.linalg.LinAlgError:
        raise ChartError(f"metric not positive definite at {x}") from None
    return sig, chart.inverse(x), chart.sqrt_det(x)


def christoffel_at(chart: MetricChart, x) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij at x, indexed [k, i, j].

    Differenced charts need x at least two differencing steps inside the box.
    """
    x = _check_point_shape(chart, x)
    margin = 0.0 if chart.christoffel_fn is not None else 2.0 * chart.christoffel_h
    if not np.all(chart.contains(x, margin=margin)):
        raise ChartError(f"point {x} too close to the chart box edge for Christoffel stencil")
    return chart.christoffel(x)


def fd_christoffel_at(chart: MetricChart, x, h: float) -> np.ndarray:
    """Central-difference Christoffels from metric samples with step h."""
    x = np.asarray(x, dtype=float)
    n = chart.dim
    base = np.broadcast_to(x, x.shape).astype(float)
    dsig = np.empty(base.shape[:-1] + (n, n, n))  # [..., l, i, j] = d_l sigma_ij
    for axis in range(n):
        xp = base.copy()
        xm = base.copy()
        xp[..., axis] += h
        xm[..., axis] -= h
        dsig[..., axis, :, :] = (chart.metric(xp) - chart.metric(xm)) / (2.0 * h)
    inv = chart.inverse(base)
    # Gamma^k_ij = 1/2 sigma^{kl} (d_i sigma_jl + d_j sigma_il - d_l sigma_ij),
    # with dsig[..., l, i, j] = d_l sigma_ij.
    low = np.empty(base.shape[:-1] + (n, n, n))  # low[..., l, i, j]
    for i in range(n):
        for j in range(n):
            for l in range(n):
                low[..., l, i, j] = 0.5 * (dsig[..., i, j, l] + dsig[..., j, i, l]
                                           - dsig[..., l, i, j])
    return np.einsum("...kl,...lij->...kij", inv, low)


def _euclidean_metric(n: int):
    eye = np.eye(n)

    def metric(x):
        return np.broadcast_to(eye, x.shape[:-1] + (n, n)).copy()

    return metric


def _poincare_chart(n: int, box, params) -> MetricChart:
    def conf(x):
        r2 = np.sum(x * x, axis=-1)
        if np.any(r2 >= 1.0):
            raise ChartError("poincare_disk point outside the open unit ball")
        return 2.0 / (1.0 - r2)

    def metric(x):
        lam = conf(x) ** 2
        return lam[..., None, None] * np.eye(n)

    def inverse(x):
        lam = conf(x) ** 2
        return (1.0 / lam)[..., None, None] * np.eye(n)

    def christoffel(x):
        # Conformal metric e^{2f} delta with f = log(2/(1-|x|^2)):
        # Gamma^k_ij = delta_ik f_j + delta_jk f_i - delta_ij f_k.
        r2 = np.sum(x * x, axis=-1)
        f = 2.0 * x / (1.0 - r2)[..., None]
        out = np.zeros(x.shape[:-1] + (n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[..., k, i, j] = ((k == i) * f[..., j] + (k == j) * f[..., i]
                                         - (i == j) * f[..., k])
        return out

    return MetricChart("poincare_disk", n, box, params, metric, inverse, christoffel)


def _sphere_chart(box, params) -> MetricChart:
    radius = float(params.get("radius", 1.0))
    if radius <= 0:
        raise ChartError("sphere_polar radius must be positive")

    def metric(x):
        theta = x[..., 0]
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = radius ** 2
        out[..., 1, 1] = (radius * np.sin(theta)) ** 2
        return out

    def inverse(x):
        theta = x[..., 0]
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = radius ** -2
        out[..., 1, 1] = 1.0 / (radius * np.sin(theta)) ** 2
        return out

    def christoffel(x):
        theta = x[..., 0]
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 1, 1] = -np.sin(theta) * np.cos(theta)
        cot = np.cos(theta) / np.sin(theta)
        out[..., 1, 0, 1] = cot
        out[..., 1, 1, 0] = cot
        return out

    return MetricChart("sphere_polar", 2, box, params, metric, inverse, christoffel)


def _warped_chart(n: int, box, params) -> MetricChart:
    a = float(params.get("a", 1.0))
    b = float(params.get("b", 0.25))

    def warp(s):
        return a + b * s

    def metric(x):
        w2 = warp(x[..., 0]) ** 2
        out = np.zeros(x.shape[:-1] + (n, n))
        out[..., 0, 0] = 1.0
        for j in range(1, n):
            out[..., j, j] = w2
        return out

    def inverse(x):
        w2 = warp(x[..., 0]) ** 2
        out = np.zeros(x.shape[:-1] + (n, n))
        out[..., 0, 0] = 1.0
        for j in range(1, n):
            out[..., j, j] = 1.0 / w2
        return out

    def christoffel(x):
        w = warp(x[..., 0])
        out = np.zeros(x.shape[:-1] + (n, n, n))
        for j in range(1, n):
            out[..., 0, j, j] = -w * b
            out[..., j, 0, j] = b / w
            out[..., j, j, 0] = b / w
        return out

    return MetricChart("warped_product", n, box, params, metric, inverse, christoffel)


def _multilinear_interp(axes: tuple[np.ndarray, ...], table: np.ndarray, x: np.ndarray):
    """Multilinear interpolation of table values sampled on a tensor lattice.

    table has shape (len(axes[0]), ..., len(axes[-1]), n, n).
    """
    n = len(axes)
    idx = []
    frac = []
    for a in range(n):
        ax = axes[a]
        pos = np.clip(np.searchsorted(ax, x[..., a]) - 1, 0, len(ax) - 2)
        idx.append(pos)
        frac.append((x[..., a] - ax[pos]) / (ax[pos + 1] - ax[pos]))
    out = np.zeros(x.shape[:-1] + table.shape[n:])
    for corner in range(2 ** n):
        weight = np.ones(x.shape[:-1])
        sel = []
        for a in range(n):
            bit = (corner >> a) & 1
            sel.append(idx[a] + bit)
            weight = weight * (frac[a] if bit else (1.0 - frac[a]))
        out += weight[..., None, None] * table[tuple(sel)]
    return out


def _table_chart(n: int, box, params) -> MetricChart:
    axes = tuple(np.asarray(a, dtype=float) for a in params["axes"])
    table = np.asarray(params["table"], dtype=float)
    if len(axes) != n:
        raise ChartError("custom_table axes do not match the chart dimension")
    if table.shape != tuple(len(a) for a in axes) + (n, n):
        raise ChartError(f"custom_table shape {table.shape} does not match axes")
    if not np.allclose(table, np.swapaxes(table, -1, -2), atol=1e-12):
        raise ChartError("custom_table metric samples are not symmetric")

    def metric(x):
        return _multilinear_interp(axes, table, x)

    return MetricChart("custom_table", n, box, dict(params, axes=axes, table=table), metric)


def _default_box(kind: str, n: int):
    if kind == "poincare_disk":
        return tuple((-0.7, 0.7) for _ in range(n))
    if kind == "sphere_polar":
        return ((0.4, np.pi - 0.4), (0.0, 1.5))
    return tuple((0.0, 1.0) for _ in range(n))


def builtin_chart(kind: str, n: int = 2, box=None, params: dict | None = None) -> MetricChart:
    """Construct a chart of one of the built-in kinds.

    The metric is checked for positive definiteness on a coarse sample
    lattice of the box at construction time.
    """
    params = dict(params or {})
    if kind not in BUILTIN_KINDS:
        raise ChartError(f"unknown chart kind '{kind}' (expected one of {BUILTIN_KINDS})")
    if kind == "sphere_polar" and n != 2:
        raise ChartError("sphere_polar chart is two-dimensional")
    if n < 1:
        raise ChartError("chart dimension must be at least 1")
    box = tuple(tuple(map(float, b)) for b in (box or _default_box(kind, n)))
    if len(box) != n or any(b[1] <= b[0] for b in box):
        raise ChartError(f"invalid chart box {box}")

    if kind == "euclidean":
        chart = MetricChart(kind, n, box, params, _euclidean_metric(n),
                            inverse_fn=_euclidean_metric(n),
                            christoffel_fn=lambda x: np.zeros(x.shape[:-1] + (n, n, n)),
                            is_euclidean=True)
    elif kind == "poincare_disk":
        corner = max(abs(v) for b in box for v in b)
        if corner ** 2 * n >= 1.0:
            raise ChartError("poincare_disk box must stay inside the open unit ball")
        chart = _poincare_chart(n, box, params)
    elif kind == "sphere_polar":
        if box[0][0] <= 0.0 or box[0][1] >= np.pi:
            raise ChartError("sphere_polar box must avoid the poles theta = 0, pi")
        chart = _sphere_chart(box, params)
    elif kind == "warped_product":
        chart = _warped_chart(n, box, params)
    else:
        chart = _table_chart(n, box, params)

    width = min(b[1] - b[0] for b in box)
    chart = replace(chart, christoffel_h=1e-4 * width)
    _check_positive_definite(chart)
    return chart


def _check_positive_definite(chart: MetricChart) -> None:
    axes = [np.linspace(b[0], b[1], _PD_SAMPLES_PER_AXIS) for b in chart.box]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    sig = chart.metric(pts.reshape(-1, chart.dim))
    try:
        np.linalg.cholesky(sig)
    except np.linalg.LinAlgError:
        raise ChartError(f"metric of kind '{chart.kind}' is not positive definite "
                         "on the chart box") from None


def chart_from_spec(spec: dict) -> MetricChart:
    """Build a chart from its JSON form {"kind", "n", "box", "params"}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ChartError("chart spec must be an object with a 'kind' key")
    kind = spec["kind"]
    n = int(spec.get("n", 2))
    params = dict(spec.get("params", {}))
    if kind == "custom_table" and "csv" in params:
        axes, table = load_metric_table(params.pop("csv"), n)
        params["axes"] = axes
        params["table"] = table
    return builtin_chart(kind, n=n, box=spec.get("box"), params=params)


def load_metric_table(path: str, n: int):
    """Read nodal metric samples from CSV columns x1..xn, s11, s12, ..., snn.

    Rows must form a full tensor lattice; the row-major entry order of the
    metric block is symmetric-redundant but stored in full.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        width = n + n * n
        if len(header) != width:
            raise ChartError(f"metric table needs {width} columns, found {len(header)}")
        for row in reader:
            rows.append([float(v) for v in row])
    data = np.asarray(rows, dtype=float)
    axes = []
    for a in range(n):
        axes.append(np.unique(data[:, a]))
    shape = tuple(len(ax) for ax in axes)
    if int(np.prod(shape)) != len(data):
        raise ChartError("metric table rows do not form a full lattice")
    order = np.lexsort(tuple(data[:, a] for a in reversed(range(n))))
    entries = data[order, n:].reshape(shape + (n, n))
    return tuple(axes), entries
