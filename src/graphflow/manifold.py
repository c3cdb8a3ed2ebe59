"""Riemannian coordinate charts.

A chart kind supplies, at any point x of its coordinate box, the metric
sigma_ij(x) and its Christoffel symbols; the inverse sigma^{ij} and the
volume factor sqrt(det sigma) are derived from the metric for every kind.
The Christoffel symbols are

    Gamma^k_ij = (1/2) sigma^{kl} (d_i sigma_{jl} + d_j sigma_{il} - d_l sigma_{ij}).

Built-in kinds: ``euclidean``, ``poincare_disk`` (4 delta_ij/(1-|x|^2)^2),
``sphere_polar`` (diag(R^2, R^2 sin^2 theta)), ``warped_product``
(diag(1, w(x1)^2, ...) with affine w) and ``custom_table`` (metric entries
interpolated multilinearly from nodal samples, Christoffels by central
differencing with step 1e-4 times the smallest box width).

All evaluators are vectorized over leading point axes: x of shape (..., n)
yields metric arrays of shape (..., n, n).
"""

from __future__ import annotations

import csv
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import ChartError, ConfigError

# the params each built-in kind reads; a custom_table takes axes and table
# samples, or a csv path to read them from
CHART_PARAMS = {"euclidean": (), "poincare_disk": (), "sphere_polar": ("radius",),
                "warped_product": ("a", "b"), "custom_table": ("axes", "table", "csv")}
BUILTIN_KINDS = tuple(CHART_PARAMS)
CHART_KEYS = ("kind", "n", "box", "params")  # keys chart_from_spec reads

# Positive-definiteness is sampled on this many points per axis at build time.
_PD_SAMPLES_PER_AXIS = 9


class MetricChart(NamedTuple):
    """A coordinate chart with metric callbacks and bounds.

    A kind supplies metric_fn (sigma_ij) and christoffel_fn (Gamma^k_ij,
    closed form or differenced); sigma^{ij} and sqrt(det sigma) are derived
    from the metric on each call, at the points asked for.  The box is the
    closed coordinate rectangle on which the chart is valid.
    """

    kind: str
    dim: int
    box: tuple[tuple[float, float], ...]
    params: dict
    metric_fn: Callable[[np.ndarray], np.ndarray]
    christoffel_fn: Callable[[np.ndarray], np.ndarray]
    is_euclidean: bool = False

    def metric(self, x) -> np.ndarray:
        return self.metric_fn(np.asarray(x, dtype=float))

    def inverse(self, x) -> np.ndarray:
        return np.linalg.inv(self.metric(x))

    def sqrt_det(self, x) -> np.ndarray:
        sign, logdet = np.linalg.slogdet(self.metric(x))
        if np.any(sign <= 0):
            raise ChartError(f"metric of chart '{self.kind}' is not positive definite")
        return np.exp(0.5 * logdet)

    def christoffel(self, x) -> np.ndarray:
        """Gamma indexed [..., k, i, j]."""
        return self.christoffel_fn(np.asarray(x, dtype=float))

    def contains(self, x) -> np.ndarray:
        """Componentwise box membership."""
        x = np.asarray(x, dtype=float)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        tol = 1e-12 * np.maximum(hi - lo, 1.0)
        ok = (x >= lo - tol) & (x <= hi + tol)
        return np.all(ok, axis=-1)


def _checked_points(chart: MetricChart, x) -> np.ndarray:
    """x as a float array; ChartError unless its points are chart.dim long
    and lie in the chart box."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != chart.dim:
        raise ChartError(f"point has dimension {x.shape[-1]}, chart has {chart.dim}")
    if not np.all(chart.contains(x)):
        raise ChartError(f"point {x} outside chart box {chart.box}")
    return x


def metric_at(chart: MetricChart, x) -> np.ndarray:
    """The metric sigma_ij at points x (..., n), indexed [..., i, j].

    The metric is evaluated once.  Raises ChartError if x leaves the chart
    box or the metric fails to be positive definite there.
    """
    x = _checked_points(chart, x)
    sig = chart.metric(x)
    try:
        np.linalg.cholesky(sig)
    except np.linalg.LinAlgError:
        raise ChartError(f"metric not positive definite at {x}") from None
    return sig


def christoffel_at(chart: MetricChart, x) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij at points x (..., n), indexed [..., k, i, j].

    Raises ChartError if x leaves the chart box.  A differenced chart reads
    its metric a differencing step past the box edge there, which a
    custom_table metric extrapolates linearly.
    """
    return chart.christoffel(_checked_points(chart, x))


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


def _poincare_chart(n: int, box, params) -> MetricChart:
    def conf(x):
        r2 = np.sum(x * x, axis=-1)
        if np.any(r2 >= 1.0):
            raise ChartError("poincare_disk point outside the open unit ball")
        return 2.0 / (1.0 - r2)

    def metric(x):
        lam = conf(x) ** 2
        return lam[..., None, None] * np.eye(n)

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

    return MetricChart("poincare_disk", n, box, params, metric, christoffel)


def _sphere_chart(box, params) -> MetricChart:
    radius = float(params.get("radius", 1.0))
    if not (radius > 0 and radius * radius < np.inf):  # NaN fails, and so does an infinite R^2
        raise ChartError("sphere_polar radius must be positive with a finite square, "
                         f"got {radius!r}")

    def metric(x):
        theta = x[..., 0]
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = radius ** 2
        out[..., 1, 1] = (radius * np.sin(theta)) ** 2
        return out

    def christoffel(x):
        theta = x[..., 0]
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 1, 1] = -np.sin(theta) * np.cos(theta)
        cot = np.cos(theta) / np.sin(theta)
        out[..., 1, 0, 1] = cot
        out[..., 1, 1, 0] = cot
        return out

    return MetricChart("sphere_polar", 2, box, params, metric, christoffel)


def _warped_chart(n: int, box, params) -> MetricChart:
    a = float(params.get("a", 1.0))
    b = float(params.get("b", 0.25))

    def warp(s):
        return a + b * s

    lo, hi = box[0]
    ends = (warp(lo), warp(hi))
    if not (min(ends) > 0 or max(ends) < 0):  # w is affine: one sign at both ends holds between
        raise ChartError(f"warped_product warp a + b x1 vanishes on the chart box: it is "
                         f"{ends[0]!r} at x1 = {lo!r} and {ends[1]!r} at x1 = {hi!r}")
    squares = tuple(w * w for w in ends)  # |w| is largest at an end, so these bound w^2
    if not max(squares) < np.inf:
        raise ChartError(f"metric of kind 'warped_product' is not finite on the chart box: "
                         f"the warp a + b x1 with a = {a!r}, b = {b!r} squares to "
                         f"{squares[0]!r} at x1 = {lo!r} and {squares[1]!r} at x1 = {hi!r}")

    def metric(x):
        w2 = warp(x[..., 0]) ** 2
        out = np.zeros(x.shape[:-1] + (n, n))
        out[..., 0, 0] = 1.0
        for j in range(1, n):
            out[..., j, j] = w2
        return out

    def christoffel(x):
        w = warp(x[..., 0])
        out = np.zeros(x.shape[:-1] + (n, n, n))
        for j in range(1, n):
            out[..., 0, j, j] = -w * b
            out[..., j, 0, j] = b / w
            out[..., j, j, 0] = b / w
        return out

    return MetricChart("warped_product", n, box, params, metric, christoffel)


def _multilinear_interp(axes: tuple[np.ndarray, ...], table: np.ndarray, x: np.ndarray):
    """Multilinear interpolation of table values sampled on a tensor lattice.

    table has shape (len(axes[0]), ..., len(axes[-1])) followed by any
    trailing value shape; points outside the lattice extrapolate linearly
    from the edge cells.
    """
    n = len(axes)
    idx = [np.clip(np.searchsorted(ax, x[..., a]) - 1, 0, len(ax) - 2)
           for a, ax in enumerate(axes)]
    frac = [(x[..., a] - ax[i]) / (ax[i + 1] - ax[i]) for a, (ax, i) in enumerate(zip(axes, idx))]
    out = np.zeros(x.shape[:-1] + table.shape[n:])
    for corner in range(2 ** n):
        bits = [(corner >> a) & 1 for a in range(n)]
        weight = np.ones(x.shape[:-1])
        for f, bit in zip(frac, bits):
            weight = weight * (f if bit else (1.0 - f))
        sel = tuple(i + bit for i, bit in zip(idx, bits))
        out += weight[(Ellipsis,) + (None,) * (table.ndim - n)] * table[sel]
    return out


def _table_chart(n: int, box, params) -> MetricChart:
    axes = tuple(np.asarray(a, dtype=float) for a in params["axes"])
    table = np.asarray(params["table"], dtype=float)
    if len(axes) != n:
        raise ChartError("custom_table axes do not match the chart dimension")
    for a, ax in enumerate(axes):
        if ax.ndim != 1 or len(ax) < 2 or not np.all(ax[1:] > ax[:-1]):
            raise ChartError(f"custom_table axis {a} needs at least two strictly increasing "
                             f"samples, got {ax.tolist()}")
    if table.shape != tuple(len(a) for a in axes) + (n, n):
        raise ChartError(f"custom_table shape {table.shape} does not match axes")
    if not np.all(np.isfinite(table)):
        *node, i, j = np.argwhere(~np.isfinite(table))[0].tolist()
        raise ChartError(f"custom_table metric entry s{i + 1}{j + 1} at sample {tuple(node)} "
                         "is not finite")
    if not np.allclose(table, np.swapaxes(table, -1, -2), atol=1e-12):
        raise ChartError("custom_table metric samples are not symmetric")

    def metric(x):
        return _multilinear_interp(axes, table, x)

    step = 1e-4 * min(hi - lo for lo, hi in box)
    chart = MetricChart("custom_table", n, box, dict(params, axes=axes, table=table), metric,
                        lambda x: fd_christoffel_at(chart, x, step))
    return chart


def _default_box(kind: str, n: int):
    if kind == "poincare_disk":  # corner^2 n <= 0.98, inside the unit ball for every n
        half = 0.7 * min(1.0, math.sqrt(2.0 / n))
        return tuple((-half, half) for _ in range(n))
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
    if not np.isfinite([v for b in box for v in b]).all():
        raise ChartError(f"chart box bounds must be finite, got {box}")
    if len(box) != n or any(b[1] <= b[0] for b in box):
        raise ChartError(f"invalid chart box {box}")

    if kind == "euclidean":
        eye = np.eye(n)
        chart = MetricChart(kind, n, box, params, lambda x: np.zeros(x.shape[:-1] + (n, n)) + eye,
                            lambda x: np.zeros(x.shape[:-1] + (n, n, n)), is_euclidean=True)
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

    _check_positive_definite(chart)
    return chart


def _check_positive_definite(chart: MetricChart) -> None:
    axes = [np.linspace(b[0], b[1], _PD_SAMPLES_PER_AXIS) for b in chart.box]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, chart.dim)
    sig = chart.metric(pts)
    bad = ~np.all(np.isfinite(sig), axis=(-2, -1))
    if np.any(bad):
        raise ChartError(f"metric of kind '{chart.kind}' is not finite at "
                         f"{pts[np.argmax(bad)].tolist()} on the chart box")
    try:
        np.linalg.cholesky(sig)
    except np.linalg.LinAlgError:
        raise ChartError(f"metric of kind '{chart.kind}' is not positive definite "
                         "on the chart box") from None


def chart_dimension(n) -> int:
    """A chart spec's n as an int; ConfigError unless it is a whole number >= 1."""
    whole = isinstance(n, int) or isinstance(n, float) and n.is_integer()
    if isinstance(n, bool) or not whole or n < 1:
        raise ConfigError(f"chart n must be a whole number >= 1, got {n!r:.80}")
    return int(n)


def chart_from_spec(spec: dict) -> MetricChart:
    """Build a chart from its JSON form {"kind", "n", "box", "params"}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ChartError("chart spec must be an object with a 'kind' key")
    kind = spec["kind"]
    n = chart_dimension(spec.get("n", 2))
    params = dict(spec.get("params", {}))
    if kind == "custom_table" and "csv" in params:
        axes, table = load_metric_table(params.pop("csv"), n)
        params["axes"] = axes
        params["table"] = table
    return builtin_chart(kind, n=n, box=spec.get("box"), params=params)


def load_metric_table(path: str, n: int):
    """Read nodal metric samples from CSV columns x1..xn, s11, s12, ..., snn.

    Rows must form a full tensor lattice, each point once; the row-major
    entry order of the metric block is symmetric-redundant but stored in full.
    """
    rows, seen = [], {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ChartError(f"metric table {str(path)!r} is empty")
        width = n + n * n
        if len(header) != width:
            raise ChartError(f"metric table needs {width} columns, found {len(header)}")
        for line, row in enumerate(reader, start=2):
            try:
                if len(row) != width:
                    raise ValueError(f"{len(row)} columns, expected {width}")
                rows.append([float(v) for v in row])
                point = tuple(rows[-1][:n])
                first = seen.setdefault(point, line)
                if first != line:
                    raise ValueError(f"repeats the lattice point {point} of row {first}")
            except ValueError as exc:
                raise ChartError(f"metric table {str(path)!r} row {line}: {exc}") from None
    if not rows:
        raise ChartError(f"metric table {str(path)!r} has no data rows")
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
