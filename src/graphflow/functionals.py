"""Geometric functionals of graphs.

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

The product-lattice set functionals (perimeter, subgraph perimeter,
vertical rearrangement) that check the lattice's BV identities are not
part of the pipeline; they live with the tests, in tests/set_functionals.py,
and acceptance criteria 07 and 08 read them there.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import FunctionalError
from .grid import GridDomain, GridField, as_field, cell_gradient, contract, matvec


class FunctionalReport(NamedTuple):
    """One evaluated functional and its boundary part."""

    value: float
    boundary_term: float | None = None


def _cell_w(domain: GridDomain, values: np.ndarray):
    """(gradsq, W) at the complete cells, in cell_flat order."""
    grad = cell_gradient(domain, values.take(domain.cell_table))
    sig = None if domain.chart.is_euclidean else domain.cell_sig_inv
    gradsq = contract(grad, matvec(sig, grad))
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
    bvals = as_field(dom, phi).values.take(dom.dirichlet_flat)
    uvals = u.values.take(dom.dirichlet_flat)
    facets = dom.chart.sqrt_det(dom.node_points(dom.dirichlet_flat)) * _facet_measure(dom)
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

