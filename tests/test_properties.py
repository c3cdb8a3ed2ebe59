"""Property tests of the explicit operator and step on random lattices and data.

The examples are drawn from a fixed sequence without an example database,
so every run of the suite checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from graphflow.flow import FlowParams, flow_step, initial_state, q_operator
from graphflow.grid import GridField, build_domain
from graphflow.manifold import builtin_chart

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)


@st.composite
def boxes(draw):
    """Euclidean box domain, n = 2 or 3, with a random corner, random cell
    counts and a random spacing per axis."""
    n = draw(st.sampled_from((2, 3)))
    cells = [draw(st.integers(2, 8 if n == 2 else 5)) for _ in range(n)]
    h = [draw(st.floats(0.05, 0.5)) for _ in range(n)]
    lo = [draw(st.floats(-2.0, 2.0)) for _ in range(n)]
    box = [[a, a + c * s] for a, c, s in zip(lo, cells, h)]
    return build_domain(builtin_chart("euclidean", n=n, box=box), h)


@PROPERTY_SETTINGS
@given(dom=boxes(), data=st.data())
def test_q_annihilates_affine_fields(dom, data):
    coeffs = data.draw(arrays(np.float64, dom.dim, elements=st.floats(-3.0, 3.0)))
    offset = data.draw(st.floats(-3.0, 3.0))
    u = GridField(dom, dom.points @ coeffs + offset)
    q = q_operator(u).values[dom.interior_index]
    # second differences of values rounded to eps |u| are at most
    # (8n + n^2) eps |u| / h^2 off zero
    tol = 64 * np.finfo(float).eps * (1.0 + u.sup_abs()) / float(np.min(dom.h)) ** 2
    assert np.max(np.abs(q)) <= tol


@PROPERTY_SETTINGS
@given(dom=boxes(), data=st.data(), eps=st.floats(0.0, 0.2), cfl=st.floats(0.01, 0.25))
def test_one_step_keeps_maximum_principle(dom, data, eps, cfl):
    # cfl <= 1/4 keeps dt within the explicit Laplacian's limit h^2 / 2n
    u0 = GridField(dom, data.draw(arrays(np.float64, dom.shape,
                                         elements=st.floats(-1.0, 1.0))))
    params = FlowParams(eps=eps, cfl=cfl, t_end=1.0)
    state = initial_state(u0, u0, params)
    flow_step(state, params)
    vals = state.u.values[dom.used]
    assert np.min(vals) >= state.bound_lo - 1e-12
    assert np.max(vals) <= state.bound_hi + 1e-12


@pytest.mark.xfail(strict=True, reason="the 4-point cross stencil gives two corner "
                   "neighbors negative weight, so the explicit step is not monotone")
def test_one_step_maximum_principle_with_cross_terms():
    # unit slopes along both axes at the center node, with the two corners
    # that carry a negative weight far below the maximum
    dom = build_domain(builtin_chart("euclidean", n=2), 0.1)
    vals = np.ones(dom.shape)
    vals[4, 5] = vals[5, 4] = 0.8
    vals[4, 4] = vals[6, 6] = -1.0
    u0 = GridField(dom, vals)
    params = FlowParams(eps=0.0, t_end=1.0)
    state = initial_state(u0, u0, params)
    flow_step(state, params)
    assert np.max(state.u.values) <= state.bound_hi + 1e-12
