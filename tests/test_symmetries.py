"""Metamorphic checks from the PDE's symmetries, through graphflow run.

L^eps is odd, L^eps(-u) = -L^eps u, so negating phi and u0 negates every
leg limit.  On a chart and region that x1 -> -x1 and x1 <-> x2 map to
themselves (a centred disc in a euclidean box, or in poincare_disk, whose
metric is radial) L^eps is also equivariant, so mirroring the data mirrors
u_bar.  The configs are shaped like the benchmark's poincare_mixed and
disc_barrier at h=1/16, with the lattice symmetric about the origin, and
each has a 2-leg explicit schedule, so leg 1 stops at the gap resolution.
"""

import json

import numpy as np
import pytest

from graphflow.cli import main

SHAPES = {
    "poincare": {"chart": {"kind": "poincare_disk", "n": 2, "box": [[-0.625, 0.625]] * 2},
                 "region": {"region": "disc", "center": [0.0, 0.0], "radius": 0.5}},
    "disc": {"chart": {"kind": "euclidean", "n": 2, "box": [[-0.5, 0.5]] * 2},
             "region": {"region": "disc", "center": [0.0, 0.0], "radius": 0.4}},
}
ZERO = {"kind": "constant", "value": 0.0}
LINEAR = {"kind": "linear", "coeffs": [0.1, 0.05]}  # poincare_mixed's phi
STEP = {"kind": "radial_step", "center": [0.1, 0.05], "radius": 0.3,
        "inside": 0.5, "outside": -0.2}
# Reflection and swap are not bitwise: a few stencil sums run in a fixed
# axis order.  Measured on these cases: at most 1.4e-16 (STEP, sup|phi| 0.5)
# and 2.1e-17 to 3.5e-17 (LINEAR); the bound leaves 7x headroom
MIRROR_TOL = 1e-15


def run(tmp_path, name, shape, phi, u0):
    cfg = {**SHAPES[shape], "h": 1.0 / 16, "phi": phi, "u0": u0,
           "flow": {"t_end": 50.0}, "schedule": [0.1, 0.05], "tol": 1e-6}
    (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    out = tmp_path / name
    assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0
    table = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    side = int(table[:, 0].max()) + 1
    cont, att = (json.loads((out / f"{kind}.json").read_text())
                 for kind in ("continuation", "attainment"))
    return {"u": table[:, -1].reshape(side, side), "mask": table[:, -2].reshape(side, side),
            "barrier": (out / "barrier.json").read_bytes(),
            "counts": [att[k] for k in ("attained", "detached", "uncertified")],
            "evaluations": [leg["evaluations"] for leg in cont["legs"]]}


def negated(spec):
    keys = {"constant": ("value",), "sine_product": ("amplitude",),
            "radial_step": ("inside", "outside")}.get(spec["kind"], ())
    out = {**spec, **{k: -spec[k] for k in keys}}
    if spec["kind"] == "linear":
        out["coeffs"] = [-c for c in spec["coeffs"]]
    return out


@pytest.mark.parametrize("shape,phi,u0", [
    ("poincare", LINEAR, ZERO),
    ("poincare", STEP, ZERO),
    ("disc", {"kind": "constant", "value": 0.2}, {"kind": "constant", "value": 0.2}),
    ("disc", STEP, {"kind": "sine_product", "amplitude": 0.05, "waves": [2, 1]}),
], ids=["poincare_mixed", "poincare_step", "disc_barrier", "disc_step"])
def test_negated_data_negates_the_run(tmp_path, shape, phi, u0):
    base = run(tmp_path, "base", shape, phi, u0)
    odd = run(tmp_path, "odd", shape, negated(phi), negated(u0))
    assert np.array_equal(odd["u"], -base["u"], equal_nan=True)
    assert odd["barrier"] == base["barrier"]
    assert odd["counts"] == base["counts"]
    assert odd["evaluations"] == base["evaluations"]


# each transform: (its action on a point, on the solution grid [i1, i2])
TRANSFORMS = {"reflect": (lambda x: [-x[0], x[1]], lambda u: u[::-1, :]),
              "swap": (lambda x: [x[1], x[0]], lambda u: u.T)}


def mirrored(spec, point_map):
    if spec["kind"] == "linear":  # phi(x) = c . x, so phi(T x) has coefficients T c
        return {**spec, "coeffs": point_map(spec["coeffs"])}
    return {**spec, "center": point_map(spec["center"])}


@pytest.mark.parametrize("transform", list(TRANSFORMS))
@pytest.mark.parametrize("shape,phi", [("poincare", LINEAR), ("poincare", STEP), ("disc", STEP)],
                         ids=["poincare_mixed", "poincare_step", "disc_step"])
def test_mirrored_data_mirrors_the_limit(tmp_path, shape, phi, transform):
    point_map, grid_map = TRANSFORMS[transform]
    base = run(tmp_path, "base", shape, phi, ZERO)
    image = run(tmp_path, "image", shape, mirrored(phi, point_map), ZERO)
    interior = base["mask"] == 1
    assert np.array_equal(grid_map(image["mask"]), base["mask"])
    assert np.max(np.abs(grid_map(image["u"])[interior] - base["u"][interior])) <= MIRROR_TOL
    assert image["evaluations"] == base["evaluations"]
