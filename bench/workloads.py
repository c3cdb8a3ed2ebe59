"""Seeded workload configs for the graphflow benchmark.

Every workload is a plain `graphflow run` config.  A seed selects one of
VARIANTS input variants (seed mod VARIANTS); variant 0 is the unperturbed
workload, and each variant has a committed reference in refs/.  The
perturbations touch only inputs the program's work depends on:

- scherk_flow:    a sine_product bump in u0 (changes the path and the first
                  leg's step count, not the limit)
- disc_barrier:   the disc center moves by less than h/2 (changes how the
                  boundary cuts the lattice, so the crossing counts)
- poincare_mixed: the coefficients of the linear boundary data phi

Configs carry only the keys the workload needs.
"""

from __future__ import annotations

import random

VARIANTS = 16

DISC_H = 1.0 / 64


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def scherk_flow(variant: int) -> dict:
    u0 = {"kind": "constant", "value": 0.0}
    if variant:
        rng = random.Random(f"scherk_flow/{variant}")
        amp = rng.uniform(0.02, 0.06) * rng.choice((-1.0, 1.0))
        # equal wave counts keep the bump symmetric under x1 <-> x2: an
        # asymmetric bump excites the slowest lattice mode, which the
        # antisymmetric Scherk data leaves dormant, and more than doubles
        # the first leg (1011 -> 1756..2570 steps at waves (1, 3))
        waves = rng.randint(1, 2)
        u0 = {"kind": "sine_product", "amplitude": amp, "waves": [waves, waves]}
    return {
        "chart": {"kind": "euclidean", "n": 2, "box": [[-1.0, 1.0], [-1.0, 1.0]]},
        "region": {"region": "box"},
        "h": 0.0625,
        "phi": {"kind": "scherk"},
        "u0": u0,
        "flow": {"eps": 0.1, "t_end": 50.0},
        "schedule": [0.1, 0.05, 0.025],
        "tol": 1e-6,
        "time_check": {"times_a": [0.05, 0.1], "times_b": [0.075, 0.125]},
    }


def disc_barrier(variant: int) -> dict:
    center = [0.5, 0.5]
    if variant:
        rng = random.Random(f"disc_barrier/{variant}")
        center = [c + rng.uniform(-0.45, 0.45) * DISC_H for c in center]
    return {
        "chart": {"kind": "euclidean", "n": 2},
        "region": {"region": "disc", "center": center, "radius": 0.4},
        "h": DISC_H,
        "phi": {"kind": "constant", "value": 0.2},
        "u0": {"kind": "constant", "value": 0.2},
        "schedule": [0.1, 0.05],
        "tol": 1e-6,
    }


def poincare_mixed(variant: int) -> dict:
    coeffs = [0.1, 0.05]
    if variant:
        rng = random.Random(f"poincare_mixed/{variant}")
        coeffs = [c * rng.uniform(0.8, 1.2) for c in coeffs]
    return {
        "chart": {"kind": "poincare_disk", "n": 2},
        "region": {"region": "disc", "center": [0.0, 0.0], "radius": 0.5},
        "h": 0.04375,
        "phi": {"kind": "linear", "coeffs": coeffs},
        "u0": {"kind": "constant", "value": 0.0},
        "flow": {"t_end": 50.0},
        "schedule": [0.1, 0.05],
        "tol": 1e-6,
    }


BUILDERS = {"scherk_flow": scherk_flow, "disc_barrier": disc_barrier,
            "poincare_mixed": poincare_mixed}
NAMES = tuple(BUILDERS)


def config(name: str, seed: int) -> dict:
    """The config a workload runs for a seed; seed 0 gives variant 0."""
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    return BUILDERS[name](variant_of(seed))
