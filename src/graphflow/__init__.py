"""Minimal graphs in M^n x R as long-time, vanishing-viscosity flow limits.

The package discretizes coordinate charts of a Riemannian product M^n x R,
evolves Dirichlet data by a viscosity-perturbed graphical mean curvature
flow, and drives the perturbation to zero along an eps schedule.  Barrier
certificates decide where the limit attains its boundary data and where it
detaches along a vertical portion of the boundary cylinder.

Module map: manifold (charts and metric tables), grid (lattice domains and
fields, point windows, boundary crossings), functionals (area, penalized
area, perturbed energy, total variation), flow (the eps-flow stepper:
explicit steps and RKL1 super-steps), barrier (solvability certification),
continuation (quasi-steady runs, eps limits, attainment), cli (batch
runner).  The product-lattice set functionals behind the perimeter and
rearrangement identities are test code (tests/set_functionals.py).
"""

from .barrier import (BarrierSearchResult, BarrierSpec, SolvabilityReport,
                      boundary_lipschitz, check_dirichlet_solvability,
                      fit_boundary_graph, q_on_barrier, search_alpha)
from .continuation import (AttainmentPoint, AttainmentReport,
                           ContinuationReport, EpsLeg, TimeUniquenessResult,
                           boundary_attainment_report, eps_continuation,
                           probe_mask, run_to_quasi_steady,
                           time_sequence_uniqueness_check, trace_error)
from .errors import (BarrierError, ChartError, ConfigError, ConvergenceError,
                     EstimateViolation, FlowDiverged, FunctionalError,
                     GraphflowError, GridError)
from .flow import (DiagnosticSample, FlowParams, FlowState,
                   compatibility_ramp, flow_step, initial_state, l_eps_apply,
                   stable_dt, write_diagnostics_csv)
from .functionals import (FunctionalReport, area, e_eps, interior_integral,
                          j_functional, total_variation)
from .grid import (DIRICHLET, EXTERIOR, INTERIOR, GridDomain, GridField,
                   build_domain, interpolate_to, load_field_csv, save_field_csv)
from .manifold import (MetricChart, builtin_chart, chart_from_spec,
                       load_metric_table)

__version__ = "0.1.0"

__all__ = [
    "AttainmentPoint", "AttainmentReport", "BarrierError",
    "BarrierSearchResult", "BarrierSpec", "ChartError", "ConfigError",
    "ContinuationReport", "ConvergenceError", "DIRICHLET",
    "DiagnosticSample", "EXTERIOR", "EpsLeg", "EstimateViolation",
    "FlowDiverged", "FlowParams", "FlowState", "FunctionalError",
    "FunctionalReport", "GraphflowError", "GridDomain", "GridError",
    "GridField", "INTERIOR", "MetricChart", "SolvabilityReport",
    "TimeUniquenessResult", "area", "boundary_attainment_report",
    "boundary_lipschitz", "build_domain", "builtin_chart",
    "chart_from_spec", "check_dirichlet_solvability", "compatibility_ramp",
    "e_eps", "eps_continuation", "fit_boundary_graph", "flow_step",
    "initial_state", "interior_integral", "interpolate_to", "j_functional",
    "l_eps_apply", "load_field_csv", "load_metric_table", "probe_mask",
    "q_on_barrier", "run_to_quasi_steady", "save_field_csv",
    "search_alpha", "stable_dt", "time_sequence_uniqueness_check",
    "total_variation", "trace_error", "write_diagnostics_csv",
]
