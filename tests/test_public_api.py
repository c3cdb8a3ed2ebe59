"""The package's public surface: every name in __all__ is listed once and
resolves, so `from graphflow import *` cannot break on a deleted name; the
set functionals that moved to tests/ left no name behind; no module reaches
into barrier's private names; and the immutable records stay immutable,
FlowParams checking its values on every way of building one."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import graphflow
import graphflow.functionals
from graphflow import (AttainmentPoint, AttainmentReport, BarrierSearchResult, BarrierSpec,
                       ConfigError, ContinuationReport, DiagnosticSample, EpsLeg, FlowParams,
                       FunctionalReport, MetricChart, SolvabilityReport)

IMMUTABLE_RECORDS = (BarrierSpec, BarrierSearchResult, SolvabilityReport, FunctionalReport,
                     DiagnosticSample, EpsLeg, ContinuationReport, AttainmentPoint,
                     AttainmentReport, MetricChart, FlowParams)

# the product-lattice set functionals, test code in tests/set_functionals.py
MOVED_TO_TESTS = ("ProductGrid", "product_grid", "DiscreteSet", "set_perimeter", "subgraph_set",
                  "_product_cell_tv", "subgraph_perimeter", "vertical_rearrangement",
                  "MOLLIFY_BAND_CELLS")


def test_all_has_no_duplicates():
    assert len(graphflow.__all__) == len(set(graphflow.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in graphflow.__all__ if not hasattr(graphflow, name)]
    assert missing == []


@pytest.mark.parametrize("module", [graphflow, graphflow.functionals],
                         ids=lambda module: module.__name__)
def test_moved_set_functionals_leave_no_name_behind(module):
    assert [name for name in MOVED_TO_TESTS if hasattr(module, name)] == []


def test_no_module_imports_a_private_barrier_name():
    # the lattice facts barrier shares (windows, crossings, blocks) live in grid
    found = []
    for path in sorted(Path(graphflow.__file__).parent.glob("*.py")):
        if path.stem == "barrier":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level == 1 and node.module == "barrier")
                    or (node.level == 0 and node.module == "graphflow.barrier")):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


@pytest.mark.parametrize("cls", IMMUTABLE_RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned(cls):
    record = FlowParams(eps=0.1) if cls is FlowParams else cls(*range(len(cls._fields)))
    for attr in (cls._fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1.0)


@pytest.mark.parametrize("build", [
    lambda: FlowParams(eps=-1.0),
    lambda: FlowParams._make([0.1, 0.0, 0.5, 1.0, False]),
    lambda: FlowParams(eps=0.1)._replace(t_end=0.0),
    lambda: FlowParams(eps=0.1)._replace(delta=-1.0, cfl=0.0),
], ids=["constructor", "_make", "_replace", "_replace two fields"])
def test_flow_params_checks_every_construction(build):
    with pytest.raises(ConfigError):
        build()


def test_flow_params_round_trips_and_keeps_its_defaults():
    params = FlowParams(eps=0.1, delta=0.01, cfl=0.2, t_end=3.0, assert_estimates=True)
    assert pickle.loads(pickle.dumps(params)) == copy.copy(params) == params
    assert type(pickle.loads(pickle.dumps(params))) is FlowParams
    assert FlowParams(eps=0.1) == FlowParams._make([0.1, *FlowParams._field_defaults.values()])
    assert FlowParams._fields == ("eps", "delta", "cfl", "t_end", "assert_estimates")
