import numpy as np
import pytest

from graphflow.continuation import TimeSnapshots, run_to_quasi_steady
from graphflow.flow import FlowParams
from graphflow.grid import GridField, build_domain
from graphflow.manifold import builtin_chart

_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _acceptance_lines


@pytest.fixture(scope="session")
def sine_bump_time_check():
    """(gap, source norms) of the time check that test_continuation and
    criterion 11 both read: the unit square at h=1/32, u0 = 0.3 sin(pi x1)
    sin(pi x2), phi = 0, eps 0.05, t_end 20, times [5, 10, 15] against
    [7, 12, 17], riding a Newton leg.  Its explicit prefix takes 73116
    steps, so it samples E^eps only at the first and the last.  Computed once."""
    dom = build_domain(builtin_chart("euclidean", 2), 1.0 / 32,
                       region={"region": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]]})
    u0 = GridField.from_function(
        dom, lambda x: 0.3 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1]))
    params = FlowParams(eps=0.05, t_end=20.0)
    check = TimeSnapshots(params, [5.0, 10.0, 15.0], [7.0, 12.0, 17.0])
    run_to_quasi_steady(params, lambda x: 0.0, u0, 1e-6, sample_every=10 ** 9,
                        newton=True, snapshots=check)
    return check.result()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
