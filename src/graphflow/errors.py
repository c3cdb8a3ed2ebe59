"""Exception types shared across the package."""


class GraphflowError(Exception):
    """Base class for all package-specific errors."""


class ChartError(GraphflowError, ValueError):
    """Bad chart specification, point outside the chart, or a metric that
    fails positive definiteness."""


class GridError(GraphflowError, ValueError):
    """Domain or field failure (empty region, spacing not dividing the box,
    a field CSV that does not match its domain)."""


class FunctionalError(GraphflowError, ValueError):
    """Invalid functional input: an eps that is negative or not finite, a
    window out of range, a truncation too small, containment violated."""


class FlowDiverged(GraphflowError, RuntimeError):
    """A non-finite value appeared during stepping."""

    def __init__(self, message, step=None, node=None):
        super().__init__(message)
        self.step = step
        self.node = node


class EstimateViolation(GraphflowError, RuntimeError):
    """A monitored a-priori bound failed while assert_estimates was on."""


class BarrierError(GraphflowError, ValueError):
    """Barrier construction failure (degenerate boundary fit, nonpositive
    psi, inadmissible parameters outside the inadmissible-report path)."""


class ConvergenceError(GraphflowError, RuntimeError):
    """A flow leg failed to reach quasi-steady state within its horizon."""


class ConfigError(GraphflowError, ValueError):
    """Invalid experiment configuration."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
