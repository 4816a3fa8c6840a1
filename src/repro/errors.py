"""Exception hierarchy shared by every repro subsystem."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ShapeError(ReproError):
    """An operation received operands with incompatible shapes."""


class DTypeError(ReproError):
    """An operation received operands with incompatible dtypes."""


class GraphError(ReproError):
    """The symbolic graph is malformed (cycles, dangling inputs, ...)."""


class ExecutionError(ReproError):
    """The graph executor failed while running a compiled schedule."""


class AssumptionFailed(ReproError):
    """A speculative assumption encoded as an AssertOp was violated.

    Raised by the graph executor *before* any deferred state update is
    applied, so catching it and falling back to imperative execution is
    always safe (paper section 3.2, all-or-nothing state updates).
    """

    def __init__(self, message, site=None, observed=None):
        super().__init__(message)
        self.site = site
        self.observed = observed


class NotConvertible(ReproError):
    """The program uses a Python feature with no graph representation.

    Functions raising this during generation are permanently routed to the
    imperative executor (paper section 4.3, figure 2 (C)).
    """

    def __init__(self, message, feature=None, lineno=None):
        super().__init__(message)
        self.feature = feature
        #: Source line (in the coordinates of the function being
        #: converted) of the offending construct, when the generator can
        #: attribute one.  The co-execution planner uses it to split the
        #: function at the failing statement (docs/coexecution.md).
        self.lineno = lineno
