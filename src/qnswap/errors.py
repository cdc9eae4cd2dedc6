"""Exception hierarchy.

Two broad families matter to callers: ``InputError`` covers anything wrong
with what the user handed us (documents, specs, arguments), ``NumericsError``
covers solver-level failures on well-formed input.  The CLI maps the first
family to exit code 2 and the second to exit code 3.
"""

from __future__ import annotations


class QnswapError(Exception):
    """Base class for every error raised by this package."""


class InputError(QnswapError):
    """Invalid document, network description, or argument."""


class NumericsError(QnswapError):
    """A numerical procedure failed on otherwise valid input."""


# -- parsing ---------------------------------------------------------------

class ParseError(InputError):
    """Document is not syntactically valid JSON."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(InputError):
    """Document is valid JSON but does not match the expected schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- network validation ----------------------------------------------------

class ValidationError(InputError):
    """A network description violates a structural invariant."""


class RowSumExceedsOneError(ValidationError):
    def __init__(self, node: int, total: float):
        self.node = node
        self.total = total
        super().__init__(
            f"routing probabilities out of node {node} sum to {total!r} > 1"
        )


class UnknownNodeReferenceError(ValidationError):
    def __init__(self, where: str, node: int):
        self.where = where
        self.node = node
        super().__init__(f"{where} references unknown node {node}")


class NegativeRateError(ValidationError):
    def __init__(self, field: str, value: float):
        self.field = field
        self.value = value
        super().__init__(f"{field} must be nonnegative, got {value!r}")


class InvalidNodeError(ValidationError):
    """A node field violates the constraints for its kind."""


class ClosedNetworkError(ValidationError):
    def __init__(self, message: str = "network has no external arrival or no exit"):
        super().__init__(message)


class ProbabilityOutOfRangeError(ValidationError):
    def __init__(self, where: str, value: float):
        self.where = where
        self.value = value
        super().__init__(f"{where}: probability {value!r} outside [0, 1]")


class MissingUnblockRateError(ValidationError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"node {node} needs a positive unblock rate")


class NodeNotIntermediateError(ValidationError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"node {node} is not an intermediate node")


class NegativeRhoError(ValidationError):
    def __init__(self, rho: float):
        self.rho = rho
        super().__init__(f"utilization must be nonnegative, got {rho!r}")


class ZeroArrivalRateError(ValidationError):
    def __init__(self, node: int | None = None):
        self.node = node
        where = f"node {node}" if node is not None else "subset"
        super().__init__(f"{where} has zero arrival rate; per-job metrics undefined")


class EmptySubsetError(ValidationError):
    def __init__(self):
        super().__init__("metric subset contains no nodes")


class UnknownStateError(InputError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"state {label!r} is not in the state space")


class DimensionMismatchError(InputError):
    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"expected {expected} state labels, got {got}")


class ZeroHorizonError(InputError):
    def __init__(self, horizon: float):
        self.horizon = horizon
        super().__init__(f"simulation horizon must be positive, got {horizon!r}")


# -- layout ------------------------------------------------------------------

class DisconnectedLayoutError(ValidationError):
    def __init__(self, sites):
        self.sites = tuple(sites)
        super().__init__(f"layout is not connected; unreachable sites: {list(self.sites)}")


class NoSourceError(ValidationError):
    def __init__(self):
        super().__init__("layout declares no source site")


class NoSinkError(ValidationError):
    def __init__(self):
        super().__init__("layout declares no sink site")


class UnreachableError(InputError):
    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst
        super().__init__(f"no routing path from node {src} to node {dst}")


# -- numerics ----------------------------------------------------------------

class SingularRoutingError(NumericsError):
    def __init__(self, detail: str = ""):
        msg = "traffic equations are singular"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class NonConvergentError(NumericsError):
    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"fixed-point iteration did not converge after {iterations} steps"
            f" (residual {residual:.3e})"
        )


class ReducibleChainError(NumericsError):
    def __init__(self, detail: str = "chain is reducible"):
        super().__init__(detail)


class NumericalFailureError(NumericsError):
    pass
