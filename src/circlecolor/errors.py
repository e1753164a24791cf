"""Exception types shared across the package."""


class CircleColorError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInstanceError(CircleColorError):
    """Raised when an instance has no intervals."""


class DuplicateEndpointError(CircleColorError):
    """Raised when an endpoint value is shared by two intervals (or repeated
    within one interval)."""


class InstanceFormatError(CircleColorError):
    """Raised when an instance file cannot be parsed."""


class MissingVertexError(CircleColorError):
    """Raised when a coloring does not assign a color to every vertex."""


class NotArborescenceError(CircleColorError):
    """Raised when an arc set is not an arborescence of the containment DAG."""

    def __init__(self, vertex, message=None):
        self.vertex = vertex
        super().__init__(message or f"vertex {vertex} violates the arborescence property")


class ChainConditionError(CircleColorError):
    """C1 violated: some child set is not a chain."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"children of vertex {vertex} are not a chain")


class AntichainBoundError(CircleColorError):
    """C2 (or D2) violated: the root child set needs more than c chains."""

    def __init__(self, vertex, needed, allowed):
        self.vertex = vertex
        self.needed = needed
        self.allowed = allowed
        super().__init__(f"root children contain an antichain of size {needed} > {allowed}")


class VertexNotBranchingError(CircleColorError):
    """Raised when an LC/DLC builder is asked about a vertex with no
    contained intervals."""


class InvalidHeightError(CircleColorError):
    """Raised for stack capacities H < 1."""


class LayerConditionError(CircleColorError):
    """D0 or D1 violated in a layered arc set."""

    def __init__(self, condition, vertex):
        self.condition = condition
        self.vertex = vertex
        super().__init__(f"{condition} violated at {vertex}")


class OverBudgetError(CircleColorError):
    """Raised when a brute-force oracle is asked to exceed its budget."""


class NumericalFailureError(CircleColorError):
    """Raised when the simplex solver cannot make progress within tolerance."""


class TableauTooLargeError(CircleColorError):
    """Raised before the simplex allocates a dense tableau of more than
    1 GiB."""


class InfeasibleModelError(CircleColorError):
    """Raised when an integer solve proves the model infeasible."""


class CertificateError(CircleColorError):
    """Raised when a decoded coloring or stack plan fails its independent
    check: an improper coloring, a stack that is not independent or exceeds
    its capacity, or a count other than the one reported."""
