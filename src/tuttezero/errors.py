"""Exception types shared across the package.

Every error raised on a contract violation is a subclass of TutteZeroError,
so callers can catch the package's failures with one except clause.
"""


class TutteZeroError(Exception):
    """Base class for all errors raised by this package."""


class LoopEdge(TutteZeroError):
    """An edge joins a vertex to itself; loops are not representable here."""


class NonFiniteWeight(TutteZeroError):
    """An edge weight has a NaN or infinite real or imaginary part."""


class BadIndex(TutteZeroError):
    """An edge endpoint is not a valid vertex index."""


class EmptySet(TutteZeroError):
    """An operation received an empty vertex or edge selection."""


class TooLarge(TutteZeroError):
    """The instance exceeds the exhaustive-enumeration size limits."""


class Disconnected(TutteZeroError):
    """The graph (or subgraph) is not connected where connectivity is required."""


class NotSimple(TutteZeroError):
    """The operation is defined for simple graphs only (no parallel edges)."""


class NotATree(TutteZeroError):
    """The given edge set is not a spanning tree of the graph."""


class DegenerateLambda(TutteZeroError):
    """The degree ratio lambda is undefined because its denominator vanishes."""


class DegenerateWeights(TutteZeroError):
    """The polymer system carries no usable weight (all zero, or singletons only)."""


class ZeroQ(TutteZeroError):
    """q = 0 is outside the domain of the requested transformation."""


class OutOfDomain(TutteZeroError):
    """A numeric argument lies outside the mathematical domain of the function."""


class BadLambda(TutteZeroError):
    """The closed form is only available at lambda = 0 or lambda = 1."""


class NoConvergence(TutteZeroError):
    """An iterative or truncated computation could not certify the target accuracy."""
