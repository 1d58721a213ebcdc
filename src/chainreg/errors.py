"""Exception types shared across the package."""


class ChainRegError(Exception):
    """Base class for every package-specific error."""


class InvalidInputError(ChainRegError):
    """Malformed user input (the CLI maps these to exit code 2)."""


class ParseError(InvalidInputError):
    """Spec file is not valid JSON or lacks the required shape."""


class EmptyEdgeSet(InvalidInputError):
    """A chain presentation needs at least one generator edge."""


class EdgeOutOfRange(InvalidInputError):
    """An edge endpoint lies outside [1, r]."""


class DegenerateEdge(InvalidInputError):
    """An edge has two equal endpoints."""


class VertexOutOfRange(InvalidInputError):
    """A vertex argument lies outside the graph's vertex set."""


class InvalidArgument(InvalidInputError, ValueError):
    """An argument value is out of its domain: a non-prime field, an index
    range starting below r, an index past the materialization limit, a
    non-positive r, a negative oracle budget, a matching size k below 1, or
    an edge list too long to print.  Also a ValueError, so callers catching
    that still work."""


class IndexBelowStability(InvalidInputError):
    """Requested index n is smaller than the presentation index r."""


class IndexTooSmall(InvalidInputError):
    """The construction requires a larger index n."""


class StartOutOfRange(ChainRegError):
    """The starting vertex handed to the tail construction is out of range."""


class CaseMismatch(ChainRegError):
    """The other construction case applies to this chain."""


class HypothesisViolated(ChainRegError):
    """The chain does not satisfy the construction's hypotheses."""


class EdgelessGraph(ChainRegError):
    """The operation needs a graph with at least one edge."""


class SubsetBudgetExceeded(ChainRegError):
    """The subset enumeration budget of the regularity oracle was exceeded."""


class CycleLimitExceeded(ChainRegError):
    """Induced-cycle enumeration hit its output cap."""
