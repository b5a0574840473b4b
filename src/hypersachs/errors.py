"""Exception types shared across the package."""


class HypersachsError(Exception):
    """Base class for every error raised by this package."""


class SizeExceeded(HypersachsError):
    """Instance is larger than the implementation bound for the operation."""


class NotVeblen(HypersachsError):
    """Operation requires every positive vertex degree to be divisible by k."""


class NotConnected(HypersachsError):
    """Operation requires a connected multi-hypergraph."""


class NotEulerian(HypersachsError):
    """Operation requires a balanced, weakly connected multi-digraph."""


class DomainError(HypersachsError):
    """Argument outside the supported domain of the operation."""


class NormalizationFailure(HypersachsError):
    """A division that the underlying formula guarantees to be exact was not."""


class ConsistencyFailure(HypersachsError):
    """Two computations of the same quantity disagreed; signals an implementation bug."""


class ParseError(HypersachsError):
    """Malformed input text.

    Carries the 1-based line number when known (None for document-level
    problems).
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ArityError(ParseError):
    """Edge with the wrong number of vertices for the declared uniformity."""


class VertexRangeError(ParseError):
    """Vertex label outside the declared range 1..n (or repeated in an edge)."""


class UsageError(HypersachsError):
    """Command line was used incorrectly."""
