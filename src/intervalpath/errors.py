"""Exception types shared across the package."""


class IntervalError(Exception):
    """Base class for every error raised by this library."""


class ParseError(IntervalError):
    """Malformed input file."""


class DegenerateInterval(IntervalError):
    """Interval with left >= right."""


class DuplicateEndpoint(IntervalError):
    """Two endpoints share a coordinate."""


class DuplicateVertexId(IntervalError):
    """Two intervals share a vertex identifier."""


class EmptySet(IntervalError):
    """Operation needs a nonempty vertex set."""


class InvalidPath(IntervalError):
    """Sequence is not a simple path of the host graph."""


class NormalizationFailed(IntervalError):
    """Greedy path normalization got stuck: the input set is not a path's vertex set."""


class MissingDummies(IntervalError):
    """Stage expects the two sentinel intervals to be present."""


class DoubleAugment(IntervalError):
    """Sentinel vertices were already added."""


class TooLarge(IntervalError):
    """Instance exceeds the brute-force guard."""


class InvalidSpec(IntervalError):
    """Generator parameters out of range."""


class LiftFailure(IntervalError):
    """Path lifting hit a violated precondition."""


class InvalidSpecialPartition(IntervalError):
    """A/B partition does not satisfy the special-graph conditions."""


class CorruptParentChain(IntervalError):
    """DP reconstruction followed a dangling parent pointer."""
