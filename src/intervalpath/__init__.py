"""Longest path on interval graphs via deletion-set data reductions, plus a matching kernel."""

__version__ = "0.1.0"

from .generators import GeneratorSpec, generate
from .intervals import (
    IntervalGraph,
    build,
    format_intervals,
    normalize_endpoints,
    parse_intervals,
    span,
)
from .matching import decide_matching
from .oracle import brute_longest_path, brute_max_weight_path
from .pipeline import PathResult, longest_path, longest_path_by_reductions

__all__ = [
    "IntervalGraph",
    "GeneratorSpec",
    "PathResult",
    "build",
    "brute_longest_path",
    "brute_max_weight_path",
    "decide_matching",
    "format_intervals",
    "generate",
    "longest_path",
    "longest_path_by_reductions",
    "normalize_endpoints",
    "parse_intervals",
    "span",
    "__version__",
]
