"""Paths: the path check and greedy normalization into normal order.

A path is normal when it starts at the vertex with the smallest right
endpoint of the whole path and each later vertex has the smallest right
endpoint among the predecessor's neighbors that are still ahead in the
sequence. Every path's vertex set carries exactly one normal order, and the
greedy construction below finds it or proves there is none.
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
    rank = graph.rank
    cur = min(idx, key=rank.__getitem__)
    remaining = set(idx)
    remaining.discard(cur)
    out = [cur]
    while remaining:
        nxt = None
        for w in graph.neighbors(cur):
            if w in remaining:
                nxt = w
                break
        if nxt is None:
            raise NormalizationFailed(
                f"stuck at {graph.names[cur]!r} with {len(remaining)} vertices left"
            )
        remaining.discard(nxt)
        out.append(nxt)
        cur = nxt
    return [graph.names[v] for v in out]
