"""Brute-force path oracles. Exact, exhaustive, and deliberately tiny.

Both functions enumerate simple paths by DFS with an upper-bound prune:
first the free bound (current + all unvisited), then, only if that still
beats the incumbent, the reachability bound from the current head. A hard
size guard keeps accidental misuse from burning hours.
"""

from __future__ import annotations

from .errors import TooLarge
from .intervals import IntervalGraph

SIZE_GUARD = 18


def _guard(graph: IntervalGraph):
    if graph.n > SIZE_GUARD:
        raise TooLarge(f"n={graph.n} exceeds the brute-force guard {SIZE_GUARD}")


def _reachable_weight(graph, start, visited, w):
    # total w[] over unvisited vertices reachable from start's unvisited neighbors
    seen = list(visited)
    stack = [start]
    total = 0
    while stack:
        u = stack.pop()
        for v in graph.neighbors(u):
            if not seen[v]:
                seen[v] = True
                total += w[v]
                stack.append(v)
    return total


def _best_path(graph: IntervalGraph, w) -> tuple:
    """Max-weight simple path under per-vertex weights w (all >= 0)."""
    n = graph.n
    if n == 0:
        return 0, []
    total_all = sum(w)
    best_w = None
    best_path = []
    visited = [False] * n
    path = []

    def dfs(u, acc, remaining):
        nonlocal best_w, best_path
        if best_w is None or acc > best_w:
            best_w = acc
            best_path = path.copy()
        if acc + remaining <= best_w:
            return
        if acc + _reachable_weight(graph, u, visited, w) <= best_w:
            return
        for v in graph.neighbors(u):
            if not visited[v]:
                visited[v] = True
                path.append(v)
                dfs(v, acc + w[v], remaining - w[v])
                path.pop()
                visited[v] = False

    for s in range(n):
        visited[s] = True
        path.append(s)
        dfs(s, w[s], total_all - w[s])
        path.pop()
        visited[s] = False
    return best_w, best_path


def brute_longest_path(graph: IntervalGraph) -> tuple:
    """Exact longest path. Returns (vertex count, path as names)."""
    _guard(graph)
    length, path = _best_path(graph, [1] * graph.n)
    return length, [graph.names[v] for v in path]


def brute_max_weight_path(graph: IntervalGraph):
    """Exact maximum of sum(w(v)) over simple paths, in the graph's weight type."""
    _guard(graph)
    return _best_path(graph, list(graph.weight))[0]
