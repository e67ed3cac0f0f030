"""Weighted interval representations: construction, ordering, adjacency, file I/O.

Coordinates are integers at every stage. Only their order matters, so a
transformation that fits new endpoints between old ones first spreads the old
ones apart until each gap is wide enough. All 2n endpoints of a
representation are pairwise distinct, so intersection and containment reduce
to strict coordinate comparisons and the right-endpoint order is unambiguous.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import (
    DegenerateInterval,
    DuplicateEndpoint,
    DuplicateVertexId,
    EmptySet,
    ParseError,
)


class IntervalGraph:
    """Immutable weighted interval graph.

    Vertices are dense indices 0..n-1 internally; ``names[i]`` is the external
    identifier. ``sigma`` lists vertex indices by increasing right endpoint,
    ``rank`` is its inverse permutation. Adjacency follows from the intervals
    (u ~ v iff the intervals intersect); neighbor lists are materialized
    lazily by one endpoint sweep and sorted by sigma-rank.

    Treat instances as frozen: every transformation builds a new graph.
    """

    __slots__ = ("names", "index", "left", "right", "weight", "sigma", "rank", "_nbrs")

    def __init__(self, names, left, right, weight):
        self.names = list(names)
        self.left = list(left)
        self.right = list(right)
        self.weight = list(weight)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        self.sigma = sorted(range(len(self.names)), key=self.right.__getitem__)
        self.rank = [0] * len(self.sigma)
        for pos, v in enumerate(self.sigma):
            self.rank[v] = pos
        self._nbrs = None

    @property
    def n(self) -> int:
        return len(self.names)

    def adjacent(self, u: int, v: int) -> bool:
        return u != v and self.left[u] < self.right[v] and self.left[v] < self.right[u]

    def contains_interval(self, u: int, v: int) -> bool:
        """True iff I_v lies strictly inside I_u."""
        return self.left[u] < self.left[v] and self.right[v] < self.right[u]

    def neighbors(self, v: int) -> list:
        if self._nbrs is None:
            self._build_neighbors()
        return self._nbrs[v]

    def edge_count(self) -> int:
        if self._nbrs is None:
            self._build_neighbors()
        return sum(len(a) for a in self._nbrs) // 2

    def _build_neighbors(self):
        # one sweep over sorted endpoints; output-sensitive O(n log n + m)
        events = []
        for v in range(self.n):
            events.append((self.left[v], 1, v))
            events.append((self.right[v], 0, v))
        events.sort(key=lambda e: e[0])
        adj = [[] for _ in range(self.n)]
        active = set()
        for _, is_left, v in events:
            if is_left:
                for u in active:
                    adj[u].append(v)
                    adj[v].append(u)
                active.add(v)
            else:
                active.discard(v)
        rk = self.rank
        for lst in adj:
            lst.sort(key=rk.__getitem__)
        self._nbrs = adj

    def records(self) -> list:
        """(name, left, right, weight) tuples, handy for building edited copies."""
        return [
            (self.names[i], self.left[i], self.right[i], self.weight[i])
            for i in range(self.n)
        ]

    def by_name(self, name: str) -> int:
        return self.index[name]


def exact_weight(num, den=1):
    """``num / den`` exactly: an int when integral, else a Fraction."""
    w = num if type(num) is int and den == 1 else Fraction(num) / den
    return w.numerator if w.denominator == 1 else w


def build(items: Iterable) -> IntervalGraph:
    """Validate and build a graph from (name, left, right[, weight]) tuples.

    Weights default to 1 and are stored by ``exact_weight``.
    """
    names, lefts, rights, weights = [], [], [], []
    for item in items:
        if len(item) == 3:
            nm, l, r = item
            w = 1
        else:
            nm, l, r, w = item
            w = exact_weight(w)
        if w < 0:
            raise ValueError(f"negative weight for {nm!r}")
        names.append(nm)
        lefts.append(l)
        rights.append(r)
        weights.append(w)
    seen_names = set()
    for nm in names:
        if nm in seen_names:
            raise DuplicateVertexId(repr(nm))
        seen_names.add(nm)
    for nm, l, r in zip(names, lefts, rights):
        if not l < r:
            raise DegenerateInterval(f"{nm!r}: [{l}, {r}]")
    coords = lefts + rights
    if len(set(coords)) != len(coords):
        seen = set()
        for c in coords:
            if c in seen:
                raise DuplicateEndpoint(str(c))
            seen.add(c)
    return IntervalGraph(names, lefts, rights, weights)


def span(graph: IntervalGraph, vertices) -> tuple:
    """[min left, max right] over a nonempty set of vertex names."""
    idx = [graph.index[v] for v in vertices]
    if not idx:
        raise EmptySet("span of nothing")
    return (min(graph.left[i] for i in idx), max(graph.right[i] for i in idx))


def normalize_endpoints(graph: IntervalGraph) -> IntervalGraph:
    """Order-preserving remap of all 2n endpoints onto 1..2n (idempotent)."""
    coords = sorted(graph.left + graph.right)
    pos = {c: i + 1 for i, c in enumerate(coords)}
    return IntervalGraph(
        graph.names,
        [pos[c] for c in graph.left],
        [pos[c] for c in graph.right],
        graph.weight,
    )


def fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def parse_intervals(text: str) -> IntervalGraph:
    """Parse the interval file format.

    First data line: n. Then n lines ``vertex_id left right [num den]``,
    whitespace-separated; the weight defaults to 1/1. ``#`` starts a comment.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ParseError("empty file")
    try:
        n = int(rows[0])
    except ValueError:
        raise ParseError(f"bad vertex count line: {rows[0]!r}") from None
    if n < 0:
        raise ParseError("negative vertex count")
    if len(rows) != n + 1:
        raise ParseError(f"expected {n} interval lines, found {len(rows) - 1}")
    items = []
    for line in rows[1:]:
        tok = line.split()
        if len(tok) not in (3, 5):
            raise ParseError(f"bad interval line: {line!r}")
        nm = tok[0]
        try:
            l, r = int(tok[1]), int(tok[2])
            w = exact_weight(int(tok[3]), int(tok[4])) if len(tok) == 5 else 1
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad interval line: {line!r}") from None
        items.append((nm, l, r, w))
    return build(items)


def format_intervals(graph: IntervalGraph) -> str:
    """Serialize in the interval file format (vertices in construction order).

    Weights are emitted as ``num den`` when any weight differs from 1.
    """
    with_weights = any(w != 1 for w in graph.weight)
    out = [str(graph.n)]
    for nm, l, r, w in graph.records():
        li, ri = int(l), int(r)
        if li != l or ri != r:
            raise ValueError("serialization needs integer endpoints; normalize first")
        if with_weights:
            out.append(f"{nm} {li} {ri} {w.numerator} {w.denominator}")
        else:
            out.append(f"{nm} {li} {ri}")
    return "\n".join(out) + "\n"
