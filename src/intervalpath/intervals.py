"""Weighted interval representations: construction, ordering, adjacency, file I/O.

Coordinates are integers at every stage. Only their order matters, so a
transformation works on the endpoint order, a list of tokens 2v (the left
end of v) and 2v + 1 (its right end), and ``from_endpoint_order`` places the
token at position p on coordinate p + 1. Every graph is made with its
endpoint order and reads its right-endpoint order off it. Three sorts
remain in a solve: ``build`` sorts the 2n endpoints of each input once, and
rule 1 and rule 2 each sort the endpoints of the new graph they make.
Normalizing, making the representation semi-proper and adding the
sentinels reuse or extend an order they are given. All 2n endpoints of a
representation are pairwise distinct, so intersection and containment
reduce to strict coordinate comparisons and the right-endpoint order is
unambiguous.

``build`` validates external input: parsed files, generators, library
callers. A stage that derives a graph from one that is already valid keeps
validity by construction and calls the ``IntervalGraph`` constructor (or
``from_endpoint_order``) directly.
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
    lazily, in sigma-rank order, by one sweep over the endpoint order.
    ``order`` is the endpoint order of ``left`` and ``right``, which every
    caller already has: ``sigma`` is read off its right-end tokens, so the
    constructor sorts nothing. Token positions are computed on first use,
    or handed over by ``from_endpoint_order``. The constructor trusts its
    arguments; ``build`` is the validating entry point.

    Treat instances as frozen: every transformation builds a new graph.
    """

    __slots__ = (
        "names", "index", "left", "right", "weight", "sigma", "rank",
        "_nbrs", "_order", "_pos",
    )

    def __init__(self, names, left, right, weight, order):
        self.names = list(names)
        self.left = list(left)
        self.right = list(right)
        self.weight = list(weight)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        self.sigma = [t >> 1 for t in order if t & 1]
        self.rank = [0] * len(self.sigma)
        for p, v in enumerate(self.sigma):
            self.rank[v] = p
        self._nbrs = None
        self._order = order
        self._pos = None

    @property
    def n(self) -> int:
        return len(self.names)

    def adjacent(self, u: int, v: int) -> bool:
        return u != v and self.left[u] < self.right[v] and self.left[v] < self.right[u]

    def contains_interval(self, u: int, v: int) -> bool:
        """True iff I_v lies strictly inside I_u."""
        return self.left[u] < self.left[v] and self.right[v] < self.right[u]

    def endpoint_order(self) -> list:
        """Tokens 2v (left end of v) and 2v + 1 (right end) by increasing
        coordinate. Shared: callers must not mutate it."""
        return self._order

    def endpoint_positions(self) -> list:
        """The position of every token in ``endpoint_order()``. Shared and
        cached: callers must not mutate it."""
        if self._pos is None:
            self._pos = token_positions(self.endpoint_order())
        return self._pos

    def neighbors(self, v: int) -> list:
        if self._nbrs is None:
            self._build_neighbors()
        return self._nbrs[v]

    def edge_count(self) -> int:
        """Edges counted in the endpoint order, without neighbor lists.

        The i-th left end (from 0) at position p_i sees 2i - p_i intervals
        open, each an edge to a neighbor that started earlier; summed over
        all left ends that is n(n - 1) minus the left ends' positions.
        """
        n = self.n
        return n * (n - 1) - sum(
            p for p, t in enumerate(self.endpoint_order()) if not t & 1
        )

    def _build_neighbors(self):
        """Rank-sorted lists in O(n + m), sorting nothing: right ends come
        in sigma order, and the intervals open at one are its neighbors
        above it; one pass over sigma then adds those above to each list."""
        adj = [[] for _ in range(self.n)]
        active = set()
        for t in self._order:
            v = t >> 1
            if t & 1:
                active.discard(v)
                for u in active:
                    adj[u].append(v)
            else:
                active.add(v)
        for u in self.sigma:
            for w in adj[u]:
                adj[w].append(u)
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

    Weights default to 1 and are stored by ``exact_weight``. The endpoints
    are sorted here, once per input; later stages reuse that order.
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
    return IntervalGraph(names, lefts, rights, weights, token_order(lefts, rights))


def span(graph: IntervalGraph, vertices) -> tuple:
    """[min left, max right] over a nonempty set of vertex names."""
    idx = [graph.index[v] for v in vertices]
    if not idx:
        raise EmptySet("span of nothing")
    return (min(graph.left[i] for i in idx), max(graph.right[i] for i in idx))


def token_order(left, right) -> list:
    """Tokens 2v (left end of v) and 2v + 1 (right end) by increasing coordinate."""
    coords = [0] * (2 * len(left))
    coords[0::2] = left
    coords[1::2] = right
    return sorted(range(len(coords)), key=coords.__getitem__)


def token_positions(order) -> list:
    """Inverse of a token order: the 0-based position of every token."""
    pos = [0] * len(order)
    for p, t in enumerate(order):
        pos[t] = p
    return pos


def nesting(order, pos) -> list:
    """Per vertex, whether its interval strictly contains another one: one
    backward sweep over a token order and its positions."""
    nests = [False] * (len(order) // 2)
    first_end = len(order)  # the first right end among the lefts swept so far
    for t in reversed(order):
        if not t & 1:
            r = pos[t + 1]
            if first_end < r:
                nests[t >> 1] = True
            else:
                first_end = r
    return nests


def from_endpoint_order(names, order, weight) -> IntervalGraph:
    """The graph on 1..2n whose endpoints, read in increasing order, are the
    tokens of ``order``, which it keeps as its endpoint order (position p is
    coordinate p + 1); names and weights are taken as they are. It sorts
    nothing, and hands over the token positions it computes."""
    pos = token_positions(order)
    graph = IntervalGraph(
        names, [p + 1 for p in pos[0::2]], [p + 1 for p in pos[1::2]], weight, order
    )
    graph._pos = pos
    return graph


def normalize_endpoints(graph: IntervalGraph) -> IntervalGraph:
    """Order-preserving remap of all 2n endpoints onto 1..2n (idempotent).

    Input and output share one endpoint order, the one ``build`` sorted."""
    return from_endpoint_order(graph.names, graph.endpoint_order(), graph.weight)


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
