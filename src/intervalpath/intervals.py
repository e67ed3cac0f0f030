"""Weighted interval representations: construction, ordering, adjacency, file I/O.

Coordinates are integers at every stage. Only their order matters, so a
transformation works on the endpoint order, a list of tokens 2v (the left
end of v) and 2v + 1 (its right end), and ``from_endpoint_order`` places the
token at position p on coordinate p + 1. Every graph is made with its
endpoint order and reads its right-endpoint order off it. ``build`` or
``parse_intervals`` sorts the 2n endpoints of each input once.
Normalizing, making the representation semi-proper and adding the
sentinels reuse or extend an order they are given, and each reduction
sorts only the graph it makes (``swap_spans``). All 2n endpoints of a
representation are pairwise distinct, so intersection and containment
reduce to strict coordinate comparisons and the right-endpoint order is
unambiguous.

``build`` and ``parse_intervals`` validate external input: parsed files,
generators, library callers. A stage that derives a graph from one that is
already valid keeps validity by construction and calls the ``IntervalGraph``
constructor (or ``from_endpoint_order``) directly.

``parse_intervals`` reads a plain unit-weight file (the count line, then
``name left right`` lines with single spaces and newlines, no ``#``) with
one structural check, ``_PLAIN``, one ``text.split()`` and slices of the
token list, so it builds no list per line. Any other text goes line by
line (``_parse_lines``) to the same graph or the same error.

A graph receives what its maker already computed at construction: the
constructor's keywords ``index``, ``pos`` and ``nests`` hand over the name
index, the token positions and the nest flags, and no stage patches a graph
after it is made. Names live at the edges. The input's name index is the
dict its duplicate check fills; a graph with the same vertices is handed it
(``normalize_endpoints``, ``make_semi_proper``), and the graph with the
sentinels is handed one that looks names up through it (``with_sentinels``).
Every other graph builds its index on first use, and inside a solve only
the small graphs after rule 1 are asked for one.
"""

from __future__ import annotations

import re
from collections import ChainMap
from fractions import Fraction
from itertools import compress
from operator import lt
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
    ``rank`` is its inverse permutation and ``index`` maps names back to
    indices. Adjacency follows from the intervals (u ~ v iff the intervals
    intersect); neighbor lists are materialized lazily, in sigma-rank order,
    by one sweep over the endpoint order.

    ``order`` is the endpoint order of ``left`` and ``right``, which every
    caller already has. ``sigma`` is read off its right-end tokens, so the
    constructor sorts nothing. It computes nothing either: ``sigma``,
    ``rank``, ``index``, the token positions and the nest flags are built on
    first use, unless the maker hands over the last three, which it already
    has, as the keywords ``index``, ``pos`` and ``nests``. The constructor
    keeps what it is given and trusts it; ``build`` is the validating entry
    point.

    Treat instances as frozen: every transformation builds a new graph.
    """

    __slots__ = (
        "names", "left", "right", "weight",
        "_sigma", "_rank", "_index", "_nbrs", "_order", "_pos", "_nests",
    )

    def __init__(self, names, left, right, weight, order, *, index=None, pos=None, nests=None):
        self.names = names
        self.left = left
        self.right = right
        self.weight = weight
        self._order = order
        self._index, self._pos, self._nests = index, pos, nests
        self._sigma = self._rank = self._nbrs = None

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def sigma(self) -> list:
        if self._sigma is None:
            self._sigma = [t >> 1 for t in self._order if t & 1]
        return self._sigma

    @property
    def rank(self) -> list:
        if self._rank is None:
            rank = [0] * self.n
            for p, v in enumerate(self.sigma):
                rank[v] = p
            self._rank = rank
        return self._rank

    @property
    def index(self):
        """Name -> vertex index. Shared and cached: callers must not mutate it."""
        if self._index is None:
            self._index = name_index(self.names)
        return self._index

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
            self._pos = token_positions(self._order)
        return self._pos

    def nest_flags(self) -> list:
        """``nesting``, or a superset of it handed over by the stage that made
        the graph: ``make_semi_proper`` hands over its input's flags. Shared
        and cached: do not mutate."""
        if self._nests is None:
            self._nests = nesting(self._order, self.endpoint_positions())
        return self._nests

    def neighbors(self, v: int) -> list:
        if self._nbrs is None:
            self._build_neighbors()
        return self._nbrs[v]

    def edge_count(self) -> int:
        """Edges counted off the token positions, without neighbor lists.

        The i-th left end (from 0) at position p_i sees 2i - p_i intervals
        open, each an edge to a neighbor that started earlier; summed over
        all left ends that is n(n - 1) minus the left ends' positions.
        """
        n = self.n
        return n * (n - 1) - sum(self.endpoint_positions()[0::2])

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
        return list(zip(self.names, self.left, self.right, self.weight))

    def by_name(self, name: str) -> int:
        return self.index[name]


def name_index(names) -> dict:
    """Name -> position in ``names``: the index a graph builds on first use."""
    return dict(zip(names, range(len(names))))


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
    return _validated(names, lefts, rights, weights)


def _validated(names, lefts, rights, weights) -> IntervalGraph:
    """The graph on these columns after the checks every input passes:
    unique names, l < r, 2n distinct endpoints. The name index built for the
    first check becomes the graph's ``index``; a failing check scans again
    to name the first offender."""
    index = name_index(names)
    if len(index) != len(names):
        seen = set()
        for nm in names:
            if nm in seen:
                raise DuplicateVertexId(repr(nm))
            seen.add(nm)
    if not all(map(lt, lefts, rights)):
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
    return IntervalGraph(names, lefts, rights, weights, token_order(lefts, rights), index=index)


def span(graph: IntervalGraph, vertices) -> tuple:
    """[min left, max right] over a nonempty set of vertex names."""
    idx = [graph.index[v] for v in vertices]
    if not idx:
        raise EmptySet("span of nothing")
    return (min(graph.left[i] for i in idx), max(graph.right[i] for i in idx))


def token_order(left, right) -> list:
    """Tokens 2v (left end of v) and 2v + 1 (right end) by increasing
    coordinate. The sort is stable, so tokens on one coordinate keep token
    order; ``swap_spans`` relies on it."""
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


def span_extremes(order, pos, u: int, alive) -> tuple:
    """(z1, z2): the owner of the first live right end inside u's span and
    of the last live left end inside it, -1 for none, scanned from the
    span's two ends over a token order and its positions."""
    lo, hi = pos[2 * u], pos[2 * u + 1]
    z1 = z2 = -1
    for p in range(lo + 1, hi):
        t = order[p]
        if t & 1 and alive[t >> 1]:
            z1 = t >> 1
            break
    for p in range(hi - 1, lo, -1):
        t = order[p]
        if not t & 1 and alive[t >> 1]:
            z2 = t >> 1
            break
    return z1, z2


def from_endpoint_order(names, order, weight, pos=None, *, index=None, nests=None) -> IntervalGraph:
    """The graph on 1..2n whose endpoints, read in increasing order, are the
    tokens of ``order``, which it keeps as its endpoint order (position p is
    coordinate p + 1); names and weights are taken as they are. It sorts
    nothing, and keeps the token positions: ``pos`` when the caller has
    them, else computed here. ``index`` and ``nests`` go to the constructor."""
    if pos is None:
        pos = token_positions(order)
    return IntervalGraph(
        names, [p + 1 for p in pos[0::2]], [p + 1 for p in pos[1::2]], weight, order,
        index=index, pos=pos, nests=nests,
    )


def swap_spans(g: IntervalGraph, groups) -> IntervalGraph:
    """``g`` with each group's members swapped for copies of their span.

    A group is (member indices in right-end order, new names), one copy per
    name; no member contains another, so the span runs from the first
    member's left end to the last member's right end. Survivors keep their
    order and come first, and each group's copies follow, group by group,
    sharing the group's weight evenly. The copies of a group sit on the
    span's two coordinates, and the stable sort keeps them in copy order at
    both ends: they pairwise overlap, contain nothing, and keep exactly the
    span's adjacency to the rest of the graph.
    """
    left, right, weight = g.left, g.right, g.weight
    alive = [True] * g.n
    for idx, _ in groups:
        for v in idx:
            alive[v] = False
    keep = list(compress(range(g.n), alive))
    names = [g.names[v] for v in keep]
    lefts = [left[v] for v in keep]
    rights = [right[v] for v in keep]
    weights = [weight[v] for v in keep]
    for idx, new in groups:
        count = len(new)
        names.extend(new)
        lefts.extend([left[idx[0]]] * count)
        rights.extend([right[idx[-1]]] * count)
        weights.extend([exact_weight(sum(map(weight.__getitem__, idx)), count)] * count)
    return from_endpoint_order(names, token_order(lefts, rights), weights)


def normalize_endpoints(graph: IntervalGraph) -> IntervalGraph:
    """Order-preserving remap of all 2n endpoints onto 1..2n (idempotent).

    Input and output share one endpoint order, the one ``build`` sorted, and
    the name index and token positions if the input has them yet."""
    return from_endpoint_order(
        graph.names, graph.endpoint_order(), graph.weight, graph._pos, index=graph._index
    )


def with_sentinels(graph: IntervalGraph, lo: str, hi: str) -> IntervalGraph:
    """``graph`` between two isolated zero-weight intervals named ``lo`` and
    ``hi`` (fresh names), appended as vertices n and n + 1: every other
    vertex keeps its index, name and coordinates. The endpoint order is
    extended by the two intervals' tokens without sorting, and name lookups
    go through ``graph``'s index."""
    order = graph.endpoint_order()
    n = graph.n
    if n:  # the first endpoint is a left end, the last a right end
        first, last = graph.left[order[0] >> 1], graph.right[order[-1] >> 1]
    else:
        first, last = 0, 1
    return IntervalGraph(
        [*graph.names, lo, hi],
        [*graph.left, first - 2, last + 1],
        [*graph.right, first - 1, last + 2],
        [*graph.weight, 0, 0],
        [2 * n, 2 * n + 1, *order, 2 * n + 2, 2 * n + 3],
        index=ChainMap({lo: n, hi: n + 1}, graph.index),
    )


def fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


# A plain file: the count line, then ``name left right`` lines, one space
# between tokens and one newline between lines. ``\s`` is ``str.isspace``,
# which holds for every character ``str.split`` and ``str.splitlines`` break
# at, so a match has three tokens a line on both paths; it has no ``#``, so
# no comment. Each token's class excludes the separator after it, so a
# failed match backtracks in linear time.
_PLAIN = re.compile(r"[0-9]+(?:\n[^\s#]+ -?[0-9]+ -?[0-9]+)*\n?")


def parse_intervals(text: str) -> IntervalGraph:
    """Parse the interval file format.

    First data line: n. Then n lines ``vertex_id left right [num den]``,
    whitespace-separated; the weight defaults to 1/1. ``#`` starts a comment.

    Malformed text raises ``ParseError``, a negative weight included; the
    checks every input passes (see ``build``) raise their own errors. The
    graph is made here, without a second walk in ``build``.

    A plain unit-weight file (``_PLAIN``, with the count line exactly
    ``str(n)``) is split once and its columns are sliced off the token
    list, so it builds no list per line. Every other text takes the
    per-line path, ``_parse_lines``: comments, weights, any other
    whitespace (tabs, runs of spaces, carriage returns, blank lines), a
    count line such as ``03``, a coordinate too long for ``int``, and every
    malformed file. Both paths give the same graph or the same error.
    """
    if _PLAIN.fullmatch(text):
        toks = text.split()
        n = len(toks) // 3
        if toks[0] == str(n):
            try:
                lefts, rights = list(map(int, toks[2::3])), list(map(int, toks[3::3]))
            except ValueError:  # a coordinate longer than int's digit limit
                return _parse_lines(text)
            return _validated(toks[1::3], lefts, rights, [1] * n)
    return _parse_lines(text)


def _parse_lines(text: str) -> IntervalGraph:
    """``parse_intervals`` for any text: the lines are split and the columns
    converted whole, so a file without weights runs no Python loop per line
    unless a check fails."""
    lines = text.splitlines()
    if "#" in text:
        lines = [ln.partition("#")[0] for ln in lines]
    rows = list(filter(None, map(str.split, lines)))
    if not rows:
        raise ParseError("empty file")
    head, body = rows[0], rows[1:]
    try:
        (n,) = head
        n = int(n)
    except ValueError:
        raise ParseError(f"bad vertex count line: {_data_line(lines, 0)!r}") from None
    if n < 0:
        raise ParseError("negative vertex count")
    if len(body) != n:
        raise ParseError(f"expected {n} interval lines, found {len(body)}")
    try:
        names, lefts, rights, weights = _columns(body)
    except (ValueError, ZeroDivisionError):
        for i, row in enumerate(body, 1):
            try:
                _columns([row])
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad interval line: {_data_line(lines, i)!r}") from None
        raise
    if weights and min(weights) < 0:
        nm = names[weights.index(min(weights))]
        raise ParseError(f"negative weight for {nm!r}")
    return _validated(names, lefts, rights, weights)


def _columns(body: list) -> tuple:
    """Names, lefts, rights and weights of the split interval lines; raises
    ValueError or ZeroDivisionError on any malformed line."""
    if not body:
        return [], [], [], []
    widths = set(map(len, body))
    if widths == {3}:
        names, ls, rs = zip(*body)
        weights = [1] * len(body)
    elif widths <= {3, 5}:
        names, ls, rs = zip(*(tok[:3] for tok in body))
        weights = [
            exact_weight(int(tok[3]), int(tok[4])) if len(tok) == 5 else 1
            for tok in body
        ]
    else:
        raise ValueError("bad token count")
    return list(names), list(map(int, ls)), list(map(int, rs)), weights


def _data_line(lines: list, i: int) -> str:
    """The i-th nonblank line, stripped, for a message."""
    return [line.strip() for line in lines if line.strip()][i]


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
