"""Dynamic program over a special weighted interval graph.

Entries W[ξ][v_i, y] hold the best weight of a normal path ending at y among
vertices squeezed between coordinate ξ and the right end of v_i. The sweep
visits vertices in right-endpoint order; each entry is first seeded by
inheriting from the stand-in vertex π (the latest independent-side neighbor
before v_i), then challenged by paths threading v_i between an earlier leg
and a tail.

One deliberate deviation from the obvious loop layout: the challenge that
appends the bare tail (v_i, y) after a leg ending before l_y does not depend
on the split coordinate ζ, so it is applied once before the ζ loop instead of
inside it. Leaving it inside would also skip it entirely whenever no ζ lands
in (l_{v_i}, l_y], losing valid paths; hoisting fixes that and saves work.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

from .errors import CorruptParentChain, DoubleAugment, InvalidSpecialPartition
from .intervals import IntervalGraph, build, fresh_name
from .reduce2 import SpecialWeightedIntervalGraph

_TAG = {"INIT": 0, "COPY": 1, "SELF_APPEND": 2, "TAIL": 3, "SPLIT": 4}


@dataclass(frozen=True)
class XiSet:
    """Split coordinates: for each dependent vertex, its own left endpoint or
    the left endpoint of the unique independent interval covering it."""

    xi_of: dict
    Xi: tuple


@dataclass(frozen=True)
class DpResult:
    weight: object
    path: list
    table: "DpTable"


class PiTable:
    """Memoized stand-ins: pi(u, v) is the latest dependent-side neighbor of u
    strictly between u and v in right-endpoint order, or u itself."""

    def __init__(self, graph: IntervalGraph, b_indices: set):
        self._g = graph
        self._b = b_indices
        self._bn: dict = {}
        self.pi: dict = {}

    def _b_neighbors(self, u: int) -> list:
        got = self._bn.get(u)
        if got is None:
            got = [w for w in self._g.neighbors(u) if w in self._b]
            self._bn[u] = got
        return got

    def lookup(self, u: int, v: int) -> int:
        key = (u, v)
        got = self.pi.get(key)
        if got is None:
            rank = self._g.rank
            got = u
            for w in self._b_neighbors(u):
                if rank[u] < rank[w] < rank[v]:
                    got = w if rank[w] > rank[got] else got
            self.pi[key] = got
        return got


class PrefixMaxTable:
    """Running maxima of leg values keyed by the leg's right endpoint.

    omega(q) is the best (value, x) among candidates with right endpoint
    strictly below q; ties keep the earliest x in right-endpoint order.
    """

    def __init__(self, rights: list, vals: list, xs: list):
        self.rights = rights
        self.xs = xs
        self.vals = vals
        self.best: list = []
        cur = None
        for v, x in zip(vals, xs):
            if cur is None or (v is not None and (cur[0] is None or v > cur[0])):
                cur = (v, x)
            self.best.append(cur)

    def omega(self, q):
        i = bisect_left(self.rights, q)
        if i == 0:
            return None
        got = self.best[i - 1]
        return None if got is None or got[0] is None else got


@dataclass
class DpTable:
    """Value and provenance per (ξ index, sweep vertex, path end) triple."""

    graph: IntervalGraph
    xi: XiSet
    W: dict = field(default_factory=dict)
    parent: dict = field(default_factory=dict)
    keybreak: dict = field(default_factory=dict)

    def value(self, xi_coord, u_name: str, y_name: str):
        pos = self.xi.Xi.index(xi_coord)
        return self.W.get((pos, self.graph.by_name(u_name), self.graph.by_name(y_name)))


def add_dummy_v0(special: SpecialWeightedIntervalGraph) -> SpecialWeightedIntervalGraph:
    """Prepend an isolated zero-weight vertex below every other interval."""
    if special.v0 is not None:
        raise DoubleAugment("start dummy already added")
    g = special.graph
    name = fresh_name("v0", set(g.names))
    lo = min(g.left) if g.n else 0
    records = [(name, lo - 2, lo - 1, 0)] + g.records()
    return replace(
        special,
        graph=build(records),
        B=special.B | {name},
        v0=name,
    )


def subgraph_contains(graph: IntervalGraph, xi, v_i: str, v: str) -> bool:
    """Is v squeezed between coordinate xi and the right end of v_i?"""
    a = graph.by_name(v_i)
    b = graph.by_name(v)
    return xi <= graph.left[b] and graph.right[b] <= graph.right[a]


def build_xi(graph: IntervalGraph, a_set: frozenset, b_set: frozenset) -> XiSet:
    a_sorted = sorted((graph.by_name(nm) for nm in a_set), key=graph.left.__getitem__)
    a_lefts = [graph.left[v] for v in a_sorted]
    xi_of = {}
    coords = set()
    for nm in b_set:
        v = graph.by_name(nm)
        lv = graph.left[v]
        pos = bisect_right(a_lefts, lv) - 1
        if pos >= 0 and graph.right[a_sorted[pos]] > lv:
            xi_of[nm] = a_lefts[pos]
        else:
            xi_of[nm] = lv
        coords.add(xi_of[nm])
        coords.add(lv)
    return XiSet(xi_of=xi_of, Xi=tuple(sorted(coords)))


def _validate(special: SpecialWeightedIntervalGraph) -> None:
    g = special.graph
    names = set(g.names)
    if special.A & special.B or (special.A | special.B) != names:
        raise InvalidSpecialPartition("vertex sets do not split the graph")
    a_sorted = sorted((g.by_name(nm) for nm in special.A), key=g.left.__getitem__)
    for u, v in zip(a_sorted, a_sorted[1:]):
        if g.adjacent(u, v):
            raise InvalidSpecialPartition("independent side has an edge")
    a_lefts = [g.left[v] for v in a_sorted]
    for v in range(g.n):
        pos = bisect_right(a_lefts, g.left[v]) - 1
        if pos >= 0:
            a = a_sorted[pos]
            if a != v and g.left[a] < g.left[v] and g.right[v] < g.right[a]:
                raise InvalidSpecialPartition("interval nested inside the independent side")
    allowance = len(special.B) - (1 if special.v0 else 0)
    if allowance > special.kappa:
        raise InvalidSpecialPartition("dependent side exceeds its budget")


def max_weight_path(
    special: SpecialWeightedIntervalGraph, trace_reads: list | None = None
) -> DpResult:
    """Best-weight path of the special graph, with parent chains for replay."""
    _validate(special)
    if special.v0 is None:
        special = add_dummy_v0(special)
    g = special.graph
    xi = build_xi(g, special.A, special.B)
    xs_sorted = xi.Xi
    b_idx = {g.by_name(nm) for nm in special.B}
    pit = PiTable(g, b_idx)
    table = DpTable(graph=g, xi=xi)
    W, parent, keybreak = table.W, table.parent, table.keybreak
    rank = g.rank
    wt = g.weight

    def read(pos: int, u: int, y: int, reader: int):
        if trace_reads is not None:
            trace_reads.append((reader, u))
        return W.get((pos, u, y))

    def offer(key, cand, tiebreak, par) -> None:
        cur = W.get(key)
        if cur is None or cand > cur or (cand == cur and tiebreak < keybreak[key]):
            W[key] = cand
            keybreak[key] = tiebreak
            parent[key] = par

    for vi in g.sigma:
        r_vi = g.right[vi]
        l_vi = g.left[vi]
        nbrs = [y for y in g.neighbors(vi) if rank[y] < rank[vi]]
        for pos, x_coord in enumerate(xs_sorted):
            if x_coord >= r_vi:
                break
            inside = [y for y in nbrs if x_coord <= g.left[y]]
            if x_coord <= l_vi:
                offer((pos, vi, vi), wt[vi], (_TAG["INIT"], -1, -1), ("INIT",))
            for y in inside:
                p = pit.lookup(y, vi)
                got = read(pos, p, y, vi)
                if got is not None:
                    offer((pos, vi, y), got, (_TAG["COPY"], -1, -1), ("COPY", p))

            if x_coord > l_vi:
                continue

            cand_rights = []
            cand_vals = []
            cand_xs = []
            for x in inside:
                p = pit.lookup(x, vi)
                val = read(pos, p, x, vi)
                cand_rights.append(g.right[x])
                cand_vals.append(val)
                cand_xs.append((x, p))
            legs = PrefixMaxTable(cand_rights, cand_vals, cand_xs)

            got = legs.omega(r_vi)
            if got is not None:
                val, (x, p) = got
                offer(
                    (pos, vi, vi),
                    val + wt[vi],
                    (_TAG["SELF_APPEND"], rank[x], -1),
                    ("SELF_APPEND", x, p),
                )

            for y in inside:
                l_y = g.left[y]
                if l_y < l_vi:
                    continue
                got = legs.omega(l_y)
                if got is not None:
                    val, (x, p) = got
                    offer(
                        (pos, vi, y),
                        val + wt[vi] + wt[y],
                        (_TAG["TAIL"], rank[x], -1),
                        ("TAIL", x, p),
                    )
                py = pit.lookup(y, vi)
                zlo = bisect_right(xs_sorted, l_vi)
                zhi = bisect_right(xs_sorted, l_y)
                for zpos in range(zlo, zhi):
                    got = legs.omega(xs_sorted[zpos])
                    if got is None:
                        continue
                    tail = read(zpos, py, y, vi)
                    if tail is None:
                        continue
                    val, (x, p) = got
                    offer(
                        (pos, vi, y),
                        val + wt[vi] + tail,
                        (_TAG["SPLIT"], rank[x], zpos),
                        ("SPLIT", x, p, zpos, py),
                    )

    v0_idx = g.by_name(special.v0)
    assert xs_sorted and xs_sorted[0] == g.left[v0_idx]
    best_key = None
    best = None
    for key, val in W.items():
        if key[0] != 0:
            continue
        order = (-val, rank[key[1]], rank[key[2]])
        if best is None or order < best:
            best = order
            best_key = key
    weight = W[best_key]
    path = reconstruct(table, best_key)
    if path == [special.v0]:
        path = []
    return DpResult(weight=weight, path=path, table=table)


def reconstruct(table: DpTable, key) -> list:
    """Replay parent chains into the vertex-name path for a table entry."""
    if key not in table.W:
        raise CorruptParentChain(f"no entry for {key}")
    return [table.graph.names[v] for v in _walk(table.parent, key)]


def _walk(parent: dict, k) -> list:
    # not nested in reconstruct: a recursive closure is a cycle holding the table
    par = parent.get(k)
    if par is None:
        raise CorruptParentChain(f"no provenance for {k}")
    pos, vi, y = k
    tag = par[0]
    if tag == "INIT":
        return [vi]
    if tag == "COPY":
        return _walk(parent, (pos, par[1], y))
    if tag == "SELF_APPEND":
        _, x, p = par
        return _walk(parent, (pos, p, x)) + [vi]
    if tag == "TAIL":
        _, x, p = par
        return _walk(parent, (pos, p, x)) + [vi, y]
    if tag == "SPLIT":
        _, x, p, zpos, py = par
        return _walk(parent, (pos, p, x)) + [vi] + _walk(parent, (zpos, py, y))
    raise CorruptParentChain(f"unknown case {tag!r}")
