"""Dynamic program over a special weighted interval graph.

Entries W[ξ][v_i, y] hold the best weight of a normal path ending at y among
vertices squeezed between coordinate ξ and the right end of v_i. The sweep
visits vertices in right-endpoint order; each entry is seeded by inheriting
from the stand-in vertex π (the latest dependent-side neighbor before v_i),
then challenged by paths threading v_i between an earlier leg and a tail.

Each entry is written once. Its candidates are compared locally in a fixed
order: INIT, COPY, SELF_APPEND, TAIL (the bare tail (v_i, y) after a leg
ending before l_y, which needs no split coordinate ζ), then SPLIT by
increasing ζ. A later candidate wins only if it is strictly heavier, except
that equal SPLITs keep the leg end of lowest rank, then the lowest ζ.

Two hoists keep each value computed once. Per sweep vertex v_i, the
stand-ins π(y, v_i) of its earlier neighbors and the split tails
W[ζ][π(y, v_i), y] for ζ in (l_{v_i}, l_y] are read before the ξ loop,
since neither depends on ξ. Per (v_i, ξ), the best leg below each ζ is
found once and shared by every y. Both are sound because every write made
while sweeping v_i has v_i as its middle index, while every read has
π(y, v_i), which ranks below v_i: what is read is final before v_i.

The answer is read at the lowest ξ, the left end of the start vertex v0: a
zero-weight dependent vertex that ends before every other interval begins,
so every vertex lies above it. The special graph names v0 and the DP only
checks it; rule 2 names the low sentinel d0 that ``add_dummies`` placed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import CorruptParentChain, InvalidSpecialPartition
from .intervals import IntervalGraph
from .reduce2 import SpecialWeightedIntervalGraph

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
    """Stand-ins: pi(u, v) is the latest dependent-side neighbor of u strictly
    between u and v in right-endpoint order, or u itself. Each u's
    dependent-side neighbors are cached; pi itself is not, since the sweep
    asks for each pair once."""

    def __init__(self, graph: IntervalGraph, b_indices: set):
        self._g = graph
        self._b = b_indices
        self._bn: dict = {}

    def _b_neighbors(self, u: int) -> list:
        got = self._bn.get(u)
        if got is None:
            got = [w for w in self._g.neighbors(u) if w in self._b]
            self._bn[u] = got
        return got

    def lookup(self, u: int, v: int) -> int:
        rank = self._g.rank
        got = u
        for w in self._b_neighbors(u):
            if rank[u] < rank[w] < rank[v]:
                got = w if rank[w] > rank[got] else got
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
    if special.v0 not in special.B:
        raise InvalidSpecialPartition(f"start vertex {special.v0!r} is not on the dependent side")
    start = g.by_name(special.v0)
    if g.weight[start] != 0:
        raise InvalidSpecialPartition("start vertex has nonzero weight")
    if any(g.left[v] < g.right[start] for v in range(g.n) if v != start):
        raise InvalidSpecialPartition("start vertex does not end before every other interval")
    if len(special.B) > special.kappa:
        raise InvalidSpecialPartition("dependent side exceeds its budget")


def max_weight_path(
    special: SpecialWeightedIntervalGraph, trace_reads: list | None = None
) -> DpResult:
    """Best-weight path of the special graph, with parent chains for replay."""
    _validate(special)
    g = special.graph
    xi = build_xi(g, special.A, special.B)
    xs_sorted = xi.Xi
    pit = PiTable(g, {g.by_name(nm) for nm in special.B})
    table = DpTable(graph=g, xi=xi)
    W, parent = table.W, table.parent
    rank, left, right, wt = g.rank, g.left, g.right, g.weight

    for vi in g.sigma:
        r_vi = right[vi]
        l_vi = left[vi]
        w_vi = wt[vi]
        zlo = bisect_right(xs_sorted, l_vi)
        ztop = zlo
        # earlier neighbors y with pi(y, v_i) and, when y nests in v_i, its split tails
        nbrs = []
        for y in g.neighbors(vi):
            if rank[y] >= rank[vi]:
                break
            p = pit.lookup(y, vi)
            if trace_reads is not None:
                trace_reads.append((vi, p))
            tails = None
            if left[y] >= l_vi:
                # (ζ offset from zlo, v_i's weight plus the tail from ζ)
                tails = []
                for zpos in range(zlo, bisect_right(xs_sorted, left[y])):
                    tail = W.get((zpos, p, y))
                    if tail is not None:
                        tails.append((zpos - zlo, w_vi + tail))
                if tails:
                    ztop = max(ztop, zlo + tails[-1][0] + 1)
            nbrs.append((y, p, left[y], right[y], tails))

        for pos in range(bisect_left(xs_sorted, r_vi)):
            x_coord = xs_sorted[pos]
            inside = [nb for nb in nbrs if x_coord <= nb[2]]
            vals = [W.get((pos, p, y)) for y, p, _, _, _ in inside]
            if x_coord > l_vi:
                for (y, p, _, _, _), val in zip(inside, vals):
                    if val is not None:
                        W[pos, vi, y] = val
                        parent[pos, vi, y] = ("COPY", p)
                continue

            legs = PrefixMaxTable(
                [r_y for _, _, _, r_y, _ in inside], vals, [(y, p) for y, p, _, _, _ in inside]
            )
            best, par = w_vi, ("INIT",)
            got = legs.omega(r_vi)
            if got is not None and got[0] + w_vi > best:
                best, par = got[0] + w_vi, ("SELF_APPEND", *got[1])
            W[pos, vi, vi] = best
            parent[pos, vi, vi] = par

            split_legs = [legs.omega(xs_sorted[zpos]) for zpos in range(zlo, ztop)]
            for (y, p, l_y, _, tails), best in zip(inside, vals):
                par = ("COPY", p)
                if tails is not None:
                    got = legs.omega(l_y)
                    if got is not None:
                        cand = got[0] + w_vi + wt[y]
                        if best is None or cand > best:
                            best, par = cand, ("TAIL", *got[1])
                    brk = -1  # rank of the winning split's leg end; no split wins yet
                    for zi, tail in tails:
                        got = split_legs[zi]
                        if got is None:
                            continue
                        cand = got[0] + tail
                        if best is None or cand > best or (cand == best and rank[got[1][0]] < brk):
                            best, brk = cand, rank[got[1][0]]
                            par = ("SPLIT", *got[1], zlo + zi, p)
                if best is not None:
                    W[pos, vi, y] = best
                    parent[pos, vi, y] = par

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
    parent, names = table.parent, table.graph.names
    path = []
    # keys still to expand and vertices still to emit, next one on top
    todo = [key]
    while todo:
        k = todo.pop()
        if not isinstance(k, tuple):
            path.append(names[k])
            continue
        par = parent.get(k)
        if par is None:
            raise CorruptParentChain(f"no provenance for {k}")
        pos, vi, y = k
        tag = par[0]
        if tag == "INIT":
            path.append(names[vi])
        elif tag == "COPY":
            todo.append((pos, par[1], y))
        elif tag == "SELF_APPEND":
            _, x, p = par
            todo += (vi, (pos, p, x))
        elif tag == "TAIL":
            _, x, p = par
            todo += (y, vi, (pos, p, x))
        elif tag == "SPLIT":
            _, x, p, zpos, py = par
            todo += ((zpos, py, y), vi, (pos, p, x))
        else:
            raise CorruptParentChain(f"unknown case {tag!r}")
    return path
