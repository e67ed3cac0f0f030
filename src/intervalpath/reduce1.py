"""First reduction: collapse every maximal free proper cluster to one
weighted interval.

With the deletion set (sentinels included) ordered by right endpoint, the
line splits into rows between consecutive deletion rights and each row into
cells between consecutive deletion lefts falling inside it. One pass over
the free vertices in right-endpoint order puts each one whose interval
crosses no deletion right into the cell holding its right endpoint. One pass
over the cells in order then drops the vertices reaching back over earlier
cells of the same row, with a running rightmost-endpoint waterline, and
splits what remains into runs of consecutively overlapping intervals. Each
run is replaced by its span carrying the run's total weight; the replacement
intervals form an independent set containing no other interval.

The families hand on only what later stages read: the free vertices, the
grid, and the runs per cell (rule 2 takes its grid points from them).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import EmptySet, MissingDummies
from .intervals import IntervalGraph, fresh_name, from_endpoint_order, token_order


@dataclass(frozen=True)
class Stage1Families:
    """Row/cell grid of the free vertices and the clusters rule 1 collapses.

    ``U`` names the free vertices in right-endpoint order. ``Li[i]`` holds
    the sorted split points of row i: the two bordering deletion rights plus
    every deletion left between them, so row i has ``len(Li[i]) - 1`` cells.
    ``components`` maps each cell key (row, cell), cells 1-based, to its
    clusters, tuples of names in right-endpoint order. ``S1`` lists the
    clusters left to right, which is also their order by right endpoint.
    """

    U: tuple
    Li: dict
    components: dict
    S1: tuple

    def p_total(self) -> int:
        return sum(len(marks) - 1 for marks in self.Li.values())


@dataclass(frozen=True)
class Stage1Result:
    g_sharp: IntervalGraph
    A: frozenset
    U_sharp: frozenset
    back_map: dict
    families: Stage1Families = field(repr=False, default=None)


def _proper_run(graph: IntervalGraph, vertices, empty: str) -> list | None:
    """Indices by left end if each overlaps the next with a larger right, else None.

    Shared opening of the reducibility tests; raises EmptySet(empty) when
    there are no vertices.
    """
    idx = sorted(
        {graph.by_name(v) for v in vertices}, key=graph.left.__getitem__
    )
    if not idx:
        raise EmptySet(empty)
    left, right = graph.left, graph.right
    for prev, cur in zip(idx, idx[1:]):
        if right[prev] >= right[cur] or left[cur] > right[prev]:
            return None
    return idx


def is_reducible(graph: IntervalGraph, vertices) -> bool:
    """Both collapse conditions: connected proper induced run, span-closed."""
    idx = _proper_run(graph, vertices, "reducibility of nothing")
    if idx is None:
        return False
    lo, hi = graph.left[idx[0]], graph.right[idx[-1]]
    members = set(idx)
    for v in range(graph.n):
        if v not in members and lo <= graph.left[v] and graph.right[v] <= hi:
            return False
    return True


def compute_stage1_families(graph: IntervalGraph, deletion) -> Stage1Families:
    """Rows and cells, then one pass per cell: waterline filter and runs."""
    if deletion.dummies is None or not set(deletion.dummies) <= set(graph.names):
        raise MissingDummies("run add_dummies first")
    left, right = graph.left, graph.right
    d_set = {graph.by_name(nm) for nm in deletion.marked}
    r_list = sorted(right[d] for d in d_set)
    l_list = sorted(left[d] for d in d_set)

    # The cells in order, each with its key, its upper split point and the
    # deletion right its row starts at.
    li, keys, tops, floors = {}, [], [], []
    for i in range(1, len(r_list)):
        lo, hi = r_list[i - 1], r_list[i]
        li[i] = (lo, *l_list[bisect_right(l_list, lo) : bisect_left(l_list, hi)], hi)
        for x in range(1, len(li[i])):
            keys.append((i, x))
            tops.append(li[i][x])
            floors.append(lo)

    # A free vertex goes to the cell holding its right end when its left end
    # lies in the same row, i.e. when it crosses no deletion right.
    u_idx = [v for v in graph.sigma if v not in d_set]
    cells = [[] for _ in keys]
    for v in u_idx:
        c = bisect_left(tops, right[v])
        if floors[c] < left[v]:
            cells[c].append(v)

    # The waterline starts at the row's lower deletion right and rises, after
    # each cell, to the right end of that cell's last vertex; vertices at or
    # below it reach back over an earlier cell and are dropped.
    name_of = graph.names.__getitem__
    components, s1 = {}, []
    for (i, x), floor, cell in zip(keys, floors, cells):
        if x == 1:
            waterline = floor
        runs = []
        for v in cell:
            if left[v] <= waterline:
                continue
            if runs and left[v] < right[runs[-1][-1]]:
                runs[-1].append(v)
            else:
                runs.append([v])
        if cell:
            waterline = max(waterline, right[cell[-1]])
        named = tuple(tuple(map(name_of, run)) for run in runs)
        components[(i, x)] = named
        s1.extend(named)

    return Stage1Families(
        U=tuple(map(name_of, u_idx)), Li=li, components=components, S1=tuple(s1)
    )


def apply_rule1(graph: IntervalGraph, families: Stage1Families) -> Stage1Result:
    """Replace every cluster by its span; weights add up, endpoints renumber.

    Survivors keep their input order and the spans follow in S1 order, as
    one graph on 1..2n built straight from the endpoint order.
    """
    names, index = graph.names, graph.index
    clusters = [[index[nm] for nm in comp] for comp in families.S1]
    absorbed = {v for idx in clusters for v in idx}
    keep = [v for v in range(graph.n) if v not in absorbed]
    kept = [names[v] for v in keep]
    lefts = [graph.left[v] for v in keep]
    rights = [graph.right[v] for v in keep]
    weights = [graph.weight[v] for v in keep]
    taken = set(names)
    back_map = {}
    for t, (comp, idx) in enumerate(zip(families.S1, clusters), 1):
        name = fresh_name(f"a{t}", taken)
        taken.add(name)
        lefts.append(min(map(graph.left.__getitem__, idx)))
        rights.append(max(map(graph.right.__getitem__, idx)))
        weights.append(sum(map(graph.weight.__getitem__, idx)))
        back_map[name] = comp
    g_sharp = from_endpoint_order(
        [*kept, *back_map], token_order(lefts, rights), weights
    )
    return Stage1Result(
        g_sharp=g_sharp,
        A=frozenset(back_map),
        U_sharp=frozenset(families.U).intersection(kept),
        back_map=back_map,
        families=families,
    )
