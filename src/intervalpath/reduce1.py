"""First reduction: collapse every maximal free proper cluster to one
weighted interval.

With the deletion set (sentinels included) ordered by right endpoint, the
line splits into rows between consecutive deletion rights and each row into
cells between consecutive deletion lefts falling inside it. One pass over
the free vertices in right-endpoint order, cell by cell, keeps in each cell
those whose interval crosses no deletion right and ends there, drops the
ones reaching back over earlier cells of the same row, with a running
rightmost-endpoint waterline, and splits what remains into runs of
consecutively overlapping intervals. Each
run is replaced by its span carrying the run's total weight; the replacement
intervals form an independent set containing no other interval.

A cluster spans from its first member's left end to its last member's right
end: its members come by right end, and no member contains another. On the
semi-proper input, a free u containing a free v is the center of a claw
with v for a leaf, and D holds one of the other two leaves. If that leaf is
left of v, u crosses its right end, a deletion right, and lies in no cell.
If it is right of v, its left end, a deletion left, lies between r_v and
r_u, so u and v end in different cells. Either way they share no cluster.

The families hand on only what later stages read: the free vertices, the
grid, and the runs per cell (rule 2 takes its grid points from them). They
hold vertex indices; names are looked up only for what survives the rule.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import filterfalse
from dataclasses import dataclass, field

from .errors import MissingDummies
from .intervals import IntervalGraph, fresh_name, swap_spans


@dataclass(frozen=True)
class Stage1Families:
    """Row/cell grid of the free vertices and the clusters rule 1 collapses.

    Vertices are indices of the graph the families were computed on.
    ``U`` lists the free vertices in right-endpoint order and ``D`` is the
    deletion set. ``Li[i]`` holds
    the sorted split points of row i: the two bordering deletion rights plus
    every deletion left between them, so row i has ``len(Li[i]) - 1`` cells.
    ``components`` maps each cell key (row, cell), cells 1-based, to its
    clusters, tuples of vertices in right-endpoint order. ``S1`` lists the
    clusters left to right, which is also their order by right endpoint.
    """

    U: tuple
    D: frozenset
    Li: dict
    components: dict
    S1: tuple

    def p_total(self) -> int:
        return sum(len(marks) - 1 for marks in self.Li.values())


@dataclass(frozen=True)
class Stage1Result:
    """G# and its partition by name: the replacement intervals ``A``, the
    free survivors ``U_sharp`` and the deletion set. ``back_map`` maps each
    name in ``A`` to its cluster, as vertices of ``graph``, the graph the
    rule was applied to."""

    g_sharp: IntervalGraph
    A: frozenset
    U_sharp: frozenset
    back_map: dict
    families: Stage1Families = field(repr=False)
    graph: IntervalGraph = field(repr=False)


def compute_stage1_families(graph: IntervalGraph, deletion) -> Stage1Families:
    """Rows and cells, then one pass per cell: waterline filter and runs."""
    if deletion.dummies is None:
        raise MissingDummies("run add_dummies first")
    left, right = graph.left, graph.right
    d_set = deletion.marked
    r_list = sorted(right[d] for d in d_set)
    l_list = sorted(left[d] for d in d_set)

    # Row i runs between two consecutive deletion rights; its split points
    # are those two and every deletion left between them.
    li = {}
    for i in range(1, len(r_list)):
        lo, hi = r_list[i - 1], r_list[i]
        li[i] = (lo, *l_list[bisect_right(l_list, lo) : bisect_left(l_list, hi)], hi)

    # A free vertex goes to the cell holding its right end when its left end
    # lies in the same row, i.e. when it crosses no deletion right. The free
    # vertices come by right end, so each cell's candidates are one slice.
    u_idx = list(filterfalse(d_set.__contains__, graph.sigma))
    u_rights = list(map(right.__getitem__, u_idx))

    # The waterline starts at the row's lower deletion right and rises, after
    # each cell, to the right end of that cell's last vertex; vertices at or
    # below it reach back over an earlier cell and are dropped.
    components, s1 = {}, []
    start = 0
    for i, marks in li.items():
        floor = waterline = marks[0]
        for x in range(1, len(marks)):
            end = bisect_left(u_rights, marks[x], start)
            runs, last, reach = [], -1, None
            for v in u_idx[start:end]:
                lv = left[v]
                if lv <= floor:
                    continue
                last = v
                if lv <= waterline:
                    continue
                if runs and lv < reach:
                    runs[-1].append(v)
                else:
                    runs.append([v])
                reach = right[v]
            if last >= 0:
                waterline = max(waterline, right[last])
            start = end
            runs = tuple(map(tuple, runs))
            components[(i, x)] = runs
            s1.extend(runs)

    return Stage1Families(
        U=tuple(u_idx), D=d_set, Li=li, components=components, S1=tuple(s1)
    )


def apply_rule1(graph: IntervalGraph, families: Stage1Families) -> Stage1Result:
    """Replace every cluster by one interval over its span carrying the
    cluster's weight (``swap_spans``). Survivors keep their input order and
    the spans follow in S1 order."""
    # the bases differ in their digits, so only the graph's names can clash
    back_map = {
        fresh_name(f"a{t}", graph.index): comp for t, comp in enumerate(families.S1, 1)
    }
    g_sharp = swap_spans(graph, [(comp, (nm,)) for nm, comp in back_map.items()])
    kept = g_sharp.names[: g_sharp.n - len(back_map)]
    return Stage1Result(
        g_sharp=g_sharp,
        A=frozenset(back_map),
        U_sharp=frozenset(kept).difference(map(graph.names.__getitem__, families.D)),
        back_map=back_map,
        families=families,
        graph=graph,
    )
