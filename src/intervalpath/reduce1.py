"""First reduction: collapse every maximal free proper cluster to one
weighted interval.

With the deletion set (sentinels included) ordered by right endpoint, the
line splits into rows between consecutive deletion rights and each row into
cells between consecutive deletion lefts falling inside it. A free vertex
whose interval crosses no deletion right lands in the cell holding its right
endpoint. Inside a cell, vertices reaching back over earlier cells of the
same row are filtered out with a running rightmost-endpoint waterline, and
what remains splits into runs of consecutively overlapping intervals. Each
run is replaced by its span carrying the run's total weight; the replacement
intervals form an independent set containing no other interval.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import EmptySet, MissingDummies
from .intervals import IntervalGraph, fresh_name, from_endpoint_order, token_order


@dataclass(frozen=True)
class Stage1Families:
    """Row/cell decomposition of the free vertices, keyed by vertex names.

    ``Li[i]`` holds the sorted split points of row i: the two bordering
    deletion rights plus every deletion left between them, so row i has
    ``len(Li[i]) - 1`` cells. Cell keys are (row, cell), cells 1-based.
    ``S1`` lists the component tuples left to right, which is also their
    order by right endpoint.
    """

    L: tuple
    R: tuple
    U: tuple
    U_star: tuple
    Li: dict
    U_star_ix: dict
    U_2star_ix: dict
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


def is_reducible(graph: IntervalGraph, vertices) -> bool:
    """Both collapse conditions: connected proper induced run, span-closed."""
    idx = sorted(
        {graph.by_name(v) for v in vertices}, key=graph.left.__getitem__
    )
    if not idx:
        raise EmptySet("reducibility of nothing")
    rights = [graph.right[v] for v in idx]
    if any(a >= b for a, b in zip(rights, rights[1:])):
        return False
    for prev, cur in zip(idx, idx[1:]):
        if graph.left[cur] > graph.right[prev]:
            return False
    lo, hi = graph.left[idx[0]], rights[-1]
    members = set(idx)
    for v in range(graph.n):
        if v not in members and lo <= graph.left[v] and graph.right[v] <= hi:
            return False
    return True


def compute_stage1_families(graph: IntervalGraph, deletion) -> Stage1Families:
    """Rows, cells, waterline filter, and component split, all in sweep order."""
    if deletion.dummies is None or not set(deletion.dummies) <= set(graph.names):
        raise MissingDummies("run add_dummies first")
    d_idx = sorted(
        (graph.by_name(nm) for nm in deletion.marked), key=graph.rank.__getitem__
    )
    left, right = graph.left, graph.right
    r_list = [right[d] for d in d_idx]
    l_list = sorted(left[d] for d in d_idx)
    d_set = set(d_idx)
    u_idx = [v for v in graph.sigma if v not in d_set]

    rows = range(1, len(d_idx))
    li = {}
    for i in rows:
        lo, hi = r_list[i - 1], r_list[i]
        inner = l_list[bisect_right(l_list, lo) : bisect_left(l_list, hi)]
        li[i] = (lo, *inner, hi)

    # The cells in order, each with its upper split point and the deletion
    # right its row starts at. One bisect finds the cell of a free vertex's
    # right end; the vertex is in U* when its left end is in the same row.
    keys, tops, floors = [], [], []
    for i in rows:
        for x in range(1, len(li[i])):
            keys.append((i, x))
            tops.append(li[i][x])
            floors.append(li[i][0])
    cells = [[] for _ in keys]
    u_star = []
    for v in u_idx:
        c = bisect_left(tops, right[v])
        if floors[c] < left[v]:
            u_star.append(v)
            cells[c].append(v)
    star_cells = dict(zip(keys, cells))

    star2_cells = {}
    for i in rows:
        waterline = r_list[i - 1]
        prev_cell_max = None
        for x in range(1, len(li[i])):
            if prev_cell_max is not None:
                waterline = max(waterline, prev_cell_max)
            cell = star_cells[(i, x)]
            star2_cells[(i, x)] = [v for v in cell if waterline < graph.left[v]]
            prev_cell_max = graph.right[cell[-1]] if cell else None

    name_of = graph.names.__getitem__
    components = {}
    s1 = []
    for i in rows:
        for x in range(1, len(li[i])):
            comps = []
            for v in star2_cells[(i, x)]:
                if comps and graph.left[v] < graph.right[comps[-1][-1]]:
                    comps[-1].append(v)
                else:
                    comps.append([v])
            named = tuple(tuple(map(name_of, c)) for c in comps)
            components[(i, x)] = named
            s1.extend(named)

    return Stage1Families(
        L=tuple(l_list),
        R=tuple(r_list),
        U=tuple(map(name_of, u_idx)),
        U_star=tuple(map(name_of, u_star)),
        Li=li,
        U_star_ix={k: tuple(map(name_of, c)) for k, c in star_cells.items()},
        U_2star_ix={k: tuple(map(name_of, c)) for k, c in star2_cells.items()},
        components=components,
        S1=tuple(s1),
    )


def apply_rule1(graph: IntervalGraph, families: Stage1Families) -> Stage1Result:
    """Replace every cluster by its span; weights add up, endpoints renumber.

    Survivors keep their input order and the spans follow in S1 order, as
    one graph on 1..2n built straight from the endpoint order.
    """
    absorbed = set()
    for comp in families.S1:
        absorbed.update(comp)
    keep = [v for v, nm in enumerate(graph.names) if nm not in absorbed]
    names = [graph.names[v] for v in keep]
    lefts = [graph.left[v] for v in keep]
    rights = [graph.right[v] for v in keep]
    weights = [graph.weight[v] for v in keep]
    taken = set(names)
    back_map = {}
    a_names = []
    for t, comp in enumerate(families.S1, 1):
        idx = list(map(graph.index.__getitem__, comp))
        name = fresh_name(f"a{t}", taken)
        taken.add(name)
        names.append(name)
        lefts.append(min(map(graph.left.__getitem__, idx)))
        rights.append(max(map(graph.right.__getitem__, idx)))
        weights.append(sum(map(graph.weight.__getitem__, idx)))
        back_map[name] = comp
        a_names.append(name)
    order = token_order(lefts, rights)
    g_sharp = from_endpoint_order(names, order, weights)
    return Stage1Result(
        g_sharp=g_sharp,
        A=frozenset(a_names),
        U_sharp=frozenset(families.U) - absorbed,
        back_map=back_map,
        families=families,
    )
