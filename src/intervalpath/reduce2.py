"""Second reduction: replace each surviving free group by a small clone clique.

A grid T of split points is read off the reduced graph: lefts and rights of
the deletion set plus the endpoints of the first two and last two replacement
intervals of every cell. Surviving free vertices are binned by which T-gap
holds their left and which holds their right endpoint; each nonempty bin is
swapped for min(bin size, deletion size + 4) copies of its span, the bin's
weight split evenly among them (an int share, or a Fraction only when the
split is uneven). Copies are staircased inside the two outermost coordinate
gaps of the span so they pairwise overlap, contain nothing, and keep exactly
the span's adjacency to the rest of the graph.

Coordinates stay integers: the reduced graph's endpoints are first scaled
by 2n + 2, so every gap between them is empty and 2n + 2 wide. Copy j of a
bin with c copies goes to [span left + j, span right - c - 1 + j]. A gap then
holds at most the copy lefts of the bin whose span starts at its lower end
and the copy rights of the bin whose span ends at its upper end (one bin
when both ends are its own), at most n of each, so they never meet.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import comb

from .intervals import (
    IntervalGraph,
    build,
    exact_weight,
    fresh_name,
    from_endpoint_order,
    token_order,
)
from .reduce1 import Stage1Result


@dataclass(frozen=True)
class Stage2Families:
    """Grid points and the binned free vertices.

    ``Uji`` maps 1-based gap pairs (j, i), meaning the left endpoint falls
    between T[j-2] and T[j-1] and the right between T[i-2] and T[i-1], to the
    bin's vertex names in right-endpoint order. Every bin is nonempty.
    """

    T: tuple
    Uji: dict


@dataclass(frozen=True)
class CloneGroup:
    key: tuple
    members: tuple
    clones: tuple
    records: tuple


@dataclass(frozen=True)
class SpecialWeightedIntervalGraph:
    """The DP's input: A is independent and nests nothing, and |B| <= kappa.

    ``v0`` names the start vertex the DP reads its answer from, a
    zero-weight B vertex ending before every other interval begins. Rule 2
    sets it to the low sentinel d0; a hand-built special graph passes its
    own, and the DP rejects one without it.
    """

    graph: IntervalGraph
    A: frozenset
    B: frozenset
    kappa: int
    groups: tuple = ()
    g_sharp: IntervalGraph = field(repr=False, default=None)
    v0: str | None = None


def compute_stage2_families(stage1: Stage1Result, deletion) -> Stage2Families:
    """Assemble the grid T and bin the surviving free vertices by gap pair."""
    g = stage1.g_sharp
    names = stage1.graph.names
    points = set()
    for d in deletion.marked:
        v = g.by_name(names[d])
        points.add(g.left[v])
        points.add(g.right[v])
    a_of = {comp: name for name, comp in stage1.back_map.items()}
    for comps in stage1.families.components.values():
        for comp in {*comps[:2], *comps[-2:]}:
            v = g.by_name(a_of[comp])
            points.add(g.left[v])
            points.add(g.right[v])
    t_sorted = sorted(points)

    uji: dict = {}
    for v in sorted((g.by_name(nm) for nm in stage1.U_sharp), key=g.rank.__getitem__):
        j = bisect_left(t_sorted, g.left[v]) + 1
        i = bisect_left(t_sorted, g.right[v]) + 1
        uji.setdefault((j, i), []).append(g.names[v])
    uji = {key: tuple(names) for key, names in uji.items()}
    return Stage2Families(T=tuple(t_sorted), Uji=uji)


def _spread_records(g: IntervalGraph) -> tuple:
    """The gap width 2n + 2 and ``g``'s records with coordinates scaled by it."""
    step = 2 * g.n + 2
    return step, [(nm, l * step, r * step, w) for nm, l, r, w in g.records()]


def _place_clones(span_l: int, span_r: int, weight, names) -> list:
    """Staircase one copy of the span per name inside its outermost gaps."""
    count = len(names)
    return [
        (name, span_l + j, span_r - count - 1 + j, weight)
        for j, name in enumerate(names, 1)
    ]


def apply_rule2(
    stage1: Stage1Result, families: Stage2Families, deletion
) -> SpecialWeightedIntervalGraph:
    """Swap each bin for its clone clique, then renumber endpoints."""
    g = stage1.g_sharp
    cap = len(deletion.marked) + 4
    step, records = _spread_records(g)
    taken = {rec[0] for rec in records}
    absorbed = set()
    clones = []
    groups = []
    for gi, key in enumerate(sorted(families.Uji), 1):
        members = families.Uji[key]
        idx = [g.by_name(nm) for nm in members]
        span_l = min(g.left[v] for v in idx) * step
        span_r = max(g.right[v] for v in idx) * step
        total = sum(g.weight[v] for v in idx)
        count = min(len(members), cap)
        absorbed.update(members)
        names = []
        for j in range(1, count + 1):
            nm = fresh_name(f"c{gi}_{j}", taken)
            taken.add(nm)
            names.append(nm)
        clone_recs = _place_clones(span_l, span_r, exact_weight(total, count), names)
        clones.extend(clone_recs)
        groups.append(
            CloneGroup(
                key=key,
                members=members,
                clones=tuple(names),
                records=tuple(clone_recs),
            )
        )

    records = [rec for rec in records if rec[0] not in absorbed] + clones
    lefts = [rec[1] for rec in records]
    rights = [rec[2] for rec in records]
    hat = from_endpoint_order(
        [rec[0] for rec in records],
        token_order(lefts, rights),
        [rec[3] for rec in records],
    )
    k = len(deletion.marked) - 2
    kappa = (k + 2) + comb(18 * k + 16, 2) * (k + 6)
    return SpecialWeightedIntervalGraph(
        graph=hat,
        A=stage1.A,
        B=frozenset(hat.names) - stage1.A,
        kappa=kappa,
        groups=tuple(groups),
        g_sharp=g,
        v0=stage1.graph.names[deletion.dummies[0]],
    )


def intermediate_graphs(special: SpecialWeightedIntervalGraph) -> list:
    """Replay the group swaps, returning graphs before each swap plus the last.

    Element t is the graph with the first t groups applied; the final element
    is adjacency-identical to ``special.graph`` up to endpoint renumbering.
    """
    _, records = _spread_records(special.g_sharp)
    out = [special.g_sharp]
    for grp in special.groups:
        absorbed = set(grp.members)
        records = [rec for rec in records if rec[0] not in absorbed]
        records.extend(grp.records)
        out.append(build(records))
    return out
