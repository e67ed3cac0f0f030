"""Second reduction: replace each surviving free group by a small clone clique.

A grid T of split points is read off the reduced graph: lefts and rights of
the deletion set plus the endpoints of the first two and last two replacement
intervals of every cell. Surviving free vertices are binned by which T-gap
holds their left and which holds their right endpoint; each nonempty bin is
swapped for min(bin size, deletion size + 4) copies of its span, the bin's
weight split evenly among them (an int share, or a Fraction only when the
split is uneven). Copies are staircased at the two ends of the span so they
pairwise overlap, contain nothing, and keep exactly the span's adjacency to
the rest of the graph.

A bin's span runs from its first member's left end to its last member's
right end: its members come by right end, and no member contains another.
A free u containing a free v has a deletion endpoint between their ends on
one side (see ``reduce1``): a deletion right between their left ends, or a
deletion left between their right ends. T holds every deletion endpoint, so
u and v never share a bin.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import comb

from .intervals import IntervalGraph, fresh_name, swap_spans
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


def apply_rule2(
    stage1: Stage1Result, families: Stage2Families, deletion
) -> SpecialWeightedIntervalGraph:
    """Name each bin's clones, then swap every bin for them (``swap_spans``)."""
    g = stage1.g_sharp
    cap = len(deletion.marked) + 4
    groups, spans = [], []
    for gi, key in enumerate(sorted(families.Uji), 1):
        members = families.Uji[key]
        count = min(len(members), cap)
        # the bases differ in their digits, so only the graph's names can clash
        clones = tuple(fresh_name(f"c{gi}_{j}", g.index) for j in range(1, count + 1))
        groups.append(CloneGroup(key=key, members=members, clones=clones))
        spans.append((list(map(g.index.__getitem__, members)), clones))
    hat = swap_spans(g, spans)
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
    """Replay the group swaps: element t is G# with the first t groups
    swapped, so the last element is ``special.graph``."""
    g = special.g_sharp
    spans = [
        (list(map(g.index.__getitem__, grp.members)), grp.clones) for grp in special.groups
    ]
    return [swap_spans(g, spans[:t]) for t in range(len(spans) + 1)]
