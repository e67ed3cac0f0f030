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

Only the endpoint order matters, so the swap is one pass over the reduced
graph's endpoint order. The members leave; the copy lefts go, in copy
order, where the span's left end was, and the copy rights, in copy order,
where its right end was. Both ends belong to members, and no two bins share
one, so nothing else lands between a span's end and its copies.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress
from math import comb

from .intervals import IntervalGraph, exact_weight, fresh_name, from_endpoint_order
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


def _swap_groups(g: IntervalGraph, groups) -> IntervalGraph:
    """``g`` with every group's members swapped for its clones, made in one
    pass over ``g``'s endpoint order. Survivors keep their order and come
    first; the clones follow, group by group."""
    left, right, weight = g.left, g.right, g.weight
    spans = [list(map(g.index.__getitem__, grp.members)) for grp in groups]
    alive = [True] * g.n
    for idx in spans:
        for v in idx:
            alive[v] = False
    keep = list(compress(range(g.n), alive))
    new = [-1] * g.n
    for i, v in enumerate(keep):
        new[v] = i
    names = [g.names[v] for v in keep]
    weights = [weight[v] for v in keep]
    at = {}  # a member's token -> the clone tokens that take its place
    for grp, idx in zip(groups, spans):
        count = len(grp.clones)
        ids = range(len(names), len(names) + count)
        names.extend(grp.clones)
        share = exact_weight(sum(map(weight.__getitem__, idx)), count)
        weights.extend([share] * count)
        at[2 * min(idx, key=left.__getitem__)] = [2 * c for c in ids]
        at[2 * max(idx, key=right.__getitem__) + 1] = [2 * c + 1 for c in ids]
    order = []
    for t in g.endpoint_order():
        v = t >> 1
        if alive[v]:
            order.append(2 * new[v] + (t & 1))
        elif t in at:
            order.extend(at[t])
    return from_endpoint_order(names, order, weights)


def apply_rule2(
    stage1: Stage1Result, families: Stage2Families, deletion
) -> SpecialWeightedIntervalGraph:
    """Name each bin's clones, then swap every bin for them (``_swap_groups``)."""
    g = stage1.g_sharp
    cap = len(deletion.marked) + 4
    groups = []
    for gi, key in enumerate(sorted(families.Uji), 1):
        members = families.Uji[key]
        count = min(len(members), cap)
        # the bases differ in their digits, so only the graph's names can clash
        clones = tuple(fresh_name(f"c{gi}_{j}", g.index) for j in range(1, count + 1))
        groups.append(CloneGroup(key=key, members=members, clones=clones))
    hat = _swap_groups(g, groups)
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
    groups = special.groups
    return [_swap_groups(special.g_sharp, groups[:t]) for t in range(len(groups) + 1)]
