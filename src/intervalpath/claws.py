"""Claw-centered machinery: the linear-time 4-approximate deletion set with
packing certificates, its pruning to an inclusion-minimal set, and the two
sentinel intervals later stages rely on.

The detection trick: among a center's live neighbors, only the one with the
smallest right endpoint and the one with the largest left endpoint can serve
as the outer leaves of an induced claw, so a claw through a center u exists
iff {u, v, z1(u), z2(u)} induces one for some neighbor v.

With distinct endpoints that reads off the endpoint order alone, with no
neighbor lists. If no live right end lies inside u's span, every live
neighbor covers r_u, and if no live left end does, every one covers l_u;
either way they pairwise intersect and u centers no claw. Otherwise z1(u)
owns the first live right end inside the span and z2(u) the last live left
end, and a middle leaf is a live interval strictly inside (r_z1, l_z2): the
first live right end there whose left end also is. Every token in u's span
belongs to a neighbor of u, so each scan costs O(deg u). The extremes come
from ``span_extremes`` in ``intervals``, the scanner semi-proper uses too.

A claw's center strictly contains its middle leaf, so only an interval that
contains another can center one. The greedy and the pruning therefore look
only at the vertices ``nest_flags()`` names and at their spans, never at
the whole endpoint order; on the semi-proper graph those flags are its
input's, handed over by ``make_semi_proper``, and cover every interval that
contains another, since stretching creates no containment.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import compress

from .errors import DoubleAugment
from .intervals import IntervalGraph, fresh_name, span_extremes, with_sentinels


@dataclass(frozen=True)
class ClawWitness:
    """An induced claw: one center adjacent to three pairwise-disjoint leaves."""

    center: str
    leaves: tuple


@dataclass(frozen=True)
class DeletionSet:
    """Vertices whose removal leaves a proper representation.

    ``marked`` holds vertex indices of the graph the set was computed on.
    ``certificates`` holds the vertex-disjoint claws packed during the greedy
    round, by name; the greedy set is their union, and after pruning
    ``marked`` is a subset of it. A set built without the greedy round
    leaves it empty.
    ``dummies`` is None until the two sentinels are appended, then their
    indices in the widened graph, n and n + 1 for a graph of n vertices.
    """

    marked: frozenset
    certificates: tuple
    dummies: tuple | None = None


def _middle_leaf(order: list, pos: list, z1: int, z2: int, alive) -> tuple | None:
    """Leaves of a claw with outer leaves z1, z2 (a center's extremes), or
    None: the live interval strictly inside (r_z1, l_z2) that ends first."""
    if z1 < 0 or z2 < 0:
        return None
    a, b = pos[2 * z1 + 1], pos[2 * z2]
    for p in range(a + 1, b):
        t = order[p]
        if t & 1 and alive[t >> 1] and pos[t - 1] > a:
            return (t >> 1, z1, z2)
    return None


def _claw_leaves(order: list, pos: list, u: int, alive) -> tuple | None:
    """Leaves of some induced claw centered at u within ``alive``, or None."""
    z1, z2 = span_extremes(order, pos, u, alive)
    return _middle_leaf(order, pos, z1, z2, alive)


def _witness(graph: IntervalGraph, u: int, leaves: tuple) -> ClawWitness:
    """The claw by name, leaves in right-endpoint order."""
    pos = graph.endpoint_positions()
    names = tuple(graph.names[w] for w in sorted(leaves, key=lambda w: pos[2 * w + 1]))
    return ClawWitness(graph.names[u], names)


def approx_deletion_set(graph: IntervalGraph) -> DeletionSet:
    """Factor-4 deletion set for a semi-proper representation.

    One pass in right-endpoint order; each center contributes at most one
    claw, whose four vertices are deleted together and recorded as a
    certificate. The certificates are vertex-disjoint, so any deletion set
    needs at least a quarter of what this returns.
    A center strictly contains its middle leaf, so the pass visits only the
    vertices ``graph.nest_flags()`` names, sorted by right end: after
    ``make_semi_proper`` these are its input's flags, so neither
    ``nesting`` nor the right-endpoint order of the graph is computed.
    """
    alive = [True] * graph.n
    deleted = []
    certs = []
    order, pos = graph.endpoint_order(), graph.endpoint_positions()
    centers = compress(range(graph.n), graph.nest_flags())
    for u in sorted(centers, key=lambda u: pos[2 * u + 1]):
        if not alive[u]:
            continue
        leaves = _claw_leaves(order, pos, u, alive)
        if leaves is None:
            continue
        quad = (u,) + leaves
        for w in quad:
            alive[w] = False
        deleted.extend(quad)
        certs.append(_witness(graph, u, leaves))
    return DeletionSet(frozenset(deleted), tuple(certs))


def prune_deletion_set(graph: IntervalGraph, deletion: DeletionSet) -> DeletionSet:
    """Put back every marked vertex whose return creates no claw.

    Candidates go in decreasing rank order against a claw-free G - D. A claw
    created by putting v back contains v, so it is centered at v or at a live
    neighbor w with v as a leaf, and a center strictly contains its middle
    leaf: only the vertices ``graph.nest_flags()`` names are looked at as
    centers. ``ext`` caches each such w's extremes, filled the first time a
    candidate touches w (with the candidate still dead) and updated when a
    neighbor goes back. If v becomes neither extreme of w, the outer leaves
    stay z1, z2 and v can only be the middle leaf: an O(1) test. Otherwise
    the leaf scan at w decides.

    A center meeting v either covers l_v or starts inside v's span. One sweep
    over the sorted endpoints of the centers and the candidates' left ends
    collects the centers open at each l_v, and a bisection over the centers'
    left ends finds those starting inside v, so nothing walks the whole
    endpoint order and no neighbor lists are built.

    A rejected vertex lies on a claw that later put-backs cannot break, so the
    kept set is inclusion-minimal. Certificates still describe the greedy set.
    """
    order, pos = graph.endpoint_order(), graph.endpoint_positions()
    nests = graph.nest_flags()
    alive = [True] * graph.n
    for v in deletion.marked:
        alive[v] = False
    centers = sorted(compress(range(graph.n), nests), key=lambda w: pos[2 * w])
    starts = [pos[2 * w] for w in centers]
    events = {2 * v for v in deletion.marked}
    events.update(2 * w for w in centers)
    events.update(2 * w + 1 for w in centers)
    covering = {}
    open_ = set()
    for t in sorted(events, key=pos.__getitem__):
        v = t >> 1
        if t & 1:
            open_.discard(v)
        else:
            if not alive[v]:
                covering[v] = list(open_)
            if nests[v]:
                open_.add(v)
    ext = {}

    def creates_claw(v: int, moved: list) -> bool:
        lv, rv = pos[2 * v], pos[2 * v + 1]
        starts_inside = centers[bisect(starts, lv) : bisect(starts, rv)]
        for w in covering[v] + starts_inside:
            if not alive[w]:
                continue
            z = ext.get(w)
            if z is None:
                alive[v] = False
                z = ext[w] = span_extremes(order, pos, w, alive)
                alive[v] = True
            z1, z2 = z
            lw, rw = pos[2 * w], pos[2 * w + 1]
            n1 = v if rv < rw and (z1 < 0 or rv < pos[2 * z1 + 1]) else z1
            n2 = v if lv > lw and (z2 < 0 or lv > pos[2 * z2]) else z2
            if n1 == z1 and n2 == z2:
                if z1 >= 0 and z2 >= 0 and pos[2 * z1 + 1] < lv and rv < pos[2 * z2]:
                    return True
            else:
                moved.append((w, (n1, n2)))
                if _middle_leaf(order, pos, n1, n2, alive) is not None:
                    return True
        return False

    kept = []
    marked = sorted(deletion.marked, key=lambda v: pos[2 * v + 1])
    for v in reversed(marked):
        alive[v] = True
        # ``ext`` is read at flagged vertices only; an unflagged v centers nothing
        z = span_extremes(order, pos, v, alive) if nests[v] else (-1, -1)
        moved = []
        if _middle_leaf(order, pos, *z, alive) is not None or creates_claw(v, moved):
            alive[v] = False
            kept.append(v)
        else:
            ext[v] = z
            ext.update(moved)
    return DeletionSet(frozenset(kept), deletion.certificates)


def add_dummies(graph: IntervalGraph, deletion: DeletionSet):
    """Append the two zero-weight sentinel intervals flanking everything.

    The low sentinel sits before every endpoint and the high one after, so
    they are isolated, first and last in the right-endpoint order, and both
    join the deletion set. Returns the widened graph (``with_sentinels``),
    which appends them as vertices n and n + 1 and keeps every other index,
    and the deletion set on it.
    """
    if deletion.dummies is not None:
        raise DoubleAugment("sentinels already added")
    # The two bases differ in their digits, so neither name can take the other.
    lo_name = fresh_name("d0", graph.index)
    hi_name = fresh_name(f"d{len(deletion.marked) + 1}", graph.index)
    widened = with_sentinels(graph, lo_name, hi_name)
    n = graph.n
    return widened, DeletionSet(deletion.marked | {n, n + 1}, deletion.certificates, (n, n + 1))
