"""Claw-centered machinery: detection, the linear-time 4-approximate deletion
set with packing certificates, its pruning to an inclusion-minimal set, an
exact branching solver, properness tests, and the two sentinel intervals
later stages rely on.

The detection trick: among a center's live neighbors, only the one with the
smallest right endpoint and the one with the largest left endpoint can serve
as the outer leaves of an induced claw, so a claw through a center u exists
iff {u, v, z1(u), z2(u)} induces one for some neighbor v.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, DoubleAugment
from .intervals import IntervalGraph, build, fresh_name


@dataclass(frozen=True)
class ClawWitness:
    """An induced claw: one center adjacent to three pairwise-disjoint leaves."""

    center: str
    leaves: tuple


@dataclass(frozen=True)
class DeletionSet:
    """Vertices whose removal leaves a proper representation.

    ``certificates`` holds the vertex-disjoint claws packed during the greedy
    round; the greedy set is their union, and after pruning ``marked`` is a
    subset of it. Exact solving leaves it empty.
    ``dummies`` is None until the two sentinels are appended.
    """

    marked: frozenset
    certificates: tuple
    dummies: tuple | None = None


def _extremes(graph: IntervalGraph, u: int, alive) -> tuple:
    """(z1, z2): u's live neighbor with the smallest right end and the one
    with the largest left end, -1 for none."""
    z1 = z2 = -1
    for w in graph.neighbors(u):
        if not alive[w]:
            continue
        if z1 < 0 or graph.right[w] < graph.right[z1]:
            z1 = w
        if z2 < 0 or graph.left[w] > graph.left[z2]:
            z2 = w
    return z1, z2


def _middle_leaf(graph: IntervalGraph, u: int, z1: int, z2: int, alive) -> tuple | None:
    """Leaves of a claw at u with outer leaves u's extremes z1, z2, or None."""
    if z1 < 0 or z1 == z2 or graph.adjacent(z1, z2):
        return None
    for v in graph.neighbors(u):
        if not alive[v] or v == z1 or v == z2:
            continue
        if not graph.adjacent(v, z1) and not graph.adjacent(v, z2):
            return (v, z1, z2)
    return None


def _claw_leaves(graph: IntervalGraph, u: int, alive) -> tuple | None:
    """Leaves of some induced claw centered at u within ``alive``, or None."""
    z1, z2 = _extremes(graph, u, alive)
    return _middle_leaf(graph, u, z1, z2, alive)


def _witness(graph: IntervalGraph, u: int, leaves: tuple) -> ClawWitness:
    rk = graph.rank
    names = tuple(graph.names[w] for w in sorted(leaves, key=rk.__getitem__))
    return ClawWitness(graph.names[u], names)


def find_claw_at(graph: IntervalGraph, u: str) -> ClawWitness | None:
    """Some induced claw centered at u, or None if u centers none."""
    alive = [True] * graph.n
    c = graph.by_name(u)
    leaves = _claw_leaves(graph, c, alive)
    return None if leaves is None else _witness(graph, c, leaves)


def find_claw(graph: IntervalGraph) -> ClawWitness | None:
    """First induced claw in right-endpoint order of centers, or None."""
    alive = [True] * graph.n
    for u in graph.sigma:
        leaves = _claw_leaves(graph, u, alive)
        if leaves is not None:
            return _witness(graph, u, leaves)
    return None


def approx_deletion_set(graph: IntervalGraph) -> DeletionSet:
    """Factor-4 deletion set for a semi-proper representation.

    One pass in right-endpoint order; each center contributes at most one
    claw, whose four vertices are deleted together and recorded as a
    certificate. The certificates are vertex-disjoint, so any deletion set
    needs at least a quarter of what this returns.
    """
    alive = [True] * graph.n
    deleted = []
    certs = []
    rk = graph.rank
    for u in graph.sigma:
        if not alive[u]:
            continue
        leaves = _claw_leaves(graph, u, alive)
        if leaves is None:
            continue
        quad = (u,) + leaves
        for w in quad:
            alive[w] = False
            deleted.append(graph.names[w])
        names = tuple(graph.names[w] for w in sorted(leaves, key=rk.__getitem__))
        certs.append(ClawWitness(graph.names[u], names))
    return DeletionSet(frozenset(deleted), tuple(certs))


def prune_deletion_set(graph: IntervalGraph, deletion: DeletionSet) -> DeletionSet:
    """Put back every marked vertex whose return creates no claw.

    Candidates go in decreasing rank order against a claw-free G - D. A claw
    created by putting v back contains v, so it is centered at v or at a live
    neighbor w with v as a leaf. ``ext`` caches each live w's extremes, filled
    the first time a candidate touches w (with the candidate still dead) and
    updated when a neighbor goes back. If v becomes neither extreme of w, the
    outer leaves stay z1, z2 and v can only be the middle leaf: an O(1) test.
    Otherwise the leaf scan at w decides.

    A rejected vertex lies on a claw that later put-backs cannot break, so the
    kept set is inclusion-minimal. Certificates still describe the greedy set.
    """
    left, right, adjacent = graph.left, graph.right, graph.adjacent
    alive = [True] * graph.n
    for nm in deletion.marked:
        alive[graph.by_name(nm)] = False
    ext = {}

    def creates_claw(v: int, moved: list) -> bool:
        for w in graph.neighbors(v):
            if not alive[w]:
                continue
            z = ext.get(w)
            if z is None:
                alive[v] = False
                z = ext[w] = _extremes(graph, w, alive)
                alive[v] = True
            z1, z2 = z
            n1 = v if z1 < 0 or right[v] < right[z1] else z1
            n2 = v if z2 < 0 or left[v] > left[z2] else z2
            if n1 == z1 and n2 == z2:
                if z1 != z2 and not (
                    adjacent(z1, z2) or adjacent(v, z1) or adjacent(v, z2)
                ):
                    return True
            else:
                moved.append((w, (n1, n2)))
                if _middle_leaf(graph, w, n1, n2, alive) is not None:
                    return True
        return False

    kept = []
    order = sorted(map(graph.by_name, deletion.marked), key=graph.rank.__getitem__)
    for v in reversed(order):
        alive[v] = True
        z = _extremes(graph, v, alive)
        moved = []
        if _middle_leaf(graph, v, *z, alive) is not None or creates_claw(v, moved):
            alive[v] = False
            kept.append(graph.names[v])
        else:
            ext[v] = z
            ext.update(moved)
    return DeletionSet(frozenset(kept), deletion.certificates)


def exact_deletion_set(
    graph: IntervalGraph, k_max: int = 8, node_cap: int = 1_000_000
) -> DeletionSet | None:
    """Minimum deletion set by iterative-deepening 4-way branching.

    Returns None if no solution of size <= k_max exists; raises
    BudgetExceeded once the search tree outgrows node_cap.
    """
    alive = [True] * graph.n
    nodes = 0

    def first_claw():
        for u in graph.sigma:
            if alive[u]:
                leaves = _claw_leaves(graph, u, alive)
                if leaves is not None:
                    return (u,) + leaves
        return None

    def search(budget: int, chosen: list) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise BudgetExceeded(f"more than {node_cap} branching nodes")
        quad = first_claw()
        if quad is None:
            return True
        if budget == 0:
            return False
        for w in quad:
            alive[w] = False
            chosen.append(w)
            if search(budget - 1, chosen):
                return True
            chosen.pop()
            alive[w] = True
        return False

    for k in range(k_max + 1):
        chosen: list = []
        if search(k, chosen):
            return DeletionSet(frozenset(graph.names[w] for w in chosen), ())
    return None


def is_proper_representation(graph: IntervalGraph) -> bool:
    """True iff no interval contains another (left-sorted rights must rise)."""
    order = sorted(range(graph.n), key=graph.left.__getitem__)
    rights = [graph.right[v] for v in order]
    return all(a < b for a, b in zip(rights, rights[1:]))


def add_dummies(graph: IntervalGraph, deletion: DeletionSet):
    """Append the two zero-weight sentinel intervals flanking everything.

    The low sentinel sits before every endpoint and the high one after, so
    they are isolated, first and last in the right-endpoint order, and both
    join the deletion set. Returns the widened graph and deletion set.
    """
    if deletion.dummies is not None:
        raise DoubleAugment("sentinels already added")
    taken = set(graph.names)
    lo_name = fresh_name("d0", taken)
    taken.add(lo_name)
    hi_name = fresh_name(f"d{len(deletion.marked) + 1}", taken)
    if graph.n:
        lo, hi = min(graph.left), max(graph.right)
    else:
        lo, hi = 0, 1
    records = graph.records()
    records.insert(0, (lo_name, lo - 2, lo - 1, 0))
    records.append((hi_name, hi + 1, hi + 2, 0))
    widened = build(records)
    out = DeletionSet(
        deletion.marked | {lo_name, hi_name},
        deletion.certificates,
        (lo_name, hi_name),
    )
    return widened, out
