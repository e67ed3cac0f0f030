"""Shared builders and tiny oracles for the test suite."""

import random
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path

from intervalpath.claws import ClawWitness, DeletionSet, _claw_leaves
from intervalpath.dp import DpResult, DpTable, reconstruct, split_grid
from intervalpath.errors import EmptySet, IntervalError, InvalidPath, NormalizationFailed
from intervalpath.intervals import (
    IntervalGraph,
    build,
    exact_weight,
    fresh_name,
    from_endpoint_order,
    token_order,
)
from intervalpath.matching import SimpleGraph, simple_graph
from intervalpath.paths import _to_indices
from intervalpath.reduce1 import apply_rule1, compute_stage1_families
from intervalpath.reduce2 import SpecialWeightedIntervalGraph, apply_rule2, compute_stage2_families


def path3():
    return build([("a", 1, 4, 1), ("b", 3, 6, 1), ("c", 5, 8, 1)])


def claw4():
    return build([("u", 1, 8, 1), ("v1", 0, 2, 1), ("v2", 4, 5, 1), ("v3", 7, 9, 1)])


def nest3():
    return build([("u", 1, 6, 1), ("v", 2, 3, 1), ("z", 5, 8, 1)])


def two_claws():
    """Two vertex-disjoint copies of the claw layout, side by side."""
    recs = [("u", 1, 8, 1), ("v1", 0, 2, 1), ("v2", 4, 5, 1), ("v3", 7, 9, 1)]
    recs += [("w", 21, 28, 1), ("w1", 20, 22, 1), ("w2", 24, 25, 1), ("w3", 27, 29, 1)]
    return build(recs)


def split3_special():
    """One wide dependent interval bridging two heavy independent ones, above
    the start vertex v0."""
    g = build([("v0", -2, -1, 0), ("a1", 0, 2, 2), ("b", 1, 10, 1), ("a2", 8, 11, 2)])
    return SpecialWeightedIntervalGraph(
        graph=g,
        A=frozenset({"a1", "a2"}),
        B=frozenset({"b", "v0"}),
        kappa=5,
        v0="v0",
    )


def named(graph, vertices) -> frozenset:
    """The names of a set of ``graph``'s vertex indices, such as a deletion set."""
    return frozenset(graph.names[v] for v in vertices)


def assert_valid_representation(g):
    """What ``build`` would check, plus the orders a graph carries: unique
    names, l < r, 2n pairwise distinct endpoints, ``sigma``/``rank`` by right
    end, and an endpoint order and positions that match the coordinates."""
    assert len(set(g.names)) == g.n
    assert all(g.index[nm] == v for v, nm in enumerate(g.names))
    assert all(l < r for l, r in zip(g.left, g.right))
    assert len(set(g.left + g.right)) == 2 * g.n
    assert sorted(range(g.n), key=g.right.__getitem__) == g.sigma
    assert all(g.sigma[g.rank[v]] == v for v in range(g.n))
    order = g.endpoint_order()
    assert order == token_order(g.left, g.right)
    assert all(order[p] == t for t, p in enumerate(g.endpoint_positions()))


def heavy_tailed(n, seed):
    """Unit intervals with heavy-tailed lengths, where the reductions do work.

    Lefts are n distinct draws from 6n positions. Four lengths in five are
    max(1, int(3 * Pareto(1.2))), the rest uniform in 1..10n, so most
    intervals are short and a few span much of the line. A right endpoint
    that would coincide with another endpoint moves right until it is free.
    """
    rng = random.Random(seed)
    lefts = rng.sample(range(6 * n), n)
    taken = set(lefts)
    records = []
    for i, left in enumerate(lefts):
        if rng.random() < 0.8:
            length = max(1, int(3 * rng.paretovariate(1.2)))
        else:
            length = rng.randint(1, 10 * n)
        right = left + length
        while right in taken:
            right += 1
        taken.add(right)
        records.append((f"h{i}", left, right, 1))
    return build(records)


# The claw routines as they were before claw detection moved onto the
# endpoint order, kept verbatim (apart from their names) as test-only
# references: extremes and leaves from neighbor lists, O(deg) per query.


def reference_extremes(graph: IntervalGraph, u: int, alive) -> tuple:
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


def reference_middle_leaf(graph: IntervalGraph, u: int, z1: int, z2: int, alive) -> tuple | None:
    """Leaves of a claw at u with outer leaves u's extremes z1, z2, or None."""
    if z1 < 0 or z1 == z2 or graph.adjacent(z1, z2):
        return None
    for v in graph.neighbors(u):
        if not alive[v] or v == z1 or v == z2:
            continue
        if not graph.adjacent(v, z1) and not graph.adjacent(v, z2):
            return (v, z1, z2)
    return None


def reference_claw_leaves(graph: IntervalGraph, u: int, alive) -> tuple | None:
    """Leaves of some induced claw centered at u within ``alive``, or None."""
    z1, z2 = reference_extremes(graph, u, alive)
    return reference_middle_leaf(graph, u, z1, z2, alive)


def has_claw(graph: IntervalGraph) -> bool:
    """Whether ``graph`` has an induced claw, by the neighbor-list reference."""
    alive = [True] * graph.n
    return any(reference_claw_leaves(graph, u, alive) is not None for u in range(graph.n))


def reference_approx_deletion_set(graph: IntervalGraph) -> DeletionSet:
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
        leaves = reference_claw_leaves(graph, u, alive)
        if leaves is None:
            continue
        quad = (u,) + leaves
        for w in quad:
            alive[w] = False
            deleted.append(w)
        names = tuple(graph.names[w] for w in sorted(leaves, key=rk.__getitem__))
        certs.append(ClawWitness(graph.names[u], names))
    return DeletionSet(frozenset(deleted), tuple(certs))


def reference_prune_deletion_set(graph: IntervalGraph, deletion: DeletionSet) -> DeletionSet:
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
    for v in deletion.marked:
        alive[v] = False
    ext = {}

    def creates_claw(v: int, moved: list) -> bool:
        for w in graph.neighbors(v):
            if not alive[w]:
                continue
            z = ext.get(w)
            if z is None:
                alive[v] = False
                z = ext[w] = reference_extremes(graph, w, alive)
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
                if reference_middle_leaf(graph, w, n1, n2, alive) is not None:
                    return True
        return False

    kept = []
    order = sorted(deletion.marked, key=graph.rank.__getitem__)
    for v in reversed(order):
        alive[v] = True
        z = reference_extremes(graph, v, alive)
        moved = []
        if reference_middle_leaf(graph, v, *z, alive) is not None or creates_claw(v, moved):
            alive[v] = False
            kept.append(v)
        else:
            ext[v] = z
            ext.update(moved)
    return DeletionSet(frozenset(kept), deletion.certificates)


# Definition checkers and the exact branching solver, which only tests call,
# kept verbatim from semiproper, reduce1, reduce2, claws and paths.


def is_semi_proper(graph: IntervalGraph) -> bool:
    """Check the defining property: every containment pair sits in an induced claw.

    For a containment I_v inside I_u the claw must have center u and leaf v,
    so it exists iff two neighbors of u disjoint from v are also disjoint
    from each other, which reduces to the two extremes of that neighbor set.
    """
    for u in range(graph.n):
        inner = [v for v in range(graph.n) if v != u and graph.contains_interval(u, v)]
        if not inner:
            continue
        cand = graph.neighbors(u)
        for v in inner:
            best_r = None
            best_l = None
            for w in cand:
                if w == v or graph.adjacent(w, v):
                    continue
                if best_r is None or graph.right[w] < graph.right[best_r]:
                    best_r = w
                if best_l is None or graph.left[w] > graph.left[best_l]:
                    best_l = w
            if best_r is None or best_r == best_l:
                return False
            if graph.adjacent(best_r, best_l):
                return False
    return True


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


def is_weakly_reducible(graph: IntervalGraph, vertices) -> bool:
    """Connected proper induced run, and anything nested in a member sees all."""
    idx = _proper_run(graph, vertices, "weak reducibility of nothing")
    if idx is None:
        return False
    # Containment here is non-strict, so v = u always qualifies and the
    # whole set must sit in N(u) for every member u: cliqueness is baked
    # into the condition rather than being a separate requirement.
    for u in idx:
        for v in range(graph.n):
            nested = graph.left[u] <= graph.left[v] and graph.right[v] <= graph.right[u]
            if not nested:
                continue
            if any(w != v and not graph.adjacent(v, w) for w in idx):
                return False
    assert all(
        graph.adjacent(a, b) for a in idx for b in idx if a != b
    ), "a weakly reducible set must induce a clique"
    return True


class BudgetExceeded(IntervalError):
    """Search tree grew past the configured node cap."""


def exact_deletion_set(
    graph: IntervalGraph, k_max: int = 8, node_cap: int = 1_000_000
) -> DeletionSet | None:
    """Minimum deletion set by iterative-deepening 4-way branching.

    Returns None if no solution of size <= k_max exists; raises
    BudgetExceeded once the search tree outgrows node_cap.
    """
    alive = [True] * graph.n
    nodes = 0
    order, pos = graph.endpoint_order(), graph.endpoint_positions()

    def first_claw():
        for u in graph.sigma:
            if alive[u]:
                leaves = _claw_leaves(order, pos, u, alive)
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
            return DeletionSet(frozenset(chosen), ())
    return None


def is_normal_path(graph: IntervalGraph, names) -> bool:
    """Check normality of a path. Raises InvalidPath if it is not a path at all."""
    idx = _to_indices(graph, names)
    if not idx:
        raise InvalidPath("empty sequence")
    if len(set(idx)) != len(idx):
        raise InvalidPath("repeated vertex")
    for a, b in zip(idx, idx[1:]):
        if not graph.adjacent(a, b):
            raise InvalidPath(f"{graph.names[a]!r} and {graph.names[b]!r} not adjacent")
    rank = graph.rank
    if min(idx, key=rank.__getitem__) != idx[0]:
        return False
    remaining = set(idx[1:])
    for prev, cur in zip(idx, idx[1:]):
        # neighbors() is rank-sorted, so the first hit is the forced choice
        for w in graph.neighbors(prev):
            if w in remaining:
                if w != cur:
                    return False
                break
        remaining.discard(cur)
    return True


def reference_normalize_path(graph: IntervalGraph, vertices) -> list:
    """``normalize_path`` as it was before it stopped building neighbor
    lists: the greedy walks each vertex's rank-sorted neighbors."""
    idx = _to_indices(graph, set(vertices))
    if not idx:
        raise EmptySet("nothing to normalize")
    rank = graph.rank
    cur = min(idx, key=rank.__getitem__)
    remaining = set(idx)
    remaining.discard(cur)
    out = [cur]
    while remaining:
        nxt = None
        for w in graph.neighbors(cur):
            if w in remaining:
                nxt = w
                break
        if nxt is None:
            raise NormalizationFailed(
                f"stuck at {graph.names[cur]!r} with {len(remaining)} vertices left"
            )
        remaining.discard(nxt)
        out.append(nxt)
        cur = nxt
    return [graph.names[v] for v in out]


def reference_walk(graph: IntervalGraph) -> list | None:
    """What ``paths.greedy_walk`` must return, from definitions: the
    components in sigma order (a prefix of sigma closes one when it ends
    before the rest starts), each put in order by the neighbor-list greedy,
    until the largest walked is at least the vertices left; None when one
    of them strands the greedy first."""
    sigma, n = graph.sigma, graph.n
    best, start = [], 0
    while start < n and len(best) < n - start:
        end = start + 1
        while end < n and max(graph.right[v] for v in sigma[:end]) > min(
            graph.left[v] for v in sigma[end:]
        ):
            end += 1
        try:
            path = reference_normalize_path(graph, [graph.names[v] for v in sigma[start:end]])
        except NormalizationFailed:
            return None
        if len(path) > len(best):
            best = path
        start = end
    return best or None


class CountingList(list):
    """A list that counts its item reads, for a graph's ``left`` column."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


def nested_pairs(k: int) -> IntervalGraph:
    """k long intervals, each containing the same k pairwise-disjoint short
    ones. The shorts and longs alternate on a Hamiltonian path, and the
    greedy walk skips every short but the first before it reaches a long:
    trying the skipped shorts in turn at every short would read about
    k^2 / 2 left ends."""
    shorts = [(f"s{j}", k + 4 * j, k + 4 * j + 2) for j in range(1, k + 1)]
    longs = [(f"L{i}", i, 6 * k + 2 + i) for i in range(1, k + 1)]
    return build(shorts + longs)


# The DP's stand-in and leg tables and the DP as it was before its sweep
# took the stand-ins, neighbors and query cuts from the right-endpoint
# order, kept verbatim (apart from the DP's name) as test-only references.


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


def subgraph_contains(graph: IntervalGraph, xi, v_i: str, v: str) -> bool:
    """Is v squeezed between coordinate xi and the right end of v_i?"""
    a = graph.by_name(v_i)
    b = graph.by_name(v)
    return xi <= graph.left[b] and graph.right[b] <= graph.right[a]


def reference_max_weight_path(special: SpecialWeightedIntervalGraph) -> DpResult:
    """Best-weight path of the special graph, with parent chains for replay."""
    _, xs_sorted = split_grid(special)
    g = special.graph
    pit = PiTable(g, {g.by_name(nm) for nm in special.B})
    table = DpTable(graph=g, Xi=xs_sorted, W={}, parent={})
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


def undominated_tails(tails: list) -> list:
    """The split tails of one nested leg that can still win a row.

    ``tails`` holds (cut, tail, ζ position) triples by increasing ζ, so the
    cuts do not decrease. Walking down from the highest ζ, a tail is dropped
    when its cut is 0 (and so is every tail below it), or when a later ζ has
    a strictly larger tail; a kept tail replaces the one kept just before it
    if both have the same cut. The result is again by increasing ζ.
    """
    kept = []
    top = None  # the largest tail at a higher ζ
    for entry in reversed(tails):
        cut, tail, _ = entry
        if cut == 0:
            break
        if top is not None and tail < top:
            continue
        top = tail
        if kept and kept[-1][0] == cut:
            kept[-1] = entry
        else:
            kept.append(entry)
    kept.reverse()
    return kept


def _bench_on_path():
    """Make the benchmark's modules importable: they are imported from its
    directory rather than copied."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.append(bench)


def small_combs(count):
    """``count`` combs of 3..5 blocks from ``bench/comb.make_comb``, as graphs."""
    _bench_on_path()
    from comb import make_comb

    rng = random.Random(11)
    return [
        build(make_comb(rng, blocks=3 + i % 3, stairs=(6 + 4 * i, 12 + 6 * i))[0])
        for i in range(count)
    ]


def bench_text(records) -> str:
    """(name, left, right) records as the benchmark writes them for a solve,
    by ``bench/answers.to_text``."""
    _bench_on_path()
    from answers import to_text

    return to_text(records)


def naive_prune(graph, deletion):
    """Reference put-back for ``claws.prune_deletion_set``: in decreasing rank
    order, return each marked vertex unless the leaf scan finds a claw at it or
    at any live neighbor. O(deg v * deg w) per candidate, no cached extremes."""
    alive = [v not in deletion.marked for v in range(graph.n)]
    kept = set()
    order = sorted(deletion.marked, key=graph.rank.__getitem__)
    for v in reversed(order):
        alive[v] = True
        centers = [v] + [w for w in graph.neighbors(v) if alive[w]]
        if any(reference_claw_leaves(graph, c, alive) is not None for c in centers):
            alive[v] = False
            kept.add(v)
    return frozenset(kept)


# ``semiproper``'s earlier z1/z2 source, kept verbatim as a test-only
# reference: two O(n) sweeps over the whole endpoint order, z1 from
# ``_latest_opened(reversed(order), 1, n)`` and z2 from
# ``_latest_opened(order, 0, n)``.


def _latest_opened(tokens, opening: int, n: int) -> list:
    """Per vertex v, for a sweep over ``tokens`` in which the tokens of
    parity ``opening`` open intervals: the owner of the last token opened
    before v closes if that came after v opened, else the interval still
    open when v opened that opened last; -1 for none.

    Forward with left ends opening this is v's neighbor with the largest
    left end; backward with right ends opening, the one with the smallest
    right end. Closed intervals leave the stack lazily, so the sweep is O(n).
    """
    out = [-1] * n
    closed = [False] * n
    stack = []
    last = -1
    for t in tokens:
        v = t >> 1
        if t & 1 == opening:
            while stack and closed[stack[-1]]:
                stack.pop()
            if stack:
                out[v] = stack[-1]
            stack.append(v)
            last = v
        else:
            closed[v] = True
            if last != v:
                out[v] = last
    return out


def reference_semi_proper(graph):
    """The earlier ``semiproper.make_semi_proper``, kept verbatim as a
    test-only reference: z1/z2 from neighbor lists, a full re-spacing of
    all 2n endpoints onto multiples of n + 1 (sort, dict, suffix minima)
    before the first center and after every center that moved something,
    an O(n) scan per nesting center, and ``build`` on the output."""
    n = graph.n
    if n == 0:
        return graph
    left = list(graph.left)
    right = list(graph.right)
    z1 = [-1] * n
    z2 = [-1] * n
    for u in range(n):
        for w in graph.neighbors(u):
            if z1[u] < 0 or graph.right[w] < graph.right[z1[u]]:
                z1[u] = w
            if z2[u] < 0 or graph.left[w] > graph.left[z2[u]]:
                z2[u] = w

    step = n + 1
    # snapshot of the current coordinates for an O(log n) nesting test
    lefts_sorted: list = []
    sufmin: list = []

    def rebuild():
        nonlocal lefts_sorted, sufmin
        # re-space every endpoint onto a multiple of step, order kept
        pos = {c: i * step for i, c in enumerate(sorted(left + right), 1)}
        left[:] = [pos[c] for c in left]
        right[:] = [pos[c] for c in right]
        order = sorted(range(n), key=left.__getitem__)
        lefts_sorted = [left[v] for v in order]
        sufmin = [None] * (n + 1)
        running = None
        for i in range(n - 1, -1, -1):
            r = right[order[i]]
            running = r if running is None or r < running else running
            sufmin[i] = running

    def nests_something(u: int) -> bool:
        i = bisect_right(lefts_sorted, left[u])
        return i < n and sufmin[i] < right[u]

    def tied(v: int, z: int) -> bool:
        # the input's edges, which stretching preserves
        return z == v or graph.adjacent(v, z)

    rebuild()

    for u in graph.sigma:
        if not nests_something(u):
            continue
        lu, ru = left[u], right[u]
        contained = [v for v in range(n) if lu < left[v] and right[v] < ru]
        dirty = False

        batch = [v for v in contained if tied(v, z2[u])]
        if batch:
            batch.sort(key=left.__getitem__)
            for j, v in enumerate(batch, 1):
                right[v] = ru + j
            dirty = True

        still = [v for v in contained if lu < left[v] and right[v] < ru]
        batch = [v for v in still if not tied(v, z2[u]) and tied(v, z1[u])]
        if batch:
            batch.sort(key=right.__getitem__, reverse=True)
            for j, v in enumerate(batch, 1):
                left[v] = lu - j
            dirty = True

        if dirty:
            rebuild()

    return build(
        (graph.names[v], left[v] // step, right[v] // step, graph.weight[v])
        for v in range(n)
    )


# Rule 2's swap as it was before it moved onto the endpoint order, kept
# verbatim (apart from the names) as a test-only reference: G#'s coordinates
# scaled by 2n + 2, clones staircased inside the span's outermost gaps, and
# the endpoints sorted again.


def reference_spread_records(g: IntervalGraph) -> tuple:
    """The gap width 2n + 2 and ``g``'s records with coordinates scaled by it."""
    step = 2 * g.n + 2
    return step, [(nm, l * step, r * step, w) for nm, l, r, w in g.records()]


def reference_place_clones(span_l: int, span_r: int, weight, names) -> list:
    """Staircase one copy of the span per name inside its outermost gaps."""
    count = len(names)
    return [
        (name, span_l + j, span_r - count - 1 + j, weight)
        for j, name in enumerate(names, 1)
    ]


def reference_rule2_graph(stage1, families, deletion) -> IntervalGraph:
    """The special graph of ``apply_rule2``, built on scaled coordinates."""
    g = stage1.g_sharp
    cap = len(deletion.marked) + 4
    step, records = reference_spread_records(g)
    taken = {rec[0] for rec in records}
    absorbed = set()
    clones = []
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
        clone_recs = reference_place_clones(span_l, span_r, exact_weight(total, count), names)
        clones.extend(clone_recs)

    records = [rec for rec in records if rec[0] not in absorbed] + clones
    lefts = [rec[1] for rec in records]
    rights = [rec[2] for rec in records]
    return from_endpoint_order(
        [rec[0] for rec in records],
        token_order(lefts, rights),
        [rec[3] for rec in records],
    )


def crafted_special():
    """A hand-laid instance whose second reduction forms two clone groups.

    Ten stacked intervals cross the right endpoint of dm1 (capped to 8
    clones of weight 10/8) and two cross dm2's (kept as 2 clones of
    weight 1). Nothing is absorbed by the first reduction because every
    free interval straddles a deletion-set right endpoint.
    """
    records = [("d0", 0, 1, 0), ("dm1", 40, 41, 1), ("dm2", 150, 151, 1), ("d1", 200, 201, 0)]
    records += [(f"u{j}", 20 + j, 80 + j, 1) for j in range(10)]
    records += [("va", 140, 160, 1), ("vb", 141, 161, 1)]
    g = build(records)
    deletion = DeletionSet(
        marked=frozenset(map(g.by_name, ["d0", "dm1", "dm2", "d1"])),
        certificates=(),
        dummies=(g.by_name("d0"), g.by_name("d1")),
    )
    stage1 = apply_rule1(g, compute_stage1_families(g, deletion))
    fam2 = compute_stage2_families(stage1, deletion)
    special = apply_rule2(stage1, fam2, deletion)
    return g, deletion, stage1, special


def mm_brute(graph: SimpleGraph) -> int:
    """Maximum matching size by branching on the lowest unmatched vertex."""
    edges = graph.edges()
    adj = [[] for _ in range(graph.n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def go(v, used):
        while v < graph.n and used >> v & 1:
            v += 1
        if v >= graph.n:
            return 0
        best = go(v + 1, used)
        for w in adj[v]:
            if not used >> w & 1:
                best = max(best, 1 + go(v + 1, used | 1 << v | 1 << w))
        return best

    return go(0, 0)


def rand_simple(lcg, max_n=12) -> SimpleGraph:
    """Random simple graph with a per-instance edge density."""
    n = 1 + lcg.randrange(max_n)
    density = 1 + lcg.randrange(9)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if lcg.randrange(10) < density:
                edges.append((u, v))
    return simple_graph(n, edges)


def path_sets(graph):
    """Bitmasks of every vertex set that carries a simple path."""
    n = graph.n
    adj = [0] * n
    for u in range(n):
        for v in graph.neighbors(u):
            adj[u] |= 1 << v
    end = {1 << v: 1 << v for v in range(n)}
    order = sorted(end)
    i = 0
    while i < len(order):
        m = order[i]
        i += 1
        e = end[m]
        while e:
            v = (e & -e).bit_length() - 1
            e &= e - 1
            w = adj[v] & ~m
            while w:
                b = w & -w
                w ^= b
                nm = m | b
                if nm not in end:
                    end[nm] = 0
                    order.append(nm)
                end[nm] |= b
    return [m for m, e in end.items() if e]


def all_simple_paths(graph):
    """Every simple path as a list of vertex indices (small graphs only)."""
    out = []
    adj = [graph.neighbors(v) for v in range(graph.n)]

    def dfs(v, acc, seen):
        acc.append(v)
        out.append(list(acc))
        for w in adj[v]:
            if not seen >> w & 1:
                dfs(w, acc, seen | 1 << w)
        acc.pop()

    for s in range(graph.n):
        dfs(s, [], 1 << s)
    return out


def total_weight(graph, names):
    return sum(graph.weight[graph.by_name(nm)] for nm in names)
