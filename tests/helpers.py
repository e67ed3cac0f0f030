"""Shared builders and tiny oracles for the test suite."""

import random

from intervalpath.claws import DeletionSet, _claw_leaves
from intervalpath.intervals import build
from intervalpath.matching import SimpleGraph, simple_graph
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


def naive_prune(graph, deletion):
    """Reference put-back for ``claws.prune_deletion_set``: in decreasing rank
    order, return each marked vertex unless the leaf scan finds a claw at it or
    at any live neighbor. O(deg v * deg w) per candidate, no cached extremes."""
    alive = [nm not in deletion.marked for nm in graph.names]
    kept = set()
    order = sorted(map(graph.by_name, deletion.marked), key=graph.rank.__getitem__)
    for v in reversed(order):
        alive[v] = True
        centers = [v] + [w for w in graph.neighbors(v) if alive[w]]
        if any(_claw_leaves(graph, c, alive) is not None for c in centers):
            alive[v] = False
            kept.add(graph.names[v])
    return frozenset(kept)


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
        marked=frozenset({"d0", "dm1", "dm2", "d1"}),
        certificates=(),
        dummies=("d0", "d1"),
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
