"""Semi-proper preprocessing: stretch nested intervals out of their nests
wherever that cannot change the graph, so that every containment left in the
output is forced, i.e. witnessed by an induced claw through both vertices.

For a center u with live nesting, only two neighbors matter: z1(u) with the
smallest right endpoint and z2(u) with the largest left endpoint, both taken
in the input representation. A contained v tied to z2(u) (equal or adjacent)
can be pulled rightward past r_u; one tied to z1(u) can be pulled leftward
past l_u. Extremality of z1/z2 guarantees the stretched endpoint crosses no
other endpoint that would flip an adjacency, and intervals only ever grow,
so the edge set is preserved exactly. Containments that survive both passes
have disjoint neighbors of u on both sides, which is the claw witness.

Coordinates stay integers throughout. Before the first center and after
every center that moved something, all 2n endpoints are re-spaced onto
multiples of n + 1 in their current order, so the gaps just above r_u and
just below l_u are empty and n + 1 wide. A batch holds at most n vertices,
so its j-th member moves to r_u + j (or l_u - j) without meeting any other
endpoint. Dividing the last re-spacing by n + 1 gives the output's 1..2n.
"""

from __future__ import annotations

from bisect import bisect_right

from .intervals import IntervalGraph, build


def make_semi_proper(graph: IntervalGraph) -> IntervalGraph:
    """Rebuild the representation so every remaining containment is claw-witnessed.

    Same vertices, weights, and edge set; endpoints renumbered onto 1..2n.
    """
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
