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

Only the order of the endpoints matters, so the stage works on the input's
endpoint order (tokens 2v and 2v + 1, see ``intervals``), sorted once and
kept on the graph, and a position per token. After that sort everything is
linear in n + m, so the stage costs O(n log n + m):

- z1 and z2 come from two O(n) sweeps over the order with a stack each; no
  neighbor lists are built.
- One backward sweep marks the intervals that contain another. Intervals
  only grow, so a center can contain something only if it did in the input
  or has moved since; every other center is skipped in O(1).
- Edges never change, so every token in a center's span belongs to one of
  its neighbors. Reading the contained intervals off the span, and
  rewriting the span in place after a batch, therefore costs O(deg u):
  moved right ends go just after r_u in left order, moved left ends just
  before l_u in right order, and nothing outside the span moves.

The output places the token at position p on coordinate p + 1; it keeps
the input's names, weights and name index, and the positions kept up to
date during the sweep.
"""

from __future__ import annotations

from .intervals import IntervalGraph, nesting, renumbered


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


def make_semi_proper(graph: IntervalGraph) -> IntervalGraph:
    """Rebuild the representation so every remaining containment is claw-witnessed.

    Same vertices, weights, and edge set; endpoints renumbered onto 1..2n.
    """
    n = graph.n
    if n == 0:
        return graph
    order = list(graph.endpoint_order())
    pos = list(graph.endpoint_positions())
    z1 = _latest_opened(reversed(order), 1, n)
    z2 = _latest_opened(order, 0, n)
    left, right = graph.left, graph.right

    # Intervals only grow, so a center can contain something only if it did
    # in the input or it has moved since.
    nests = nesting(order, pos)
    for u in graph.sigma:
        if not nests[u]:
            continue
        lo, hi = pos[2 * u], pos[2 * u + 1]
        span = order[lo : hi + 1]
        contained = [t >> 1 for t in span if not t & 1 and pos[t + 1] < hi]
        if not contained:
            continue
        # Tied to z2(u), else to z1(u): equal or adjacent in the input, whose
        # edges stretching preserves. ``contained`` is in left order.
        a, b = z2[u], z1[u]
        out_right, out_left = [], []
        for v in contained:
            if v == a or left[v] < right[a] and left[a] < right[v]:
                out_right.append(v)
            elif v == b or left[v] < right[b] and left[b] < right[v]:
                out_left.append(v)
        if not out_right and not out_left:
            continue
        # Moved left ends go just before l_u in right order, moved right ends
        # just after r_u in left order; the rest of the span keeps its order.
        out_left.sort(key=lambda v: pos[2 * v + 1])
        moved = {2 * v + 1 for v in out_right} | {2 * v for v in out_left}
        span = (
            [2 * v for v in out_left]
            + [t for t in span if t not in moved]
            + [2 * v + 1 for v in out_right]
        )
        order[lo : hi + 1] = span
        for p, t in enumerate(span, lo):
            pos[t] = p
        for v in out_right + out_left:
            nests[v] = True

    return renumbered(graph, order, pos)

