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

- One backward sweep (``nesting``) marks the intervals that contain
  another, and the loop visits only those centers, in right-end order.
  Every vertex a center stretches lies inside it, so it ends before that
  center and its turn has passed (fact 1): no center has moved when its
  turn comes, its span then holds a subset of its input span's tokens, and
  the loop never reads the flags it sets.
- A center that contains something at its turn therefore has a left and a
  right end inside its input span (fact 2), so z1(u), the owner of the
  first right end there, and z2(u), the owner of the last left end, always
  exist. They are read by one scan of that span in the input order, for
  those centers only: no neighbor lists and no sweep over the whole order.
- Edges never change, so every token in a center's span belongs to one of
  its neighbors. Reading the contained intervals off the span, and
  rewriting the span in place after a batch, therefore costs O(deg u):
  moved right ends go just after r_u in left order, moved left ends just
  before l_u in right order, and nothing outside the span moves.

The output places the token at position p on coordinate p + 1; it keeps
the input's names, weights and name index, and the positions kept up to
date during the sweep. Intervals only grow, so an output interval contains
another only if it did in the input or was stretched (fact 3). The output
keeps those flags as its ``nest_flags``, which the greedy deletion set
reads, so ``nesting`` runs once per solve.
"""

from __future__ import annotations

from itertools import compress

from .intervals import IntervalGraph, nesting, renumbered


def _extremes(order: list, pos: list, u: int) -> tuple:
    """(z1, z2): the owners of the first right end and of the last left end
    inside u's span. Both exist for a center that contains something."""
    inner = order[pos[2 * u] + 1 : pos[2 * u + 1]]
    z1 = next(t for t in inner if t & 1)
    z2 = next(t for t in reversed(inner) if not t & 1)
    return z1 >> 1, z2 >> 1


def make_semi_proper(graph: IntervalGraph) -> IntervalGraph:
    """Rebuild the representation so every remaining containment is claw-witnessed.

    Same vertices, weights, and edge set; endpoints renumbered onto 1..2n.
    """
    if graph.n == 0:
        return graph
    # z1 and z2 are read off the input's order; the stage rewrites a copy.
    in_order, in_pos = graph.endpoint_order(), graph.endpoint_positions()
    order, pos = list(in_order), list(in_pos)
    left, right = graph.left, graph.right

    nests = nesting(in_order, in_pos)
    for u in list(compress(graph.sigma, map(nests.__getitem__, graph.sigma))):
        lo, hi = pos[2 * u], pos[2 * u + 1]
        span = order[lo : hi + 1]
        contained = [t >> 1 for t in span if not t & 1 and pos[t + 1] < hi]
        if not contained:
            continue
        # Tied to z2(u), else to z1(u): equal or adjacent in the input, whose
        # edges stretching preserves. ``contained`` is in left order.
        z1, z2 = _extremes(in_order, in_pos, u)
        out_right, out_left = [], []
        for v in contained:
            if v == z2 or left[v] < right[z2] and left[z2] < right[v]:
                out_right.append(v)
            elif v == z1 or left[v] < right[z1] and left[z1] < right[v]:
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

    out = renumbered(graph, order, pos)
    out._nests = nests
    return out
