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

- The input's nest flags (``nest_flags``, one backward sweep) mark the
  intervals that contain another, and the loop visits only those centers,
  sorted by right end. Every vertex a center stretches lies inside it, so
  it ends before that center and its turn has passed (fact 1): no center
  has moved when its turn comes, and its span then holds a subset of its
  input span's tokens.
- A center that nests in the input has a left and a right end inside its
  input span (fact 2), so z1(u), the owner of the first right end there,
  and z2(u), the owner of the last left end, always exist. They are found
  by ``span_extremes`` (in ``intervals``, shared with the claw stages,
  every vertex alive), which scans that span in the input order from its
  two ends, for those centers only: no neighbor lists and no sweep over
  the whole order.
- A contained v other than z2 starts before l_z2, so it is tied to z2 iff
  it ends after l_z2; one other than z1 ends after r_z1, so it is tied to
  z1 iff it starts before r_z1. In the input span only right ends follow
  l_z2 and only left ends precede r_z1, so the loop reads those two end
  runs, keeping the owners contained in u now, and the rewrite touches the
  span's ends only: moved right ends go just after r_u in left order,
  moved left ends just before l_u in right order. A vertex moved left is
  not tied to z2, so it ends before l_z2 < r_w for every w moved right,
  and left ends only ever move left and right ends right: every moved left
  end precedes every moved right end. Only the head of the span up to the
  last moved left end and its tail from the first moved right end change,
  so a center costs the span's ends, not its whole span.

The output places the token at position p on coordinate p + 1; it keeps
the input's names, weights and name index, and the positions kept up to
date during the sweep. Stretching creates no containment (fact 3).
Intervals only grow, so a stretched interval can newly contain only one
its moved end passes over. When center u moves v's right end to just past
r_u, such an interval ends between v's old right end and r_u and starts
after l_v: it lies inside u and ends after l_z2, so it is tied to z2 and
moves too, and moved right ends are placed in left order, after v's. Left
moves are symmetric. An output interval therefore contains another only
if it did in the input, and the output shares the input's flags as its
``nest_flags``, which the greedy deletion set reads, so ``nesting`` runs
once per solve.
"""

from __future__ import annotations

from itertools import compress

from .intervals import IntervalGraph, from_endpoint_order, span_extremes


def _place(order: list, pos: list, start: int, tokens: list) -> None:
    """Write ``tokens`` into ``order`` from ``start`` on, positions too."""
    order[start : start + len(tokens)] = tokens
    for p, t in enumerate(tokens, start):
        pos[t] = p


def make_semi_proper(graph: IntervalGraph) -> IntervalGraph:
    """Rebuild the representation so every remaining containment is claw-witnessed.

    Same vertices, weights, and edge set; endpoints renumbered onto 1..2n.
    """
    if graph.n == 0:
        return graph
    # z1 and z2 are read off the input's order; the stage rewrites a copy.
    in_order, in_pos = graph.endpoint_order(), graph.endpoint_positions()
    order, pos = list(in_order), list(in_pos)
    alive = [True] * graph.n

    nests = graph.nest_flags()
    for u in sorted(compress(range(graph.n), nests), key=lambda u: in_pos[2 * u + 1]):
        lo, hi = pos[2 * u], pos[2 * u + 1]
        z1, z2 = span_extremes(in_order, in_pos, u, alive)
        l_z2 = in_pos[2 * z2]
        # Tied to z2(u), else to z1(u), and contained in u now: read off the
        # input span's two end runs (see the module docstring).
        out_right = [
            t >> 1
            for t in in_order[l_z2 + 1 : in_pos[2 * u + 1]]
            if lo < pos[t - 1] and pos[t] < hi
        ]
        out_left = [
            t >> 1
            for t in in_order[in_pos[2 * u] + 1 : in_pos[2 * z1 + 1]]
            if in_pos[t + 1] < l_z2 and lo < pos[t] and pos[t + 1] < hi
        ]
        if not out_right and not out_left:
            continue
        # Moved left ends go just before l_u in right order, moved right ends
        # just after r_u in left order; only the span's head up to the last
        # moved left end and its tail from the first moved right end change.
        out_right.sort(key=lambda v: pos[2 * v])
        out_left.sort(key=lambda v: pos[2 * v + 1])
        moved = {2 * v + 1 for v in out_right} | {2 * v for v in out_left}
        head = max((pos[2 * v] for v in out_left), default=lo)
        tail = min((pos[2 * v + 1] for v in out_right), default=hi)
        kept = [t for t in order[lo : head + 1] if t not in moved]
        _place(order, pos, lo, [2 * v for v in out_left] + kept)
        kept = [t for t in order[tail : hi + 1] if t not in moved]
        _place(order, pos, tail, kept + [2 * v + 1 for v in out_right])

    return from_endpoint_order(
        graph.names, order, graph.weight, pos, index=graph._index, nests=nests
    )
