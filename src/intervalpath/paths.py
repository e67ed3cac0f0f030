"""Paths: the path check, greedy normalization into normal order, and the
greedy walk that certifies a Hamiltonian largest component.

A path is normal when it starts at the vertex with the smallest right
endpoint of the whole path and each later vertex has the smallest right
endpoint among the predecessor's neighbors that are still ahead in the
sequence. Every path's vertex set carries exactly one normal order, and the
greedy construction below finds it or proves there is none.

No function here builds neighbor lists. Normalization sorts the set by
right end, that is in rank order, and its greedy successor is then the first
remaining vertex that overlaps the current one. Every remaining vertex ends
after the current one starts: the first vertex ends before any other, and a
vertex passed over at one step starts after that step's vertex ends, so
after the next one starts, as the two overlap. Overlapping the current
vertex therefore comes down to starting before it ends. Normalization reads
only the set's own intervals, O(k^2) at worst for k vertices; in the lifts
of the seed-1 benchmark pools a step tries 1.04 vertices on average.

``greedy_walk`` applies the same rule to whole components of a graph, read
off its right-end order sigma, and so decides whether a largest component
is Hamiltonian: by the normal-path lemma (Ioannidou, Mertzios and
Nikolopoulos, Algorithmica 2011) a component has a Hamiltonian path
exactly when the greedy order of its vertex set strands none of them.
That holds on any interval model of the graph, so the solver walks the
input as parsed. Its coordinates may mix ints, floats and Fractions, so
they are compared with ``operator.lt``, never with a bound ``__gt__``: an
int's own comparison with a float or a Fraction returns NotImplemented,
which is truthy; the same holds for the float +inf in the walk's tree.
Two facts let one pass over sigma decide each component:

- The first i vertices of sigma are a union of components exactly when the
  i-th right end is the 2i-th endpoint, at position 2i - 1 of the endpoint
  order: then as many left ends as right ends come before it.
- The vertices starting before the current vertex c ends number p - r, for
  p the position of c's right end and r its rank in sigma. Every vertex of
  an earlier component and every vertex on the path is among them (c was
  still ahead while each path vertex was current, and a vertex still ahead
  ends after the current one starts), and once the skipped vertices are
  tried none of them is. So some unread vertex meets c exactly when p - r exceeds
  the earlier components' size plus the path's length, which settles a
  stranded walk without reading the rest of sigma.

The skipped vertices enter in increasing sigma position, and the walk tries
them in that order, so they sit in a min tree of left ends over sigma
positions: the first skipped vertex that starts before c ends is one
descent, and taking it resets its leaf to +inf. Each left end is read once
from sigma and at most once more when it is skipped, so the walk is
O(n log n) on every input, and it decides every component it reaches. The
tree is made at the first skip, so a walk that skips nothing, as on the
planted benchmark inputs, costs only its runs along sigma.
"""

from __future__ import annotations

from itertools import compress, count, islice, repeat
from math import inf
from operator import lt

from .errors import EmptySet, InvalidPath, NormalizationFailed
from .intervals import IntervalGraph


def _to_indices(graph: IntervalGraph, names) -> list:
    try:
        return list(map(graph.index.__getitem__, names))
    except KeyError as exc:
        raise InvalidPath(f"unknown vertex {exc.args[0]!r}") from None


def is_path(graph: IntervalGraph, names) -> bool:
    """True iff names is a nonempty simple path (consecutive vertices adjacent)."""
    try:
        idx = _to_indices(graph, names)
    except InvalidPath:
        return False
    if not idx or len(set(idx)) != len(idx):
        return False
    # consecutive intervals intersect: each starts before the other ends
    lefts = list(map(graph.left.__getitem__, idx))
    rights = list(map(graph.right.__getitem__, idx))
    return all(map(lt, lefts[1:], rights)) and all(map(lt, lefts, rights[1:]))


def normalize_path(graph: IntervalGraph, vertices) -> list:
    """Arrange a vertex set into its normal path order.

    Raises NormalizationFailed when the greedy order strands a vertex, which
    happens exactly when the set is not the vertex set of any path.
    """
    idx = _to_indices(graph, set(vertices))
    if not idx:
        raise EmptySet("nothing to normalize")
    left, right = graph.left, graph.right
    # by right end, that is in rank order
    rest = sorted(idx, key=right.__getitem__)
    out = [rest.pop(0)]
    while rest:
        rc = right[out[-1]]
        # every remaining vertex ends after the current one starts, so the
        # first that starts before it ends is its first remaining neighbor
        for pos, w in enumerate(rest):
            if left[w] < rc:
                break
        else:
            raise NormalizationFailed(
                f"stuck at {graph.names[out[-1]]!r} with {len(rest)} vertices left"
            )
        out.append(rest.pop(pos))
    return [graph.names[v] for v in out]


def _put(tree: list, i: int, value) -> None:
    """Set leaf i of a min tree and restore the minima above it."""
    i += len(tree) >> 1
    tree[i] = value
    while i > 1:
        i >>= 1
        a, b = tree[2 * i], tree[2 * i + 1]
        tree[i] = b if lt(b, a) else a


def _first_below(tree: list, x) -> int:
    """The first leaf of a min tree that holds a value below x, or -1."""
    if not lt(tree[1], x):
        return -1
    i, half = 1, len(tree) >> 1
    while i < half:  # go left when the left child holds one
        i = 2 * i + (not lt(tree[2 * i], x))
    return i - half


def greedy_walk(graph: IntervalGraph) -> list | None:
    """A Hamiltonian path of a largest component, by name, or None.

    The walk reads sigma once, one component at a time. From the current
    vertex c it takes the first remaining vertex, in sigma order, that
    starts before c ends: first among the vertices it read and skipped,
    then among the unread ones, which it reads in order and skips until one
    qualifies. While nothing is skipped and c is the last vertex read, it
    runs along sigma with C iterators for as long as each vertex meets the
    one before. A component is walked whole when nothing is skipped and the vertices
    read close a component (module notes). The walk stops as soon as the
    largest component walked has at least as many vertices as remain from
    the next component's start, and returns it.

    It returns None when a component strands the walk first, and when the
    graph is empty; it never gives up otherwise. The skipped vertices wait
    in a min tree of their left ends, so each left end is read at most
    twice and the walk is O(n log n) (module notes).
    """
    n = graph.n
    sigma, left, right = graph.sigma, graph.left, graph.right
    pos = graph.endpoint_positions()
    # sigma's left ends, read once each and in order (j so far), and its
    # right ends, which a run along sigma reads one step behind
    lefts = map(left.__getitem__, sigma)
    rights = map(right.__getitem__, sigma)
    behind = 0
    # the skipped vertices' left ends by sigma position, inf where none
    # waits, so some vertex waits exactly when the root is below inf; made
    # at the first skip
    tree: list = []
    best: list = []
    start = j = 0
    while start < n and len(best) < n - start:
        if j == start:  # else the run that closed the last component read it
            next(lefts)
            j += 1
        c, path = start, [sigma[start]]
        while True:
            rc = right[sigma[c]]
            pending = False
            if tree and lt(tree[1], inf):
                k = _first_below(tree, rc)
                if k >= 0:
                    _put(tree, k, inf)
                    c = k
                    path.append(sigma[c])
                    continue
            elif c == j - 1:
                if c > behind:
                    next(islice(rights, c - behind, c - behind), None)
                k = next(compress(count(j), map(lt, rights, lefts)), -1)
                if k < 0:  # read up to sigma's end
                    path += sigma[j:]
                    start = n
                    break
                # sigma[k] misses sigma[k - 1]: it waits, or starts the next component
                path += sigma[j:k]
                behind, c, j = k, k - 1, k + 1
                rc = right[sigma[c]]
                pending = True
            if pos[2 * sigma[c] + 1] - c == start + len(path):  # no unread vertex meets c
                start = j - pending
                if tree and lt(tree[1], inf) or pos[2 * sigma[start - 1] + 1] != 2 * start - 1:
                    return None
                break
            # an unread vertex meets c; the ones before it, and a pending one, wait
            k = next(compress(count(j), map(lt, lefts, repeat(rc))))
            tree = tree or [inf] * (2 << (n - 1).bit_length())
            for i in range(j - pending, k):
                _put(tree, i, left[sigma[i]])
            c, j = k, k + 1
            path.append(sigma[c])
        if len(path) > len(best):
            best = path
    return list(map(graph.names.__getitem__, best)) if best else None
