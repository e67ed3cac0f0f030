"""Dynamic program over a special weighted interval graph.

Entries W[ξ][v_i, y] hold the best weight of a normal path ending at y among
vertices squeezed between coordinate ξ and the right end of v_i. The sweep
visits vertices in right-endpoint order; each entry is seeded by inheriting
from the stand-in vertex π (the latest dependent-side neighbor before v_i),
then challenged by paths threading v_i between an earlier leg and a tail.

Each entry is decided once. Its candidates are compared locally in a fixed
order: INIT, COPY, SELF_APPEND, TAIL (the bare tail (v_i, y) after a leg
ending before l_y, which needs no split coordinate ζ), then SPLIT by
increasing ζ. A later candidate wins only if it is strictly heavier, so
equal SPLITs keep the lowest ζ. That is also the one whose leg end has the
lowest rank: the cuts of the split points increase with ζ, and the earliest
leg holding the best of the first c legs never moves down as c grows.

Every read made while sweeping v_i is of an entry whose middle index
is the stand-in π(y, v_i), which ranks below v_i, while every write has
v_i as its middle index: what is read is final before v_i. So each value
is read once per v_i, and every ξ row does flat list work only.

- Columns, shared with their stand-ins. The table is stored as
  ``cols[v, y]``: value lists indexed by ξ position. A path ending at y lies
  above ξ only if ξ <= l_y, so every column ending at y has one slot per
  ξ <= l_y, and no slot is empty: an own column (v, v) is filled from
  INIT, and a leg column starts as its stand-in's full column. Only a leg
  y that starts inside v_i can take a TAIL or SPLIT; any other leg has
  ``ends[y] <= ends[v_i]``, so its every entry is a COPY and v_i's column
  for it is the very list ``cols[π(y, v_i), y]``. A nested leg's column is
  that list too until a TAIL or SPLIT is strictly heavier in some slot:
  the first such win copies the list (in C) and the sweep writes only the
  winning slots into the copy, so a stand-in's column never changes.
- The sweep writes values only; every parent is derived from them. The
  sweep keeps ``legs[v]``: v's earlier neighbors, their stand-ins, the
  stand-ins' columns and v's split points (``()`` if v has no nested
  leg). A leg entry whose value equals its stand-in's at that ξ is the
  COPY, since a TAIL or SPLIT is written only where strictly heavier; an
  own entry whose value is w_v is INIT. Any other entry is the first of
  v's offers, in the sweep's order, whose value is the entry's: for an own
  entry the SELF_APPEND, for a leg y its TAIL, then its SPLITs by
  increasing ζ. An offer is the best value among the legs below its cut
  plus an addend: w_v (SELF_APPEND), w_v + w_y (TAIL, whose cut counts
  the legs ending before l_y) or w_v plus y's stand-in value at ζ (SPLIT).
  No offer exceeds the stored value, the maximum of them all, so an offer
  equals it exactly where a leg below its cut holds the value minus the
  addend at ξ, and the earliest such leg is the first that holds the
  maximum of the legs below the cut: the one the sweep's offer read. A
  value no offer realizes raises ``CorruptParentChain``. A solve reads
  about one parent per path vertex, so it pays for those alone.
  ``DpTable.W`` and ``DpTable.parent`` are read-only mappings over these,
  keyed by (ξ position, v, y): ``ColumnView`` and ``ParentView``.
- Stand-ins come from the sweep. After a dependent v_i is swept, it
  becomes ``last_b[y]`` for each earlier neighbor y. Vertices are swept in
  rank order, so when v_i comes, ``last_b[y]`` is the latest dependent
  vertex strictly between y and v_i that overlaps y: π(y, v_i), in O(1).
- Earlier neighbors are a slice of σ. Adjacency is strict overlap and σ is
  sorted by right end, so a y before v_i meets it iff r_y > l_{v_i}: the
  earlier neighbors are σ from the first right end above l_{v_i} up to
  v_i, in rank order. The DP builds no neighbor lists.
- Query cuts are fixed per v_i. Every leg query asks for the best leg
  ending below a coordinate: r_{v_i} (SELF_APPEND, all legs), l_y (TAIL)
  or ζ (SPLIT). Legs are in right-end order, so each query is a prefix of
  them, found by bisection once per v_i; the split tails W[ζ][π(y, v_i), y]
  at the split points below are read then too, since they do not depend
  on ξ.
  The rows of a nested y above l_{v_i} are copies of those same values,
  already in place in the column it shares or copies.
- Rows are tuples. The stand-ins' columns are read row by row, as the
  tuples ``zip_longest(*srcs, fillvalue=neg)`` makes in C: row ξ holds each
  leg's value at ξ, or ``neg`` past the end of its column, where ξ is
  above the leg's left end and the leg is dead. Where v_i has a nested
  leg, one pass over a row fills ``run_v[c]``, the best value among the
  first c legs, so every query's value is a list index; each nested y's
  entry and v_i's own entry are then decided from the row and run_v alone,
  as values: a nested y's entry is written where its best offer is
  strictly heavier than its COPY. Rows stop where the longest leg column
  does: at a higher ξ no leg lies inside ξ, so v_i's own entry is INIT,
  the value its column starts with.
- Legs-only columns are built in C. A v_i with no nested leg decides only
  its own entry, so its column is ``max`` of each row plus w_vi, in one
  ``map`` over the rows with a zero column in front, which stands for INIT
  (a SELF_APPEND wins only if strictly heavier) and makes one row per
  slot, ξ <= l_vi. Taking the own entries of a nested v_i the same way, in
  a second pass, made the DP on the dense seed-1 pool about 19% slower
  than reading them off run_v.
- Nested legs are bounded. Every ζ of a nested y is at most l_y, so no
  offer of y reads a cut above tcut, the TAIL's, and run_v does not
  decrease with the cut. y's tails do not increase with ζ, as a column
  does not increase with ξ, and the first is at least w_vi + w_y, as y
  alone lies above its ζ. So with ``rq = run_v[tcut]`` and ``top`` the
  first tail (w_vi + w_y if y has none), no offer of y in the row exceeds
  rq + top: where that is at most the COPY, y is skipped, and the split
  loop stops at the first tail with rq + tail at most the best so far.
  Both tests compare an addend with ``lim``, the best so far minus rq,
  which changes only when the best does. Most nested legs of a dense input
  are skipped this way; a bound from the row maximum skips almost none, as
  that maximum sits at later legs, above every cut of y.
- The floor is exact. ``neg = -1 - sum(weights)`` is below every path
  weight, and so is neg plus any sum of weights, so an offer built on a
  dead leg or on an empty cut never wins, not even a tie, and neg is never
  stored. It is an int whenever the weights are: comparing ints with
  ``float('-inf')`` is slower.
- Repeated rows are copied where v_i has a nested leg. Columns do not
  increase with ξ, so equal rows come in runs, and a row equal to the one
  before it has the same outcome: v_i's own value is copied from the slot
  below, and the (column, value) pairs of that row's TAIL and SPLIT wins
  are written again.

Split points are built once per v_i, by ``split_points``, and only if v_i
has a nested leg. A split at ζ offers run_v[c] + t, where c is the cut
below ζ and t the tail from ζ. Cuts do not decrease with ζ, run_v does
not decrease with c, and the earliest leg holding run_v[c] moves only when
run_v strictly grows. A tail cannot grow with ζ, since a higher ζ leaves
fewer vertices. So of the ζ that share a cut, the lowest has a tail at
least as large; it reads the same run_v and comes first, so no other ζ of
that cut can be the winning split of any row. A cut of 0 offers nothing. What is left, the
lowest ζ of each nonzero cut, depends on v_i alone: a nested leg y takes
the prefix of it below ``ends[y]``, found by one bisection. Each tail is
only ever compared against the winner, so leaving the others out leaves
every value and every parent as it was: the first strictly heaviest offer
in ζ order is the same. A tail equal to a later one with a larger cut
stays: where run_v is equal at both cuts, the earlier ζ is the parent.

The answer is read at the lowest ξ, the left end of the start vertex v0: a
zero-weight dependent vertex that ends before every other interval begins,
so every vertex lies above it. The special graph names v0 and the DP only
checks it; rule 2 names the low sentinel d0 that ``add_dummies`` placed.
Of the entries at that ξ with the best value, the answer is the one with
the lowest (rank v, rank y). ``cols`` is filled in that order, legs before
v's own column, and a won column replaces its list in place, so that is
the first column whose slot 0 holds the best value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice, repeat, zip_longest
from operator import add, itemgetter

from .errors import CorruptParentChain, InvalidSpecialPartition
from .intervals import IntervalGraph
from .reduce2 import SpecialWeightedIntervalGraph

@dataclass(frozen=True)
class DpResult:
    weight: object
    path: list
    table: "DpTable"


@dataclass(frozen=True)
class DpTable:
    """Value and provenance per (ξ index, sweep vertex, path end) triple.

    ``Xi`` holds the split coordinates by increasing value, as ``split_grid``
    returns them; a ξ index is a position in it. ``max_weight_path`` sets
    ``W`` and ``parent`` to read-only views over columns that share lists
    with their stand-ins (see the module notes); plain dicts work too, for
    ``reconstruct``."""

    graph: IntervalGraph
    Xi: tuple
    W: Mapping
    parent: Mapping


class ColumnView(Mapping):
    """Read-only (ξ index, v, y) mapping over value columns ``cols[v, y]``:
    lists indexed by ξ index, with an entry in every slot."""

    __slots__ = ("_cols",)

    def __init__(self, cols: dict):
        self._cols = cols

    def __getitem__(self, key):
        pos, v, y = key
        col = self._cols.get((v, y))
        if col is not None and 0 <= pos < len(col):
            return col[pos]
        raise KeyError(key)

    def __iter__(self):
        for (v, y), col in self._cols.items():
            for pos in range(len(col)):
                yield pos, v, y

    def __len__(self):
        return sum(map(len, self._cols.values()))


class ParentView(ColumnView):
    """Read-only (ξ index, v, y) mapping of parents, with the keys of the
    value columns, derived from the values and ``legs`` (see the module
    notes). A leg entry is ("COPY", p) where its value equals that of y's
    stand-in p, and an own entry is INIT where its value is w_v. Any other
    entry is the first offer, in the sweep's order, for which some leg
    below the offer's cut holds the value minus the offer's addend at ξ,
    from the earliest such leg; with none, it raises
    ``CorruptParentChain``."""

    __slots__ = ("_legs", "_graph")

    def __init__(self, cols: dict, legs: dict, graph: IntervalGraph):
        super().__init__(cols)
        self._legs = legs
        self._graph = graph

    def __getitem__(self, key):
        pos, v, y = key
        col = self._cols.get((v, y))
        if col is None or not 0 <= pos < len(col):
            raise KeyError(key)
        earlier, stand, srcs, points = self._legs[v]
        val = col[pos]
        g = self._graph
        wt = g.weight
        if v == y:
            if val == wt[v]:  # a SELF_APPEND wins only if strictly heavier
                return ("INIT",)
            rest = val - wt[v]
            for j, leg in enumerate(srcs):
                if pos < len(leg) and leg[pos] == rest:
                    return ("SELF_APPEND", earlier[j], stand[j])
            raise CorruptParentChain(f"no offer realizes {key}")
        k = g.rank[y] - g.rank[earlier[0]]
        src = srcs[k]
        if val == src[pos]:  # a TAIL or SPLIT wins only if strictly heavier
            return ("COPY", stand[k])
        # the TAIL's cut counts the legs ending before l_y
        tcut = bisect_left(earlier, g.left[y], key=g.right.__getitem__)
        offers = [("TAIL", tcut, wt[v] + wt[y], ())]
        offers += [("SPLIT", c, wt[v] + src[z], (z, stand[k])) for c, z in points if z < len(src)]
        for tag, cut, addend, split in offers:
            rest = val - addend
            for j, leg in enumerate(islice(srcs, cut)):
                if pos < len(leg) and leg[pos] == rest:
                    return (tag, earlier[j], stand[j], *split)
        raise CorruptParentChain(f"no offer realizes {key}")


def split_grid(special: SpecialWeightedIntervalGraph) -> tuple:
    """(dependent, Xi) of a special graph, after checking that it is one.

    ``dependent[v]`` says whether v is on the dependent side B. ``Xi`` holds,
    by increasing value, each dependent vertex's left end and the left end
    of the independent interval covering it, if any. A is sorted by left end
    once: the independent interval that starts last at or before l_v is the
    only one that can cover or contain v, so one bisection per dependent
    vertex serves both the nesting check and ξ.
    """
    g = special.graph
    if special.A & special.B or (special.A | special.B) != set(g.names):
        raise InvalidSpecialPartition("vertex sets do not split the graph")
    left, right = g.left, g.right
    a_sorted = sorted(map(g.by_name, special.A), key=left.__getitem__)
    for u, v in zip(a_sorted, a_sorted[1:]):
        if g.adjacent(u, v):
            raise InvalidSpecialPartition("independent side has an edge")
    a_lefts = [left[a] for a in a_sorted]
    dependent = [False] * g.n
    coords = set()
    for v in map(g.by_name, special.B):
        dependent[v] = True
        lv = left[v]
        coords.add(lv)
        pos = bisect_right(a_lefts, lv) - 1
        if pos >= 0 and right[a_sorted[pos]] > lv:
            if right[v] < right[a_sorted[pos]]:
                raise InvalidSpecialPartition("interval nested inside the independent side")
            coords.add(a_lefts[pos])
    if special.v0 not in special.B:
        raise InvalidSpecialPartition(f"start vertex {special.v0!r} is not on the dependent side")
    start = g.by_name(special.v0)
    if g.weight[start] != 0:
        raise InvalidSpecialPartition("start vertex has nonzero weight")
    if any(left[v] < right[start] for v in range(g.n) if v != start):
        raise InvalidSpecialPartition("start vertex does not end before every other interval")
    if len(special.B) > special.kappa:
        raise InvalidSpecialPartition("dependent side exceeds its budget")
    return dependent, tuple(sorted(coords))


def split_points(xs_sorted, rights, lo: int, hi: int, zlo: int, ztop: int) -> list:
    """(cut, ζ position) for the lowest ζ of each nonzero cut, by increasing ζ.

    The legs are ``rights[lo:hi]``, by right end, and the cut at a ζ position
    z in ``range(zlo, ztop)`` is the number of legs ending below
    ``xs_sorted[z]``. These are the split points that can win a row, for
    every nested leg alike (see the module notes).
    """
    points = []
    cut = 0
    for z in range(zlo, ztop):
        c = bisect_left(rights, xs_sorted[z], lo, hi) - lo
        if c > cut:
            points.append((c, z))
            cut = c
    return points


def max_weight_path(special: SpecialWeightedIntervalGraph) -> DpResult:
    """Best-weight path of the special graph, with parent chains for replay."""
    dependent, xs_sorted = split_grid(special)
    g = special.graph
    left, right, wt, sigma = g.left, g.right, g.weight, g.sigma
    rights = [right[v] for v in sigma]
    # every column ending at y has one slot per ξ <= l_y
    ends = [bisect_right(xs_sorted, left[v]) for v in range(g.n)]
    cols = {}
    # legs[v] = (earlier neighbors, their stand-ins, the stand-ins' columns,
    # v's split points)
    legs = {}
    # last_b[y] = pi(y, v_i): the last dependent vertex swept so far that
    # overlaps y from above, or y itself
    last_b = list(range(g.n))

    # below every path weight, even with any sum of weights added
    neg = -1 - sum(wt)

    for i, vi in enumerate(sigma):
        l_vi = left[vi]
        w_vi = wt[vi]
        zlo = ends[vi]
        # v_i's earlier neighbors: the vertices before it that end after l_vi
        lo = bisect_right(rights, l_vi, 0, i)
        earlier = sigma[lo:i]
        stand = [last_b[y] for y in earlier]
        if dependent[vi]:
            for y in earlier:
                last_b[y] = vi
        # srcs[k] is the k-th leg's stand-in column, and v_i's column for that
        # leg is the same list. A nested leg y, the only kind a TAIL or SPLIT
        # can win, gets an entry (key (v_i, y), k, cut below l_y, w_vi + w_y,
        # split tails, largest addend) in nested; cut c stands for the first
        # c legs.
        srcs = []
        nested = []
        points = ()
        for k, (y, p) in enumerate(zip(earlier, stand)):
            src = cols[vi, y] = cols[p, y]
            srcs.append(src)
            if left[y] < l_vi:
                continue
            if not nested:
                ztop = max(map(ends.__getitem__, earlier))
                points = split_points(xs_sorted, rights, lo, i, zlo, ztop)
                zs = [z for _, z in points]
            tcut = bisect_left(rights, left[y], lo, i) - lo
            w_pair = w_vi + wt[y]
            # (cut below ζ, v_i's weight plus the tail from ζ)
            tails = [(c, w_vi + src[z]) for c, z in points[: bisect_left(zs, ends[y])]]
            # the largest addend of y's offers: tails do not increase with ζ,
            # and the first is at least w_pair, as y alone lies above its ζ
            top = tails[0][1] if tails else w_pair
            nested.append(((vi, y), k, tcut, w_pair, tails, top))

        legs[vi] = (earlier, stand, srcs, points)
        if not nested:
            # legs only: a row decides v_i's own entry alone, from its maximum;
            # the zero column is INIT, and no leg column is longer than zlo
            cols[vi, vi] = list(
                map(add, map(max, zip_longest(repeat(0, zlo), *srcs, fillvalue=neg)), repeat(w_vi))
            )
            continue

        # INIT in every slot, the outcome of a row in which every leg is dead
        own = cols[vi, vi] = [w_vi] * zlo
        # run_v[c]: the best leg value among the first c legs inside ξ,
        # refilled by every new row
        run_v = [neg] * (len(srcs) + 1)
        prev = None
        # row pos: each leg's stand-in value at ξ position pos, neg where the
        # leg is dead; there are no rows past the longest column
        for pos, row in zip(range(zlo), zip_longest(*srcs, fillvalue=neg)):
            if row == prev:
                # the same row has the same outcome
                own[pos] = own[pos - 1]
                for col, best in wrote:
                    col[pos] = best
                continue
            prev = row
            bv = neg
            for k, val in enumerate(row, 1):
                if val > bv:
                    bv = val
                run_v[k] = bv

            # (column, value) of each TAIL or SPLIT this row wrote
            wrote = []
            for key, k, tcut, w_pair, tails, top in nested:
                copy = best = row[k]
                # every ζ is at most l_y, so no offer reads a cut above tcut,
                # and no addend at or below lim can beat best
                rq = run_v[tcut]
                lim = best - rq
                if top <= lim:
                    # no TAIL or SPLIT can be strictly heavier than the COPY
                    continue
                if w_pair > lim:
                    best = rq + w_pair
                    lim = w_pair
                for cut, tail in tails:
                    if tail <= lim:
                        # later tails are no larger and read cuts up to tcut
                        break
                    cand = run_v[cut] + tail
                    if cand > best:
                        best = cand
                        lim = cand - rq
                if best > copy:
                    col = cols[key]
                    if col is srcs[k]:
                        # the first win: the column stops being the stand-in's
                        col = cols[key] = col.copy()
                    col[pos] = best
                    wrote.append((col, best))

            if bv > 0:  # SELF_APPEND is strictly heavier than INIT
                own[pos] = bv + w_vi

    # the first column with the best value at ξ = 0 has the lowest ranks
    keys = list(cols)
    firsts = list(map(itemgetter(0), cols.values()))
    best_key = (0, *keys[firsts.index(max(firsts))])
    table = DpTable(
        graph=g, Xi=xs_sorted, W=ColumnView(cols), parent=ParentView(cols, legs, g)
    )
    weight = table.W[best_key]
    path = reconstruct(table, best_key)
    if path == [special.v0]:
        path = []
    return DpResult(weight=weight, path=path, table=table)


def reconstruct(table: DpTable, key) -> list:
    """Replay parent chains into the vertex-name path for a table entry."""
    if key not in table.W:
        raise CorruptParentChain(f"no entry for {key}")
    parent, names = table.parent, table.graph.names
    path = []
    # keys still to expand and vertices still to emit, next one on top
    todo = [key]
    while todo:
        k = todo.pop()
        if not isinstance(k, tuple):
            path.append(names[k])
            continue
        par = parent.get(k)
        if par is None:
            raise CorruptParentChain(f"no provenance for {k}")
        pos, vi, y = k
        tag = par[0]
        if tag == "INIT":
            path.append(names[vi])
        elif tag == "COPY":
            todo.append((pos, par[1], y))
        elif tag == "SELF_APPEND":
            _, x, p = par
            todo += (vi, (pos, p, x))
        elif tag == "TAIL":
            _, x, p = par
            todo += (y, vi, (pos, p, x))
        elif tag == "SPLIT":
            _, x, p, zpos, py = par
            todo += ((zpos, py, y), vi, (pos, p, x))
        else:
            raise CorruptParentChain(f"unknown case {tag!r}")
    return path
