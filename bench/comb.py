"""Comb instances: an interval graph whose longest path is known in closed form
and is shorter than its single connected component.

A comb is a row of proper staircase blocks joined left to right by bridges.
Block i has s_i stairs of thickness w_i: every stair overlaps exactly the
w_i stairs after it, so a block is a proper interval graph whose stairs, in
order, form a Hamiltonian path. The bridge after block i starts inside the
last stair of block i and ends inside the first stair of block i+1, and the
gap it spans holds t_i >= 3 pairwise-disjoint teeth that meet only the
bridge. Each bridge therefore centres an induced claw and belongs to every
deletion set the solver may compute.

Closed form: a tooth has degree 1, so a path holds at most two teeth, each as
an end. A path ending in a tooth of bridge b leaves b to one side only and so
misses a whole end block (>= 2 stairs) plus every other tooth; two such ends
miss both end blocks. The stairs and bridges alone form a path from the first
stair of the first block to the last stair of the last block. Hence the
longest path has exactly n - (number of teeth) vertices.
"""

from __future__ import annotations

import random

# Coordinates on a grid of 10 with one residue per endpoint role, so no two
# endpoints can coincide: stair left 0, stair right 5, bridge left 2,
# bridge right 8, tooth left 1, tooth right 6.
_UNIT = 10


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """``count`` integers spaced evenly over [lo, hi], in seeded order."""
    vals = [lo + (hi - lo) * i // max(1, count - 1) for i in range(count)]
    rng.shuffle(vals)
    return vals


def make_comb(
    rng: random.Random,
    blocks: int,
    stairs: tuple,
    thickness: tuple = (1, 8),
    teeth: tuple = (3, 6),
) -> tuple:
    """Lay out one comb; return (records, longest path length).

    ``records`` are (name, left, right) with distinct integer endpoints.
    Block sizes, thicknesses, tooth counts and how far each bridge reaches
    into its blocks are spread evenly over their inclusive ranges and dealt
    out in seeded order, so combs of one shape differ in arrangement but
    not in the mix of parts. A block never has fewer than two stairs, so the
    closed form holds. A bridge reaches over at most half of each block it
    touches, and over at most 2w+1 stairs of a block of thickness w, so
    bridges stay pairwise disjoint.
    """
    if blocks < 2:
        raise ValueError("a comb needs at least two blocks")
    if teeth[0] < 3:
        raise ValueError("each bridge needs at least three teeth to centre a claw")
    u = _UNIT
    widths = _spread(rng, *thickness, blocks)
    sizes = _spread(rng, *stairs, blocks)
    tooth_counts = _spread(rng, *teeth, blocks - 1)
    reach_in = _spread(rng, 0, 999, blocks - 1)
    reach_out = _spread(rng, 0, 999, blocks - 1)
    records = []
    x = 0
    bridge_left = None
    for b in range(blocks):
        w = widths[b]
        s = max(sizes[b], 2)
        limit = max(1, min(s // 2, 2 * w + 1))
        if b > 0:
            # the bridge reaches over the first v+1 stairs of this block
            v = reach_in[b - 1] * limit // 1000
            records.append((f"b{b}", bridge_left, x + u * v + 8))
        for j in range(s):
            records.append((f"s{b}_{j}", x + u * j, x + u * j + u * w + 5))
        last_right = x + u * (s - 1) + u * w + 5
        if b == blocks - 1:
            break
        # the next bridge starts over one of the last stairs; reaching past
        # the thickness, it contains stairs outright
        bridge_left = last_right - u * (reach_out[b] * limit // 1000) - 3
        gap = last_right + 5
        t = tooth_counts[b]
        for j in range(t):
            records.append((f"t{b + 1}_{j}", gap + u * j + 1, gap + u * j + 6))
        x = gap + u * t + u
    return records, len(records) - sum(tooth_counts)
