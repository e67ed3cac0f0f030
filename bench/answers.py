"""Answer checking, independent of the solver's own path predicates.

Each instance carries the (name, left, right) records it was generated from
and either an exact expected length or, where no closed form exists, the
bounds [greedy, largest component] that any correct answer lies within.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One generated input: its records, its text, and what a correct answer is.

    ``expected`` is the exact longest-path length when known. Otherwise it
    is None and ``low``..``high`` bound the answer.
    """

    kind: str
    records: tuple
    text: str
    expected: int | None
    low: int
    high: int

    @property
    def n(self) -> int:
        return len(self.records)


def to_text(records) -> str:
    """Interval-file text: the vertex count, then ``name left right`` lines."""
    lines = [str(len(records))]
    lines.extend(f"{nm} {l} {r}" for nm, l, r in records)
    return "\n".join(lines) + "\n"


def make_instance(kind: str, records, expected: int | None = None) -> Instance:
    """Build an Instance; without ``expected``, derive bounds from the graph.

    The greedy normal-path walk over the largest component proves the
    optimum when it traverses the whole component; then ``expected`` is set.
    """
    records = tuple(records)
    if expected is not None:
        low = high = expected
    else:
        comp = largest_component(records)
        low, high = len(greedy_path(records, comp)), len(comp)
        if low == high:
            expected = high
    return Instance(kind, records, to_text(records), expected, low, high)


def largest_component(records) -> list:
    """Indices of a largest connected component (first one on ties).

    Components of an interval graph are runs of the left-sorted order whose
    intervals keep overlapping the running right end.
    """
    order = sorted(range(len(records)), key=lambda i: records[i][1])
    best: list = []
    cur: list = []
    reach = None
    for i in order:
        l, r = records[i][1], records[i][2]
        if cur and l > reach:
            if len(cur) > len(best):
                best = cur
            cur = []
        if not cur:
            reach = r
        cur.append(i)
        reach = max(reach, r)
    return best if len(best) >= len(cur) else cur


def greedy_path(records, vertices) -> list:
    """The normal-path greedy on ``vertices``: start at the smallest right end,
    then always step to the unvisited neighbour with the smallest right end.

    Returns the path it walks before it gets stuck; it is a path either way.
    """
    left = [rec[1] for rec in records]
    right = [rec[2] for rec in records]
    remaining = sorted(vertices, key=right.__getitem__)
    if not remaining:
        return []
    cur = remaining.pop(0)
    out = [cur]
    while remaining:
        for j, w in enumerate(remaining):
            if left[w] < right[cur] and left[cur] < right[w]:
                break
        else:
            break
        cur = remaining.pop(j)
        out.append(cur)
    return out


@dataclass(frozen=True)
class Verdict:
    ok: bool
    verified: bool
    reason: str = ""


def check_answer(inst: Instance, length: int, path) -> Verdict:
    """Judge a solver answer: a simple path of the input, of the reported
    length, equal to the expected length or, lacking one, within the bounds.

    ``verified`` is False when the answer only passed the bounds check.
    """
    index = {rec[0]: i for i, rec in enumerate(inst.records)}
    path = list(path)
    if len(path) != length:
        return Verdict(False, False, f"reported length {length} but path has {len(path)}")
    try:
        idx = [index[nm] for nm in path]
    except (KeyError, TypeError):
        return Verdict(False, False, "path names a vertex not in the input")
    if len(set(idx)) != len(idx):
        return Verdict(False, False, "path repeats a vertex")
    recs = inst.records
    for a, b in zip(idx, idx[1:]):
        if not (recs[a][1] < recs[b][2] and recs[b][1] < recs[a][2]):
            return Verdict(False, False, f"{recs[a][0]} and {recs[b][0]} are not adjacent")
    if inst.expected is not None:
        if length != inst.expected:
            return Verdict(False, False, f"length {length}, expected {inst.expected}")
        return Verdict(True, True)
    if not inst.low <= length <= inst.high:
        return Verdict(False, False, f"length {length} outside [{inst.low}, {inst.high}]")
    return Verdict(True, False)
