#!/usr/bin/env python3
"""Run a pytest selection against hand-written mutants of the solver.

Each mutant is one textual edit (file, old text, new text). For each, the
checkout is copied to a temporary directory, the edit is applied there (the
old text must occur exactly once), and the selection runs on the copy with
``-x``. A mutant is killed when the selection fails, and survives when it
passes. The unmutated copy runs first and must pass.

Usage, from a checkout's root:

    python3 scripts/mutants.py [PYTEST_ARGS ...]

PYTEST_ARGS default to ``tests/test_dp.py``, which sees the DP mutants
only; the reduction, sentinel and normalization mutants need the whole suite:

    python3 scripts/mutants.py --continue-on-collection-errors

The exit status is 1 if any mutant survives. Every mutant is a full pytest
run, so this stays out of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DP = "src/intervalpath/dp.py"
CLAWS = "src/intervalpath/claws.py"
INTERVALS = "src/intervalpath/intervals.py"
PATHS = "src/intervalpath/paths.py"
RULE1 = "src/intervalpath/reduce1.py"
RULE2 = "src/intervalpath/reduce2.py"
PIPELINE = "src/intervalpath/pipeline.py"
SEMI = "src/intervalpath/semiproper.py"

# (name, file, old text, new text)
MUTANTS = [
    (
        "split points: the last ζ of each cut instead of the first",
        DP,
        "            points.append((c, z))\n            cut = c\n",
        "            points.append((c, z))\n            cut = c\n"
        "        elif c:\n            points[-1] = (c, z)\n",
    ),
    (
        "floor: neg = -1",
        DP,
        "neg = -1 - sum(wt)",
        "neg = -1",
    ),
    (
        "copied rows: a repeated row does not write its wins again",
        DP,
        "                for col, best in wrote:\n                    col[pos] = best\n",
        "",
    ),
    (
        "copied rows: a repeated row leaves v_i's own entry at INIT",
        DP,
        "                own[pos] = own[pos - 1]\n",
        "",
    ),
    (
        "split tie: a SPLIT that only ties the best offer so far is the parent",
        DP,
        "for c, z in points if z < len(src)]",
        "for c, z in reversed(points) if z < len(src)]",
    ),
    (
        "bound: a nested leg's largest addend ignores its tails",
        DP,
        "top = tails[0][1] if tails else w_pair",
        "top = w_pair",
    ),
    (
        "bound: the split loop breaks on its own cut, not on the highest",
        DP,
        "if tail <= lim:",
        "if run_v[cut] + tail <= best:",
    ),
    (
        "own entries: SELF_APPEND from the last leg holding the rest",
        DP,
        "for j, leg in enumerate(srcs):",
        "for j, leg in reversed(list(enumerate(srcs))):",
    ),
    (
        "own entries: a SELF_APPEND on a zero leg",
        DP,
        "if val == wt[v]:",
        "if val == wt[v] and 0 not in [leg[pos] for leg in srcs if pos < len(leg)]:",
    ),
    (
        "TAIL: the last leg holding rq below the cut",
        DP,
        "for j, leg in enumerate(islice(srcs, cut)):",
        "for j, leg in (reversed if tag == 'TAIL' else iter)"
        "(list(enumerate(islice(srcs, cut)))):",
    ),
    (
        "SPLIT: the last leg holding the running max below the cut",
        DP,
        "for j, leg in enumerate(islice(srcs, cut)):",
        "for j, leg in (reversed if tag == 'SPLIT' else iter)"
        "(list(enumerate(islice(srcs, cut)))):",
    ),
    (
        "derivation: a leg scan ignores its offer's cut",
        DP,
        "enumerate(islice(srcs, cut))",
        "enumerate(srcs)",
    ),
    (
        "derivation: SPLITs are tried before the TAIL",
        DP,
        'offers += [("SPLIT",',
        'offers[:0] = [("SPLIT",',
    ),
    (
        "answer key: the last column holding the best value",
        DP,
        "keys[firsts.index(max(firsts))]",
        "keys[len(firsts) - 1 - firsts[::-1].index(max(firsts))]",
    ),
    (
        "sharing: a nested leg writes into its stand-in's column",
        DP,
        "col = cols[key] = col.copy()",
        "col = cols[key] = col",
    ),
    (
        "sharing: a TAIL or SPLIT parent reads as COPY",
        DP,
        "if val == src[pos]:",
        "if True:",
    ),
    (
        "sharing: an offer that only ties its COPY is written",
        DP,
        "if best > copy:",
        "if best >= copy:",
    ),
    (
        "split grid: a covered dependent vertex keeps its own left end as ξ",
        DP,
        "            coords.add(a_lefts[pos])\n",
        "",
    ),
    (
        "split grid: skip the nesting check",
        DP,
        "if right[v] < right[a_sorted[pos]]:",
        "if False:",
    ),
    (
        "normalize: the successor's start is tested against its own end",
        PATHS,
        "if left[w] < rc:",
        "if left[w] < right[w]:",
    ),
    (
        "walk: a component closes one right end early",
        PATHS,
        "!= 2 * start - 1:",
        "!= 2 * start + 1:",
    ),
    (
        "walk: a component as large as the rest does not stop the walk",
        PATHS,
        "len(best) < n - start:",
        "len(best) <= n - start:",
    ),
    (
        "walk: the tree of skipped vertices is tried after the unread ones",
        PATHS,
        "            if tree and lt(tree[1], inf):\n",
        "            if tree and lt(tree[1], inf) and pos[2 * sigma[c] + 1] - c == start + len(path):\n",
    ),
    (
        "walk: the descent goes right when the left child qualifies too",
        PATHS,
        "i = 2 * i + (not lt(tree[2 * i], x))",
        "i = 2 * i + lt(tree[2 * i + 1], x)",
    ),
    (
        "walk: the tree's root compares with the coordinate's bound __gt__",
        PATHS,
        "if not lt(tree[1], x):",
        "if not x.__gt__(tree[1]):",
    ),
    (
        "the certified route walks the semi-proper graph",
        PIPELINE,
        "walk = greedy_walk(graph)",
        "walk = greedy_walk(make_semi_proper(normalize_endpoints(graph)))",
    ),
    (
        "extremes: z2 from the first left token in the span",
        INTERVALS,
        "    for p in range(hi - 1, lo, -1):\n        t = order[p]\n        if not t & 1",
        "    for p in range(lo + 1, hi):\n        t = order[p]\n        if not t & 1",
    ),
    (
        "extremes: z1 from the last right token in the span",
        INTERVALS,
        "    for p in range(lo + 1, hi):\n        t = order[p]\n        if t & 1",
        "    for p in range(hi - 1, lo, -1):\n        t = order[p]\n        if t & 1",
    ),
    (
        "semi-proper: left-end scan stops before r_z1",
        SEMI,
        "in_order[in_pos[2 * u] + 1 : in_pos[2 * z1 + 1]]",
        "in_order[in_pos[2 * u] + 1 : in_pos[2 * z1 + 1] - 1]",
    ),
    ("rule 2: clone cap 1", RULE2, "cap = len(deletion.marked) + 4", "cap = 1"),
    ("rule 2: clone cap 2", RULE2, "cap = len(deletion.marked) + 4", "cap = 2"),
    (
        "rule 2: grid takes one outer cluster per side",
        RULE2,
        "{*comps[:2], *comps[-2:]}",
        "{*comps[:1], *comps[-1:]}",
    ),
    (
        "swap: a group's copies leave their left ends in reverse copy order",
        INTERVALS,
        "return from_endpoint_order(names, token_order(lefts, rights), weights)",
        "return from_endpoint_order(names, sorted(token_order(lefts, rights), key=lambda t: "
        "((rights if t & 1 else lefts)[t >> 1], t if t & 1 else -t)), weights)",
    ),
    (
        "swap: a group's copies leave their right ends in reverse copy order",
        INTERVALS,
        "return from_endpoint_order(names, token_order(lefts, rights), weights)",
        "return from_endpoint_order(names, sorted(token_order(lefts, rights), key=lambda t: "
        "((rights if t & 1 else lefts)[t >> 1], -t if t & 1 else t)), weights)",
    ),
    (
        "swap: copies take the weight of one member",
        INTERVALS,
        "exact_weight(sum(map(weight.__getitem__, idx)), count)",
        "weight[idx[0]]",
    ),
    (
        "swap: the span's left end read off the last member",
        INTERVALS,
        "lefts.extend([left[idx[0]]] * count)",
        "lefts.extend([left[idx[-1]]] * count)",
    ),
    (
        "rule 1: waterline never rises",
        RULE1,
        "        if last >= 0:\n            waterline = max(waterline, right[last])\n",
        "",
    ),
    (
        "prune: put back a vertex whose return creates a claw elsewhere",
        CLAWS,
        " or creates_claw(v, moved):",
        ":",
    ),
    (
        "prune: skip the centers that start inside v",
        CLAWS,
        "for w in covering[v] + starts_inside:",
        "for w in covering[v]:",
    ),
    (
        "greedy: take the centers in left-end order",
        CLAWS,
        "sorted(centers, key=lambda u: pos[2 * u + 1])",
        "sorted(centers, key=lambda u: pos[2 * u])",
    ),
    (
        "sentinels: the low sentinel's tokens after the input's",
        INTERVALS,
        "[2 * n, 2 * n + 1, *order, 2 * n + 2, 2 * n + 3]",
        "[*order, 2 * n, 2 * n + 1, 2 * n + 2, 2 * n + 3]",
    ),
    (
        "sentinels: the name index sends the low sentinel to n + 1",
        INTERVALS,
        "ChainMap({lo: n, hi: n + 1}",
        "ChainMap({lo: n + 1, hi: n + 1}",
    ),
    (
        "validation: accept duplicate endpoints",
        INTERVALS,
        "    if len(set(coords)) != len(coords):\n",
        "    if False:\n",
    ),
    (
        "validation: accept degenerate intervals",
        INTERVALS,
        "    if not all(map(lt, lefts, rights)):\n",
        "    if False:\n",
    ),
    (
        "validation: accept duplicate names",
        INTERVALS,
        "    if len(index) != len(names):\n",
        "    if False:\n",
    ),
    (
        "parse: accept any token count per line",
        INTERVALS,
        "    elif widths <= {3, 5}:\n",
        "    elif True:\n",
    ),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "traces")


def run_selection(checkout: Path, args: list) -> tuple:
    """(passed, seconds) for ``pytest -x`` with ``args`` on ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
        cwd=checkout,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0, time.perf_counter() - start


def mutate(checkout: Path, rel: str, old: str, new: str) -> None:
    path = checkout / rel
    text = path.read_text()
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{rel}: mutant text found {count} times, want once: {old!r}")
    path.write_text(text.replace(old, new))


def main() -> int:
    args = sys.argv[1:] or ["tests/test_dp.py"]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        shutil.copytree(ROOT, base, ignore=IGNORE)
        passed, secs = run_selection(base, args)
        print(f"unmutated: {'passed' if passed else 'FAILED'} ({secs:.1f} s)")
        if not passed:
            return 2
        survivors = 0
        for name, rel, old, new in MUTANTS:
            copy = Path(tmp) / "mutant"
            shutil.copytree(base, copy, ignore=IGNORE)
            mutate(copy, rel, old, new)
            passed, secs = run_selection(copy, args)
            survivors += passed
            print(f"{'SURVIVED' if passed else 'killed  '}  {name} ({secs:.1f} s)")
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed by {' '.join(args)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
