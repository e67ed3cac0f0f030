#!/usr/bin/env python3
"""Tiny walkthrough: generate an instance, solve it, show what each stage did."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from intervalpath.generators import GeneratorSpec, generate
from intervalpath.oracle import brute_longest_path
from intervalpath.pipeline import longest_path, longest_path_by_reductions


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=["random", "proper", "planted"], default="planted")
    ap.add_argument("--n", type=int, default=60)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    graph = generate(GeneratorSpec(kind=args.kind, n=args.n, k=args.k, seed=args.seed))
    result = longest_path(graph)
    # a certified solve runs no reduction or DP, so the stages are shown
    # from a second solve that takes the reductions route
    reduced = longest_path_by_reductions(graph)

    print(f"instance: {args.kind}, {graph.n} vertices, {graph.edge_count()} edges")
    print(f"longest path: {result.length} vertices")
    print("  " + " ".join(result.path))
    print(f"route: {result.stats['route']}; the reductions route finds {reduced.length}")
    s = reduced.stats
    print(
        f"reductions: deletion set {s['d_size']} (greedy {s['d_approx']}), kappa {s['kappa']}, "
        f"dependent side {s['b_size']}, DP entries {s['dp_entries']}"
    )
    print(f"  {'stage':<10} {'longest_path':>12} {'reductions':>12}")
    for stage in ("preprocess", "reduce1", "reduce2", "dp", "lift"):
        key = f"t_{stage}_ns"
        print(f"  {stage:<10} {result.stats[key] / 1e6:9.2f} ms {s[key] / 1e6:9.2f} ms")
    if graph.n <= 18:
        want, _ = brute_longest_path(graph)
        print(f"brute-force check: {want} ({'agrees' if want == result.length else 'MISMATCH'})")


if __name__ == "__main__":
    main()
