"""Print sha256 digests of what the solver computes on a fixed 800-instance corpus.

The corpus:
  - 400 ``random`` instances, seed s = 0..399, n = 1 + s % 60;
  - 40 ``planted`` instances, n = 200 + 7i, k = 1 + i % 5, seed 500 + i;
  - 60 combs (``bench/comb.make_comb``) from ``random.Random(7)``, blocks
    3 + i % 4, stairs (20 + 7i, 50 + 7i);
  - 300 ``tests/helpers.heavy_tailed(6 + s % 30, s)``.

Per instance the digest covers the semi-proper records and neighbor lists,
the greedy and pruned deletion sets with the greedy certificates, the
records of ``widened``, the first reduction's free vertices ``U``, grid
``Li``, ``components`` and clusters ``S1`` and its back map, the second
reduction's grid ``T`` and bins ``Uji`` (``compute_stage2_families``), the
records of ``stage1.g_sharp`` and ``special.graph``, the DP's tables ``W``
and ``parent`` from ``max_weight_path(special)`` (sorted by key), and the
length, path and non-timing stats of ``longest_path``, its route included.
A second sha256 covers the ``longest_path`` lengths alone, in corpus order,
so that a change of route can be told apart from a change of answer. The
output ends with how many instances took each route.

Usage, from a checkout's root:

    python3 scripts/corpus_digest.py [ROOT]

ROOT (default: this script's checkout) is the checkout whose ``src/``,
``tests/helpers.py`` and ``bench/comb.py`` are imported, so running the same
script with ROOT set to another checkout compares the two: equal digests
mean equal answers, intermediates and DP tables on the whole corpus.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from pathlib import Path


def corpus(generate, spec, build, heavy_tailed, make_comb) -> list:
    graphs = [
        generate(spec(kind="random", n=1 + s % 60, seed=s)) for s in range(400)
    ]
    graphs += [
        generate(spec(kind="planted", n=200 + 7 * i, k=1 + i % 5, seed=500 + i))
        for i in range(40)
    ]
    rng = random.Random(7)
    for i in range(60):
        records, _ = make_comb(rng, blocks=3 + i % 4, stairs=(20 + 7 * i, 50 + 7 * i))
        graphs.append(build(records))
    graphs += [heavy_tailed(6 + s % 30, s) for s in range(300)]
    return graphs


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent)
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "bench")]
    from comb import make_comb
    from helpers import heavy_tailed
    from intervalpath.claws import approx_deletion_set
    from intervalpath.dp import max_weight_path
    from intervalpath.generators import GeneratorSpec, generate
    from intervalpath.intervals import build
    from intervalpath.pipeline import longest_path, run_stages
    from intervalpath.reduce2 import compute_stage2_families

    digest, lengths = hashlib.sha256(), hashlib.sha256()
    graphs = corpus(generate, GeneratorSpec, build, heavy_tailed, make_comb)
    routes = Counter()
    for g in graphs:
        st = run_stages(g)
        greedy = approx_deletion_set(st.semi)
        fam1 = st.stage1.families
        fam2 = compute_stage2_families(st.stage1, st.deletion)
        table = max_weight_path(st.special).table
        res = longest_path(g)
        routes[res.stats["route"]] += 1
        # index fields are hashed by name, as they were first defined
        wn = st.widened.names

        def named(vs, names=wn):
            return tuple(names[v] for v in vs)

        item = (
            st.semi.records(),
            [st.semi.neighbors(v) for v in range(st.semi.n)],
            sorted(named(greedy.marked, st.semi.names)),
            greedy.certificates,
            sorted(named(st.deletion.marked)),
            named(st.deletion.dummies),
            st.widened.records(),
            named(fam1.U),
            fam1.Li,
            {key: tuple(map(named, runs)) for key, runs in fam1.components.items()},
            tuple(map(named, fam1.S1)),
            {a: named(comp) for a, comp in st.stage1.back_map.items()},
            fam2.T,
            fam2.Uji,
            st.stage1.g_sharp.records(),
            st.special.graph.records(),
            sorted(table.W.items()),
            sorted(table.parent.items()),
            res.length,
            res.path,
            sorted((k, v) for k, v in res.stats.items() if not k.startswith("t_")),
        )
        digest.update(repr(item).encode())
        lengths.update(f"{res.length}\n".encode())
    print(f"{digest.hexdigest()}  {len(graphs)} instances")
    print(f"{lengths.hexdigest()}  lengths")
    print("  ".join(f"{route} {count}" for route, count in sorted(routes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
