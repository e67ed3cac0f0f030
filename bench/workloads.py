"""The benchmark's workloads: seeded pools of instances with known answers.

Every pool is a pure function of (workload, seed). Planted and dense
instances come from the solver's own seeded generators (their cost counts
toward set-up only); combs come from ``comb.make_comb``.

Each pool holds many distinct instances, so that a run's median depends
little on the seed. It mixes an odd number of sizes in equal shares, so that
the median falls inside the middle size rather than on the edge between two.
Sizes are interleaved, so that a run cut short mid-pool still mixes them.
"""

from __future__ import annotations

import random

from answers import make_instance
from comb import make_comb

# planted: the paper's large-n, small-parameter regime. k=3 wide intervals
# over staircases of n to 2n vertices; semi-proper preprocessing is the cost.
PLANTED_K = 3
PLANTED_SIZES = (3750, 2500, 5000, 3125, 4375)
PLANTED_PER_SIZE = 2
# dense: random intervals with m ~ n^2 / 3. A is empty and |B| ~ n, so the
# parameter gives no advantage and the exact-Fraction DP is the cost.
DENSE_SIZES = (40, 48, 56)
DENSE_PER_SIZE = 24
# comb: five bridges over staircases of three sizes, n to about 2n, so the
# deletion set stays the same size while n grows. Every stage does real
# work and the answer is below the component size.
COMB_BLOCKS = 6
COMB_STAIRS = ((150, 450), (100, 300), (200, 600))
COMB_PER_SIZE = 24

WORKLOADS = ("planted", "dense", "comb")


def build_pool(workload: str, seed: int, generate, spec_type) -> list:
    """Instances for one run, in the order the timed loop visits them.

    ``generate`` and ``spec_type`` are ``intervalpath.generators.generate``
    and ``GeneratorSpec``, passed in so that set-up times the import.
    """
    rng = random.Random(f"{workload}:{seed}")
    pool = []
    if workload == "planted":
        for _ in range(PLANTED_PER_SIZE):
            for n in PLANTED_SIZES:
                g = generate(spec_type(kind="planted", n=n, k=PLANTED_K, seed=rng.getrandbits(32)))
                recs = [(nm, l, r) for nm, l, r, _ in g.records()]
                # each wide interval lies over its staircase block, so the
                # staircase with the wides threaded in is a Hamiltonian path
                pool.append(make_instance("planted", recs, expected=len(recs)))
    elif workload == "dense":
        for _ in range(DENSE_PER_SIZE):
            for n in DENSE_SIZES:
                g = generate(spec_type(kind="random", n=n, seed=rng.getrandbits(32)))
                recs = [(nm, l, r) for nm, l, r, _ in g.records()]
                pool.append(make_instance("dense", recs))
    elif workload == "comb":
        for _ in range(COMB_PER_SIZE):
            for stairs in COMB_STAIRS:
                recs, want = make_comb(rng, blocks=COMB_BLOCKS, stairs=stairs)
                pool.append(make_instance("comb", recs, expected=want))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return pool


def warm_up_text() -> str:
    """A small fixed comb, the same for every workload and seed, whose solve
    passes through every stage before timing starts."""
    recs, _ = make_comb(random.Random(0), blocks=3, stairs=(20, 40))
    return make_instance("comb", recs).text
