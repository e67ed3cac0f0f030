import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    BudgetExceeded,
    exact_deletion_set,
    has_claw,
    heavy_tailed,
    naive_prune,
    named,
    reference_claw_leaves,
    reference_prune_deletion_set,
    two_claws,
)
from intervalpath.claws import (
    DeletionSet,
    _claw_leaves,
    add_dummies,
    approx_deletion_set,
    prune_deletion_set,
)
from intervalpath.errors import DoubleAugment
from intervalpath.generators import GeneratorSpec, generate
from intervalpath.intervals import build, normalize_endpoints
from intervalpath.pipeline import run_stages
from intervalpath.semiproper import make_semi_proper


def induces_claw(g, witness):
    c = g.by_name(witness.center)
    leaves = [g.by_name(nm) for nm in witness.leaves]
    if len(set(leaves)) != 3:
        return False
    for x in leaves:
        if not g.adjacent(c, x):
            return False
    a, b, d = leaves
    return not (g.adjacent(a, b) or g.adjacent(a, d) or g.adjacent(b, d))


def residual(g, marked):
    """``g`` without the vertices (indices) in ``marked``."""
    recs = [r for v, r in enumerate(g.records()) if v not in marked]
    return build(recs)


def test_approx_claw4(claw4):
    d = approx_deletion_set(claw4)
    assert named(claw4, d.marked) == {"u", "v1", "v2", "v3"}
    assert len(d.certificates) == 1
    assert induces_claw(claw4, d.certificates[0])


def test_approx_path3(path3):
    assert approx_deletion_set(path3).marked == frozenset()


def test_approx_two_disjoint_claws():
    g = two_claws()
    d = approx_deletion_set(g)
    assert len(d.marked) == 8
    assert len(d.certificates) == 2
    seen = set()
    for w in d.certificates:
        vs = {w.center, *w.leaves}
        assert induces_claw(g, w)
        assert not (vs & seen)
        seen |= vs
    assert seen == named(g, d.marked)


@pytest.mark.parametrize("seed", range(30))
def test_approx_invariants_on_random_instances(seed):
    g = generate(GeneratorSpec(kind="random", n=4 + seed % 11, seed=seed * 13 + 2))
    d = approx_deletion_set(g)
    assert len(d.marked) == 4 * len(d.certificates)
    rest = residual(g, d.marked)
    assert not has_claw(rest)
    union = set()
    for w in d.certificates:
        vs = {w.center, *w.leaves}
        assert induces_claw(g, w)
        assert not (vs & union)
        union |= vs
    assert union == named(g, d.marked)


def test_prune_claw4(claw4):
    greedy = approx_deletion_set(claw4)
    d = prune_deletion_set(claw4, greedy)
    assert named(claw4, d.marked) == {"v1"}
    assert d.certificates == greedy.certificates
    assert d.dummies is None


def test_prune_two_disjoint_claws():
    g = two_claws()
    greedy = approx_deletion_set(g)
    d = prune_deletion_set(g, greedy)
    assert named(g, d.marked) == {"v1", "w1"}
    assert d.certificates == greedy.certificates


def _prune_instances(family):
    if family == "random":
        # the instances of test_approx_invariants_on_random_instances
        return [
            generate(GeneratorSpec(kind="random", n=4 + s % 11, seed=s * 13 + 2))
            for s in range(30)
        ]
    return [heavy_tailed(6 + s % 30, s) for s in range(200)]


@pytest.mark.parametrize("family", ["random", "heavy_tailed"])
def test_prune_is_an_inclusion_minimal_subset(family):
    for i, g in enumerate(_prune_instances(family)):
        greedy = approx_deletion_set(g)
        kept = prune_deletion_set(g, greedy).marked
        assert kept <= greedy.marked, i
        assert not has_claw(residual(g, kept)), i
        for v in kept:
            assert has_claw(residual(g, kept - {v})), (i, v)
        assert kept == naive_prune(g, greedy), i


@pytest.mark.parametrize("family", ["random", "heavy_tailed"])
def test_claw_leaves_match_the_neighbor_list_reference(family):
    """Detection on the endpoint order returns the leaves the neighbor-list
    scan returns, at every center and under random live sets."""
    rng = random.Random(5)
    for i, g in enumerate(_prune_instances(family)):
        order, pos = g.endpoint_order(), g.endpoint_positions()
        for _ in range(4):
            alive = [rng.random() < 0.8 for _ in range(g.n)]
            for u in range(g.n):
                if alive[u]:
                    want = reference_claw_leaves(g, u, alive)
                    assert _claw_leaves(order, pos, u, alive) == want, (i, u)


@pytest.mark.parametrize("family", ["random", "heavy_tailed"])
def test_prune_matches_the_reference_on_larger_deletion_sets(family):
    """Any superset of a deletion set is one; pruning it from there walks
    other cache states than the greedy set does."""
    rng = random.Random(9)
    for i, g in enumerate(_prune_instances(family)):
        extra = {v for v in range(g.n) if rng.random() < 0.3}
        d = DeletionSet(approx_deletion_set(g).marked | extra, ())
        assert prune_deletion_set(g, d) == reference_prune_deletion_set(g, d), i


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(["random", "heavy_tailed"]),
    seed=st.integers(0, 2**31),
    n=st.integers(1, 20),
    mask=st.integers(0, 2**20 - 1),
)
def test_prune_matches_the_reference_on_larger_deletion_sets_small(family, seed, n, mask):
    if family == "random":
        g = generate(GeneratorSpec(kind="random", n=n, seed=seed))
    else:
        g = heavy_tailed(n, seed)
    extra = {v for v in range(g.n) if mask >> v & 1}
    d = DeletionSet(approx_deletion_set(g).marked | extra, ())
    pruned = prune_deletion_set(g, d)
    assert pruned == reference_prune_deletion_set(g, d)
    assert pruned.marked == naive_prune(g, d)


class _NoSweep(list):
    """An endpoint order that can be indexed and sliced but not walked."""

    def __iter__(self):
        raise AssertionError("a pass over the whole endpoint order")

    def __reversed__(self):
        raise AssertionError("a pass over the whole endpoint order")


def test_claw_stages_do_not_walk_the_whole_order():
    """The greedy and the pruning read the nesting centers and their spans'
    ends only: a solve never builds sigma of the semi-proper graph, and both
    stages give the same sets on an order that refuses to be iterated."""
    planted = generate(GeneratorSpec(kind="planted", n=2000, k=3, seed=1))
    assert run_stages(planted).semi._sigma is None
    for g in (planted, heavy_tailed(300, 3)):
        semi = make_semi_proper(normalize_endpoints(g))
        greedy = approx_deletion_set(semi)
        pruned = prune_deletion_set(semi, greedy)
        assert greedy.marked and pruned.marked
        semi._order = _NoSweep(semi._order)
        assert approx_deletion_set(semi) == greedy
        assert prune_deletion_set(semi, greedy) == pruned


def test_exact_claw4(claw4):
    d = exact_deletion_set(claw4, k_max=1)
    assert d is not None and len(d.marked) == 1
    assert not has_claw(residual(claw4, d.marked))


def test_exact_path3(path3):
    d = exact_deletion_set(path3, k_max=0)
    assert d is not None and d.marked == frozenset()


def test_exact_two_claws_need_two():
    g = two_claws()
    assert exact_deletion_set(g, k_max=1) is None
    d = exact_deletion_set(g, k_max=2)
    assert d is not None and len(d.marked) == 2


def test_exact_node_cap():
    g = two_claws()
    with pytest.raises(BudgetExceeded):
        exact_deletion_set(g, k_max=2, node_cap=1)


@pytest.mark.parametrize("seed", range(6))
def test_exact_vs_approx_sandwich(seed):
    k = 1 + seed % 3
    g = generate(GeneratorSpec(kind="planted", n=5 * k + 6, k=k, seed=seed + 9))
    opt = exact_deletion_set(g, k_max=5)
    approx = approx_deletion_set(g)
    assert opt is not None
    assert len(opt.marked) <= len(approx.marked) <= 4 * len(opt.marked)


def test_add_dummies_path3(path3):
    d0 = approx_deletion_set(path3)
    g, d = add_dummies(path3, d0)
    assert d.dummies is not None
    lo, hi = d.dummies
    assert d.marked == {lo, hi}
    assert g.n == 5
    assert (lo, hi) == (3, 4)
    assert g.by_name(g.names[lo]) == lo and g.by_name(g.names[hi]) == hi
    assert g.weight[lo] == 0 and g.weight[hi] == 0
    assert not g.neighbors(lo) and not g.neighbors(hi)
    assert g.sigma[0] == lo and g.sigma[-1] == hi


def test_add_dummies_claw4(claw4):
    g, d = add_dummies(claw4, approx_deletion_set(claw4))
    assert len(d.marked) == 6
    assert g.n == 6


def test_add_dummies_refuses_twice(path3):
    g, d = add_dummies(path3, approx_deletion_set(path3))
    with pytest.raises(DoubleAugment):
        add_dummies(g, d)
