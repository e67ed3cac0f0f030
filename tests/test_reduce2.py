from fractions import Fraction
from math import comb

import pytest

from helpers import (
    assert_valid_representation,
    crafted_special,
    heavy_tailed,
    is_weakly_reducible,
    named,
    reference_rule2_graph,
    small_combs,
    total_weight,
)
from intervalpath.claws import DeletionSet
from intervalpath.generators import GeneratorSpec, generate
from intervalpath.intervals import build, normalize_endpoints
from intervalpath.oracle import brute_max_weight_path
from intervalpath.pipeline import run_stages
from intervalpath.reduce1 import apply_rule1, compute_stage1_families
from intervalpath.reduce2 import apply_rule2, compute_stage2_families, intermediate_graphs


def kappa_bound(k):
    return (k + 2) + comb(18 * k + 16, 2) * (k + 6)


def named_edges(g):
    return {
        frozenset((g.names[u], g.names[v])) for u in range(g.n) for v in g.neighbors(u)
    }


def int_coords(records):
    return all(type(c) is int for rec in records for c in (rec[1], rec[2]))


def exact_weights(records):
    # a Fraction only where the weight is not integral
    return all(
        type(w) is int or (type(w) is Fraction and w.denominator > 1)
        for *_, w in records
    )


def test_weakly_reducible_triangle():
    g = build([("x", 0, 4, 1), ("y", 1, 5, 1), ("z", 2, 6, 1)])
    assert is_weakly_reducible(g, ["x", "y", "z"])


def test_weakly_reducible_needs_connectivity(path3):
    assert not is_weakly_reducible(path3, ["a", "c"])


def test_weakly_reducible_containment_condition():
    # w hides inside x but misses y, so {x, y} must be rejected
    g = build([("x", 1, 10, 1), ("y", 9, 12, 1), ("w", 2, 4, 1)])
    assert not is_weakly_reducible(g, ["x", "y"])
    assert is_weakly_reducible(g, ["x"])


def test_weakly_reducible_rejects_non_cliques(path3):
    assert not is_weakly_reducible(path3, ["a", "b", "c"])


def test_stage2_path3_is_trivial(path3):
    st = run_stages(path3)
    deletion, stage1, special = st.deletion, st.stage1, st.special
    fam = compute_stage2_families(stage1, deletion)
    assert fam.Uji == {}
    assert special.graph.records() == stage1.g_sharp.records()
    assert special.A == {"a1"}
    assert special.B == named(st.widened, deletion.marked)
    assert special.kappa == 722


def test_grid_takes_the_two_outer_clusters_of_each_cell():
    # five disjoint clusters in one cell collapse to a1..a5 at (3, 4)..(11, 12)
    records = [("d0", 0, 1, 0), ("d1", 100, 101, 0)]
    records += [(f"u{j}", 10 * j + 2, 10 * j + 5, 1) for j in range(5)]
    g = build(records)
    deletion = DeletionSet(marked=frozenset({0, 1}), certificates=(), dummies=(0, 1))
    stage1 = apply_rule1(g, compute_stage1_families(g, deletion))
    fam = compute_stage2_families(stage1, deletion)
    # the middle cluster a3 at (7, 8) is left out
    assert fam.T == (1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14)


def test_crafted_groups_and_weights():
    g, deletion, stage1, special = crafted_special()
    assert sorted(len(grp.members) for grp in special.groups) == [2, 10]
    for grp in special.groups:
        want = min(len(grp.members), len(deletion.marked) + 4)
        assert len(grp.clones) == want
        per_clone = Fraction(len(grp.members), want)
        for clone in grp.clones:
            assert special.graph.weight[special.graph.by_name(clone)] == per_clone
    gg = special.graph
    shares = {
        len(grp.members): [gg.weight[gg.by_name(c)] for c in grp.clones]
        for grp in special.groups
    }
    assert shares[10] == [Fraction(5, 4)] * 8
    assert all(type(w) is Fraction for w in shares[10])
    assert shares[2] == [1, 1]
    assert all(type(w) is int for w in shares[2])
    assert special.kappa == kappa_bound(len(deletion.marked) - 2)


def test_crafted_group_membership_order():
    g, deletion, stage1, special = crafted_special()
    big = next(grp for grp in special.groups if len(grp.members) == 10)
    rank = stage1.g_sharp.rank
    by = stage1.g_sharp.by_name
    ranks = [rank[by(nm)] for nm in big.members]
    assert ranks == sorted(ranks)


def test_clone_groups_are_proper_cliques():
    _, _, _, special = crafted_special()
    gg = special.graph
    for grp in special.groups:
        ids = [gg.by_name(c) for c in grp.clones]
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                assert gg.adjacent(a, b)
                assert not gg.contains_interval(a, b)
                assert not gg.contains_interval(b, a)


def test_clone_outside_adjacency_matches_span():
    g, deletion, stage1, special = crafted_special()
    gs, gg = stage1.g_sharp, special.graph
    for grp in special.groups:
        member_ids = {gs.by_name(nm) for nm in grp.members}
        lo = min(gs.left[v] for v in member_ids)
        hi = max(gs.right[v] for v in member_ids)
        outside_names = [
            gs.names[v]
            for v in range(gs.n)
            if v not in member_ids and gs.names[v] in gg.index
        ]
        for w in outside_names:
            wi = gs.by_name(w)
            touches_span = gs.left[wi] < hi and lo < gs.right[wi]
            for clone in grp.clones:
                assert gg.adjacent(gg.by_name(clone), gg.by_name(w)) == touches_span


def test_group_weight_totals_preserved():
    g, _, stage1, special = crafted_special()
    assert total_weight(special.graph, special.graph.names) == total_weight(
        stage1.g_sharp, stage1.g_sharp.names
    )


def assert_same_graph(got, want):
    assert got.records() == want.records()
    assert got.endpoint_order() == want.endpoint_order()


def test_intermediate_graphs_replay():
    _, _, stage1, special = crafted_special()
    chain = intermediate_graphs(special)
    assert len(chain) == len(special.groups) + 1
    assert chain[0].records() == stage1.g_sharp.records()
    assert sorted(chain[-1].names) == sorted(special.graph.names)
    assert named_edges(chain[-1]) == named_edges(special.graph)
    assert_replay_is_exact(special)


def assert_replay_is_exact(special):
    """Element t of the replay holds G# with exactly the first t groups
    swapped, and the last element is the special graph itself."""
    chain = intermediate_graphs(special)
    assert len(chain) == len(special.groups) + 1
    for t, graph in enumerate(chain):
        swapped = special.groups[:t]
        want = set(special.g_sharp.names)
        want -= {nm for grp in swapped for nm in grp.members}
        want |= {nm for grp in swapped for nm in grp.clones}
        assert set(graph.names) == want
        assert_valid_representation(graph)
    assert_same_graph(chain[-1], special.graph)


def swap_case(kind, i):
    if kind == "random":
        return generate(GeneratorSpec(kind="random", n=3 * i, seed=i))
    if kind == "heavy":
        return heavy_tailed(6 + i % 30, i)
    return small_combs(4)[i]


@pytest.mark.parametrize(
    "kind, i",
    [
        *(("random", i) for i in range(1, 21)),
        *(("heavy", i) for i in range(0, 200, 10)),
        *(("comb", i) for i in range(4)),
    ],
)
def test_swap_matches_the_scaled_reference(kind, i):
    """Random graphs with n <= 60, heavy-tailed ones and combs."""
    st = run_stages(swap_case(kind, i))
    fam = compute_stage2_families(st.stage1, st.deletion)
    assert_same_graph(st.special.graph, reference_rule2_graph(st.stage1, fam, st.deletion))
    assert_replay_is_exact(st.special)


def test_crafted_swap_matches_the_scaled_reference():
    _, deletion, stage1, special = crafted_special()
    fam = compute_stage2_families(stage1, deletion)
    assert_same_graph(special.graph, reference_rule2_graph(stage1, fam, deletion))


def test_swap_of_bins_interleaved_in_one_gap():
    """The x bin ends in the gap between dm1 and dm2 where the y bin starts,
    their endpoints alternating there: x rights 100, 102, .., y lefts 101,
    103, .. . Each bin keeps its five members as clones, and every x clone
    meets every y clone."""
    records = [("d0", 0, 1, 0), ("dm1", 40, 41, 1), ("dm2", 150, 151, 1), ("d1", 200, 201, 0)]
    records += [(f"x{j}", 20 + j, 100 + 2 * j, 1) for j in range(5)]
    records += [(f"y{j}", 101 + 2 * j, 160 + j, 1) for j in range(5)]
    g = build(records)
    deletion = DeletionSet(
        marked=frozenset(map(g.by_name, ["d0", "dm1", "dm2", "d1"])),
        certificates=(),
        dummies=(g.by_name("d0"), g.by_name("d1")),
    )
    stage1 = apply_rule1(g, compute_stage1_families(g, deletion))
    fam = compute_stage2_families(stage1, deletion)
    special = apply_rule2(stage1, fam, deletion)
    assert sorted(sorted(grp.members) for grp in special.groups) == [
        [f"x{j}" for j in range(5)],
        [f"y{j}" for j in range(5)],
    ]
    assert_same_graph(special.graph, reference_rule2_graph(stage1, fam, deletion))
    assert_replay_is_exact(special)
    gg = special.graph
    xs, ys = ([gg.by_name(c) for c in grp.clones] for grp in special.groups)
    assert all(gg.adjacent(a, b) for a in xs for b in ys)


@pytest.mark.parametrize("seed", range(30))
def test_stage2_invariants_random(seed):
    g = generate(GeneratorSpec(kind="random", n=1 + seed % 12, seed=seed * 41 + 7))
    st = run_stages(g)
    deletion, stage1, special = st.deletion, st.stage1, st.special
    k = len(deletion.marked) - 2
    fam = compute_stage2_families(stage1, deletion)
    assert len(fam.T) <= 18 * k + 16
    assert list(fam.T) == sorted(fam.T)
    binned = set()
    for (j, i), members in fam.Uji.items():
        assert j < i
        assert not (set(members) & binned)
        binned |= set(members)
    assert binned == stage1.U_sharp
    for members in fam.Uji.values():
        assert members
        assert is_weakly_reducible(stage1.g_sharp, members)
    assert special.kappa == kappa_bound(k)
    assert len(special.B) <= special.kappa
    assert special.A | special.B == set(special.graph.names)
    assert not (special.A & special.B)
    chain = intermediate_graphs(special)
    assert named_edges(chain[-1]) == named_edges(special.graph)
    for graph in (st.widened, stage1.g_sharp, special.graph, *chain):
        assert int_coords(graph.records())
    for graph in (st.widened, stage1.g_sharp, special.graph):
        assert exact_weights(graph.records())
    # derived graphs skip build's checks, so their invariants are asserted here
    for graph in (st.semi, st.widened, stage1.g_sharp, special.graph):
        assert_valid_representation(graph)


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate(GeneratorSpec(kind="planted", n=400, k=4, seed=3)),
        lambda: small_combs(4)[-1],
    ],
    ids=["planted", "comb"],
)
def test_stage_graphs_are_valid_representations(make):
    g = make()
    st = run_stages(g)
    normal = normalize_endpoints(g)
    for graph in (g, normal, st.semi, st.widened, st.stage1.g_sharp, st.special.graph):
        assert_valid_representation(graph)


@pytest.mark.parametrize("seed", range(25))
def test_rule2_preserves_best_weight(seed):
    g = generate(GeneratorSpec(kind="random", n=1 + seed % 12, seed=seed * 3 + 29))
    st = run_stages(g)
    stage1, special = st.stage1, st.special
    if special.graph.n > 18:
        pytest.skip("clone growth pushed past the oracle guard")
    assert brute_max_weight_path(special.graph) == brute_max_weight_path(stage1.g_sharp)
