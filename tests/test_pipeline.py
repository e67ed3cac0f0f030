import ast
from pathlib import Path

import pytest

import intervalpath
from helpers import (
    crafted_special,
    heavy_tailed,
    is_normal_path,
    nested_pairs,
    small_combs,
    total_weight,
)
from intervalpath import intervals, pipeline
from intervalpath.dp import max_weight_path
from intervalpath.errors import InvalidSpec, LiftFailure
from intervalpath.generators import GeneratorSpec, Lcg, generate
from intervalpath.intervals import IntervalGraph, build
from intervalpath.oracle import brute_longest_path
from intervalpath.paths import is_path
from intervalpath.pipeline import (
    lift_stage1,
    lift_stage2,
    longest_path,
    longest_path_by_reductions,
    run_stages,
)

STAT_KEYS = {
    "n",
    "m",
    "route",
    "d_size",
    "d_approx",
    "kappa",
    "b_size",
    "dp_entries",
    "t_preprocess_ns",
    "t_reduce1_ns",
    "t_reduce2_ns",
    "t_dp_ns",
    "t_lift_ns",
}


def test_path3_end_to_end(path3):
    res = longest_path(path3)
    assert res.length == 3
    assert res.path == ["a", "b", "c"]


def test_claw4_end_to_end(claw4):
    res = longest_path(claw4)
    assert res.length == 3
    assert len(res.path) == 3
    assert is_path(claw4, res.path)


def test_stats_keys_and_counts(path3):
    """path3 is certified; its reduction sizes come from the reductions route."""
    certified = longest_path(path3).stats
    assert certified["route"] == "certified" and set(certified) == STAT_KEYS
    res = longest_path_by_reductions(path3)
    assert res.stats["route"] == "reductions"
    assert set(res.stats) == STAT_KEYS
    assert res.stats["n"] == 3
    assert res.stats["m"] == 2
    assert res.stats["d_size"] == 0
    assert res.stats["kappa"] == 722
    assert res.stats["b_size"] == 2
    assert all(res.stats[k] >= 0 for k in STAT_KEYS if k.startswith("t_"))


def test_stats_on_claw(claw4):
    """The greedy deletes the whole claw; pruning keeps one leaf of it."""
    res = longest_path(claw4)
    assert res.stats["d_approx"] == 4
    assert res.stats["d_size"] == 1
    assert res.stats["kappa"] == 3930
    assert res.stats["b_size"] == 4


@pytest.mark.parametrize("fixture", ["path3", "claw4"])
def test_stats_report_the_dp_table_size(fixture, request):
    graph = request.getfixturevalue(fixture)
    want = len(max_weight_path(run_stages(graph).special).table.W)
    res = longest_path_by_reductions(graph)
    assert res.stats["route"] == "reductions"
    assert res.stats["dp_entries"] == want
    res = longest_path(graph)
    assert res.stats["dp_entries"] == (None if res.stats["route"] == "certified" else want)


@pytest.mark.parametrize("fixture", ["path3", "claw4"])
def test_dp_starts_from_the_low_sentinel(fixture, request):
    st = run_stages(request.getfixturevalue(fixture))
    table = max_weight_path(st.special).table
    g = st.special.graph
    assert table.graph is g
    assert st.special.v0 == st.widened.names[st.deletion.dummies[0]]
    assert table.Xi[0] == g.left[g.by_name(st.special.v0)]


def test_rejects_weighted_input():
    g = build([("a", 1, 4, 2), ("b", 3, 6, 1)])
    with pytest.raises(InvalidSpec):
        longest_path(g)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_proper_graphs_have_hamiltonian_answer(n):
    g = generate(GeneratorSpec(kind="proper", n=n, seed=n))
    res = longest_path(g)
    assert res.length == n
    assert sorted(res.path) == sorted(g.names)


def test_lift_stage2_leaves_unclonned_names_alone():
    _, _, _, special = crafted_special()
    assert lift_stage2(["dm1"], special) == ["dm1"]


def test_lift_stage2_small_group():
    _, _, _, special = crafted_special()
    assert lift_stage2(["c2_1", "c2_2"], special) == ["va", "vb"]


def test_lift_stage2_full_group_expands_to_members():
    _, _, _, special = crafted_special()
    clones = list(special.groups[0].clones)
    assert lift_stage2(clones, special) == [f"u{j}" for j in range(10)]


def test_lift_stage2_partial_use_tops_up():
    """Using three of eight clones still recovers the whole member run."""
    _, _, _, special = crafted_special()
    assert lift_stage2(["c1_1", "c1_2", "c1_3"], special) == [f"u{j}" for j in range(10)]


def test_lift_stage2_disconnected_input_fails():
    _, _, _, special = crafted_special()
    both = ["c2_1", "c2_2"] + list(special.groups[0].clones)
    with pytest.raises(LiftFailure):
        lift_stage2(both, special)


def _stage2_case(case):
    if case == "crafted":
        return crafted_special()[3]
    # the instances of test_reduce2.py::test_stage2_invariants_random
    g = generate(GeneratorSpec(kind="random", n=1 + case % 12, seed=case * 41 + 7))
    return run_stages(g).special


@pytest.mark.parametrize("case", ["crafted", *range(30)])
def test_lift_stage2_is_the_normal_order_of_the_swapped_set(case):
    special = _stage2_case(case)
    path = max_weight_path(special).path
    owner = {c: grp for grp in special.groups for c in grp.clones}
    want = {nm for nm in path if nm not in owner}
    for grp in {owner[nm].key: owner[nm] for nm in path if nm in owner}.values():
        want |= set(grp.members)
    lifted = lift_stage2(path, special)
    assert len(lifted) == len(want) and set(lifted) == want
    assert is_normal_path(special.g_sharp, lifted)


def _planted200():
    return generate(GeneratorSpec(kind="planted", n=200, k=3, seed=1))


def _crafted_unit():
    g = crafted_special()[0]
    return build([(nm, l, r, 1) for nm, l, r, _ in g.records()])


@pytest.mark.parametrize(
    "make", [_crafted_unit, _planted200], ids=["crafted", "planted200"]
)
def test_lift_normalizes_at_most_once_per_solve(make, monkeypatch):
    calls = []
    real = pipeline.normalize_path

    def counting(graph, names):
        calls.append(len(names))
        return real(graph, names)

    monkeypatch.setattr(pipeline, "normalize_path", counting)
    g = make()
    res = longest_path(g)
    assert is_path(g, res.path)
    assert len(calls) <= 1


def test_heavy_tailed_answers_match_brute_force():
    for seed in range(400):
        g = heavy_tailed(6 + seed % 9, seed)
        res = longest_path(g)
        assert res.length == brute_longest_path(g)[0], seed
        assert is_path(g, res.path), seed


def test_lift_stage1_reinflates_cluster(path3):
    stage1 = run_stages(path3).stage1
    assert lift_stage1(["a1"], stage1) == ["a", "b", "c"]


def test_lift_stage1_without_clusters():
    stage1 = crafted_special()[2]
    assert stage1.back_map == {}
    assert lift_stage1(["u0", "dm1"], stage1) == ["u0", "dm1"]


def test_lift_stage1_reinflates_a_pruned_claw(claw4):
    """With only v1 deleted, claw4's other leaves become one-vertex clusters."""
    stage1 = run_stages(claw4).stage1
    names = stage1.graph.names
    assert {a: [names[v] for v in c] for a, c in stage1.back_map.items()} == {
        "a1": ["v2"],
        "a2": ["v3"],
    }
    assert lift_stage1(["v1", "u", "a1"], stage1) == ["v1", "u", "v2"]


def test_lifted_paths_are_sound():
    lcg = Lcg(2024)
    for _ in range(40):
        n = 1 + lcg.randrange(12)
        g = generate(GeneratorSpec(kind="random", n=n, seed=lcg.randrange(1 << 30)))
        res = longest_path(g)
        assert res.stats["m"] == g.edge_count()
        assert res.length == brute_longest_path(g)[0]
        assert len(res.path) == res.length
        assert len(set(res.path)) == res.length
        if res.path:
            assert is_path(g, res.path)


def test_planted_instances_round_trip():
    for seed in range(6):
        g = generate(GeneratorSpec(kind="planted", n=30, seed=seed, k=2))
        res = longest_path(g)
        assert res.stats["m"] == g.edge_count()
        assert is_path(g, res.path)
        assert res.length == len(res.path)
        assert longest_path_by_reductions(g).stats["d_size"] <= 8


def _intersecting_pairs(g):
    return sum(g.adjacent(u, v) for u in range(g.n) for v in range(u))


@pytest.mark.parametrize(
    "graphs",
    [lambda: small_combs(6), lambda: [heavy_tailed(6 + s % 35, s) for s in range(40)]],
    ids=["comb", "heavy_tailed"],
)
def test_stats_count_the_input_edges(graphs):
    for g in graphs():
        assert longest_path(g).stats["m"] == _intersecting_pairs(g) == g.edge_count()


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate(GeneratorSpec(kind="planted", n=2000, k=3, seed=4)),
        lambda: generate(GeneratorSpec(kind="random", n=48, seed=5)),
        lambda: small_combs(4)[-1],
    ],
    ids=["planted2000", "dense48", "comb"],
)
def test_a_solve_builds_no_neighbor_lists(make, monkeypatch):
    """No stage of a solve, the lift and the final check included, asks any
    graph for its neighbor lists."""
    g = make()

    def refuse(graph):
        raise AssertionError(f"neighbor lists built on a graph of {graph.n} vertices")

    monkeypatch.setattr(IntervalGraph, "_build_neighbors", refuse)
    res = longest_path(g)
    assert res.length == len(res.path) and is_path(g, res.path)
    res = longest_path_by_reductions(g)
    assert res.length == len(res.path) and is_path(g, res.path)
    assert res.stats["b_size"] > 1


def test_minted_names_avoid_input_names_and_sentinels_come_last():
    """An input that already uses every base name the solver mints: the
    sentinels (d0 and d_{|D|+1}), the rule-1 spans (a1, ...) and the clones
    (c1_1, ...). The widened graph numbers the input's vertices as the
    semi-proper graph does and appends the sentinels as n and n + 1; every
    minted name is new, and the answer still matches brute force."""
    taken = ["d0", "d1", "d2", "a1", "c1_1"]
    records = generate(GeneratorSpec(kind="random", n=8, seed=1)).records()
    g = build([(nm, *rest) for nm, (_, *rest) in zip(taken, records)] + records[5:])
    st = run_stages(g)
    assert st.d_size == 1 and st.stage1.A
    assert any(len(grp.clones) > 1 for grp in st.special.groups)

    semi, widened, n = st.semi, st.widened, st.semi.n
    assert widened.names[:n] == semi.names
    assert widened.left[:n] == semi.left and widened.right[:n] == semi.right
    for nm in g.names:
        assert widened.index[nm] == semi.index[nm]
    lo, hi = st.deletion.dummies
    assert (lo, hi) == (n, n + 1)
    assert widened.index[widened.names[lo]] == n and widened.index[widened.names[hi]] == n + 1

    minted = [widened.names[lo], widened.names[hi], *st.stage1.A]
    minted += [c for grp in st.special.groups for c in grp.clones]
    assert len(set(minted)) == len(minted)
    assert not set(minted) & set(g.names)

    want, _ = brute_longest_path(g)
    res = longest_path_by_reductions(g)
    assert res.length == want and is_path(g, res.path)


def test_each_input_is_sorted_once(monkeypatch):
    """``build`` sorts the input's endpoints once, and the solve reuses that
    order; after it, a solve by the reductions route sorts only the two
    small graphs the reductions make, G# and the special graph, and a
    certified solve sorts nothing. The sentinels extend the semi-proper
    order."""
    records = generate(GeneratorSpec(kind="planted", n=2000, k=3, seed=4)).records()
    calls = []
    real = intervals.token_order

    def counting(left, right):
        calls.append(len(left))
        return real(left, right)

    monkeypatch.setattr(intervals, "token_order", counting)
    g = build(records)
    assert calls == [len(records)]
    del calls[:]
    res = longest_path(g)
    assert res.stats["route"] == "certified" and calls == []
    res = longest_path_by_reductions(g)
    solve_calls = calls[:]
    assert is_path(g, res.path)
    st = run_stages(g)
    assert solve_calls == [st.stage1.g_sharp.n, st.special.graph.n]
    assert max(solve_calls) < len(records) // 10, solve_calls
    assert st.widened.endpoint_order()[2:-2] == st.semi.endpoint_order()


def test_only_small_graphs_build_a_name_index(monkeypatch):
    """The input's name index comes from its duplicate-name check; the
    normalized and semi-proper graphs share it and the widened graph looks
    names up through it, so inside a solve by the reductions route only
    graphs no larger than G# or the special graph build one, and a certified
    solve builds none."""
    g = generate(GeneratorSpec(kind="planted", n=2000, k=3, seed=4))
    st = run_stages(g)
    limit = max(st.stage1.g_sharp.n, st.special.graph.n)
    assert limit < g.n // 10
    sizes = []
    real = intervals.name_index

    def counting(names):
        sizes.append(len(names))
        return real(names)

    monkeypatch.setattr(intervals, "name_index", counting)
    res = longest_path(g)
    assert res.stats["route"] == "certified" and sizes == []
    res = longest_path_by_reductions(g)
    assert is_path(g, res.path)
    assert sizes and max(sizes) <= limit, sizes


def test_final_check_rejects_a_lift_that_is_not_a_path(monkeypatch):
    g = build([("a", 1, 4, 1), ("b", 3, 6, 1), ("c", 5, 8, 1), ("d", 7, 10, 1)])
    lift = pipeline.lift_stage1

    def swap_first_and_third(path, stage1):
        out = lift(path, stage1)
        assert not g.adjacent(g.by_name(out[0]), g.by_name(out[2]))
        out[0], out[2] = out[2], out[0]
        return out

    monkeypatch.setattr(pipeline, "lift_stage1", swap_first_and_third)
    with pytest.raises(LiftFailure):
        longest_path_by_reductions(g)


SOLVER_MODULES = ("intervals", "semiproper", "claws", "reduce1", "reduce2", "dp", "paths", "pipeline")


def test_solver_modules_hold_only_what_runs():
    """Every top-level function and class of a solver module is used in the
    package outside its own definition (as a name, an attribute or an
    imported name) or exported in ``__all__``; checkers only tests call live
    in ``tests/helpers.py``. An import counts as a use, so this cannot see
    one kept only for the benchmark: ``pipeline``'s ``intermediate_graphs``."""
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(intervalpath.__file__).parent.glob("*.py")}
    used = {}  # name -> the top-level statements, as (module, index), that use it
    for mod, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, ast.alias):
                    name = node.name
                used.setdefault(name, set()).add((mod, i))
    unused = [
        f"{mod}.{stmt.name}"
        for mod in SOLVER_MODULES
        for i, stmt in enumerate(trees[mod].body)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in intervalpath.__all__
        and not used.get(stmt.name, set()) - {(mod, i)}
    ]
    assert not unused, unused


def test_a_hamiltonian_largest_component_before_a_claw_is_certified():
    """Path components of 4 and then 5 vertices, and a claw as large as the
    first: the walk certifies the 5-path and never walks the claw."""
    path4 = [("a", 1, 4, 1), ("b", 3, 6, 1), ("c", 5, 8, 1), ("d", 7, 10, 1)]
    path5 = [(f"p{i}", 40 + 3 * i, 44 + 3 * i, 1) for i in range(5)]
    claw = [("u", 20, 30, 1), ("x", 21, 22, 1), ("y", 24, 25, 1), ("z", 27, 28, 1)]
    late_claw = [(nm, l + 60, r + 60, w) for nm, l, r, w in claw]
    for records, want in ((path4 + claw, 4), (path4 + path5 + late_claw, 5)):
        g = build(records)
        res = longest_path(g)
        assert res.stats["route"] == "certified"
        assert res.length == want == brute_longest_path(g)[0]
        assert is_path(g, res.path)
        assert longest_path_by_reductions(g).length == want


def test_a_claw_before_a_larger_hamiltonian_component_takes_the_reductions_route():
    claw = [("u", 1, 11, 1), ("x", 2, 3, 1), ("y", 5, 6, 1), ("z", 8, 9, 1)]
    path5 = [(f"p{i}", 20 + 3 * i, 24 + 3 * i, 1) for i in range(5)]
    g = build(claw + path5)
    res = longest_path(g)
    assert res.stats["route"] == "reductions"
    assert res.length == 5 == brute_longest_path(g)[0]
    assert is_path(g, res.path)


def test_nested_pairs_take_the_certified_route():
    """Twenty longs over the same twenty shorts: Hamiltonian, so the walk
    certifies the whole graph, and the reductions route agrees."""
    g = nested_pairs(20)
    res = longest_path(g)
    assert res.stats["route"] == "certified"
    assert res.length == 40 == g.n
    assert is_path(g, res.path)
    assert longest_path_by_reductions(g).length == 40


@pytest.mark.parametrize(
    "make, route",
    [
        (lambda: generate(GeneratorSpec(kind="planted", n=2000, k=3, seed=4)), "certified"),
        (lambda: generate(GeneratorSpec(kind="random", n=48, seed=5)), "certified"),
        (lambda: generate(GeneratorSpec(kind="random", n=300, seed=1)), "certified"),
        (lambda: small_combs(4)[-1], "reductions"),
    ],
    ids=["planted2000", "dense48", "random300", "comb"],
)
def test_a_certified_solve_builds_no_semi_proper_graph(make, route, monkeypatch):
    """The walk reads the input as parsed: a certified solve neither
    normalizes it nor makes it semi-proper. A solve by the reductions route
    makes it semi-proper once and normalizes it never."""
    g = make()
    calls = []
    for name in ("make_semi_proper", "normalize_endpoints"):

        def counted(graph, real=getattr(pipeline, name), name=name):
            calls.append(name)
            return real(graph)

        monkeypatch.setattr(pipeline, name, counted)
    res = longest_path(g)
    assert res.stats["route"] == route
    assert res.length == len(res.path) and is_path(g, res.path)
    if route == "certified":
        assert calls == [] and res.length == g.n
    else:
        assert calls == ["make_semi_proper"]


@pytest.mark.parametrize("solve", [longest_path, longest_path_by_reductions])
def test_an_empty_input_is_solved_end_to_end(solve):
    """The walk finds nothing to walk, so both entry points take the
    reductions route: the semi-proper graph is the input itself, and the
    special graph holds only the two sentinels."""
    g = build([])
    assert run_stages(g).semi is g
    res = solve(g)
    assert (res.length, res.path, res.stats["route"]) == (0, [], "reductions")
    assert res.stats["n"] == res.stats["m"] == res.stats["d_size"] == 0
    assert res.stats["b_size"] == 2


def test_a_single_vertex_input_is_certified():
    res = longest_path(build([("a", 1, 2)]))
    assert (res.length, res.path, res.stats["route"]) == (1, ["a"], "certified")


def test_certified_stats():
    res = longest_path(generate(GeneratorSpec(kind="planted", n=200, k=3, seed=1)))
    s = res.stats
    assert s["route"] == "certified" and res.length == s["n"] == 203
    assert [s[k] for k in ("d_size", "d_approx", "kappa", "b_size", "dp_entries")] == [None] * 5
    assert [s[k] for k in ("t_reduce1_ns", "t_reduce2_ns", "t_dp_ns", "t_lift_ns")] == [0] * 4
    assert s["t_preprocess_ns"] > 0


def test_final_check_rejects_a_certified_walk_that_is_not_a_path(monkeypatch):
    g = build([("a", 1, 4, 1), ("b", 3, 6, 1), ("c", 5, 8, 1), ("d", 7, 10, 1)])
    walk = pipeline.greedy_walk

    def swap_first_and_third(semi):
        out = walk(semi)
        out[0], out[2] = out[2], out[0]
        return out

    monkeypatch.setattr(pipeline, "greedy_walk", swap_first_and_third)
    with pytest.raises(LiftFailure, match="certified"):
        longest_path(g)
