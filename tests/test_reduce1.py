import pytest

from helpers import heavy_tailed, is_reducible, named, small_combs, total_weight
from intervalpath.claws import add_dummies, approx_deletion_set
from intervalpath.errors import MissingDummies
from intervalpath.generators import GeneratorSpec, generate
from intervalpath.intervals import normalize_endpoints
from intervalpath.oracle import brute_longest_path, brute_max_weight_path
from intervalpath.pipeline import run_stages
from intervalpath.reduce1 import apply_rule1, compute_stage1_families
from intervalpath.semiproper import make_semi_proper


def star_cells(graph, fam, marked):
    """U* and U** per cell of ``fam.Li``, from their definitions.

    U* is the free vertices whose interval crosses no deletion right, each
    in the cell holding its right end. U** keeps the vertices of a cell whose
    left end lies above the running waterline: the row's lower deletion
    right, raised to the largest right end of U* in the row's earlier cells.
    Both map cell keys to vertices in right-endpoint order.
    """
    d_rights = [graph.right[d] for d in marked]
    free = [v for v in graph.sigma if v not in marked]
    u_star, u_2star = {}, {}
    for i, pts in fam.Li.items():
        waterline = pts[0]
        for x in range(1, len(pts)):
            cell = [
                v
                for v in free
                if pts[x - 1] < graph.right[v] < pts[x]
                and not any(graph.left[v] < d < graph.right[v] for d in d_rights)
            ]
            u_star[(i, x)] = tuple(cell)
            u_2star[(i, x)] = tuple(v for v in cell if graph.left[v] > waterline)
            waterline = max([waterline] + [graph.right[v] for v in cell])
    return u_star, u_2star


def overlapping_runs(graph, vertices):
    """Split vertices (in right-endpoint order) where an interval misses the previous."""
    runs = []
    for v in vertices:
        if runs and graph.left[v] < graph.right[runs[-1][-1]]:
            runs[-1].append(v)
        else:
            runs.append([v])
    return tuple(map(tuple, runs))


def names_of_runs(graph, runs):
    return tuple(tuple(graph.names[v] for v in run) for run in runs)


def front(graph):
    """Normalize, make semi-proper, grab the deletion set, add sentinels."""
    semi = make_semi_proper(normalize_endpoints(graph))
    deletion = approx_deletion_set(semi)
    return add_dummies(semi, deletion)


def test_is_reducible_frozen(path3, claw4):
    g, _ = front(path3)
    assert is_reducible(g, ["a", "b", "c"])
    assert not is_reducible(claw4, ["v1", "v2"])
    assert is_reducible(claw4, ["v2"])


def test_is_reducible_rejects_span_strays(claw4):
    # u's interval straddles the span of {v1}; only intervals inside the
    # span matter, so {v1} alone is still fine while {v1, u} is connected
    # but swallows v2's interval without containing the vertex.
    assert is_reducible(claw4, ["v1"])
    assert not is_reducible(claw4, ["v1", "u"])


def test_families_require_dummies(path3):
    d = approx_deletion_set(path3)
    with pytest.raises(MissingDummies):
        compute_stage1_families(path3, d)


def test_families_path3_hand_trace(path3):
    g, d = front(path3)
    fam = compute_stage1_families(g, d)
    li, hi_i = d.dummies
    # the deletion lefts: d0's lies before row 1, d1's splits it
    assert g.left[li] < fam.Li[1][0] < g.left[hi_i] < fam.Li[1][-1]
    assert {pts[0] for pts in fam.Li.values()} | {
        pts[-1] for pts in fam.Li.values()
    } == {g.right[li], g.right[hi_i]}
    assert named(g, fam.U) == {"a", "b", "c"}
    assert list(fam.Li) == [1]
    assert fam.Li[1] == (g.right[li], g.left[hi_i], g.right[hi_i])
    assert len(fam.Li[1]) - 1 == 2
    assert fam.p_total() == 2
    u_star, u_2star = star_cells(g, fam, d.marked)
    assert set(u_star) == {(1, 1), (1, 2)}
    assert names_of_runs(g, [u_star[(1, 1)]]) == (("a", "b", "c"),)
    assert u_star[(1, 2)] == ()
    assert u_2star[(1, 1)] == u_star[(1, 1)]
    assert set(fam.components) == {(1, 1), (1, 2)}
    assert names_of_runs(g, fam.components[(1, 1)]) == (("a", "b", "c"),)
    assert fam.components[(1, 2)] == ()
    assert names_of_runs(g, fam.S1) == (("a", "b", "c"),)


def test_families_claw4_all_marked(claw4):
    g, d = front(claw4)
    fam = compute_stage1_families(g, d)
    assert fam.U == ()
    assert fam.S1 == ()
    assert fam.p_total() == 2 * (len(d.marked) - 1)


def test_apply_rule1_path3(path3):
    g, d = front(path3)
    fam = compute_stage1_families(g, d)
    out = apply_rule1(g, fam)
    assert out.A == {"a1"}
    assert out.U_sharp == set()
    assert list(out.back_map) == ["a1"]
    assert names_of_runs(g, out.back_map.values()) == (("a", "b", "c"),)
    assert out.graph is g
    got = {nm: (l, r, w) for nm, l, r, w in out.g_sharp.records()}
    lo, hi = d.dummies
    assert got[g.names[lo]] == (1, 2, 0)
    assert got[g.names[hi]] == (5, 6, 0)
    assert got["a1"] == (3, 4, 3)


def test_apply_rule1_empty_family_is_identity(claw4):
    g, d = front(claw4)
    fam = compute_stage1_families(g, d)
    out = apply_rule1(g, fam)
    assert out.A == frozenset()
    assert out.U_sharp == frozenset()
    assert out.g_sharp.records() == normalize_endpoints(g).records()


@pytest.mark.parametrize("seed", range(30))
def test_families_invariants_random(seed):
    g = generate(GeneratorSpec(kind="random", n=1 + seed % 12, seed=seed * 31 + 5))
    assert_families_match_definitions(run_stages(g))


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(
            generate(GeneratorSpec(kind="random", n=13 + 2 * s, seed=s)),
            id=f"random{s}",
        )
        for s in range(24)
    ]
    + [pytest.param(heavy_tailed(30 + s, s), id=f"heavy_tailed{s}") for s in range(6)],
)
def test_families_match_definitions_on_larger_inputs(graph):
    assert_families_match_definitions(run_stages(graph))


def assert_families_match_definitions(st):
    """Grid, free vertices and runs against their definitions on ``widened``."""
    widened, marked = st.widened, st.deletion.marked
    fam = st.stage1.families
    k = len(marked) - 2
    assert fam.p_total() == 2 * (k + 1)
    d_rights = {widened.right[d] for d in marked}
    for i in fam.Li:
        pts = fam.Li[i]
        assert pts[0] in d_rights and pts[-1] in d_rights
        assert list(pts) == sorted(pts)
    assert fam.D == marked
    assert fam.U == tuple(v for v in widened.sigma if v not in marked)
    u_star, u_2star = star_cells(widened, fam, marked)
    assert set(fam.components) == set(u_star)
    cells_union = set()
    for (i, x), members in u_star.items():
        assert not (set(members) & cells_union)
        cells_union |= set(members)
        assert set(u_2star[(i, x)]) <= set(members)
        assert fam.components[(i, x)] == overlapping_runs(widened, u_2star[(i, x)])
        for comp in fam.components[(i, x)]:
            assert set(comp) <= set(members)
            for v in comp:
                r = widened.right[v]
                assert fam.Li[i][x - 1] < r < fam.Li[i][x]
    assert cells_union <= set(fam.U)
    assert fam.S1 == tuple(
        comp for key in sorted(fam.components) for comp in fam.components[key]
    )
    for s in fam.S1:
        assert is_reducible(widened, [widened.names[v] for v in s])
    spans = []
    for s in fam.S1:
        lo = min(widened.left[v] for v in s)
        hi = max(widened.right[v] for v in s)
        for lo2, hi2 in spans:
            assert hi < lo2 or hi2 < lo
        spans.append((lo, hi))


@pytest.mark.parametrize("seed", range(30))
def test_rule1_invariants_random(seed):
    g = generate(GeneratorSpec(kind="random", n=1 + seed % 12, seed=seed * 17 + 3))
    st = run_stages(g)
    stage1, gs = st.stage1, st.stage1.g_sharp
    assert total_weight(gs, gs.names) == total_weight(st.widened, st.widened.names)
    a_idx = [gs.by_name(nm) for nm in stage1.A]
    for i, u in enumerate(a_idx):
        assert gs.weight[u] == len(stage1.back_map[gs.names[u]])
        for v in a_idx[i + 1 :]:
            assert not gs.adjacent(u, v)
        for v in range(gs.n):
            if v != u:
                assert not gs.contains_interval(u, v)
    marked = named(st.widened, st.deletion.marked)
    assert set(gs.names) == marked | stage1.A | stage1.U_sharp
    assert not (marked & stage1.U_sharp)


@pytest.mark.parametrize("seed", range(25))
def test_rule1_preserves_best_weight(seed):
    g = generate(GeneratorSpec(kind="random", n=1 + seed % 12, seed=seed * 7 + 11))
    stage1 = run_stages(g).stage1
    want, _ = brute_longest_path(g)
    assert brute_max_weight_path(stage1.g_sharp) == want


@pytest.mark.parametrize("seed", range(20))
def test_all_or_none_on_best_paths(seed):
    g = generate(GeneratorSpec(kind="random", n=4 + seed % 9, seed=seed * 5 + 1))
    st = run_stages(g)
    _, best = brute_longest_path(st.widened)
    on_path = set(best)
    for s in st.stage1.families.S1:
        s = named(st.widened, s)
        inter = s & on_path
        assert inter == set(s) or inter == set()


def test_a_cluster_spans_from_its_first_left_end_to_its_last_right_end():
    """No member of a cluster contains another, so in right-end order the
    first member has the lowest left end and the last the highest right end,
    the span ``swap_spans`` reads off them. The same holds for rule 2's bins
    in G#."""
    graphs = [generate(GeneratorSpec(kind="random", n=10 + s % 50, seed=900 + s)) for s in range(40)]
    graphs += [heavy_tailed(30 + 10 * s, 60 + s) for s in range(8)]
    graphs += [generate(GeneratorSpec(kind="planted", n=300 + 100 * s, k=2 + s % 3, seed=s)) for s in range(6)]
    graphs += small_combs(4)
    clusters = bins = 0
    for g in graphs:
        st = run_stages(g)
        left, right = st.widened.left, st.widened.right
        for comp in st.stage1.families.S1:
            assert min(left[v] for v in comp) == left[comp[0]]
            assert max(right[v] for v in comp) == right[comp[-1]]
            clusters += len(comp) > 1
        gs = st.stage1.g_sharp
        for grp in st.special.groups:
            idx = [gs.by_name(nm) for nm in grp.members]
            assert min(gs.left[v] for v in idx) == gs.left[idx[0]]
            assert max(gs.right[v] for v in idx) == gs.right[idx[-1]]
            bins += len(idx) > 1
    assert clusters > 100
    assert bins > 100
