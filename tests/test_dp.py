import gc
import weakref
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from helpers import (
    PiTable,
    PrefixMaxTable,
    all_simple_paths,
    heavy_tailed,
    is_normal_path,
    reference_max_weight_path,
    small_combs,
    split3_special,
    subgraph_contains,
    total_weight,
    undominated_tails,
)
from intervalpath.dp import (
    DpTable,
    max_weight_path,
    reconstruct,
    split_grid,
    split_points,
)
from intervalpath.errors import CorruptParentChain, InvalidSpecialPartition
from intervalpath.generators import GeneratorSpec, Lcg, generate
from intervalpath.intervals import build
from intervalpath.oracle import brute_max_weight_path
from intervalpath.pipeline import run_stages
from intervalpath.reduce2 import SpecialWeightedIntervalGraph


def special_of(records, a_names, kappa=None):
    """Special graph on the records plus a start vertex v0 below them all."""
    lo = min((rec[1] for rec in records), default=0)
    g = build([("v0", lo - 2, lo - 1, 0), *records])
    a = frozenset(a_names)
    b = frozenset(g.names) - a
    return SpecialWeightedIntervalGraph(
        graph=g, A=a, B=b, kappa=len(b) if kappa is None else kappa, v0="v0"
    )


def test_single_vertex():
    sp = special_of([("x", 0, 1, 5)], [])
    res = max_weight_path(sp)
    assert res.weight == 5
    assert res.path == ["x"]


def test_empty_graph_gets_only_the_seed_vertex():
    sp = special_of([], [])
    res = max_weight_path(sp)
    assert res.weight == 0
    assert res.path == []


def test_path3_pipeline_value(path3):
    sp = run_stages(path3).special
    res = max_weight_path(sp)
    assert res.weight == 3
    assert res.path == ["a1"]


def test_split3():
    res = max_weight_path(split3_special())
    assert res.weight == 5
    assert res.path == ["a1", "b", "a2"]


def test_table_is_freed_without_the_cyclic_collector():
    gc.disable()
    try:
        res = max_weight_path(split3_special())
        table = weakref.ref(res.table)
        del res
        assert table() is None
    finally:
        gc.enable()


def test_reconstruct_replays_chains_longer_than_the_recursion_limit():
    n = 3000
    g = build([(f"v{i}", 2 * i, 2 * i + 3, 1) for i in range(n)])
    table = DpTable(graph=g, Xi=(0,), W={}, parent={})
    table.W[0, 0, 0] = 1
    table.parent[0, 0, 0] = ("INIT",)
    for v in range(1, n):
        table.W[0, v, v] = v + 1
        table.parent[0, v, v] = ("SELF_APPEND", v - 1, v - 1)
    assert reconstruct(table, (0, n - 1, n - 1)) == [f"v{i}" for i in range(n)]


@pytest.mark.parametrize(
    "W, parent, message",
    [
        ({}, {}, r"no entry for \(0, 1, 0\)"),
        ({(0, 1, 0): 1}, {(0, 1, 0): ("COPY", 0)}, r"no provenance for \(0, 0, 0\)"),
        ({(0, 1, 0): 1}, {(0, 1, 0): ("BOGUS",)}, "unknown case 'BOGUS'"),
    ],
    ids=["missing-root", "dangling-copy", "unknown-tag"],
)
def test_reconstruct_rejects_corrupt_parent_chains(W, parent, message):
    table = DpTable(graph=build([("x", 0, 2, 1), ("y", 1, 3, 1)]), Xi=(0,), W=W, parent=parent)
    with pytest.raises(CorruptParentChain, match=message):
        reconstruct(table, (0, 1, 0))


def test_subgraph_contains_boundaries():
    g = build([("x", 2, 5, 1), ("y", 3, 8, 1)])
    assert subgraph_contains(g, 2, "x", "x")
    assert not subgraph_contains(g, 3, "x", "x")
    assert subgraph_contains(g, 0, "y", "x")
    assert not subgraph_contains(g, 0, "x", "y")


@pytest.mark.parametrize(
    "tails, kept",
    [
        ([(0, 9, 3), (1, 2, 4)], [(1, 2, 4)]),
        ([(1, 3, 3), (2, 4, 4)], [(2, 4, 4)]),
        ([(1, 4, 3), (1, 4, 4), (1, 3, 5)], [(1, 4, 3)]),
        ([(1, 4, 3), (2, 4, 4)], [(1, 4, 3), (2, 4, 4)]),
    ],
    ids=["cut-zero", "later-larger", "earlier-same-cut", "equal-at-larger-cut-kept"],
)
def test_undominated_tails_rules(tails, kept):
    assert undominated_tails(tails) == kept


def test_undominated_tails_match_their_definition():
    lcg = Lcg(8)
    for _ in range(300):
        cuts = sorted(lcg.randrange(4) for _ in range(lcg.randrange(8)))
        tails = [(c, lcg.randrange(5), z) for z, c in enumerate(cuts)]
        want = [
            (c, t, z)
            for c, t, z in tails
            if c > 0
            and not any(t2 > t for _, t2, z2 in tails if z2 > z)
            and not any(c2 == c and t2 >= t for c2, t2, z2 in tails if z2 < z)
        ]
        assert undominated_tails(tails) == want


def dependent_names(sp, dependent):
    return {nm for nm, dep in zip(sp.graph.names, dependent) if dep}


def test_split_grid_split3():
    sp = split3_special()
    dependent, Xi = split_grid(sp)
    assert dependent_names(sp, dependent) == {"b", "v0"}
    assert Xi == (-2, 0, 1)


def test_split_grid_outside_a_keeps_own_left():
    sp = special_of([("a1", 0, 2, 2), ("b", 3, 10, 1)], ["a1"])
    dependent, Xi = split_grid(sp)
    assert dependent_names(sp, dependent) == {"b", "v0"}
    assert Xi == (-2, 3)


def test_xi_size_bound_random():
    """Xi is its definition: each dependent vertex's left end, plus the left
    end of the independent interval covering it, if any."""
    for sp in golden_specials():
        g = sp.graph
        dependent, Xi = split_grid(sp)
        assert dependent_names(sp, dependent) == sp.B
        want = set()
        for v in map(g.by_name, sp.B):
            covering = [a for a in map(g.by_name, sp.A) if g.left[a] < g.left[v] < g.right[a]]
            assert len(covering) <= 1
            want.update(g.left[u] for u in [v, *covering])
        assert Xi == tuple(sorted(want))
        assert len(Xi) <= 2 * len(sp.B)


def test_pi_table_matches_definition():
    lcg = Lcg(7)
    for _ in range(30):
        sp = random_special(lcg)
        g = sp.graph
        b_idx = {g.by_name(nm) for nm in sp.B}
        pit = PiTable(g, b_idx)
        for u in range(g.n):
            for v in g.neighbors(u):
                if g.rank[u] >= g.rank[v]:
                    continue
                want = u
                for w in g.neighbors(u):
                    if w in b_idx and g.rank[u] < g.rank[w] < g.rank[v]:
                        if g.rank[w] > g.rank[want]:
                            want = w
                assert pit.lookup(u, v) == want


def test_prefix_max_table():
    rights = [2, 4, 6, 8]
    vals = [Fraction(1), None, Fraction(5), Fraction(3)]
    t = PrefixMaxTable(rights, vals, list(range(4)))
    assert t.omega(2) is None
    assert t.omega(3) == (Fraction(1), 0)
    assert t.omega(6) == (Fraction(1), 0)
    assert t.omega(7) == (Fraction(5), 2)
    assert t.omega(100) == (Fraction(5), 2)


def test_prefix_max_recurrence():
    """Against a from-scratch max over everything strictly below the cut."""
    lcg = Lcg(31)
    for _ in range(50):
        m = 1 + lcg.randrange(8)
        rights = sorted(lcg.randrange(100) for _ in range(m))
        if len(set(rights)) != m:
            continue
        vals = [
            None if lcg.randrange(4) == 0 else Fraction(lcg.randrange(40), 1 + lcg.randrange(3))
            for _ in range(m)
        ]
        t = PrefixMaxTable(rights, vals, list(range(m)))
        for q in range(0, 101):
            seen = [v for r, v in zip(rights, vals) if r < q and v is not None]
            got = t.omega(q)
            assert (None if got is None else got[0]) == (max(seen) if seen else None)


def random_special(lcg):
    """Small special graph: disjoint heavy intervals plus free-form ones, all
    above the start vertex v0."""
    while True:
        na = lcg.randrange(4)
        nb = 1 + lcg.randrange(4)
        coords = list(range(1, 4 * (na + nb) + 1))
        lcg.shuffle(coords)
        recs = []
        pos = 0
        base = 1
        for i in range(na):
            width = 1 + lcg.randrange(3)
            recs.append((f"a{i}", base, base + width, Fraction(1 + lcg.randrange(6))))
            base += width + 1 + lcg.randrange(3)
        top = base + 8
        taken = {c for _, l, r, _ in recs for c in (l, r)}
        free = [c for c in range(0, top) if c not in taken]
        lcg.shuffle(free)
        for j in range(nb):
            if len(free) < 2:
                break
            l, r = free.pop(), free.pop()
            if l > r:
                l, r = r, l
            if l == r:
                continue
            recs.append((f"b{j}", l, r, Fraction(1 + lcg.randrange(8), 1 + lcg.randrange(2))))
        g = build([("v0", -2, -1, 0), *recs])
        a = frozenset(nm for nm in g.names if nm.startswith("a"))
        ok = True
        for v in range(g.n):
            for u in range(g.n):
                if u != v and g.names[u] in a and g.contains_interval(u, v):
                    ok = False
        for x in a:
            for y in a:
                if x != y and g.adjacent(g.by_name(x), g.by_name(y)):
                    ok = False
        if not ok or not recs:
            continue
        b = frozenset(g.names) - a
        return SpecialWeightedIntervalGraph(graph=g, A=a, B=b, kappa=len(b), v0="v0")


def test_dp_matches_brute_force_on_random_specials():
    lcg = Lcg(2024)
    for _ in range(60):
        sp = random_special(lcg)
        res = max_weight_path(sp)
        assert res.weight == brute_max_weight_path(sp.graph)
        assert total_weight(sp.graph, res.path) == res.weight


def test_dp_matches_brute_force_on_pipeline_specials():
    for seed in range(25):
        g = generate(GeneratorSpec(kind="random", n=1 + seed % 11, seed=seed * 11 + 2))
        sp = run_stages(g).special
        if sp.graph.n > 16:
            continue
        res = max_weight_path(sp)
        assert res.weight == brute_max_weight_path(sp.graph)


def test_every_table_entry_reconstructs_to_an_optimal_normal_path():
    lcg = Lcg(55)
    for _ in range(12):
        sp = random_special(lcg)
        res = max_weight_path(sp)
        table = res.table
        g = table.graph
        enum = all_simple_paths(g)
        for key, val in table.W.items():
            if val is None:
                continue
            pos, vi, y = key
            xi_coord = table.Xi[pos]
            p = reconstruct(table, key)
            assert is_normal_path(g, p)
            assert p[-1] == g.names[y]
            assert total_weight(g, p) == val
            for nm in p:
                assert subgraph_contains(g, xi_coord, g.names[vi], nm)
            best = max(
                (
                    sum((g.weight[v] for v in cand), Fraction(0))
                    for cand in enum
                    if cand[-1] == y
                    and all(
                        subgraph_contains(g, xi_coord, g.names[vi], g.names[v])
                        for v in cand
                    )
                    and is_normal_path(g, [g.names[v] for v in cand])
                ),
                default=None,
            )
            assert best == val


def leg_stand_ins(table):
    """{(v, y): stand-in} over the leg columns: sweeping v reads the column
    of that stand-in for y, and only that one."""
    cols = table.W._cols
    stand = {}
    for v, (earlier, stands, srcs, _) in table.parent._legs.items():
        for y, p, src in zip(earlier, stands, srcs):
            assert src is cols[p, y]
            stand[v, y] = p
    return stand


def test_reads_never_touch_later_vertices():
    lcg = Lcg(77)
    saw_any = False
    for _ in range(20):
        table = max_weight_path(random_special(lcg)).table
        rank = table.graph.rank
        stand = leg_stand_ins(table)
        saw_any = saw_any or bool(stand)
        for (reader, _), written in stand.items():
            assert rank[written] < rank[reader]
    assert saw_any


def test_reads_are_the_stand_ins_of_earlier_neighbors():
    """Every earlier neighbor y of v has a column (v, y), and its stand-in
    is pi(y, v), which ranks below v."""
    for sp in golden_specials():
        g = sp.graph
        pit = PiTable(g, {g.by_name(nm) for nm in sp.B})
        want = {
            (vi, y): pit.lookup(y, vi)
            for vi in g.sigma
            for y in g.neighbors(vi)
            if g.rank[y] < g.rank[vi]
        }
        stand = leg_stand_ins(max_weight_path(sp).table)
        assert stand == want
        assert all(g.rank[p] < g.rank[vi] for (vi, _), p in stand.items())


def test_dp_builds_no_neighbor_lists():
    lcg = Lcg(12)
    for _ in range(10):
        sp = random_special(lcg)
        max_weight_path(sp)
        assert sp.graph._nbrs is None


def golden_specials():
    """Special graphs for the DP against its reference: random small ones,
    pipeline outputs on heavy-tailed instances (up to n = 100) and small
    combs, and those of dense random instances at n = 40..56, the
    benchmark's range."""
    lcg = Lcg(404)
    specials = [random_special(lcg) for _ in range(60)]
    graphs = [heavy_tailed(6 + s % 30, 1000 + s) for s in range(100)]
    # and one large enough for thousands of TAIL and SPLIT wins
    graphs.append(heavy_tailed(100, 7))
    graphs += small_combs(3)
    graphs += [
        generate(GeneratorSpec(kind="random", n=40 + 8 * (s % 3), seed=700 + s))
        for s in range(10)
    ]
    # and the sizes between them
    graphs += [
        generate(GeneratorSpec(kind="random", n=44 + 8 * (s % 2), seed=720 + s))
        for s in range(8)
    ]
    return specials + [run_stages(g).special for g in graphs]


def test_dp_tables_equal_the_reference():
    for sp in golden_specials():
        got = max_weight_path(sp)
        want = reference_max_weight_path(sp)
        assert got.table.W == want.table.W
        assert got.table.parent == want.table.parent
        assert got.weight == want.weight
        assert got.path == want.path


def test_dp_columns_have_no_holes():
    for sp in golden_specials():
        table = max_weight_path(sp).table
        assert None not in table.W.values()
        assert None not in table.parent.values()


def test_copy_columns_share_their_stand_in():
    saw_shared = saw_write = False
    for sp in golden_specials():
        table = max_weight_path(sp).table
        g = table.graph
        pit = PiTable(g, {g.by_name(nm) for nm in sp.B})
        cols = table.W._cols
        for (v, y), col in cols.items():
            if v == y:
                continue
            p = pit.lookup(y, v)
            won = [pos for pos in range(len(col)) if table.parent[pos, v, y][0] != "COPY"]
            if g.left[y] < g.left[v]:
                assert not won
            else:
                saw_shared = saw_shared or not won
            assert (col is cols[p, y]) == (not won)
            for pos in won:
                saw_write = True
                assert table.W[pos, p, y] < col[pos]
    assert saw_shared and saw_write


def test_split_points_are_the_undominated_tails():
    """For every sweep vertex and nested leg y, the split points below l_y,
    with y's tails, are what ``undominated_tails`` keeps of all its tails."""
    saw = False
    for sp in [*golden_specials(), run_stages(heavy_tailed(150, 7)).special]:
        table = max_weight_path(sp).table
        g, xs, cols = table.graph, table.Xi, table.W._cols
        left, wt, sigma = g.left, g.weight, g.sigma
        rights = [g.right[v] for v in sigma]
        ends = [bisect_right(xs, left[v]) for v in range(g.n)]
        stand = leg_stand_ins(table)
        for i, vi in enumerate(sigma):
            lo = bisect_right(rights, left[vi], 0, i)
            zlo = ends[vi]
            nested = [y for y in sigma[lo:i] if left[y] > left[vi]]
            if not nested:
                continue
            points = split_points(xs, rights, lo, i, zlo, max(ends[y] for y in nested))
            zs = [z for _, z in points]
            for y in nested:
                src = cols[stand[vi, y], y]
                tails = [
                    (bisect_left(rights, xs[z], lo, i) - lo, wt[vi] + src[z], z)
                    for z in range(zlo, ends[y])
                ]
                got = [(c, wt[vi] + src[z], z) for c, z in points[: bisect_left(zs, ends[y])]]
                assert got == undominated_tails(tails)
                saw = saw or len(got) > 1
    assert saw


@pytest.mark.parametrize(
    "records",
    [
        # x ends below l_y but has left every row above its left end, where
        # a weak floor (-1) plus v_i and y would offer a TAIL heavier than y
        [("x", 0, 3, 1), ("vi", 2, 10, Fraction(201, 2)), ("y", 5, 8, 50)],
        # no leg ends below l_y: y's TAIL never has a leg, in any row
        [("x", 0, 4, 1), ("vi", 2, 10, 100), ("y", 3, 8, Fraction(7, 3))],
        # zero weights apart from the start vertex: equal rows and ties at 0
        [("z", 0, 3, 0), ("vi", 2, 10, 1), ("y", 4, 8, 0), ("u", 6, 12, 0)],
    ],
    ids=["dead-leg", "empty-cut", "zero-weights"],
)
def test_floor_and_copied_rows_on_crafted_specials(records):
    sp = special_of(records, [])
    got = max_weight_path(sp)
    want = reference_max_weight_path(sp)
    assert got.table.W == want.table.W
    assert got.table.parent == want.table.parent
    assert got.weight == want.weight == brute_max_weight_path(sp.graph)
    assert got.path == want.path


@pytest.mark.parametrize(
    "records, vi, y, tag, leg",
    [
        # the SPLIT x, vi, u, y is y's heaviest offer at ξ = 0 and weighs
        # exactly the COPY x, z, u, y: the bound run_v[tcut] + first tail
        # ties the COPY, and the column stays its stand-in's
        (
            [("x", 0, 4, 3), ("vi", 2, 20, 1), ("z", 3, 12, 1), ("u", 5, 7, 4), ("y", 6, 10, 2)],
            "vi", "y", "COPY", "z",
        ),
        # the TAIL x, vi, y (6) loses to the COPY t, u, y (7), but the SPLIT
        # x, vi, t, u, y (11) wins at l_t, whose cut (x) is below the TAIL's
        # (x, t): only a bound that counts the tails sees it
        (
            [("x", 0, 3, 3), ("vi", 2, 40, 1), ("t", 4, 11, 1), ("u", 10, 14, 4), ("y", 12, 20, 2)],
            "vi", "y", "SPLIT", "x",
        ),
        # vi has no nested leg, and at ξ = 0 the zero-weight y only ties x,
        # which it extends: the row's maximum is x's, the earliest leg
        (
            [("x", 0, 4, 2), ("y", 1, 5, 0), ("vi", 3, 7, 4)],
            "vi", "vi", "SELF_APPEND", "x",
        ),
    ],
    ids=["bound-ties-copy", "split-below-tail-cut", "legs-only-tie"],
)
def test_bound_and_legs_only_rows_on_crafted_specials(records, vi, y, tag, leg):
    sp = special_of(records, [])
    got = max_weight_path(sp)
    want = reference_max_weight_path(sp)
    assert got.table.W == want.table.W
    assert got.table.parent == want.table.parent
    assert got.weight == want.weight == brute_max_weight_path(sp.graph)
    assert got.path == want.path
    g = sp.graph
    # the row at ξ = 0, the left end of the first record
    par = got.table.parent[1, g.by_name(vi), g.by_name(y)]
    assert (par[0], g.names[par[1]]) == (tag, leg)


@pytest.mark.parametrize(
    "records, want",
    [
        # legs only: at v0's ξ the zero-weight z is the best leg, worth 0,
        # and a SELF_APPEND that only ties INIT does not win
        ([("z", 0, 3, 0), ("vi", 2, 10, 1)], {(0, "vi"): ("INIT",)}),
        # a nested leg y: x and x, y tie at v0's ξ, and x, the earlier leg,
        # is the SELF_APPEND; above l_x the best leg is y, worth 0
        (
            [("x", 0, 3, 1), ("vi", 1, 5, 2), ("y", 2, 4, 0)],
            {(0, "vi"): ("SELF_APPEND", "x"), (2, "vi"): ("INIT",)},
        ),
        # a and d tie below l_b and l_c: the TAIL of c and the SPLIT of b
        # take a, the earlier of the two
        (
            [("d", 0, 4, 0), ("vi", 1, 9, 2), ("a", 2, 3, 1), ("b", 5, 8, 0), ("c", 6, 7, 1)],
            {(0, "c"): ("TAIL", "a"), (0, "b"): ("SPLIT", "a")},
        ),
    ],
    ids=["zero-leg", "own-tie", "tail-and-split-ties"],
)
def test_own_entries_and_tied_legs_on_crafted_specials(records, want):
    sp = special_of(records, [])
    got = max_weight_path(sp)
    ref = reference_max_weight_path(sp)
    assert got.table.W == ref.table.W
    assert got.table.parent == ref.table.parent
    assert got.weight == ref.weight == brute_max_weight_path(sp.graph)
    assert got.path == ref.path
    g = sp.graph
    vi = g.by_name("vi")
    for (pos, y), (tag, *leg) in want.items():
        par = got.table.parent[pos, vi, g.by_name(y)]
        assert par[0] == tag
        assert [g.names[x] for x in par[1:2]] == leg


def test_a_win_is_written_again_in_a_run_of_equal_rows():
    """Some golden special has two equal rows in a row, both with a TAIL or
    SPLIT win: the DP computes the first and copies the second."""
    for sp in golden_specials():
        table = max_weight_path(sp).table
        cols = table.W._cols
        stand = leg_stand_ins(table)
        for v, y in stand:
            won = {}
            for pos in range(len(cols[v, y])):
                par = table.parent[pos, v, y]
                if par[0] in ("TAIL", "SPLIT"):
                    won[pos] = par
            legs = [cols[p, leg] for (w, leg), p in stand.items() if w == v]
            for pos in won:
                if pos - 1 in won:
                    rows = [
                        tuple(col[q] if q < len(col) else None for col in legs)
                        for q in (pos - 1, pos)
                    ]
                    if rows[0] == rows[1]:
                        assert won[pos] == won[pos - 1]
                        return
    pytest.fail("no TAIL or SPLIT win in a run of equal rows")


def test_a_tampered_value_has_no_parent():
    """A won slot of a leg column raised by 1 is heavier than every offer
    of its row, so no parent realizes it and replaying it raises."""
    table = max_weight_path(run_stages(heavy_tailed(100, 7)).special).table
    key = next(
        (pos, v, y)
        for (v, y), col in table.W._cols.items()
        if v != y
        for pos in range(len(col))
        if table.parent[pos, v, y][0] in ("TAIL", "SPLIT")
    )
    pos, v, y = key
    table.W._cols[v, y][pos] += 1
    with pytest.raises(CorruptParentChain, match="no offer realizes"):
        reconstruct(table, key)


def test_invalid_partitions_rejected():
    sp = special_of([("a1", 0, 3, 1), ("a2", 2, 5, 1)], ["a1", "a2"], kappa=3)
    with pytest.raises(InvalidSpecialPartition, match="independent side has an edge"):
        max_weight_path(sp)

    sp2 = special_of([("a1", 0, 9, 1), ("b1", 2, 5, 1)], ["a1"], kappa=3)
    with pytest.raises(InvalidSpecialPartition, match="nested inside the independent side"):
        max_weight_path(sp2)

    # v0 counts against the budget: three dependent vertices need kappa 3
    sp3 = special_of([("b1", 0, 1, 1), ("b2", 2, 3, 1)], [], kappa=2)
    with pytest.raises(InvalidSpecialPartition, match="exceeds its budget"):
        max_weight_path(sp3)
    assert max_weight_path(special_of([("b1", 0, 1, 1), ("b2", 2, 3, 1)], [], kappa=3)).weight == 1


@pytest.mark.parametrize(
    "records, v0, message",
    [
        ([("b1", 0, 3, 1)], None, "start vertex None is not on the dependent side"),
        ([("b1", 0, 3, 1)], "b9", "start vertex 'b9' is not on the dependent side"),
        ([("s", -2, -1, 1), ("b1", 0, 3, 1)], "s", "nonzero weight"),
        ([("s", -2, 1, 0), ("b1", 0, 3, 1)], "s", "does not end before every other interval"),
        ([("s", 5, 6, 0), ("b1", 0, 3, 1)], "s", "does not end before every other interval"),
    ],
    ids=["missing", "unknown", "weighted", "overlapping", "not-first"],
)
def test_invalid_start_vertex_rejected(records, v0, message):
    g = build(records)
    sp = SpecialWeightedIntervalGraph(
        graph=g, A=frozenset(), B=frozenset(g.names), kappa=g.n, v0=v0
    )
    with pytest.raises(InvalidSpecialPartition, match=message):
        max_weight_path(sp)
