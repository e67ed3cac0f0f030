import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    _latest_opened,
    heavy_tailed,
    is_semi_proper,
    reference_approx_deletion_set,
    reference_claw_leaves,
    reference_prune_deletion_set,
    reference_semi_proper,
    small_combs,
)
from intervalpath.claws import approx_deletion_set, prune_deletion_set
from intervalpath.generators import GeneratorSpec, generate
from intervalpath.intervals import build, nesting, normalize_endpoints, span_extremes
from intervalpath.pipeline import longest_path
from intervalpath.semiproper import make_semi_proper


def edge_set(g):
    return {
        frozenset((g.names[u], g.names[v]))
        for u in range(g.n)
        for v in g.neighbors(u)
        if u < v
    }


def containments(g):
    return {
        (g.names[u], g.names[v])
        for u in range(g.n)
        for v in range(g.n)
        if u != v and g.contains_interval(u, v)
    }


def test_proper_input_unchanged(path3):
    out = make_semi_proper(path3)
    assert out.records() == normalize_endpoints(path3).records()


def test_claw4_containment_survives(claw4):
    out = make_semi_proper(claw4)
    assert edge_set(out) == edge_set(claw4)
    assert ("u", "v2") in containments(out)
    assert is_semi_proper(out)


def test_nest3_stretches_the_nested_interval(nest3):
    """u swallows v but {u,v} sits in no claw, so v must be stretched out."""
    assert containments(nest3) == {("u", "v")}
    out = make_semi_proper(nest3)
    assert containments(out) == set()
    assert edge_set(out) == {frozenset(("u", "v")), frozenset(("u", "z"))}
    assert is_semi_proper(out)


def test_is_semi_proper_frozen(path3, claw4, nest3):
    assert is_semi_proper(path3)
    assert is_semi_proper(claw4)
    assert not is_semi_proper(nest3)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 14))
def test_edge_set_preserved_and_output_semi_proper(seed, n):
    g = generate(GeneratorSpec(kind="random", n=n, seed=seed))
    out = make_semi_proper(g)
    assert edge_set(out) == edge_set(g)
    assert is_semi_proper(out)


def test_every_surviving_containment_has_a_claw(claw4):
    out = make_semi_proper(claw4)
    alive = [True] * out.n
    for u, v in containments(out):
        assert reference_claw_leaves(out, out.by_name(u), alive) is not None


def test_outer_center_moves_ends_an_inner_center_moved():
    """A and B, inside U, stretch a left and f right; U then stretches A and a
    past l_U and B and f past r_U, so its head and tail rewrites start from
    positions the inner centers changed."""
    g = build(
        [
            ("U", 0, 100, 1),
            ("A", 10, 40, 1),  # z1(A) = a, which moves before l_A
            ("a", 20, 25, 1),  # z1(U)
            ("b", 30, 50, 1),
            ("B", 60, 90, 1),  # z2(B) = c, so f moves past r_B
            ("e", 55, 65, 1),
            ("f", 80, 85, 1),
            ("c", 84, 110, 1),  # z2(U)
        ]
    )
    out = make_semi_proper(g)
    assert out.records() == reference_semi_proper(g).records()
    assert containments(out) == {("U", "b"), ("U", "e")}
    assert [out.names[t >> 1] + "lr"[t & 1] for t in out.endpoint_order()] == [
        "al", "Al", "Ul", "ar", "bl", "Ar", "br", "el", "Bl", "er",
        "fl", "cl", "Ur", "Br", "fr", "cr",
    ]


def _reference_cases():
    cases = [generate(GeneratorSpec(kind="random", n=n, seed=7 * n)) for n in range(1, 61)]
    cases += [heavy_tailed(6 + s % 35, 300 + s) for s in range(200)]
    cases += [
        generate(GeneratorSpec(kind="planted", n=n, k=k, seed=n + k))
        for n in (200, 300, 400, 500, 600)
        for k in range(1, 6)
    ]
    return cases + small_combs(4)


def test_front_end_matches_the_reference():
    """The sweep-based semi-proper graph, greedy claws and pruning equal the
    neighbor-list reference exactly, on raw and normalized inputs."""
    for g in _reference_cases():
        for h in (g, normalize_endpoints(g)):
            semi = make_semi_proper(h)
            assert semi.records() == reference_semi_proper(h).records()
            greedy = approx_deletion_set(semi)
            assert greedy == reference_approx_deletion_set(semi)
            assert prune_deletion_set(semi, greedy) == reference_prune_deletion_set(
                semi, greedy
            )


@pytest.mark.parametrize(
    "make",
    [
        lambda s: generate(GeneratorSpec(kind="planted", n=290 + s, k=1 + s % 5, seed=s)),
        lambda s: heavy_tailed(15 + 5 * (s % 6), 40 + s),
    ],
    ids=["planted", "heavy_tailed"],
)
def test_larger_inputs_keep_edges_and_become_semi_proper(make):
    for s in range(12):
        g = make(s)
        out = make_semi_proper(g)
        assert edge_set(out) == edge_set(g)
        assert is_semi_proper(out)


def _assert_extremes_match_the_sweeps(g):
    """Per input-nesting center, the span scan gives the (z1, z2) of the two
    full-order sweeps; with a left and a right end inside the span, it
    never needs the sweeps' fallback to an interval covering u's end."""
    order, pos = g.endpoint_order(), g.endpoint_positions()
    z1 = _latest_opened(reversed(order), 1, g.n)
    z2 = _latest_opened(order, 0, g.n)
    alive = [True] * g.n
    for u, nests in enumerate(nesting(order, pos)):
        if nests:
            assert span_extremes(order, pos, u, alive) == (z1[u], z2[u])


def test_center_extremes_match_the_full_order_sweeps():
    for g in _reference_cases() + [heavy_tailed(n, n) for n in (200, 500, 1000)]:
        _assert_extremes_match_the_sweeps(g)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 20))
def test_center_extremes_match_the_full_order_sweeps_small(seed, n):
    _assert_extremes_match_the_sweeps(generate(GeneratorSpec(kind="random", n=n, seed=seed)))


def test_greedy_flags_cover_the_output_nesting():
    """The flags the greedy filters its centers by cover the input's nesting,
    and stretching creates no containment (fact 3): the output's nesting
    implies the input's, so the flags cover every output interval that
    contains another and the filter skips no claw center."""
    for g in _reference_cases():
        h = normalize_endpoints(g)
        before = nesting(h.endpoint_order(), h.endpoint_positions())
        semi = make_semi_proper(h)
        flags = semi.nest_flags()
        after = nesting(semi.endpoint_order(), semi.endpoint_positions())
        assert all(f or not b for f, b in zip(flags, before))
        assert all(f or not a for f, a in zip(flags, after))
        assert all(b or not a for a, b in zip(after, before))


def test_nesting_runs_only_on_a_reductions_solve(monkeypatch):
    """A certified solve walks the input and never sweeps for nests; a solve
    by the reductions route sweeps once, in the semi-proper stage."""
    calls = []

    def counted(order, pos):
        calls.append(len(order))
        return nesting(order, pos)

    patched = []
    for name, mod in list(sys.modules.items()):
        if name.startswith("intervalpath") and getattr(mod, "nesting", None) is nesting:
            monkeypatch.setattr(mod, "nesting", counted)
            patched.append(name)
    assert "intervalpath.intervals" in patched
    graphs = [
        generate(GeneratorSpec(kind="planted", n=300, k=3, seed=1)),
        heavy_tailed(60, 5),
        *small_combs(2),
    ]
    routes = set()
    for g in graphs:
        calls.clear()
        route = longest_path(g).stats["route"]
        routes.add(route)
        assert calls == ([] if route == "certified" else [2 * g.n]), route
    assert routes == {"certified", "reductions"}
