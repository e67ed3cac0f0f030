import random
from fractions import Fraction

import pytest

from helpers import (
    CountingList,
    heavy_tailed,
    is_normal_path,
    nested_pairs,
    path_sets,
    reference_normalize_path,
    reference_walk,
    small_combs,
)
from intervalpath.errors import InvalidPath, NormalizationFailed
from intervalpath.generators import GeneratorSpec, generate
from intervalpath.intervals import build, normalize_endpoints
from intervalpath.oracle import brute_longest_path
from intervalpath.paths import greedy_walk, is_path, normalize_path
from intervalpath.pipeline import longest_path
from intervalpath.semiproper import make_semi_proper


def test_is_path(path3):
    assert is_path(path3, ["a", "b", "c"])
    assert is_path(path3, ["c", "b", "a"])
    assert is_path(path3, ["b"])
    assert not is_path(path3, ["a", "c"])
    assert not is_path(path3, ["a", "b", "a"])
    assert not is_path(path3, [])


def test_is_normal_path_frozen(path3):
    assert is_normal_path(path3, ["a", "b", "c"])
    assert not is_normal_path(path3, ["c", "b", "a"])
    assert is_normal_path(path3, ["b"])


def test_is_normal_path_rejects_non_paths(path3):
    with pytest.raises(InvalidPath):
        is_normal_path(path3, ["a", "c"])
    with pytest.raises(InvalidPath):
        is_normal_path(path3, ["a", "b", "a"])


def test_normalize_path_frozen(path3, claw4):
    assert normalize_path(path3, {"a", "b", "c"}) == ["a", "b", "c"]
    assert normalize_path(claw4, {"v1", "u", "v3"}) == ["v1", "u", "v3"]
    assert normalize_path(path3, {"c"}) == ["c"]


def test_normalize_path_reports_stuck_greedy(path3):
    with pytest.raises(NormalizationFailed):
        normalize_path(path3, {"a", "c"})


def _same_normalization(g, names) -> bool:
    """normalize_path and the neighbor-list greedy agree on names: the same
    order, or NormalizationFailed with the same message. True for a path."""
    try:
        want = reference_normalize_path(g, names)
    except NormalizationFailed as exc:
        with pytest.raises(NormalizationFailed) as got:
            normalize_path(g, names)
        assert str(got.value) == str(exc)
        return False
    assert normalize_path(g, names) == want
    return True


@pytest.mark.parametrize(
    "graphs",
    [
        lambda: [
            generate(GeneratorSpec(kind="random", n=2 + s % 40, seed=900 + s)) for s in range(30)
        ],
        lambda: [heavy_tailed(6 + s % 40, 300 + s) for s in range(30)],
        lambda: small_combs(4),
    ],
    ids=["random", "heavy_tailed", "comb"],
)
def test_normalize_path_matches_the_neighbor_list_greedy(graphs):
    """Random vertex sets, runs of consecutive right ends (mostly paths on
    dense inputs) and each graph's longest path, shuffled."""
    rng = random.Random(3)
    outcomes = []
    for g in graphs():
        sigma = g.sigma
        sets = [longest_path(g).path]
        for _ in range(40):
            size = rng.randint(1, g.n)
            if rng.random() < 0.5:
                start = rng.randrange(g.n - size + 1)
                sets.append([g.names[v] for v in sigma[start : start + size]])
            else:
                sets.append([g.names[v] for v in rng.sample(range(g.n), size)])
        for names in sets:
            rng.shuffle(names)
            outcomes.append(_same_normalization(g, names))
    assert True in outcomes and False in outcomes


def normal_paths_of(g):
    """The unique normal path of every path-carrying vertex set."""
    for mask in path_sets(g):
        names = [g.names[v] for v in range(g.n) if mask >> v & 1]
        p = normalize_path(g, names)
        assert is_normal_path(g, p)
        assert sorted(p) == sorted(names)
        yield p


def lemma_violations(g, p):
    """Check the four ordering facts every normal path must satisfy."""
    idx = [g.by_name(nm) for nm in p]
    pos = {v: t for t, v in enumerate(idx)}
    rank = g.rank
    bad = []
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            u, w = idx[a], idx[b]
            if rank[w] < rank[u] and not g.adjacent(u, w):
                bad.append(("backstep-edge", u, w))
    for a in range(len(idx) - 1):
        u, w = idx[a], idx[a + 1]
        if rank[w] < rank[u] and not g.contains_interval(u, w):
            bad.append(("backstep-containment", u, w))
    for u in idx:
        for v in idx:
            if u == v or g.contains_interval(u, v) or g.contains_interval(v, u):
                continue
            if rank[u] < rank[v] and pos[u] > pos[v]:
                bad.append(("proper-pair-order", u, v))
    last = idx[-1]
    hi = max(rank[v] for v in idx)
    for z in g.neighbors(last):
        if z not in pos and rank[z] > hi:
            if not is_normal_path(g, p + [g.names[z]]):
                bad.append(("append-max-neighbor", last, z))
    return bad


@pytest.mark.parametrize("seed", range(40))
def test_normal_path_lemma_suite(seed):
    g = generate(GeneratorSpec(kind="random", n=1 + seed % 10, seed=seed * 7 + 1))
    for p in normal_paths_of(g):
        assert lemma_violations(g, p) == []


def _walk_counting_reads(g):
    """``greedy_walk`` on ``g`` with its left ends counted: (walk, reads)."""
    g.left = CountingList(g.left)
    return greedy_walk(g), g.left.reads


def _random_graphs(count, seed):
    """Random intervals over a narrow to a wide line: from one dense
    component to many small ones, nested, proper or mixed."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 16)
        coords = rng.sample(range(1, 6 * n + 2), 2 * n)
        recs = []
        for i in range(n):
            a, b = sorted(coords[2 * i : 2 * i + 2])
            recs.append((f"v{i}", a, b))
        yield build(recs)


def _mixed_graphs(count, seed):
    """Small random inputs whose coordinates mix ints, floats and Fractions,
    against which an int's own comparison returns NotImplemented."""
    rng = random.Random(seed)
    kinds = (int, float, lambda c: Fraction(2 * c + 1, 2))
    for _ in range(count):
        n = rng.randint(2, 9)
        coords = rng.sample(range(1, 60), 2 * n)
        recs = []
        for i in range(n):
            a, b = sorted(coords[2 * i : 2 * i + 2])
            recs.append((f"v{i}", rng.choice(kinds)(a), rng.choice(kinds)(b)))
        yield build(recs)


@pytest.mark.parametrize(
    "graphs, seen",
    [
        (lambda: list(_random_graphs(400, 5)), {"certified", "none"}),
        (lambda: [heavy_tailed(6 + s % 40, 700 + s) for s in range(40)], {"none"}),
        (
            lambda: [generate(GeneratorSpec(kind="random", n=1 + s % 60, seed=s)) for s in range(60)],
            {"certified"},
        ),
        (lambda: small_combs(4), {"none"}),
        (lambda: [nested_pairs(k) for k in range(1, 12)], {"certified", "budget"}),
        (lambda: list(_mixed_graphs(300, 11)), {"certified", "none"}),
    ],
    ids=["random-lines", "heavy_tailed", "random", "comb", "nested-pairs", "mixed-types"],
)
def test_walk_is_the_greedy_over_the_components(graphs, seen):
    """On the semi-proper graph and on the input, the walk returns the
    neighbor-list greedy's largest component, or None having read exactly
    its 2n candidates; it never raises and reads at most 2n."""
    outcomes = set()
    for g in graphs():
        for h in (g, make_semi_proper(normalize_endpoints(g))):
            want = reference_walk(h)
            got, reads = _walk_counting_reads(h)
            assert reads <= 2 * h.n
            assert got == want or (got is None and reads == 2 * h.n), h.records()
            outcomes.add("certified" if got else "budget" if want else "none")
    assert outcomes >= seen


def test_walk_answers_are_longest_paths():
    """On the input and on its semi-proper graph alike."""
    for g in _random_graphs(300, 6):
        walks = [greedy_walk(h) for h in (g, make_semi_proper(normalize_endpoints(g)))]
        walks = [got for got in walks if got is not None]
        if walks:
            best = brute_longest_path(g)[0]
        for got in walks:
            assert is_path(g, got)
            assert len(got) == best, g.records()


def test_walk_stops_within_its_read_budget():
    """The shorts are read and skipped, and re-read at every long: the walk
    gives up after 2n reads, not after about k^2 / 2."""
    g = nested_pairs(10_000)
    got, reads = _walk_counting_reads(g)
    assert got is None and reads == 2 * g.n
    small = nested_pairs(6)
    assert reference_walk(small) is not None
    assert _walk_counting_reads(small)[0] is None


def test_walk_stops_at_a_large_enough_component():
    """The walk takes the first largest component and reads nothing past it
    once the rest cannot be larger, claws included; a claw first strands it."""
    path4 = [("a", 1, 4), ("b", 3, 6), ("c", 5, 8), ("d", 7, 10)]
    claw = [("u", 20, 30), ("x", 21, 22), ("y", 24, 25), ("z", 27, 28)]
    assert greedy_walk(build(path4 + claw)) == ["a", "b", "c", "d"]
    assert greedy_walk(build(path4 + [("e", 9, 12)] + claw)) == ["a", "b", "c", "d", "e"]
    assert greedy_walk(build(claw + [(nm, l + 100, r + 100) for nm, l, r in path4])) is None
    assert greedy_walk(build([])) is None
    assert greedy_walk(build([("a", 1, 2)])) == ["a"]
    # three isolated vertices: the first suffices
    assert greedy_walk(build([("a", 1, 2), ("b", 3, 4), ("c", 5, 6)])) == ["a"]
