import pytest

from helpers import is_normal_path, path_sets
from intervalpath.errors import InvalidPath, NormalizationFailed
from intervalpath.generators import GeneratorSpec, generate
from intervalpath.paths import is_path, normalize_path


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
