import pytest

from helpers import exact_deletion_set
from intervalpath.claws import approx_deletion_set
from intervalpath.errors import InvalidSpec
from intervalpath.generators import GeneratorSpec, Lcg, generate
from intervalpath.intervals import nesting, normalize_endpoints


def test_lcg_is_deterministic():
    a = Lcg(42)
    b = Lcg(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_same_spec_same_graph():
    spec = GeneratorSpec(kind="random", n=9, seed=123)
    assert generate(spec).records() == generate(spec).records()


def test_random_uses_a_permutation_of_ranks():
    g = generate(GeneratorSpec(kind="random", n=7, seed=5))
    assert sorted(g.left + g.right) == list(range(1, 15))
    assert all(l < r for l, r in zip(g.left, g.right))


def test_proper_n3_is_the_canonical_path(path3):
    g = generate(GeneratorSpec(kind="proper", n=3, seed=0))
    want = [(l, r) for _, l, r, _ in normalize_endpoints(path3).records()]
    assert [(l, r) for _, l, r, _ in g.records()] == want


@pytest.mark.parametrize("n", [1, 2, 10, 57])
def test_proper_is_proper_and_connected(n):
    g = generate(GeneratorSpec(kind="proper", n=n, seed=0))
    assert not any(nesting(g.endpoint_order(), g.endpoint_positions()))
    order = g.sigma
    assert all(g.adjacent(order[i], order[i + 1]) for i in range(n - 1))


def test_planted_k0_is_proper():
    g = generate(GeneratorSpec(kind="planted", n=10, k=0, seed=3))
    assert not any(nesting(g.endpoint_order(), g.endpoint_positions()))
    assert approx_deletion_set(g).marked == frozenset()


@pytest.mark.parametrize("seed", range(8))
def test_planted_k_is_an_upper_bound(seed):
    k = 1 + seed % 3
    n = 5 * k + 5
    g = generate(GeneratorSpec(kind="planted", n=n, k=k, seed=seed))
    assert g.n == n + k
    best = exact_deletion_set(g, k_max=k)
    assert best is not None and len(best.marked) <= k


def test_invalid_spec():
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec(kind="random", n=0, seed=1))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec(kind="nope", n=3, seed=1))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec(kind="planted", n=5, k=-1, seed=1))
