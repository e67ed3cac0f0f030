"""Maximum matching on plain graphs: degree kernelization plus a blossom
augmenting-path solver for the shrunken instance.

The kernelizer marks high-degree vertices in one bounded-probe sweep (each
vertex inspected once, at most 3k adjacency probes), then keeps sweeping the
survivors until no degree exceeds the shrinking threshold. The extra sweeps
matter: a vertex can pass its check early and only later, after other marks
lower the working parameter, become removable, and the final size test is
only conclusive on a fully reduced instance. Isolated survivors drop next,
and whatever remains either certifies a yes-answer by sheer size or is the
kernel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph as a tuple of neighbor frozensets."""

    n: int
    adj: tuple

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def edges(self) -> list:
        return sorted((u, v) for u in range(self.n) for v in self.adj[u] if u < v)


def simple_graph(n: int, edges) -> SimpleGraph:
    if n < 0:
        raise ValueError("negative vertex count")
    sets = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        sets[u].add(v)
        sets[v].add(u)
    return SimpleGraph(n=n, adj=tuple(frozenset(s) for s in sets))


def parse_edge_list(text: str) -> SimpleGraph:
    lines = [ln for ln in (raw.split("#")[0].strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"bad edge line {ln!r}") from exc
    try:
        return simple_graph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_edge_list(graph: SimpleGraph) -> str:
    edges = graph.edges()
    lines = [f"{graph.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class KernelOutcome:
    verdict: str
    kernel: tuple | None
    removed_high_degree: int
    probes: int = 0


def kernelize(graph: SimpleGraph, k: int) -> KernelOutcome:
    """Shrink a matching instance; YES verdict or a degree-bounded kernel."""
    if k < 1:
        raise ValueError("parameter must be positive")
    n, adj = graph.n, graph.adj
    marked = bytearray(n)
    r = 0
    probes = 0

    def over_threshold(v: int, count_probes: bool) -> bool:
        nonlocal probes
        threshold = 2 * (k - r - 1)
        live = 0
        for w in adj[v]:
            if count_probes:
                probes += 1
            if marked[w]:
                continue
            live += 1
            if live > threshold:
                return True
        return False

    for v in range(n):
        if over_threshold(v, True):
            marked[v] = 1
            r += 1
            if r == k:
                return KernelOutcome("YES", None, r, probes)

    changed = True
    while changed:
        changed = False
        for v in range(n):
            if not marked[v] and over_threshold(v, False):
                marked[v] = 1
                r += 1
                changed = True
                if r == k:
                    return KernelOutcome("YES", None, r, probes)

    alive = [
        v
        for v in range(n)
        if not marked[v] and any(not marked[w] for w in adj[v])
    ]
    index = {v: i for i, v in enumerate(alive)}
    edges = [
        (index[u], index[w])
        for u in alive
        for w in adj[u]
        if w in index and u < w
    ]
    small = simple_graph(len(alive), edges)
    k_prime = k - r
    bound = (k_prime - 1) * (2 * k_prime - 1)
    if small.n > bound or small.m > bound:
        return KernelOutcome("YES", None, r, probes)
    return KernelOutcome("KERNEL", (small, k_prime), r, probes)


def max_matching(graph: SimpleGraph) -> frozenset:
    """Maximum matching via repeated augmenting-path search with blossom
    shrinking (base-array variant); fine for kernel-sized graphs."""
    n = graph.n
    adj = [sorted(s) for s in graph.adj]
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_path(root: int) -> bool:
        nonlocal parent, base
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        while to != -1:
                            pv = parent[to]
                            nxt = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = nxt
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return frozenset((u, match[u]) for u in range(n) if match[u] > u)


def matching(graph: SimpleGraph, k: int) -> tuple:
    """Kernelize, then decide on the kernel: (has a k-matching, outcome).

    The answer is yes when the kernelizer says so, and otherwise when the
    kernel has a matching of size k'. k must be positive.
    """
    outcome = kernelize(graph, k)
    if outcome.verdict == "YES":
        return True, outcome
    small, k_prime = outcome.kernel
    return len(max_matching(small)) >= k_prime, outcome


def decide_matching(graph: SimpleGraph, k: int) -> bool:
    """True iff the graph has a matching of size k."""
    return k < 1 or matching(graph, k)[0]
