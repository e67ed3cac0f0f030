"""End-to-end longest path by one of two routes.

- **Certified route** (``stats["route"] == "certified"``): ``greedy_walk``
  walks the input as parsed, on its own endpoint order, token positions
  and coordinates, and returns a Hamiltonian path of a largest component
  if it finds one. A path through every vertex of a largest component is
  a longest path, so that is the answer. Whether a component has one does
  not depend on the interval model, so nothing is normalized or made
  semi-proper first: after parsing the walk costs O(n log n) and the
  final check O(n), and ``t_preprocess_ns`` times the walk alone.
- **Reductions route** (``"reductions"``): otherwise ``run_stages``
  makes the input semi-proper, which renumbers it onto 1..2n with no
  normalization first, finds the deletion set and applies both
  reductions; the DP solves the special graph and the lift maps its path
  back. A failed walk costs only what it read and the input's sigma: the
  semi-proper stage reuses the token positions the walk cached.
  ``longest_path_by_reductions`` takes this route on every input, so tests
  and the corpus digest can compare the two.

``run_stages`` is the only place the stages before the DP are sequenced.

Lifting retraces the reductions in reverse. Every clone group on the DP path
is swapped back for all of its members at once, and the lifted set is put
in order by one normalization in G#; collapsed clusters then reinflate in
place. Neither route patches its output: the final check raises
``LiftFailure`` if the path is not a path of the input, on the input's own
coordinates, with the computed length.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .claws import DeletionSet, add_dummies, approx_deletion_set, prune_deletion_set
from .dp import max_weight_path
from .errors import InvalidSpec, LiftFailure, NormalizationFailed
from .intervals import IntervalGraph, normalize_endpoints  # normalize_endpoints: bench hook only
from .paths import greedy_walk, is_path, normalize_path
from .reduce1 import Stage1Result, apply_rule1, compute_stage1_families
from .reduce2 import (
    SpecialWeightedIntervalGraph,
    apply_rule2,
    compute_stage2_families,
    intermediate_graphs,  # unused by the lift; bench/spans.py hooks it by name
)
from .semiproper import make_semi_proper


@dataclass(frozen=True)
class PathResult:
    length: int
    path: list
    stats: dict


@dataclass(frozen=True)
class Stages:
    """What the stages before the DP build, with their timings. ``semi`` is
    the semi-proper graph the deletion set was found on, and ``widened`` is
    ``semi`` with the two sentinels appended as vertices n and n + 1, so
    every other vertex has the same index in both. ``deletion`` is the
    pruned set plus the sentinels, as vertex indices of ``widened``;
    ``d_size`` counts it without them, and ``d_approx`` counts the greedy
    set before pruning."""

    semi: IntervalGraph
    widened: IntervalGraph
    deletion: DeletionSet
    stage1: Stage1Result
    special: SpecialWeightedIntervalGraph
    d_size: int
    d_approx: int
    t_preprocess_ns: int
    t_reduce1_ns: int
    t_reduce2_ns: int


def run_stages(graph: IntervalGraph) -> Stages:
    """Make the input semi-proper, find and prune the deletion set, and apply
    both reductions."""
    t0 = time.perf_counter_ns()
    semi = make_semi_proper(graph)
    greedy = approx_deletion_set(semi)
    deletion = prune_deletion_set(semi, greedy)
    d_size = len(deletion.marked)
    widened, deletion = add_dummies(semi, deletion)
    t1 = time.perf_counter_ns()

    stage1 = apply_rule1(widened, compute_stage1_families(widened, deletion))
    t2 = time.perf_counter_ns()

    special = apply_rule2(stage1, compute_stage2_families(stage1, deletion), deletion)
    t3 = time.perf_counter_ns()

    return Stages(
        semi, widened, deletion, stage1, special,
        d_size, len(greedy.marked), t1 - t0, t2 - t1, t3 - t2,
    )


def _renormalize(graph: IntervalGraph, names: list) -> list:
    try:
        return normalize_path(graph, names)
    except NormalizationFailed as exc:
        raise LiftFailure(f"lifted set admits no path: {exc}") from exc


def lift_stage2(path: list, special: SpecialWeightedIntervalGraph) -> list:
    """Swap every clone group on the path back for all its members at once.

    The path's non-clone names plus every member of each group with a clone
    on the path are put in order by one normalization in G#, the graph after
    rule 1. A path with no clone is returned unchanged.

    Soundness: undoing the groups one at a time ends with exactly this set
    as a path of G#, so by the normal-path lemma the set has one normal
    order and ``normalize_path`` finds it. In a normal path the predecessor
    of a rule-1 vertex a covers a's left end and the successor its right
    end (a contains no other interval, endpoints are distinct, and a
    neighbor crossing only the other end would break the greedy choice of an
    earlier vertex or of the start). A cluster is a proper run spanning a,
    so reinflating it in place keeps a path of the input. Should either step
    fail anyway, the final check in ``longest_path`` raises.
    """
    owner = {nm: grp for grp in special.groups for nm in grp.clones}
    chosen, used = [], set()
    for nm in path:
        grp = owner.get(nm)
        if grp is None:
            chosen.append(nm)
        elif grp.key not in used:
            used.add(grp.key)
            chosen.extend(grp.members)
    return _renormalize(special.g_sharp, chosen) if used else list(path)


def lift_stage1(path: list, stage1: Stage1Result) -> list:
    """Reinflate every collapsed cluster in place, naming its vertices."""
    names = stage1.graph.names
    out = []
    for nm in path:
        if nm in stage1.back_map:
            out.extend(map(names.__getitem__, stage1.back_map[nm]))
        else:
            out.append(nm)
    return out


def _check_unit_weights(graph: IntervalGraph) -> None:
    if graph.weight.count(1) != graph.n:
        raise InvalidSpec("longest_path expects unit weights")


def longest_path(graph: IntervalGraph) -> PathResult:
    """Longest path of an unweighted interval graph, with stage timings.

    The certified route answers when the walk over the input finds a
    Hamiltonian path of a largest component; the reductions route answers
    otherwise (module notes). ``stats["route"]`` names the route; on the
    certified route the reduction sizes are None, ``t_preprocess_ns`` times
    the walk and the later stage times are 0. On the reductions route
    ``t_preprocess_ns`` adds the failed walk to the semi-proper stage and
    the deletion set."""
    _check_unit_weights(graph)
    t0 = time.perf_counter_ns()
    walk = greedy_walk(graph)
    t1 = time.perf_counter_ns()
    if walk is None:
        return _by_reductions(graph, run_stages(graph), t1 - t0)
    return _checked(graph, walk, len(walk), _stats(graph, t1 - t0))


def longest_path_by_reductions(graph: IntervalGraph) -> PathResult:
    """``longest_path`` by the reductions route, without the walk."""
    _check_unit_weights(graph)
    return _by_reductions(graph, run_stages(graph), 0)


def _by_reductions(graph: IntervalGraph, stages: Stages, t_before_ns: int) -> PathResult:
    """The DP on the special graph and the lift; ``t_before_ns`` is what ran
    before ``run_stages``."""
    t3 = time.perf_counter_ns()
    outcome = max_weight_path(stages.special)
    t4 = time.perf_counter_ns()

    sharp_path = lift_stage2(outcome.path, stages.special)
    full_path = lift_stage1(sharp_path, stages.stage1)
    t5 = time.perf_counter_ns()

    weight = outcome.weight
    if weight != int(weight):
        raise LiftFailure(f"non-integer answer {weight} on unit weights")
    t_preprocess_ns = t_before_ns + stages.t_preprocess_ns
    stats = _stats(graph, t_preprocess_ns, stages, len(outcome.table.W), t4 - t3, t5 - t4)
    return _checked(graph, full_path, int(weight), stats)


def _stats(
    graph: IntervalGraph,
    t_preprocess_ns: int,
    stages: Stages | None = None,
    dp_entries: int | None = None,
    t_dp_ns: int = 0,
    t_lift_ns: int = 0,
) -> dict:
    """The ``stats`` of a solve by either route, built in one dict. The
    certified route passes no ``stages``: the sizes it did not compute are
    None and the times of the stages it did not run are 0."""
    s = stages
    return {
        "n": graph.n,
        "m": graph.edge_count(),
        "route": "certified" if s is None else "reductions",
        "d_size": s.d_size if s else None,
        "d_approx": s.d_approx if s else None,
        "kappa": s.special.kappa if s else None,
        "b_size": len(s.special.B) if s else None,
        "dp_entries": dp_entries,
        "t_preprocess_ns": t_preprocess_ns,
        "t_reduce1_ns": s.t_reduce1_ns if s else 0,
        "t_reduce2_ns": s.t_reduce2_ns if s else 0,
        "t_dp_ns": t_dp_ns,
        "t_lift_ns": t_lift_ns,
    }


def _checked(graph: IntervalGraph, path: list, length: int, stats: dict) -> PathResult:
    """The final check of either route, on the input's own coordinates."""
    if length != len(path) or (path and not is_path(graph, path)):
        raise LiftFailure(f"{stats['route']} path does not realize the computed weight")
    return PathResult(length=length, path=path, stats=stats)
