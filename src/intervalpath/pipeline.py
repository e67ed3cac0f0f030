"""End-to-end longest path: preprocess, reduce twice, run the DP, lift back.

``run_stages`` is the only place the stages before the DP are sequenced.

Lifting retraces the reductions in reverse. Every clone group on the DP path
is swapped back for all of its members at once, and the lifted set is put
in order by one normalization in G#; collapsed clusters then reinflate in
place. The lift never patches its output: the final check raises
``LiftFailure`` if the lifted sequence is not a path of the input realizing
the computed weight.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .claws import DeletionSet, add_dummies, approx_deletion_set, prune_deletion_set
from .dp import max_weight_path
from .errors import InvalidSpec, LiftFailure, NormalizationFailed
from .intervals import IntervalGraph, normalize_endpoints
from .paths import is_path, normalize_path
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
    the semi-proper graph the deletion set was found on. ``deletion`` is the
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
    """Preprocess, find and prune the deletion set, and apply both reductions."""
    t0 = time.perf_counter_ns()
    semi = make_semi_proper(normalize_endpoints(graph))
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


def longest_path(graph: IntervalGraph) -> PathResult:
    """Longest path of an unweighted interval graph, with stage timings."""
    if graph.weight.count(1) != graph.n:
        raise InvalidSpec("longest_path expects unit weights")

    stages = run_stages(graph)
    t3 = time.perf_counter_ns()
    outcome = max_weight_path(stages.special)
    t4 = time.perf_counter_ns()

    sharp_path = lift_stage2(outcome.path, stages.special)
    full_path = lift_stage1(sharp_path, stages.stage1)
    t5 = time.perf_counter_ns()

    weight = outcome.weight
    if weight != int(weight):
        raise LiftFailure(f"non-integer answer {weight} on unit weights")
    length = int(weight)
    if length != len(full_path) or (full_path and not is_path(graph, full_path)):
        raise LiftFailure("lifted path does not realize the computed weight")

    stats = {
        "n": graph.n,
        "m": stages.semi.edge_count(),
        "d_size": stages.d_size,
        "d_approx": stages.d_approx,
        "kappa": stages.special.kappa,
        "b_size": len(stages.special.B),
        "dp_entries": len(outcome.table.W),
        "t_preprocess_ns": stages.t_preprocess_ns,
        "t_reduce1_ns": stages.t_reduce1_ns,
        "t_reduce2_ns": stages.t_reduce2_ns,
        "t_dp_ns": t4 - t3,
        "t_lift_ns": t5 - t4,
    }
    return PathResult(length=length, path=full_path, stats=stats)
