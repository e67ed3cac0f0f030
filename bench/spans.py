"""Spans around the solver's stages, recorded from outside the solver.

Tracing replaces the stage functions as they are bound in
``intervalpath.pipeline`` with thin wrappers, so ``longest_path`` still
sequences the stages itself and the trace only observes its calls. Spans are
kept in memory with their parent ids and written out when the run ends. A
name that the pipeline no longer binds is reported as a missing hook; the
untraced run never touches the module.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from statistics import median

# Function as bound in intervalpath.pipeline -> the layer it belongs to.
# intermediate_graphs and normalize_path are only called by the lift there.
HOOKS = {
    "normalize_endpoints": "intervals",
    "make_semi_proper": "semiproper",
    "approx_deletion_set": "claws",
    "add_dummies": "claws",
    "compute_stage1_families": "reduce1",
    "apply_rule1": "reduce1",
    "compute_stage2_families": "reduce2",
    "apply_rule2": "reduce2",
    "max_weight_path": "dp",
    "lift_stage2": "lift",
    "lift_stage1": "lift",
    "intermediate_graphs": "lift",
    "normalize_path": "lift",
    "is_path": "paths",
}
# Spans the benchmark opens itself around each solve.
ROOT, PARSE, SOLVE = "solve", "parse_intervals", "longest_path"
LAYER_OF = {**HOOKS, PARSE: "intervals", SOLVE: "pipeline"}

# Per-layer self times: metric name -> the functions whose self time it sums.
#
# Which end-to-end number each layer should move, and where (shares of solve
# time measured when the benchmark was defined):
#   semiproper.self_s      solve_s.p50 on planted (~87%); comb ~21%; dense ~1%,
#                          where the prediction is no change
#   dp.self_s, dp.table_entries
#                          solve_s.p50 on dense (~97%) and comb (~55%); the
#                          table also moves peak_rss_mb on dense; planted <1%
#   lift.*                 solve_s.p50 on comb (~16%); under 2% elsewhere
#   reduce2.*              solve_s.p50 on comb (~3%); kappa is the closed-form
#                          bound, shown next to the real b_size
#   reduce1.*, claws.*     solve_s.p50 on planted and comb, 1-4% each
#   intervals.*            solve_s.p50 on planted (parsing ~3%)
#   paths.is_path_s        mostly the final check
#   pipeline.self_s        longest_path's own code, including the adjacency
#                          build behind stats["m"]
SELF_TIMES = {
    "intervals.parse_s": (PARSE,),
    "intervals.normalize_s": ("normalize_endpoints",),
    "semiproper.self_s": ("make_semi_proper",),
    "claws.self_s": ("approx_deletion_set", "add_dummies"),
    "reduce1.self_s": ("compute_stage1_families", "apply_rule1"),
    "reduce2.self_s": ("compute_stage2_families", "apply_rule2"),
    "dp.self_s": ("max_weight_path",),
    "lift.self_s": ("lift_stage2", "lift_stage1", "intermediate_graphs", "normalize_path"),
    "lift.replay_s": ("intermediate_graphs",),
    "lift.renormalize_s": ("normalize_path",),
    "paths.is_path_s": ("is_path",),
    "pipeline.self_s": (SOLVE,),
}


def _sizes(name: str, out) -> dict:
    """Sizes read off a stage's return value, keyed by metric name."""
    if name == "approx_deletion_set":
        return {"claws.d_size": len(out.marked)}
    if name == "apply_rule1":
        return {"reduce1.n_out": out.g_sharp.n}
    if name == "apply_rule2":
        return {
            "reduce2.groups": len(out.groups),
            "reduce2.a_size": len(out.A),
            "reduce2.b_size": len(out.B),
            "reduce2.kappa": out.kappa,
        }
    if name == "max_weight_path":
        return {"dp.table_entries": len(out.table.W)}
    if name == "normalize_path":
        return {"lift.renormalize_calls": 1}
    return {}


# Count metrics: median per solve, except repairs, which is a total over the
# run so that a single repair shows.
SIZES = (
    "claws.d_size",
    "reduce1.n_out",
    "reduce2.groups",
    "reduce2.a_size",
    "reduce2.b_size",
    "reduce2.kappa",
    "dp.table_entries",
    "lift.renormalize_calls",
)


class Tracer:
    """In-memory span log: (id, parent, solve, name, start_ns, end_ns)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.solve = -1
        self.sizes: dict = {}
        self.repairs = 0
        self.missing: list = []
        self.broken: set = set()

    def open(self, name: str) -> int:
        if name == ROOT:
            self.solve += 1
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, parent, self.solve, name, time.perf_counter_ns(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter_ns()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def observe(self, name: str, out) -> None:
        if name == "is_path" and out is False:
            parent = self.spans[self.stack[-1]][3] if self.stack else None
            if LAYER_OF.get(parent) == "lift":
                self.repairs += 1
            return
        try:
            found = _sizes(name, out)
        except (AttributeError, TypeError):
            self.broken.add(name)
            return
        per_solve = self.sizes.setdefault(self.solve, {})
        for key, val in found.items():
            per_solve[key] = per_solve.get(key, 0) + val

    def hooks(self, module) -> dict:
        """Wrappers for every hook ``module`` binds; absent names go to ``missing``."""
        wrapped = {}
        for name in HOOKS:
            fn = getattr(module, name, None)
            if fn is None:
                self.missing.append(name)
            else:
                wrapped[name] = (fn, self._wrap(name, fn))
        return wrapped

    @contextmanager
    def attached(self, module, wrapped: dict):
        """Bind the wrappers into ``module`` for the duration of one solve."""
        for name, (_, traced) in wrapped.items():
            setattr(module, name, traced)
        try:
            yield
        finally:
            for name, (fn, _) in wrapped.items():
                setattr(module, name, fn)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            self.observe(name, out)
            return out

        return traced

    def write(self, path) -> None:
        keys = ("id", "parent", "solve", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def metrics(self) -> dict:
        """Per-layer numbers: medians over solves of self times and sizes."""
        child = [0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        per_solve: dict = {}
        for sid, _, solve, name, start, end in self.spans:
            acc = per_solve.setdefault(solve, {})
            acc[name] = acc.get(name, 0) + (end - start - child[sid])
            if name == ROOT:
                acc["_total"] = end - start
        solves = [per_solve[s] for s in sorted(per_solve)]
        out = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = median(sum(acc.get(nm, 0) for nm in names) for acc in solves) / 1e9
        for metric in SIZES:
            out[metric] = median(self.sizes.get(s, {}).get(metric, 0) for s in sorted(per_solve))
        out["lift.repairs"] = self.repairs
        # share of each solve spent inside a named stage, not in the
        # benchmark's root span or in longest_path's own code
        out["trace.coverage"] = median(
            1 - (acc.get(ROOT, 0) + acc.get(SOLVE, 0)) / acc["_total"] for acc in solves
        )
        out["trace.missing_hooks"] = len(self.missing) + len(self.broken)
        return out
