#!/usr/bin/env python3
"""Solver benchmark: time interval-file text to checked longest path.

    python3 bench/run.py --workload planted --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the solver is imported from its
``src`` directory. A run is carried out by worker processes started one
after another, so no two solves ever overlap: four for the end-to-end
metrics, one for the traced run. Each worker sets up (imports the solver,
builds the workload's seeded instance pool and solves one small fixed
instance) and then solves its share of the pool in order, each solve being
``parse_intervals`` plus ``longest_path``, until it has covered its share
and its part of ``--seconds`` has passed. ``setup_s`` is the median of the
workers' set-up times. Every answer is checked outside the timed region. A
solve that raises or fails the check counts as failed and the run goes on.

Times are reported in reference seconds. On a shared machine CPU speed can
drift by a third over minutes, and one process can run a few percent slower
than the next on the same work. A fixed pure-Python calibration mix
therefore runs after every solve, each worker's times are scaled by
REF_CAL_S over its median calibration time, and the workers' samples are
pooled. A change to the solver moves the solve times and not the
calibration, so the scaled times track the solver; the raw median and the
scale factors are printed with the report.

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1``
each instance is solved once untraced and once traced, in alternating order,
until ``--seconds`` have passed, and the per-layer metrics come from the
traced solves; the spans are written to
``bench/traces/<workload>-<seed>.jsonl``.

Human-readable lines, including ``failed_frac``, the tail percentile, the
sample count and a stamp of the commit, Python version, CPU count and hash
seed, come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median

from answers import check_answer
from spans import PARSE, ROOT, SOLVE, Tracer
from workloads import WORKLOADS, build_pool, warm_up_text

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKERS = 4
# Every worker of a run must have ended by then.
RUN_LIMIT_S = 170
# Median calibration time, on the machine the benchmark was defined on, that
# makes one reference second equal one wall second there.
REF_CAL_S = 0.03

END_TO_END = {
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "vertices_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "intervals.parse_s": "s",
    "intervals.normalize_s": "s",
    "semiproper.self_s": "s",
    "claws.self_s": "s",
    "claws.d_size": "count",
    "reduce1.self_s": "s",
    "reduce1.n_out": "count",
    "reduce2.self_s": "s",
    "reduce2.groups": "count",
    "reduce2.a_size": "count",
    "reduce2.b_size": "count",
    "reduce2.kappa": "count",
    "dp.self_s": "s",
    "dp.table_entries": "count",
    "lift.self_s": "s",
    "lift.replay_s": "s",
    "lift.renormalize_s": "s",
    "lift.renormalize_calls": "count",
    "lift.repairs": "count",
    "paths.is_path_s": "s",
    "pipeline.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.missing_hooks": "count",
    "scaling.ratio": "ratio",
}


class Solver:
    """The solver's modules, imported from the checkout's ``src``."""

    def __init__(self):
        self.intervals = importlib.import_module("intervalpath.intervals")
        self.pipeline = importlib.import_module("intervalpath.pipeline")
        self.generators = importlib.import_module("intervalpath.generators")
        origin = Path(self.pipeline.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"intervalpath was imported from {origin}, not from {SRC}")

    def solve(self, text: str):
        return self.pipeline.longest_path(self.intervals.parse_intervals(text))


class Tally:
    """Answers attempted, failed and only bounds-checked, the first errors,
    and the calibration times taken after set-up and after each solve."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unverified = 0
        self.errors: list = []
        self.cal: list = []
        rng = random.Random(0)
        self._fractions = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 50)) for _ in range(1500)]

    def calibrate(self) -> None:
        """Time a fixed mix of the solver's kinds of work: sorting and adding
        exact Fractions, sorting by key function, and dict and set traffic."""
        t0 = time.perf_counter()
        sorted(self._fractions)
        acc = Fraction(0)
        for i in range(1, 1200):
            acc += Fraction(i % 7, i)
            acc = max(acc - 1, Fraction(0)) if acc > 5 else acc
        keys = sorted(range(20000), key=lambda v: (v * 2654435761) % 1000003)
        seen = {}
        for a, b in zip(keys, keys[1:]):
            seen[(a, b)] = a < b
        live = set(keys[:5000])
        for k in keys:
            live.discard(k)
        self.cal.append(time.perf_counter() - t0)

    def attempt(self, inst, solve):
        """Time one solve; return its seconds, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = solve(inst.text)
        except Exception as exc:  # a raising solve is a counted failure, not the end of the run
            if self.failed < 3:
                traceback.print_exc(file=sys.stderr)
            self._fail(inst, repr(exc))
            return None
        dt = time.perf_counter() - t0
        self.calibrate()
        verdict = check_answer(inst, res.length, res.path)
        if not verdict.ok:
            self._fail(inst, verdict.reason)
            return None
        self.unverified += not verdict.verified
        return dt

    def _fail(self, inst, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(f"{inst.kind} n={inst.n}: {why}")


def _visits(pool: list, start: int, minimum: int, seconds: float):
    """The pool in order from ``start``, cyclically, until ``minimum``
    instances were visited and ``seconds`` passed."""
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        if i >= minimum and time.perf_counter() >= deadline:
            return
        yield pool[(start + i) % len(pool)]


def run_plain(solver, visits, tally: Tally) -> list:
    """Timed solves; return (n, seconds) samples."""
    samples = []
    for inst in visits:
        dt = tally.attempt(inst, solver.solve)
        if dt is not None:
            samples.append((inst.n, dt))
    return samples


def run_traced(solver, visits, tally: Tally, tracer: Tracer):
    """Pair an untraced and a traced solve of each instance, alternating which
    goes first; return the untraced samples and the paired time differences."""
    wrapped = tracer.hooks(solver.pipeline)
    intervals, pipeline = solver.intervals, solver.pipeline

    def traced(text: str):
        with tracer.attached(pipeline, wrapped):
            sid = tracer.open(ROOT)
            try:
                graph = tracer.call(PARSE, intervals.parse_intervals, text)
                return tracer.call(SOLVE, pipeline.longest_path, graph)
            finally:
                tracer.close(sid)

    samples, diffs = [], []
    for i, inst in enumerate(visits):
        if i % 2 == 0:
            plain = tally.attempt(inst, solver.solve)
            with_trace = tally.attempt(inst, traced)
        else:
            with_trace = tally.attempt(inst, traced)
            plain = tally.attempt(inst, solver.solve)
        if plain is not None:
            samples.append((inst.n, plain))
            if with_trace is not None:
                diffs.append(with_trace - plain)
    return samples, diffs


def work(args) -> dict:
    """One worker's share of a run, with its times already scaled."""
    sys.path.insert(0, str(SRC))
    index, count = args.worker
    t0 = time.perf_counter()
    solver = Solver()
    gens = solver.generators
    pool = build_pool(args.workload, args.seed, gens.generate, gens.GeneratorSpec)
    solver.solve(warm_up_text())
    setup_s = time.perf_counter() - t0

    tally = Tally()
    tally.calibrate()
    start = index * len(pool) // count
    share = (index + 1) * len(pool) // count - start
    out: dict = {}
    if args.trace:
        tracer = Tracer()
        # the first few instances of every pool include its smallest and largest n
        visits = _visits(pool, start, 6, args.seconds / count)
        samples, diffs = run_traced(solver, visits, tally, tracer)
        out["layers"] = tracer.metrics()
        out["missing"] = tracer.missing + sorted(tracer.broken)
        out["solves"] = tracer.solve + 1
        out["spans"] = len(tracer.spans)
        trace_dir = HERE / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-{args.seed}.jsonl")
    else:
        samples = run_plain(solver, _visits(pool, start, share, args.seconds / count), tally)
        diffs = []

    scale = REF_CAL_S / median(tally.cal)
    if args.trace:
        for name, unit in PER_LAYER.items():
            if unit == "s" and name in out["layers"]:
                out["layers"][name] *= scale
    out.update(
        samples=[(n, dt * scale) for n, dt in samples],
        diffs=[dt * scale for dt in diffs],
        raw_p50=median(dt for _, dt in samples) if samples else None,
        scale=scale,
        setup_s=setup_s * scale,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=tally.attempted,
        failed=tally.failed,
        unverified=tally.unverified,
        errors=tally.errors,
        pool=[len(pool), min(i.n for i in pool), max(i.n for i in pool)],
    )
    return out


def git_commit(root: Path) -> str:
    """HEAD's commit id, read from ``.git`` without running git; 'unknown' outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    return {
        "commit": git_commit(HERE.parent),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def end_to_end(parts: list, samples: list) -> tuple:
    """The end-to-end metrics, plus the tail's percentile for the report."""
    times = sorted(dt for _, dt in samples)
    # the highest percentile with at least ten samples above it
    rank = max(1, len(times) - 10)
    metrics = {
        "solve_s.p50": median(times),
        "solve_s.tail": times[rank - 1],
        "vertices_per_s": sum(n for n, _ in samples) / sum(times),
        "peak_rss_mb": max(p["rss_mb"] for p in parts),
        "setup_s": median(p["setup_s"] for p in parts),
    }
    return metrics, 100 * rank / len(times)


def scaling_ratio(samples: list) -> float:
    """Median solve time at the pool's largest n over that at its smallest."""
    lo = min(n for n, _ in samples)
    hi = max(n for n, _ in samples)
    return median(dt for n, dt in samples if n == hi) / median(dt for n, dt in samples if n == lo)


def run_workers(args, count: int):
    """Start the workers one after another; return their reports, or None
    after printing why one failed."""
    deadline = time.monotonic() + RUN_LIMIT_S
    parts = []
    for index in range(count):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--worker", f"{index}/{count}",
        ]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            print(f"worker {index} ran past {RUN_LIMIT_S} s", file=sys.stderr)
            return None
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"worker {index} exited with {proc.returncode}", file=sys.stderr)
            return None
        parts.append(json.loads(proc.stdout.splitlines()[-1]))
    return parts


def _worker_arg(text: str) -> tuple:
    index, count = (int(x) for x in text.split("/"))
    if not 0 <= index < count:
        raise argparse.ArgumentTypeError(f"bad worker {text!r}")
    return index, count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=_worker_arg, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker:
        try:
            print(json.dumps(work(args)))
        except ImportError as exc:
            print(f"cannot load the solver from {SRC}: {exc}", file=sys.stderr)
            return 2
        return 0

    parts = run_workers(args, 1 if args.trace else WORKERS)
    if parts is None:
        return 1
    samples = [tuple(s) for p in parts for s in p["samples"]]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    if not samples:
        print("no solve succeeded: " + "; ".join(e for p in parts for e in p["errors"]), file=sys.stderr)
        return 1

    size, lo, hi = parts[0]["pool"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} pool={size} instances, n={lo}..{hi}")
    print("# stamp " + json.dumps(stamp()))
    print(f"# {len(parts)} worker(s): raw median solve "
          + ", ".join(f"{p['raw_p50']:.6g}" for p in parts if p["raw_p50"] is not None)
          + " s; times below are scaled by " + ", ".join(f"{p['scale']:.4f}" for p in parts))
    if args.trace:
        (part,) = parts
        metrics = part["layers"]
        metrics["trace.overhead_s"] = median(part["diffs"]) if part["diffs"] else 0.0
        metrics["scaling.ratio"] = scaling_ratio(samples)
        if part["missing"]:
            print(f"# missing layers: no hook or unreadable sizes for {part['missing']}")
        print(f"# {part['solves']} traced solves, {part['spans']} spans")
        units = PER_LAYER
    else:
        metrics, tail_pct = end_to_end(parts, samples)
        print(f"# solve_s.p50 from {len(samples)} samples; "
              f"solve_s.tail is p{tail_pct:.1f} of {len(samples)} samples")
        units = END_TO_END
    for name, unit in units.items():
        print(f"# {name:<24} {metrics[name]:.6g} {unit}")
    print(f"# failed_frac              {failed / attempted:.6g} "
          f"({failed} of {attempted} attempted; "
          f"{sum(p['unverified'] for p in parts)} only within bounds)")
    for p in parts:
        for err in p["errors"]:
            print(f"# error: {err}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
