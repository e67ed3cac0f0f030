"""Tests of the benchmark's own parts: generator, checker, tracer, contract."""

import json
import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import spans
from answers import check_answer, make_instance
from comb import make_comb
from intervalpath import generators, intervals, pipeline
from intervalpath.oracle import SIZE_GUARD, brute_longest_path
from workloads import WORKLOADS, build_pool


def _solver():
    # the modules already imported by the test session; run.Solver would
    # re-import them and split exception classes between two copies
    return SimpleNamespace(
        intervals=intervals,
        pipeline=pipeline,
        solve=lambda text: pipeline.longest_path(intervals.parse_intervals(text)),
    )


def _tiny_combs():
    for seed in range(400):
        rng = random.Random(seed)
        recs, want = make_comb(
            rng, blocks=rng.randint(2, 3), stairs=(2, 4), thickness=(1, 3), teeth=(3, 4)
        )
        if len(recs) <= SIZE_GUARD:
            yield recs, want


def test_comb_closed_form_matches_brute_force():
    checked = 0
    for recs, want in _tiny_combs():
        length, _ = brute_longest_path(intervals.build(recs))
        assert length == want, recs
        checked += 1
    assert checked >= 80


def test_comb_answer_is_below_its_single_component():
    recs, want = make_comb(random.Random(7), blocks=6, stairs=(100, 300))
    inst = make_instance("comb", recs)
    assert inst.high == len(recs) > want
    assert inst.low < want


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pool_text_depends_only_on_the_seed(workload):
    def texts(seed):
        pool = build_pool(workload, seed, generators.generate, generators.GeneratorSpec)
        return [inst.text.encode() for inst in pool]

    first = texts(11)
    assert texts(11) == first
    assert texts(12) != first


def test_checker_accepts_the_solver_and_rejects_corruptions():
    recs, want = make_comb(random.Random(3), blocks=3, stairs=(6, 12))
    inst = make_instance("comb", recs, expected=want)
    res = pipeline.longest_path(intervals.parse_intervals(inst.text))
    assert check_answer(inst, res.length, res.path).ok

    path = list(res.path)
    swapped = path[:]
    swapped[1], swapped[-2] = swapped[-2], swapped[1]
    corrupted = {
        "wrong length": (res.length + 1, path),
        "short path": (res.length - 1, path[:-1]),
        "repeated vertex": (res.length, path[:-1] + path[:1]),
        "not adjacent": (res.length, swapped),
        "unknown vertex": (res.length, path[:-1] + ["nope"]),
    }
    for why, (length, bad) in corrupted.items():
        assert not check_answer(inst, length, bad).ok, why


def test_checker_bounds_only_answers_are_unverified():
    recs, want = make_comb(random.Random(5), blocks=3, stairs=(6, 12))
    inst = make_instance("dense", recs)
    assert inst.expected is None
    res = pipeline.longest_path(intervals.parse_intervals(inst.text))
    verdict = check_answer(inst, res.length, res.path)
    assert verdict.ok and not verdict.verified
    assert res.length == want


def test_failing_solve_is_counted_and_the_run_goes_on():
    recs, want = make_comb(random.Random(1), blocks=2, stairs=(4, 6))
    good = make_instance("comb", recs, expected=want)
    wrong = make_instance("comb", recs, expected=want + 1)
    broken = replace(good, text="garbage\n")
    tally = run.Tally()
    pool = [good, wrong, broken]
    samples = run.run_plain(_solver(), run._visits(pool, 0, len(pool), 0), tally)
    assert (tally.attempted, tally.failed, len(samples)) == (3, 2, 1)


def test_traced_run_reports_every_layer(monkeypatch):
    monkeypatch.setitem(spans.HOOKS, "no_such_stage", "lift")
    pool = [
        make_instance("comb", *make_comb(random.Random(s), blocks=3, stairs=(20, 40)))
        for s in range(2)
    ]
    tally = run.Tally()
    tracer = spans.Tracer()
    samples, diffs = run.run_traced(_solver(), run._visits(pool, 0, 6, 0), tally, tracer)
    assert tally.failed == 0 and len(samples) == len(diffs) == tracer.solve + 1 == 6
    assert tracer.missing == ["no_such_stage"]
    assert pipeline.is_path.__module__ == "intervalpath.paths"

    got = tracer.metrics()
    assert got["trace.missing_hooks"] == 1
    assert set(run.PER_LAYER) - set(got) == {"trace.overhead_s", "scaling.ratio"}
    for name in ("semiproper.self_s", "dp.self_s", "lift.self_s", "reduce2.self_s"):
        assert got[name] > 0, name
    assert got["lift.repairs"] == 0
    assert 0 < got["trace.coverage"] <= 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
