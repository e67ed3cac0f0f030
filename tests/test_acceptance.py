"""Acceptance gate: eleven end-to-end checks, one visible verdict line each.

Corpora are generated once per session and shared across criteria; every
seed is fixed so reruns see the same instances.
"""

import time
from fractions import Fraction
from math import comb
from statistics import median

from helpers import exact_deletion_set, has_claw, mm_brute, named, rand_simple
from test_claws import induces_claw, residual
from test_paths import lemma_violations, normal_paths_of

from intervalpath.claws import approx_deletion_set, prune_deletion_set
from intervalpath.dp import max_weight_path
from intervalpath.generators import GeneratorSpec, Lcg, generate
from intervalpath.intervals import normalize_endpoints
from intervalpath.matching import decide_matching, kernelize
from intervalpath.oracle import brute_longest_path, brute_max_weight_path
from intervalpath.paths import is_path
from intervalpath.pipeline import longest_path, longest_path_by_reductions, run_stages
from intervalpath.reduce2 import compute_stage2_families
from intervalpath.semiproper import make_semi_proper

_cache = {}


def _corpus(name):
    got = _cache.get(name)
    if got is not None:
        return got
    if name == "random":
        got = [
            generate(GeneratorSpec(kind="random", n=1 + i % 14, seed=9000 + i))
            for i in range(500)
        ]
    elif name == "proper":
        got = [generate(GeneratorSpec(kind="proper", n=n, seed=n)) for n in range(2, 201, 2)]
    else:
        got = []
        for i in range(100):
            k = 1 + i % 5
            n = 5 * k + 3 + (i * 7) % 11
            got.append(generate(GeneratorSpec(kind="planted", n=n, k=k, seed=700 + i)))
    _cache[name] = got
    return got


def _solved(name, solve=longest_path):
    key = ("solved", name, solve.__name__)
    got = _cache.get(key)
    if got is None:
        got = [(g, solve(g)) for g in _corpus(name)]
        _cache[key] = got
    return got


def _staged(name):
    key = ("staged", name)
    got = _cache.get(key)
    if got is None:
        got = [(g, run_stages(g)) for g in _corpus(name)]
        _cache[key] = got
    return got


def _exact_planted():
    """(semi-proper graph, minimum deletion set or None) per planted instance."""
    key = ("exact", "planted")
    got = _cache.get(key)
    if got is None:
        got = []
        for g in _corpus("planted"):
            semi = make_semi_proper(normalize_endpoints(g))
            got.append((semi, exact_deletion_set(semi, k_max=5)))
        _cache[key] = got
    return got


def _verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} {label}: {detail}"


def test_criterion_1_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    bad = sum(
        1 for g, res in _solved("random") if res.length != brute_longest_path(g)[0]
    )
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 60
    _verdict(
        capsys, 1, "end-to-end oracle equivalence", ok,
        f"{500 - bad}/500 exact in {dt:.1f}s",
    )


def test_criterion_2_proper_is_hamiltonian(capsys):
    solved = _solved("proper")
    bad = sum(1 for g, res in solved if res.length != g.n)
    _verdict(
        capsys, 2, "proper instances traversed fully", bad == 0,
        f"{len(solved) - bad}/{len(solved)} Hamiltonian up to n=200",
    )


def test_criterion_3_deletion_set_within_four_times_optimum(capsys):
    worst = 0.0
    ok = True
    for semi, exact in _exact_planted():
        if exact is None:
            ok = False
            break
        k_opt = len(exact.marked)
        got = approx_deletion_set(semi)
        d = named(semi, got.marked)
        if k_opt:
            worst = max(worst, len(d) / k_opt)
        covered = set()
        for cert in got.certificates:
            four = {cert.center, *cert.leaves}
            if not induces_claw(semi, cert) or len(four) != 4 or four & covered:
                ok = False
            covered |= four
        ok = ok and len(d) <= 4 * k_opt and covered == d
        ok = ok and len(got.certificates) * 4 == len(d)
        if not ok:
            break
    _verdict(
        capsys, 3, "4-approximation with disjoint claw certificates", ok,
        f"100 planted instances, worst ratio {worst:.2f}",
    )


def test_criterion_10_pruned_deletion_set(capsys):
    """Pruning keeps G - D claw-free and lands between the optimum and the
    greedy set; how often it reaches the optimum is reported, not gated."""
    ok = True
    at_opt = 0
    for semi, exact in _exact_planted():
        if exact is None:
            ok = False
            break
        greedy = approx_deletion_set(semi)
        pruned = prune_deletion_set(semi, greedy).marked
        ok = ok and pruned <= greedy.marked
        ok = ok and not has_claw(residual(semi, pruned))
        ok = ok and len(exact.marked) <= len(pruned) <= len(greedy.marked)
        at_opt += len(pruned) == len(exact.marked)
        if not ok:
            break
    _verdict(
        capsys, 10, "pruned deletion set is claw-free and no larger", ok,
        f"100 planted instances, {at_opt}/100 at the optimum",
    )


def test_criterion_4_structural_bounds(capsys):
    runs = 0
    ok = True
    for name in ("random", "proper", "planted"):
        for g, st in _staged(name):
            k = len(st.deletion.marked) - 2
            fam2 = compute_stage2_families(st.stage1, st.deletion)
            ok = ok and st.stage1.families.p_total() == 2 * (k + 1)
            ok = ok and all(j != i for (j, i) in fam2.Uji)
            ok = ok and len(fam2.T) <= 18 * k + 16
            ok = ok and len(st.special.B) <= (k + 2) + comb(18 * k + 16, 2) * (k + 6)
            runs += 1
            if not ok:
                break
    _verdict(
        capsys, 4, "stage bounds on every pipeline run", ok,
        f"{runs} runs across all corpora",
    )


def test_criterion_5_weight_preserved_stage_by_stage(capsys):
    checked = 0
    ok = True
    for name in ("random", "proper", "planted"):
        for g, st in _staged(name):
            if g.n > 12:
                continue
            w_g = brute_max_weight_path(g)
            w_sharp = brute_max_weight_path(st.stage1.g_sharp)
            w_hat = brute_max_weight_path(st.special.graph)
            dp = Fraction(max_weight_path(st.special).weight)
            ok = ok and w_g == w_sharp == w_hat == dp
            checked += 1
            if not ok:
                break
    _verdict(
        capsys, 5, "exact rational equality across reductions", ok,
        f"{checked} instances with n <= 12",
    )


def test_criterion_6_lifting_soundness(capsys):
    """Through the reductions route, so every solve is lifted."""
    runs = 0
    ok = True
    for name in ("random", "proper", "planted"):
        for g, res in _solved(name, longest_path_by_reductions):
            p = res.path
            ok = ok and isinstance(res.length, int)
            ok = ok and len(p) == res.length and len(set(p)) == len(p)
            ok = ok and (not p or is_path(g, p))
            runs += 1
        for g, st in _staged(name):
            w = max_weight_path(st.special).weight
            ok = ok and w == int(w)
    _verdict(
        capsys, 6, "lifted paths realize the reported length", ok,
        f"{runs} solves, all integer-valued",
    )


def test_criterion_11_both_routes_agree(capsys):
    """``longest_path`` (certified where the walk succeeds) and the
    reductions route give equal lengths and valid paths on every corpus."""
    runs = certified = 0
    ok = True
    for name in ("random", "proper", "planted"):
        both = zip(_solved(name), _solved(name, longest_path_by_reductions))
        for (g, res), (_, red) in both:
            ok = ok and res.length == red.length
            ok = ok and red.stats["route"] == "reductions"
            for r in (res, red):
                ok = ok and len(r.path) == r.length and (not r.path or is_path(g, r.path))
            certified += res.stats["route"] == "certified"
            runs += 1
    _verdict(
        capsys, 11, "both routes give the same length", ok,
        f"{runs} instances, {certified} certified",
    )


def test_criterion_7_normal_path_lemmas(capsys):
    paths = 0
    violations = 0
    for i in range(200):
        g = generate(GeneratorSpec(kind="random", n=1 + i % 10, seed=31000 + i))
        for p in normal_paths_of(g):
            violations += len(lemma_violations(g, p))
            paths += 1
    _verdict(
        capsys, 7, "ordering lemmas over all normal paths", violations == 0,
        f"{paths} paths on 200 instances, {violations} violations",
    )


def test_criterion_8_matching_agreement(capsys):
    lcg = Lcg(5150)
    ok = True
    decided = 0
    kernels = 0
    for _ in range(300):
        g = rand_simple(lcg)
        opt = mm_brute(g)
        for k in range(1, g.n // 2 + 1):
            ok = ok and decide_matching(g, k) == (opt >= k)
            out = kernelize(g, k)
            if out.verdict == "KERNEL":
                small, k_prime = out.kernel
                bound = (k_prime - 1) * (2 * k_prime - 1)
                ok = ok and small.n <= bound and small.m <= bound
                kernels += 1
            decided += 1
    _verdict(
        capsys, 8, "matching decisions and kernel bounds", ok,
        f"{decided} (graph, k) pairs, {kernels} kernels within bound",
    )


def test_criterion_9_soft_scaling(capsys):
    """Documented, not gating: ratios are reported even when out of band."""
    meds = []
    for n in (10_000, 20_000, 40_000):
        g = generate(GeneratorSpec(kind="planted", n=n, k=3, seed=1))
        runs = []
        for _ in range(5):
            stats = longest_path(g).stats
            runs.append(sum(v for key, v in stats.items() if key.startswith("t_")))
        meds.append(median(runs))
    r1 = meds[1] / meds[0]
    r2 = meds[2] / meds[1]
    inside = 1.4 <= r1 <= 3.0 and 1.4 <= r2 <= 3.0
    note = "within [1.4, 3.0]" if inside else "OUTSIDE [1.4, 3.0], see README"
    _verdict(
        capsys, 9, "near-linear scaling, soft", True,
        f"median-of-5 ratios {r1:.2f} and {r2:.2f}, {note}",
    )
