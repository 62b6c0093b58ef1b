"""End-to-end acceptance runs, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured numbers so a
verbose run reads as a checklist.  The inferred-sign audit (criterion
8) accumulates over the solves performed by criteria 1 through 4.
"""

import contextlib
import io
import json
import math
import time
from fractions import Fraction

from ldt.geometry import Vector, ground_truth_pattern
from ldt.lab import (
    check_ordering_count,
    cone_certificate,
    crosscheck_feasibility,
    crosscheck_inference,
    enumerate_cells,
    find_signed_collision,
    inference_dimension_exact,
)
from ldt.oracle import HiddenPointOracle
from ldt.problems import (
    brute_ksum,
    brute_kldt,
    brute_subset_sum,
    brute_sumset_order,
    brute_zero_triangles,
    encode_ksum,
    encode_kldt,
    encode_sort_sumset,
    encode_subset_sum,
    encode_zero_triangles,
    extract_answer,
    random_ksum_instance,
    random_kldt_instance,
    random_subset_sum_instance,
    random_sumset_instance,
    random_triangles_instance,
)
from ldt.prng import SplitMix64
from ldt.solver import SolveConfig, solve

AUDIT = {"checked": 0, "mismatch": 0}


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _solve_audited(enc, seed):
    oracle = HiddenPointOracle(enc.hidden)
    report = solve(enc.family, oracle, SolveConfig(seed=seed))
    truth = ground_truth_pattern(enc.family, enc.hidden)
    AUDIT["checked"] += len(enc.family)
    AUDIT["mismatch"] += int((report.pattern != truth).sum())
    return report, extract_answer(enc, report.pattern)


def _negative_ksum(rng, n, k):
    # wide coefficients make raw draws almost surely negative
    while True:
        vals = random_ksum_instance(rng, n, k, False, bound=10 * n**3)
        if not brute_ksum(vals, k):
            return vals


def test_c01_ksum_zero_error_600():
    start = time.perf_counter()
    wrong = 0
    total = 0
    for seed in range(3):
        for n in (8, 16, 24, 32):
            rng = SplitMix64(1000 * seed + n)
            for trial in range(25):
                vals = random_ksum_instance(rng, n, 3, True)
                enc = encode_ksum([Fraction(v) for v in vals], 3)
                _, answer = _solve_audited(enc, seed=seed * 100 + trial)
                total += 1
                wrong += answer is not True or not brute_ksum(vals, 3)
            for trial in range(25):
                vals = _negative_ksum(rng, n, 3)
                enc = encode_ksum([Fraction(v) for v in vals], 3)
                _, answer = _solve_audited(enc, seed=seed * 100 + 50 + trial)
                total += 1
                wrong += answer is not False
    wall = time.perf_counter() - start
    _verdict(
        "C1 k-SUM zero error",
        wrong == 0 and total == 600 and wall < 300,
        f"{total - wrong}/600 correct in {wall:.0f}s (limit 300s)",
    )


def test_c02_subset_sum_zero_error_100():
    start = time.perf_counter()
    wrong = 0
    total = 0
    for n in (8, 10, 12, 14):
        rng = SplitMix64(7000 + n)
        for trial in range(25):
            vals = random_subset_sum_instance(rng, n, trial % 2 == 0)
            enc = encode_subset_sum([Fraction(v) for v in vals])
            _, answer = _solve_audited(enc, seed=trial)
            total += 1
            wrong += answer is not brute_subset_sum(vals)
    wall = time.perf_counter() - start
    _verdict(
        "C2 subset-sum zero error",
        wrong == 0 and total == 100 and wall < 600,
        f"{total - wrong}/100 correct in {wall:.0f}s (limit 600s)",
    )


def test_c03_sumset_sorting_50():
    start = time.perf_counter()
    wrong = 0
    total = 0
    for m, trials in ((4, 17), (8, 17), (12, 16)):
        rng = SplitMix64(8000 + m)
        for trial in range(trials):
            a, b = random_sumset_instance(rng, m, m)
            enc = encode_sort_sumset(a, b)
            _, groups = _solve_audited(enc, seed=trial)
            total += 1
            wrong += groups != brute_sumset_order(a, b)
    wall = time.perf_counter() - start
    _verdict(
        "C3 sumset sorting",
        wrong == 0 and total == 50 and wall < 900,
        f"{total - wrong}/50 preorders exact in {wall:.0f}s (limit 900s)",
    )


def test_c04_kldt_and_triangles_50_each():
    wrong = 0
    rng = SplitMix64(9100)
    for trial in range(50):
        alphas, values = random_kldt_instance(rng, 9, 3, trial % 2 == 0)
        enc = encode_kldt(alphas, values)
        _, answer = _solve_audited(enc, seed=trial)
        wrong += answer is not brute_kldt(alphas, values)
    rng = SplitMix64(9200)
    for trial in range(50):
        nv, edges = random_triangles_instance(rng, 8, trial % 2 == 0)
        enc = encode_zero_triangles(nv, edges)
        _, answer = _solve_audited(enc, seed=trial)
        wrong += answer is not brute_zero_triangles(nv, edges)
    _verdict(
        "C4 k-LDT and zero-triangles",
        wrong == 0,
        f"{100 - wrong}/100 oracle agreements",
    )


def _mean_total_ksum(n, trials, seed0):
    totals = []
    rng = SplitMix64(5500 + n)
    for trial in range(trials):
        if trial % 2 == 0:
            vals = random_ksum_instance(rng, n, 3, True)
        else:
            vals = _negative_ksum(rng, n, 3)
        enc = encode_ksum([Fraction(v) for v in vals], 3)
        oracle = HiddenPointOracle(enc.hidden)
        report = solve(enc.family, oracle, SolveConfig(seed=seed0 + trial))
        totals.append(report.total_queries)
    return sum(totals) / len(totals)


def test_c05_ksum_query_scaling():
    mean16 = _mean_total_ksum(16, 20, 30)
    mean32 = _mean_total_ksum(32, 20, 60)
    ratio = mean32 / mean16
    _verdict(
        "C5 k-SUM query scaling",
        ratio <= 3.5,
        f"mean n=32 {mean32:.0f} / mean n=16 {mean16:.0f} = {ratio:.2f} (<= 3.5)",
    )


def test_c06_subset_sum_query_budget():
    def mean_total(n, trials):
        totals = []
        rng = SplitMix64(6600 + n)
        for trial in range(trials):
            vals = random_subset_sum_instance(rng, n, trial % 2 == 0)
            enc = encode_subset_sum([Fraction(v) for v in vals])
            oracle = HiddenPointOracle(enc.hidden)
            report = solve(enc.family, oracle, SolveConfig(seed=trial))
            totals.append(report.total_queries)
        return sum(totals) / len(totals)

    mean8 = mean_total(8, 10)
    fitted = mean8 / (8 * 8 * math.log2(8))
    mean14 = mean_total(14, 10)
    budget_fit = 3 * fitted * 14 * 14 * math.log2(14)
    budget_family = (2**14 - 1) / 4
    ok = mean14 <= budget_fit and mean14 <= budget_family
    _verdict(
        "C6 subset-sum query budget",
        ok,
        f"mean n=14 {mean14:.0f} <= fit {budget_fit:.0f} and <= |H|/4 {budget_family:.0f}",
    )


def test_c07_inference_crosschecks():
    feas = crosscheck_feasibility(500, seed=12)
    inf = crosscheck_inference(100, seed=12)
    ok = feas == (500, 500) and inf == (100, 100)
    _verdict(
        "C7 dual-route crosschecks",
        ok,
        f"feasibility {feas[0]}/500, cell inference {inf[0]}/100",
    )


def test_c08_inferred_sign_audit():
    ok = AUDIT["mismatch"] == 0 and AUDIT["checked"] >= 100_000
    _verdict(
        "C8 inferred-sign soundness",
        ok,
        f"{AUDIT['checked']} sign checks, {AUDIT['mismatch']} mismatches",
    )


def test_c09_halving_per_round():
    rng = SplitMix64(4242)
    vals = random_ksum_instance(rng, 16, 3, True)
    enc = encode_ksum([Fraction(v) for v in vals], 3)
    factors = []
    for seed in range(100):
        oracle = HiddenPointOracle(enc.hidden)
        report = solve(enc.family, oracle, SolveConfig(seed=seed))
        for r in report.rounds:
            if r.live_before >= 4 * report.d_estimate:
                factors.append((r.live_before - r.inferred) / r.live_before)
    mean = sum(factors) / len(factors)
    _verdict(
        "C9 per-round shrinkage",
        mean <= 0.75 and factors,
        f"mean live fraction {mean:.3f} over {len(factors)} rounds (<= 0.75)",
    )


def test_c10_lab_suite():
    # cell counts against (2e m)^n, frozen plus random exact runs
    e1, e2 = Vector([1, 0]), Vector([0, 1])
    frozen = [
        ([Vector([1])], 3),
        ([e1, e2], 9),
        ([e1, e2, Vector([1, 1])], 13),
    ]
    cells_ok = True
    for family, want in frozen:
        enum = enumerate_cells(family)
        bound = (Fraction(5436, 1000) * len(family)) ** family[0].dim
        cells_ok &= enum.count == want and enum.count <= bound
    rng = SplitMix64(1312)
    for _ in range(20):
        dim = 1 + rng.below(2)
        fam = []
        seen = set()
        while len(fam) < 3 + rng.below(3):
            v = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(v) and v not in seen:
                seen.add(v)
                fam.append(Vector(v))
        enum = enumerate_cells(fam)
        bound = (Fraction(5436, 1000) * len(fam)) ** dim
        cells_ok &= enum.count <= bound

    # collision search above the pigeonhole threshold: n=2, l1 width 3,
    # m=19 satisfies 2^(m-1) > (2e(2w+1)m/n)^n
    pool = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            if (a, b) != (0, 0) and abs(a) + abs(b) <= 3:
                pool.append(Vector((a, b)))
    threshold = (Fraction(5437, 1000) * 7 * 19 / 2) ** 2
    assert 2**18 > threshold
    coll_ok = 0
    cert_ok = 0
    rng = SplitMix64(777)
    for _ in range(100):
        picks = rng.sample_indices(len(pool), 19)
        x = Vector(
            [Fraction(rng.randint(-997, 997), 1 + rng.below(97)) for _ in range(2)]
        )
        ordered = sorted((pool[i] for i in picks), key=lambda v: v.dot(x))
        alpha = find_signed_collision(ordered)
        if alpha is None:
            continue
        coll_ok += 1
        p, coeffs = cone_certificate(ordered, alpha)
        lhs = ordered[p + 1] - ordered[0]
        acc = Vector.zero(2)
        for i, c in enumerate(coeffs):
            assert c >= 0
            acc = acc + (ordered[i + 1] - ordered[i]).scaled(Fraction(c))
        cert_ok += acc.coords == lhs.coords

    # inference dimension exhaustive check is monotone in d
    mono_ok = True
    rng = SplitMix64(515)
    for _ in range(20):
        fam = []
        seen = set()
        while len(fam) < 2 + rng.below(3):
            v = (rng.randint(-1, 1), rng.randint(-1, 1))
            if any(v) and v not in seen:
                seen.add(v)
                fam.append(Vector(v))
        flags = [inference_dimension_exact(fam, d) for d in range(1, len(fam) + 1)]
        mono_ok &= flags == sorted(flags)

    ok = cells_ok and coll_ok == 100 and cert_ok == 100 and mono_ok
    _verdict(
        "C10 lab suite",
        ok,
        f"cells bound ok={cells_ok}, collisions {coll_ok}/100,"
        f" certificates {cert_ok}/100, infdim monotone={mono_ok}",
    )


def test_c11_reproducibility(tmp_path):
    from ldt.cli import main

    inst = tmp_path / "inst.txt"
    rng = SplitMix64(321)
    vals = random_ksum_instance(rng, 16, 3, True)
    inst.write_text(" ".join(str(v) for v in vals) + "\n")
    outputs = set()
    for _ in range(20):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(
                ["solve", "ksum", "--input", str(inst), "--k", "3", "--json", "--seed", "8"]
            )
        assert code == 0
        payload = json.loads(buf.getvalue())
        del payload["wall_time_ms"]
        outputs.add(json.dumps(payload, sort_keys=True))
    _verdict(
        "C11 reproducibility",
        len(outputs) == 1,
        f"{20 - len(outputs) + 1}/20 byte-identical reports modulo wall time",
    )
