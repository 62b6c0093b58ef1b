import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from ldt.batch import cell_from_sample, infer_set
from ldt.cli import main
from ldt.geometry import Family, Sign, Vector, ground_truth_pattern
from ldt.inference import build_sorted_sample
from ldt.oracle import HiddenPointOracle
from ldt.prng import SplitMix64
from ldt.problems import (
    brute_kldt,
    brute_zero_triangles,
    encode_kldt,
    encode_ksum,
    encode_sort_sumset,
    encode_subset_sum,
    encode_zero_triangles,
    extract_answer,
    random_kldt_instance,
    random_ksum_instance,
    random_subset_sum_instance,
    random_sumset_instance,
    random_triangles_instance,
)
from ldt.solver import SolveConfig, SolverStalledError, ceil_mul_log2, solve


def test_ceil_mul_log2_frozen_parameters():
    # k-SUM indicator families have w = 1, so q = n + 2
    assert ceil_mul_log2(Fraction(2 * 16), Fraction(18)) == 134
    assert ceil_mul_log2(Fraction(2 * 32), Fraction(34)) == 326
    assert ceil_mul_log2(Fraction(2 * 24), Fraction(26)) == 226
    assert ceil_mul_log2(Fraction(2 * 8), Fraction(10)) == 54


def test_ceil_mul_log2_exact_power_boundary():
    # 28 * log2(16) = 112 exactly; ceiling must not round up
    assert ceil_mul_log2(Fraction(28), Fraction(16)) == 112
    assert ceil_mul_log2(Fraction(1), Fraction(2)) == 1
    assert ceil_mul_log2(Fraction(3), Fraction(4)) == 6


def test_ceil_mul_log2_rational_arguments():
    # 3/2 * log2(8) = 4.5 -> 5
    assert ceil_mul_log2(Fraction(3, 2), Fraction(8)) == 5


def test_solve_frozen_instance():
    values = [5, -1, -4, 7, 2, 9]
    enc = encode_ksum([Fraction(v) for v in values], 3)
    oracle = HiddenPointOracle(enc.hidden)
    report = solve(enc.family, oracle, SolveConfig(seed=0))
    assert report.pattern.contains_zero()
    truth = ground_truth_pattern(enc.family, enc.hidden)
    for i in range(len(enc.family)):
        assert report.pattern[i] is truth[i]
    assert report.total_queries == sum(oracle.ledger.snapshot())


def test_solve_unique_zero_triple():
    # only 1 + 2 - 3 vanishes
    enc = encode_ksum([Fraction(v) for v in (1, 2, -3, 7, 11, 13)], 3)
    oracle = HiddenPointOracle(enc.hidden)
    report = solve(enc.family, oracle, SolveConfig(seed=5))
    zeros = [i for i in range(len(enc.family)) if report.pattern[i] is Sign.ZERO]
    assert len(zeros) == 1
    assert list(combinations(range(6), 3))[zeros[0]] == (0, 1, 2)


def test_solve_rejects_empty_and_mixed_dims():
    oracle = HiddenPointOracle(Vector([1]))
    with pytest.raises(ValueError):
        solve([], oracle)
    with pytest.raises(ValueError):
        solve([Vector([1]), Vector([1, 2])], HiddenPointOracle(Vector([1])))


def test_solve_handles_duplicates_and_zero_vector():
    secret = Vector([2, -1])
    family = [
        Vector([1, 0]),
        Vector([1, 0]),  # duplicate: one query must serve both
        Vector([0, 0]),  # zero vector: no query at all
        Vector([0, 1]),
    ]
    oracle = HiddenPointOracle(secret)
    report = solve(family, oracle, SolveConfig(seed=0))
    assert report.pattern[0] is Sign.PLUS
    assert report.pattern[1] is Sign.PLUS
    assert report.pattern[2] is Sign.ZERO
    assert report.pattern[3] is Sign.MINUS
    assert oracle.ledger.label_count == 2


def test_solve_deterministic_per_seed():
    enc = encode_ksum([Fraction(v) for v in range(1, 17)], 3)
    reports = []
    for _ in range(2):
        oracle = HiddenPointOracle(enc.hidden)
        reports.append(solve(enc.family, oracle, SolveConfig(seed=9)))
    a, b = reports
    assert a.label_queries == b.label_queries
    assert a.comparison_queries == b.comparison_queries
    assert [r.inferred for r in a.rounds] == [r.inferred for r in b.rounds]
    assert all(a.pattern[i] is b.pattern[i] for i in range(len(enc.family)))


def test_seeds_change_queries_not_answers():
    enc = encode_ksum([Fraction(v) for v in range(1, 17)], 3)
    totals = set()
    patterns = set()
    for seed in range(4):
        oracle = HiddenPointOracle(enc.hidden)
        report = solve(enc.family, oracle, SolveConfig(seed=seed))
        totals.add(report.total_queries)
        patterns.add(
            "".join(report.pattern[i].char for i in range(len(enc.family)))
        )
    assert len(patterns) == 1
    assert len(totals) > 1  # randomness shows up in cost only


def test_sample_constant_shrinks_sample():
    enc = encode_ksum([Fraction(v) for v in range(1, 17)], 3)
    oracle = HiddenPointOracle(enc.hidden)
    small = solve(enc.family, oracle, SolveConfig(seed=0, sample_constant=Fraction(1, 2)))
    assert small.d_estimate == 34  # 16/2 * log2(18) rounded up
    truth = ground_truth_pattern(enc.family, enc.hidden)
    assert all(small.pattern[i] is truth[i] for i in range(len(enc.family)))


def test_strict_mode_round_trip():
    enc = encode_ksum([Fraction(v) for v in range(1, 17)], 3)
    truth = ground_truth_pattern(enc.family, enc.hidden)
    # a matrix family, and a list of Vectors the solver converts once
    for family in (enc.family, list(enc.family)):
        oracle = HiddenPointOracle(enc.hidden, strict_family=family)
        report = solve(family, oracle, SolveConfig(seed=2))
        assert report.rounds
        assert all(report.pattern[i] is truth[i] for i in range(len(enc.family)))


_CONTRADICTORY_SOLVE = """
from ldt.geometry import Vector, sign_of
from ldt.inference import InconsistentSampleError
from ldt.oracle import HiddenPointOracle
from ldt.solver import solve


class LabelOnlyOracle(HiddenPointOracle):
    # orders rows by their labels alone, so every same-label pair reads
    # as tied, whatever their values
    def query_rows(self, family, ids):
        labels, compare = super().query_rows(family, ids)

        def label_compare(p, q):
            compare(p, q)
            return sign_of(int(labels[p]) - int(labels[q]))

        return labels, label_compare


family = [Vector([a, b]) for a in range(-3, 4) for b in range(-3, 4) if a or b]
try:
    solve(family, LabelOnlyOracle(Vector([5, -2])))
except InconsistentSampleError:
    print("typed error")
"""


def test_contradictory_oracle_raises_under_optimize():
    # python -O strips assert statements; the consistency checks must stay
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CONTRADICTORY_SOLVE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "typed error"


def test_coordinates_past_int64_are_decided_exactly():
    # a row with a coordinate of 2^63 or more cannot be held in int64;
    # the family matrix then takes Python integers instead
    big = 1 << 63
    secret = Vector([2, 1])
    family = Family.of([Vector([1, 0]), Vector([0, 1]), Vector([big, 1]), Vector([1, -big])])
    assert family.rows.dtype == object
    sample = build_sorted_sample(range(2), family, HiddenPointOracle(secret))
    outcome = infer_set(cell_from_sample(sample, family), [2, 3], family)
    truth = ground_truth_pattern(family, secret)
    assert outcome.inferred[2] is truth[2] is Sign.PLUS
    for ident, sign in outcome.inferred.items():
        assert sign is truth[ident]

    # a whole solve over enough rows for an inference round, with huge
    # rows among the sample members
    rows = [Vector([a, b]) for a in range(-4, 5) for b in range(-4, 5) if a or b]
    rows += [Vector([big, 1]), Vector([big + 7, -big]), Vector([-3, big * big])]
    for seed in range(4):
        x = Vector([Fraction(5, 3), Fraction(-7, 2)])
        report = solve(rows, HiddenPointOracle(x), SolveConfig(seed, Fraction(1, 8)))
        assert report.rounds
        assert report.pattern == ground_truth_pattern(rows, x)


def test_solve_materialises_only_the_rows_it_queries(monkeypatch):
    # queries and inference go by row index, so a solve builds no Vector
    # of the family; a strict oracle compares the family with the declared
    # one as matrices, so a strict solve builds none either
    calls = 0
    member = Family._member

    def counting(self, row):
        nonlocal calls
        calls += 1
        return member(self, row)

    monkeypatch.setattr(Family, "_member", counting)
    ksum = random_ksum_instance(SplitMix64(3), 32, 3, planted=True)
    subset = random_subset_sum_instance(SplitMix64(5), 14, planted=True)
    sumset = random_sumset_instance(SplitMix64(7), 12, 12)
    kldt = random_kldt_instance(SplitMix64(9), 9, 3, planted=True)
    triangles = random_triangles_instance(SplitMix64(9), 30, planted=True)
    # k-LDT and triangles run a round only at a smaller sample constant
    for enc, c in (
        (encode_ksum(ksum, 3), 2),
        (encode_subset_sum(subset), 2),
        (encode_sort_sumset(*sumset), 2),
        (encode_kldt(*kldt), Fraction(1, 4)),
        (encode_zero_triangles(*triangles), Fraction(1, 8)),
    ):
        config = SolveConfig(seed=1, sample_constant=Fraction(c))
        # declared as the same object, and as an equal family of Vectors
        declared = list(enc.family)
        calls = 0
        report = solve(enc.family, HiddenPointOracle(enc.hidden), config)
        assert report.rounds
        for family in (enc.family, declared):
            strict = solve(
                enc.family, HiddenPointOracle(enc.hidden, strict_family=family), config
            )
            assert strict == report
        assert calls == 0


def test_query_trace_is_pinned():
    # the sorts and the direct labels ask the same queries in the same
    # order as the per-member and per-pair loops they replaced
    enc = encode_ksum(random_ksum_instance(SplitMix64(2024), 16, 3, planted=True), 3)
    oracle = HiddenPointOracle(enc.hidden, log_queries=True)
    report = solve(enc.family, oracle, SolveConfig(seed=3))
    assert len(report.rounds) == 1
    assert oracle.ledger.snapshot() == (269, 1446)
    buf = io.StringIO()
    oracle.ledger.export_jsonl(buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "398f6cd62ffc48f776af6362513fc08ff8eb21677d2444ab58e833ab47e63b28"


def _planted_3sum_16():
    # this planted 3-SUM n=16 draw runs one inference round at seed 4
    values = random_ksum_instance(SplitMix64(4), 16, 3, planted=True)
    return values, encode_ksum(values, 3)


def test_solver_stalls_past_the_round_budget(monkeypatch):
    _, enc = _planted_3sum_16()
    report = solve(enc.family, HiddenPointOracle(enc.hidden), SolveConfig(seed=4))
    assert len(report.rounds) == 1
    monkeypatch.setattr("ldt.solver._MAX_ROUNDS", 0)
    with pytest.raises(SolverStalledError, match="after 0 rounds"):
        solve(enc.family, HiddenPointOracle(enc.hidden), SolveConfig(seed=4))


def test_solve_path_never_runs_the_rational_reference(monkeypatch, tmp_path, capsys):
    # lp's exact simplex serves only the tests and lab as a reference
    def refuse(system):
        raise AssertionError("a solve ran the rational reference")

    monkeypatch.setattr("ldt.lp._max_slack", refuse)
    values, ksum = _planted_3sum_16()
    rng = SplitMix64(12)
    subset = encode_subset_sum(random_subset_sum_instance(rng, 12, planted=True))
    sumset = encode_sort_sumset(*random_sumset_instance(rng, 8, 8))
    for seed, enc in enumerate((ksum, subset, sumset)):
        report = solve(enc.family, HiddenPointOracle(enc.hidden), SolveConfig(seed))
        assert report.rounds
        assert report.pattern == ground_truth_pattern(enc.family, enc.hidden)

    inst = tmp_path / "inst.txt"
    inst.write_text(" ".join(map(str, values)) + "\n")
    argv = ["solve", "ksum", "--input", str(inst), "--k", "3", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rounds"]


def _audited_rounds(enc, seed, sample_constant):
    """The rounds of a solve that must run one, and get every sign right."""
    report = solve(
        enc.family, HiddenPointOracle(enc.hidden), SolveConfig(seed, sample_constant)
    )
    assert report.rounds
    assert report.pattern == ground_truth_pattern(enc.family, enc.hidden)
    return report.rounds, extract_answer(enc, report.pattern)


def test_kldt_and_triangles_reach_inference():
    # at the default sample constant these sizes are labelled directly
    rng = SplitMix64(9)
    for trial in range(3):
        alphas, values = random_kldt_instance(rng, 9, 3, planted=trial != 1)
        enc = encode_kldt(alphas, values)
        rounds, answer = _audited_rounds(enc, trial, Fraction(1, 4))
        assert any(r.inferred > r.sample_size for r in rounds)
        assert answer is brute_kldt(alphas, values)
    for trial in range(3):
        nv, edges = random_triangles_instance(rng, 30, planted=trial != 1)
        enc = encode_zero_triangles(nv, edges)
        rounds, answer = _audited_rounds(enc, trial, Fraction(1, 8))
        # these cells reduce to about 150 dimensions, past the exact
        # tier; a round settles at least its own sample (today no more)
        assert all(r.inferred >= r.sample_size for r in rounds)
        assert answer is brute_zero_triangles(nv, edges)
