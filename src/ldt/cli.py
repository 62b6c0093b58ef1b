"""Command line front end.

Exit codes: 0 on success, 1 when a lab check fails, 2 on unparsable
input or an unusable argument, 3 when an instance is refused for
exceeding an enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from .geometry import Vector, parse_rational
from .lab import (
    check_ordering_count,
    cone_certificate,
    crosscheck_feasibility,
    crosscheck_inference,
    enumerate_cells,
    find_signed_collision,
    inference_dimension_exact,
    minimal_inference_dimension,
    sample_cell_patterns,
)
from .oracle import HiddenPointOracle
from .problems import (
    Encoding,
    InconsistentPatternError,
    InstanceFormatError,
    SizeCapError,
    brute_ksum,
    brute_subset_sum,
    encode_ksum,
    encode_kldt,
    encode_sort_sumset,
    encode_subset_sum,
    encode_zero_triangles,
    extract_answer,
    parse_triangle_instance,
    parse_two_line_instance,
    parse_value_line,
    random_ksum_instance,
    random_subset_sum_instance,
)
from .prng import SplitMix64
from .solver import SolveConfig, solve

SCHEMA = 1


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return fp.read()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from None


def _encode_from_args(args: argparse.Namespace) -> Encoding:
    text = _read_input(args.input)
    if args.problem == "ksum":
        if args.k is None:
            raise InstanceFormatError("ksum needs --k, the subset size")
        return encode_ksum(parse_value_line(text), args.k)
    if args.problem == "subsetsum":
        return encode_subset_sum(parse_value_line(text))
    if args.problem == "sortab":
        a, b = parse_two_line_instance(text)
        return encode_sort_sumset(a, b)
    if args.problem == "kldt":
        alphas, values = parse_two_line_instance(text)
        enc = encode_kldt(alphas, values)
        if args.k is not None and args.k != enc.meta["k"]:
            raise InstanceFormatError(
                f"--k {args.k} disagrees with {enc.meta['k']} coefficients"
            )
        return enc
    n, edges = parse_triangle_instance(text)
    return encode_zero_triangles(n, edges)


def _serialize_answer(answer):
    if isinstance(answer, bool):
        return answer
    return [[list(pair) for pair in group] for group in answer]


def _cmd_solve(args: argparse.Namespace) -> int:
    enc = _encode_from_args(args)
    strict = enc.family if args.strict_comparison else None
    oracle = HiddenPointOracle(
        enc.hidden,
        log_queries=args.log_queries is not None,
        strict_family=strict,
    )
    config = SolveConfig(
        seed=args.seed,
        sample_constant=parse_rational(args.sample_constant),
    )
    # the log is opened first, so a path that cannot be written is
    # refused before any query is spent
    log = None
    if args.log_queries is not None:
        try:
            log = open(args.log_queries, "w", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {args.log_queries}: {exc}") from None
    with log or nullcontext():
        start = time.perf_counter()
        # an empty family has the empty pattern: nothing vanishes, and a
        # single pairwise sum is one group
        report = solve(enc.family, oracle, config) if enc.family else None
        pattern = report.pattern if report else np.zeros(0, np.int8)
        answer = extract_answer(enc, pattern)
        wall_ms = (time.perf_counter() - start) * 1000.0
        if log is not None:
            oracle.ledger.export_jsonl(log)

    labels, comparisons = oracle.ledger.snapshot()
    payload = {
        "schema": SCHEMA,
        "command": "solve",
        "problem": enc.kind,
        "parameters": {
            "seed": args.seed,
            "sample_constant": args.sample_constant,
            "strict_comparison": args.strict_comparison,
        },
        "family_size": len(enc.family),
        "dim": enc.dim,
        "answer": _serialize_answer(answer),
        "queries": {
            "label": labels,
            "comparison": comparisons,
            "total": labels + comparisons,
        },
        "rounds": [asdict(r) for r in report.rounds] if report else [],
        "final_labels": report.final_labels if report else 0,
        "d_estimate": report.d_estimate if report else 0,
        "sample_target": report.sample_target if report else 0,
        "wall_time_ms": wall_ms,
    }

    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"problem: {enc.kind} ({len(enc.family)} hyperplanes, dim {enc.dim})")
        if isinstance(answer, bool):
            print(f"answer: {answer}")
        else:
            print(f"answer: {len(answer)} groups")
            for gi, group in enumerate(answer):
                cells = " ".join(f"({i},{j})" for i, j in group)
                print(f"  group {gi}: {cells}")
        q = payload["queries"]
        print(
            f"queries: {q['label']} labels + {q['comparison']} comparisons"
            f" = {q['total']}"
        )
        print(
            f"rounds: {len(payload['rounds'])}"
            f" (d_estimate {payload['d_estimate']},"
            f" sample target {payload['sample_target']},"
            f" final labels {payload['final_labels']})"
        )
        print(f"wall: {wall_ms:.1f} ms")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = []
    for tok in args.sizes.split(","):
        tok = tok.strip()
        if tok:
            try:
                sizes.append(int(tok))
            except ValueError:
                raise InstanceFormatError(f"bad size {tok!r}") from None
    if not sizes:
        raise InstanceFormatError("no sizes given")
    # refused before any draw: an instance needs a value, and a k-subset
    # of a size-n instance needs 1 <= k <= n
    for size in sizes:
        if size < 1:
            raise InstanceFormatError(f"size {size} is below 1")
        if args.problem == "ksum" and not 1 <= args.k <= size:
            raise InstanceFormatError(f"--k {args.k} is outside 1..{size}")
    print("size,trial,planted,answer,label_queries,comparison_queries,rounds,correct")
    failures = 0
    for size in sizes:
        for trial in range(args.trials):
            planted = trial % 2 == 0
            inst_rng = SplitMix64(
                (args.seed * 1_000_003 + size) * 1_000_003 + trial
            )
            if args.problem == "ksum":
                values = random_ksum_instance(inst_rng, size, args.k, planted)
                enc = encode_ksum(values, args.k)
                expected = brute_ksum(values, args.k)
            else:
                values = random_subset_sum_instance(inst_rng, size, planted)
                enc = encode_subset_sum(values)
                expected = brute_subset_sum(values)
            oracle = HiddenPointOracle(enc.hidden)
            report = solve(enc.family, oracle, SolveConfig(seed=args.seed))
            answer = extract_answer(enc, report.pattern)
            correct = answer == expected
            if not correct:
                failures += 1
            print(
                f"{size},{trial},{int(planted)},{int(answer)},"
                f"{report.label_queries},{report.comparison_queries},"
                f"{len(report.rounds)},{int(correct)}"
            )
    return 0 if failures == 0 else 1


def _random_family(
    rng: SplitMix64, dim: int, count: int, w: int
) -> list[Vector]:
    seen: set[tuple] = set()
    out: list[Vector] = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 100_000:
            raise SizeCapError(
                f"cannot draw {count} distinct nonzero vectors from width {w}"
            )
        v = Vector([rng.randint(-w, w) for _ in range(dim)])
        if v.is_zero() or v.coords in seen:
            continue
        seen.add(v.coords)
        out.append(v)
    return out


def _emit(record: dict) -> bool:
    print(json.dumps(record, sort_keys=True))
    return bool(record.get("pass", False))


def _cmd_lab_cells(args: argparse.Namespace) -> int:
    rng = SplitMix64(args.seed)
    family = _random_family(rng, args.dim, args.count, args.w)
    m = len(family)
    bound_frac = (Fraction(5436, 1000) * m) ** args.dim
    bound = bound_frac.numerator // bound_frac.denominator
    try:
        enum = enumerate_cells(family)
        mode = "exact"
    except SizeCapError:
        enum = sample_cell_patterns(family, args.trials, args.seed)
        mode = "sampled"
    ok = enum.count <= bound
    all_pass = _emit(
        {
            "check": "cells",
            "mode": mode,
            "parameters": {
                "dim": args.dim,
                "count": m,
                "w": args.w,
                "seed": args.seed,
            },
            "observed": enum.count,
            "bound": bound,
            "pass": ok,
        }
    )
    observed, obound, ook = check_ordering_count(family, args.trials, args.seed)
    all_pass = (
        _emit(
            {
                "check": "orderings",
                "parameters": {"trials": args.trials, "seed": args.seed},
                "observed": observed,
                "bound": obound,
                "pass": ook,
            }
        )
        and all_pass
    )
    return 0 if all_pass else 1


def _cmd_lab_infdim(args: argparse.Namespace) -> int:
    rng = SplitMix64(args.seed)
    family = _random_family(rng, args.dim, args.count, args.w)
    ok = inference_dimension_exact(family, args.d)
    minimal = minimal_inference_dimension(family, args.d) if ok else None
    record = {
        "check": "infdim",
        "parameters": {
            "dim": args.dim,
            "count": args.count,
            "w": args.w,
            "d": args.d,
            "seed": args.seed,
        },
        "observed": minimal,
        "bound": args.d,
        "pass": ok,
    }
    return 0 if _emit(record) else 1


def _cmd_lab_collision(args: argparse.Namespace) -> int:
    rng = SplitMix64(args.seed)
    full = _random_family(rng, args.n, (2 * args.w + 1) ** args.n - 1, args.w)
    if args.m > len(full):
        raise SizeCapError(
            f"only {len(full)} distinct vectors exist at width {args.w}"
        )
    chosen = [full[i] for i in rng.sample_indices(len(full), args.m)]
    x = Vector(
        [Fraction(rng.randint(-997, 997), 1 + rng.below(97)) for _ in range(args.n)]
    )
    ordered = sorted(chosen, key=lambda v: v.dot(x))
    alpha = find_signed_collision(ordered)
    ok = False
    payload: dict = {
        "check": "collision",
        "parameters": {
            "n": args.n,
            "w": args.w,
            "m": args.m,
            "seed": args.seed,
        },
    }
    if alpha is not None:
        p, coeffs = cone_certificate(ordered, alpha)
        ok = True
        payload["observed"] = {"p": p, "coefficients": coeffs}
    else:
        payload["observed"] = None
    payload["pass"] = ok
    return 0 if _emit(payload) else 1


def _cmd_lab_crosscheck(args: argparse.Namespace) -> int:
    agree_f, total_f = crosscheck_feasibility(args.trials, args.seed)
    ok_f = agree_f == total_f
    all_pass = _emit(
        {
            "check": "crosscheck-feasibility",
            "parameters": {"trials": total_f, "seed": args.seed},
            "observed": agree_f,
            "bound": total_f,
            "pass": ok_f,
        }
    )
    agree_i, total_i = crosscheck_inference(args.cells, args.seed)
    ok_i = agree_i == total_i
    all_pass = (
        _emit(
            {
                "check": "crosscheck-inference",
                "parameters": {"cells": total_i, "seed": args.seed},
                "observed": agree_i,
                "bound": total_i,
                "pass": ok_i,
            }
        )
        and all_pass
    )
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldt",
        description="Point location in hyperplane arrangements by"
        " label and comparison queries, plus the decision problems"
        " that ride on it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one encoded instance")
    ps.add_argument(
        "problem",
        choices=["ksum", "subsetsum", "sortab", "kldt", "triangles"],
    )
    ps.add_argument("--input", required=True, help="instance file, - for stdin")
    ps.add_argument("--k", type=int, default=None, help="subset size for ksum")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--sample-constant", default="2")
    ps.add_argument("--json", action="store_true")
    ps.add_argument("--log-queries", default=None, metavar="FILE")
    ps.add_argument("--strict-comparison", action="store_true")
    ps.set_defaults(func=_cmd_solve)

    pb = sub.add_parser("bench", help="query-count benchmarks to CSV")
    pb.add_argument("problem", choices=["ksum", "subsetsum"])
    pb.add_argument("--sizes", required=True, help="comma separated")
    pb.add_argument("--trials", type=int, default=10)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--k", type=int, default=3)
    pb.set_defaults(func=_cmd_bench)

    pl = sub.add_parser("lab", help="independent verification checks")
    labsub = pl.add_subparsers(dest="lab_command", required=True)

    pc = labsub.add_parser("cells", help="cell counts against the bound")
    pc.add_argument("--dim", type=int, default=3)
    pc.add_argument("--count", type=int, default=6)
    pc.add_argument("--w", type=int, default=2)
    pc.add_argument("--trials", type=int, default=2000)
    pc.add_argument("--seed", type=int, default=0)
    pc.set_defaults(func=_cmd_lab_cells)

    pi = labsub.add_parser("infdim", help="exhaustive inference dimension")
    pi.add_argument("--dim", type=int, default=2)
    pi.add_argument("--count", type=int, default=4)
    pi.add_argument("--w", type=int, default=1)
    pi.add_argument("--d", type=int, default=3)
    pi.add_argument("--seed", type=int, default=0)
    pi.set_defaults(func=_cmd_lab_infdim)

    pk = labsub.add_parser("collision", help="signed gap collision search")
    pk.add_argument("--n", type=int, default=3)
    pk.add_argument("--w", type=int, default=1)
    pk.add_argument("--m", type=int, default=24)
    pk.add_argument("--seed", type=int, default=0)
    pk.set_defaults(func=_cmd_lab_collision)

    px = labsub.add_parser(
        "crosscheck-lp", help="simplex against Fourier-Motzkin"
    )
    px.add_argument("--trials", type=int, default=200)
    px.add_argument("--cells", type=int, default=50)
    px.add_argument("--seed", type=int, default=0)
    px.set_defaults(func=_cmd_lab_crosscheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (InstanceFormatError, InconsistentPatternError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
