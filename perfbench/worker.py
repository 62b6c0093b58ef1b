"""One workload in one fresh process: a closed loop of exact solves.

One client, one thread, one instance at a time.  Each instance is timed
from its values to its answer (encode, solve, extract_answer) and then
audited, outside the timed region, against the brute-force reference
and the ground-truth sign pattern.  The loop runs until the deadline has
passed and the workload's count window is complete.

With --trace 1 every instance is solved twice, untraced and traced, in
alternating order.  The traced solve must reproduce the untraced one
exactly; the per-layer metrics come from the traced solves and the
tracing overhead is the difference of the two p50 times.

Times are normalized to a nominal machine speed (calibrate.py); the raw
wall times are printed in the notes.  Prints one JSON object on its last
stdout line.  Run it through run.py, which puts the checkout's src on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import ldt
from ldt import problems, solver
from ldt.geometry import ground_truth_pattern
from ldt.oracle import HiddenPointOracle

from calibrate import SpeedProbe
from kinds import KINDS, Instance, instances, warmup_instance
from tracing import TracedOracle, Tracer, hooks_installed
from workloads import WORKLOADS

# the ldt package this benchmark measures: the one in its checkout
SRC = Path(__file__).resolve().parent.parent / "src"

# Per-layer metrics: name, unit, the span it needs (a missing hook makes
# the metric null), and whether it is a count taken over the count window.
LAYERS = (
    ("problems.encode_ms", "ms", None, False),
    ("problems.extract_ms", "ms", None, False),
    ("solver.self_ms", "ms", None, False),
    ("solver.rounds", "count", None, True),
    ("solver.final_labels", "count", None, True),
    ("oracle.label_calls", "count", None, True),
    ("oracle.cmp_calls", "count", None, True),
    ("oracle.ms", "ms", None, False),
    ("inference.sort_self_ms", "ms", "inference.sort", False),
    ("inference.cell_ms", "ms", "inference.cell", False),
    ("inference.infer_self_ms", "ms", "inference.infer", False),
    ("inference.yield", "ratio", "inference.infer", True),
    ("inference.undetermined", "count", "inference.infer", True),
    ("lp.cone_member_calls", "count", "lp.cone_member", True),
    ("lp.cone_member_ms", "ms", "lp.cone_member", False),
    ("lp.pool_calls", "count", "lp.pool", True),
    ("lp.pool_ms", "ms", "lp.pool", False),
    ("lp.feasible_calls", "count", "lp.feasible", True),
    ("lp.feasible_ms", "ms", "lp.feasible", False),
)

# fields the traced solve must reproduce exactly
SAME_FIELDS = (
    "answer",
    "label_queries",
    "comparison_queries",
    "rounds",
    "final_labels",
    "pattern_sha256",
)


def solve_instance(inst: Instance, tracer: Tracer | None = None) -> dict:
    """Time one instance from values in to answer out, then audit it."""
    kind = KINDS[inst.kind]
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    start = perf_counter()
    with span("problems.encode"):
        enc = kind.encode(*inst.args)
    oracle = (
        TracedOracle(enc.hidden, tracer)
        if tracer is not None
        else HiddenPointOracle(enc.hidden)
    )
    with span("solver.solve"):
        report = solver.solve(enc.family, oracle, solver.SolveConfig(seed=inst.index))
    with span("problems.extract"):
        answer = problems.extract_answer(enc, report.pattern)
    end = perf_counter()
    elapsed = end - start

    size = len(enc.family)
    pattern = [int(report.pattern[i]) for i in range(size)]
    return {
        "index": inst.index,
        "kind": inst.kind,
        "family_size": size,
        "answer": answer,
        "label_queries": report.label_queries,
        "comparison_queries": report.comparison_queries,
        "rounds": len(report.rounds),
        "final_labels": report.final_labels,
        "pattern_sha256": hashlib.sha256(bytes(s + 1 for s in pattern)).hexdigest(),
        "wall_ms": elapsed * 1e3,
        "at": (start + end) / 2,
        "error": _audit(inst, enc, pattern, answer),
    }


def _audit(inst: Instance, enc, pattern: list[int], answer) -> str | None:
    """Why the solve is wrong, or None when answer and signs are exact."""
    expected = KINDS[inst.kind].brute(*inst.args)
    if answer != expected:
        return f"answer {answer!r} differs from the brute-force reference"
    truth = ground_truth_pattern(enc.family, enc.hidden)
    wrong = sum(1 for i, s in enumerate(pattern) if s != int(truth[i]))
    if wrong:
        return f"{wrong} of {len(pattern)} signs differ from ground truth"
    return None


def guarded(inst: Instance, tracer: Tracer | None = None) -> dict:
    """solve_instance, with an exception turned into a failed record."""
    try:
        if tracer is None:
            return solve_instance(inst)
        with hooks_installed(tracer):
            return solve_instance(inst, tracer)
    except Exception:
        return {
            "index": inst.index,
            "kind": inst.kind,
            "error": traceback.format_exc(limit=4).strip().splitlines()[-1],
        }


def _layer_values(tracer: Tracer, rec: dict) -> dict:
    """Per-instance layer readings of one traced solve, times in wall ms."""
    t, s, c = tracer.total, tracer.self_time, tracer.calls
    return {
        "problems.encode_ms": t["problems.encode"] * 1e3,
        "problems.extract_ms": t["problems.extract"] * 1e3,
        "solver.self_ms": s["solver.solve"] * 1e3,
        "solver.rounds": rec.get("rounds"),
        "solver.final_labels": rec.get("final_labels"),
        "oracle.label_calls": c["oracle.label"],
        "oracle.cmp_calls": c["oracle.cmp"],
        "oracle.ms": (t["oracle.label"] + t["oracle.cmp"]) * 1e3,
        "inference.sort_self_ms": s["inference.sort"] * 1e3,
        "inference.cell_ms": t["inference.cell"] * 1e3,
        "inference.infer_self_ms": s["inference.infer"] * 1e3,
        "inference.live": tracer.live,
        "inference.inferred": tracer.inferred,
        "inference.undetermined": tracer.undetermined,
        "lp.cone_member_calls": c["lp.cone_member"],
        "lp.cone_member_ms": t["lp.cone_member"] * 1e3,
        "lp.pool_calls": c["lp.pool"],
        "lp.pool_ms": t["lp.pool"] * 1e3,
        "lp.feasible_calls": c["lp.feasible"],
        "lp.feasible_ms": t["lp.feasible"] * 1e3,
        "missing": tracer.missing,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile).  Every run solves its count window,
    more than ten instances, so there always is such a percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def warm_up(seed: int) -> None:
    """One audited solve of the warm-up instance, which must run inference."""
    warm = guarded(warmup_instance(seed))
    if warm["error"] or warm["rounds"] < 1:
        raise RuntimeError(f"warm-up solve failed or skipped inference: {warm}")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    warm_up(seed)

    speed = SpeedProbe()
    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []

    def untraced_solve(inst: Instance) -> None:
        speed.tick()
        plain.append(guarded(inst))

    def traced_solve(inst: Instance) -> None:
        speed.tick()
        tracer = Tracer()
        traced.append(guarded(inst, tracer))
        layers.append(_layer_values(tracer, traced[-1]))

    deadline = perf_counter() + seconds
    for inst in instances(workload, seed):
        if inst.index >= workload.window and perf_counter() >= deadline:
            break
        if not trace:
            untraced_solve(inst)
            continue
        # alternate which solve goes first, so order effects cancel
        first, second = (traced_solve, untraced_solve)[:: 1 if inst.index % 2 else -1]
        first(inst)
        second(inst)
        a, b = plain[-1], traced[-1]
        if not (a["error"] or b["error"]):
            differ = [f for f in SAME_FIELDS if a[f] != b[f]]
            if differ:
                b["error"] = "traced solve differs in " + ", ".join(differ)

    # normalize once every kernel reading around each instance is in
    for rec in plain + traced:
        if "wall_ms" in rec:
            rec["scale"] = speed.scale(rec["at"])
            rec["ms"] = rec["wall_ms"] * rec["scale"]
    for entry, rec in zip(layers, traced):
        for key in entry:
            if key.endswith("ms"):
                entry[key] *= rec.get("scale", 1.0)

    failures = [
        f"instance {rec['index']} ({rec['kind']}): {rec['error']}"
        for rec in plain + traced
        if rec["error"]
    ]
    result = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "attempted": len(plain) + len(traced),
        "failed": len(failures),
        "failures": failures,
        "window_sha256": _window_digest(plain[: workload.window]),
    }
    if not failures:
        result["metrics"] = (
            _layer_metrics(plain, traced, layers, workload.window)
            if trace
            else _end_to_end(plain, workload.window)
        )
    return result


def _window_digest(window: list[dict]) -> str:
    fields = ("index", "kind", "family_size") + SAME_FIELDS
    rows = [[rec.get(f) for f in fields] for rec in window]
    return hashlib.sha256(json.dumps(rows, default=repr).encode()).hexdigest()


def _end_to_end(plain: list[dict], window: int) -> dict:
    times = [rec["ms"] for rec in plain]
    walls = [rec["wall_ms"] for rec in plain]
    tail_ms, tail_pct = tail(times)
    in_window = plain[:window]
    queries = sum(r["label_queries"] + r["comparison_queries"] for r in in_window)
    located = sum(r["family_size"] for r in in_window)
    return {
        "instance_ms.p50": (statistics.median(times), "ms"),
        "instance_ms.tail": (tail_ms, "ms"),
        "hyperplanes_per_s": (
            sum(r["family_size"] for r in plain) / (sum(times) / 1e3),
            "1/s",
        ),
        "queries_per_h": (queries / located, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
        "_notes": [
            f"instance_ms.tail is p{tail_pct:.1f} of {len(times)} instances",
            f"raw wall ms p50 {statistics.median(walls):.4g},"
            f" tail {tail(walls)[0]:.4g}",
            f"queries_per_h covers the first {len(in_window)} instances",
        ],
    }


def _layer_metrics(plain, traced, layers, window) -> dict:
    missing: dict[str, str] = {}
    for entry in layers:
        missing.update(entry["missing"])
    notes = []
    out: dict = {}
    for name, unit, span, counted in LAYERS:
        rows = layers[:window] if counted else layers
        reason = missing.get(span) or missing.get(name)
        if name == "inference.yield" and not reason:
            live = sum(r["inference.live"] for r in rows)
            reason = None if live else "no inference round ran"
            value = sum(r["inference.inferred"] for r in rows) / live if live else None
        elif not reason:
            value = statistics.fmean(r[name] for r in rows)
        if reason:
            value = None
            notes.append(f"{name} is null: {reason}")
        out[name] = (value, unit)
    overhead = statistics.median(r["ms"] for r in traced) - statistics.median(
        r["ms"] for r in plain
    )
    out["trace.overhead_ms"] = (overhead, "ms")
    notes.append(
        f"counts are per instance over the first {min(window, len(layers))} instances;"
        f" times per instance over {len(layers)}"
    )
    out["_notes"] = notes
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(ldt.__file__).resolve().parent != SRC / "ldt":
        print(f"error: ldt loaded from {ldt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
