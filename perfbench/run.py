"""Solve benchmark: exact point location over a fixed instance mix.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ksum-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run first starts SETUP_RUNS fresh interpreters that import ldt and
make one warm-up solve (setup_s is their median), then runs the workload
in a fresh process of its own (worker.py).  Every answer is audited;
any wrong answer, wrong sign or exception makes the run fail with exit
code 1.  With --trace 0 the end-to-end metrics are reported, with
--trace 1 the per-layer ones.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Workloads, seeds and
metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import NOMINAL_KERNEL_MS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

DEFAULT_SEED = 1
SETUP_RUNS = 5
# every child process must be done this long past --seconds: time for the
# set-up probes and for finishing the count window after the deadline
RUN_MARGIN_S = 120.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def measure_setup(seed: int, deadline: float) -> dict:
    """One fresh interpreter: seconds until its warm-up solve returned.

    The probe then times the calibration kernel itself, and its readings
    normalize this probe's times.
    """
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), str(seed)],
        stdout=subprocess.PIPE,
        env=_env(),
        text=True,
    ) as proc:
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                ready = sel.select(max(0.0, deadline - perf_counter()))
            line = proc.stdout.readline() if ready else ""
            elapsed = perf_counter() - start
            speed, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not line or not speed:
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    scale = NOMINAL_KERNEL_MS / json.loads(speed)["kernel_ms"]
    probe = {key: value * scale for key, value in json.loads(line).items()}
    probe["setup_s"] = elapsed * scale
    probe["wall_setup_s"] = elapsed
    return probe


def measure_setups(seed: int, deadline: float) -> dict:
    """Medians over SETUP_RUNS probes."""
    probes = [measure_setup(seed, deadline) for _ in range(SETUP_RUNS)]
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes, then the workload process; returns its result."""
    limit = seconds + RUN_MARGIN_S
    deadline = perf_counter() + limit
    setup = measure_setups(seed, deadline)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={int(trace)}",
    ]
    try:
        done = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            env=_env(),
            text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload {workload} ran past {limit:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"workload process failed (exit {done.returncode})")
    result = json.loads(lines[-1])

    if "metrics" not in result:  # failed instances: no figures to report
        result["metrics"], result["notes"] = {}, []
        return result
    metrics = result["metrics"]
    notes = metrics.pop("_notes")
    if trace:
        head = {
            "setup.import_s": (setup["import_s"], "s"),
            "setup.first_solve_s": (setup["first_solve_s"], "s"),
        }
    else:
        head = {"setup_s": (setup["setup_s"], "s")}
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in (head | metrics).items()
    }
    result["notes"] = notes + [
        f"set-up metrics are medians of {SETUP_RUNS} processes;"
        f" raw wall setup_s {setup['wall_setup_s']:.4g}"
    ]
    return result


def report(result: dict) -> None:
    """Human-readable block for one workload."""
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"== {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"
        f"  instances {attempted}  failed {failed}"
        f"  fail_rate {failed / max(1, attempted):.4f}"
    )
    for name, m in result["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<26} {value:>14} {m['unit']}")
    for line in result.get("notes", []) + result["failures"]:
        print(f"  # {line}")
    print(f"  # count window sha256 {result['window_sha256']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ldt" / "__init__.py").is_file():
        print(f"error: no ldt package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(result)
        results.append(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": m
            for r in results
            for name, m in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
