"""Exact repeat check for the solve benchmark.

    python3 perfbench/check.py [--seed N]

For every workload, runs run.py twice untraced and twice traced with one
seed, each for RUN_SECONDS: the count window every run completes does
not depend on the run length.  Every metric with unit "count" or "ratio" (queries_per_h, call
counts, rounds, final labels, inference yield) must read exactly the
same in both runs of a mode, and all four runs must report the same
count-window digest: the same per-instance answers, query counts,
rounds, final labels and sign patterns, traced or not.  Exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
RUN_SECONDS = 1.0
EXACT_UNITS = {"count", "ratio"}


def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """Metrics and count-window digest of one run.py invocation."""
    cmd = [sys.executable, str(RUN), f"--workload={workload}", f"--seed={seed}"]
    cmd += [f"--seconds={RUN_SECONDS}", f"--trace={trace}"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace {trace}: run.py exited {done.returncode}")
    digest = next(ln.split()[-1] for ln in lines if "count window sha256" in ln)
    return json.loads(lines[-1])["metrics"], digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            (first, d1), (second, d2) = (
                bench(workload, args.seed, trace) for _ in range(2)
            )
            digests |= {d1, d2}
            for name, m in first.items():
                if m["unit"] in EXACT_UNITS and m["value"] != second[name]["value"]:
                    ok = False
                    print(f"{workload}: {name} {m['value']} != {second[name]['value']}")
            if trace:
                overhead = [r["trace.overhead_ms"]["value"] for r in (first, second)]
                shown = " / ".join(f"{ms:.3f}" for ms in overhead)
                print(f"{workload}: tracing overhead on p50 {shown} ms")
        if len(digests) != 1:
            ok = False
            print(f"{workload}: count windows differ across runs: {sorted(digests)}")
        else:
            print(f"{workload}: counts repeat exactly, window {digests.pop()[:16]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
