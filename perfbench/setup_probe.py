"""Set-up cost of a fresh interpreter: import ldt, then one warm-up solve.

Prints one JSON line once the warm-up solve has returned, then exits.
run.py times the process from its start to that line (setup_s); the
line itself splits the time into the import and the first solve.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

from calibrate import kernel_ms


def main(argv: list[str]) -> int:
    seed = int(argv[1])
    start = perf_counter()
    import ldt.problems
    import ldt.solver  # noqa: F401

    imported = perf_counter()
    from worker import warm_up

    warm_up(seed)
    solved = perf_counter()
    print(
        json.dumps({"import_s": imported - start, "first_solve_s": solved - imported}),
        flush=True,
    )
    # machine speed right after the set-up, in this same busy process
    print(json.dumps({"kernel_ms": statistics.median(kernel_ms() for _ in range(5))}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
