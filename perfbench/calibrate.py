"""Machine-speed calibration for timings on shared hardware.

On a shared virtual machine the speed of one pure-Python thread drifts
by a quarter or more over tens of seconds, with no steal time visible
to the guest, so raw wall times differ between runs of identical work.
The benchmark therefore times a fixed pure-Python kernel between the
pieces of work it measures and rescales each wall time to the nominal
speed at which the kernel takes NOMINAL_KERNEL_MS:

    normalized = wall * NOMINAL_KERNEL_MS / median(kernel_ms readings nearby)

The kernel uses no ldt code, so no change to the package can move it.
It builds and hashes small integer tuples, adds Fractions and sorts,
the kinds of work the exact solver spends its time on.  Raw wall times
are reported next to the normalized ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# kernel time on a 2-vCPU Intel Xeon virtual machine in its faster state
NOMINAL_KERNEL_MS = 6.0


def kernel() -> int:
    rows = [
        tuple((i * 7919 + j * 104729) % 211 - 105 for j in range(24))
        for i in range(1000)
    ]
    index = {row: i for i, row in enumerate(rows)}
    acc = Fraction(0)
    for i in range(0, 1000, 2):
        acc += Fraction(sum(rows[i]), 1 + i % 13)
    rows.sort()
    return len(index) + acc.denominator


def kernel_ms() -> float:
    start = perf_counter()
    kernel()
    return (perf_counter() - start) * 1e3


# at most one kernel reading per INTERVAL_S; readings within WINDOW_S of
# an instance scale its time
INTERVAL_S = 0.25
WINDOW_S = 2.0


class SpeedProbe:
    """Kernel readings spread over a run, at most one per INTERVAL_S.

    scale(t) turns a wall time measured around time t into a normalized
    one: the nominal kernel time over the median of the readings taken
    within WINDOW_S seconds of t, before or after.  The window is short
    next to the machine's speed phases and holds enough readings for the
    median to be steady.
    """

    def __init__(self) -> None:
        self._readings: list[tuple[float, float]] = []

    def tick(self) -> None:
        last = self._readings[-1][0] if self._readings else float("-inf")
        if perf_counter() - last >= INTERVAL_S:
            ms = kernel_ms()
            self._readings.append((perf_counter(), ms))

    def scale(self, t: float) -> float:
        near = [ms for at, ms in self._readings if abs(at - t) <= WINDOW_S]
        if not near:  # an instance longer than the window: nearest reading
            near = [min(self._readings, key=lambda r: abs(r[0] - t))[1]]
        return NOMINAL_KERNEL_MS / statistics.median(near)
