"""Workload mixes of the solve benchmark.

A workload is a repeating cycle of instance kinds (kinds.py says how
each kind is drawn, encoded and checked).  This module imports no ldt
code, so run.py and check.py can read the workload names without
loading the package.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """A repeating mix of instance kinds.

    ``window`` is the number of leading instances every run solves, even
    past its deadline; count metrics come from them alone, so they repeat
    exactly for one seed whatever the run length.
    """

    name: str
    cycle: tuple[str, ...]
    window: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ksum-large", ("ksum32", "ksum24", "ksum32"), window=12),
        Workload("wide-family", ("subset14", "sortab12", "subset14"), window=12),
        Workload(
            "small",
            ("ksum16", "kldt9", "ksum16", "triangles20", "ksum16", "kldt12"),
            window=24,
        ),
    )
}

# The set-up probe and every workload process warm up on this kind: it is
# cheap and its solve runs one inference round.
WARMUP_KIND = "ksum16"
