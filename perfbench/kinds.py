"""Instance kinds of the solve benchmark and the instance streams.

Every instance is made by a ``problems.random_*`` generator from a
SplitMix64 stream seeded by the workload seed, so one seed always gives
the same instances.  The solver seed of instance ``i`` is ``i`` itself:
it never depends on the workload seed.

This module imports ``ldt``; the caller puts the checkout's ``src`` on
the import path first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ldt import problems
from ldt.prng import SplitMix64

from workloads import WARMUP_KIND, Workload


@dataclass(frozen=True)
class Kind:
    """One instance shape: how to draw, encode and brute-force it."""

    draw: Callable[[SplitMix64, bool], tuple]
    encode: Callable[..., problems.Encoding]
    brute: Callable[..., object]


def _ksum(n: int) -> Kind:
    return Kind(
        lambda rng, planted: (problems.random_ksum_instance(rng, n, 3, planted),),
        lambda values: problems.encode_ksum(values, 3),
        lambda values: problems.brute_ksum(values, 3),
    )


def _kldt(n: int) -> Kind:
    return Kind(
        lambda rng, planted: problems.random_kldt_instance(rng, n, 3, planted),
        problems.encode_kldt,
        problems.brute_kldt,
    )


KINDS: dict[str, Kind] = {
    "ksum16": _ksum(16),
    "ksum24": _ksum(24),
    "ksum32": _ksum(32),
    "subset14": Kind(
        lambda rng, planted: (problems.random_subset_sum_instance(rng, 14, planted),),
        problems.encode_subset_sum,
        problems.brute_subset_sum,
    ),
    "sortab12": Kind(
        # the sumset generator has no planted variant
        lambda rng, planted: problems.random_sumset_instance(rng, 12, 12),
        problems.encode_sort_sumset,
        problems.brute_sumset_order,
    ),
    "kldt9": _kldt(9),
    "kldt12": _kldt(12),
    "triangles20": Kind(
        lambda rng, planted: problems.random_triangles_instance(rng, 20, planted),
        problems.encode_zero_triangles,
        problems.brute_zero_triangles,
    ),
}


@dataclass(frozen=True)
class Instance:
    index: int
    kind: str
    args: tuple


def instances(workload: Workload, seed: int) -> Iterator[Instance]:
    """The workload's endless instance stream for one seed.

    Kinds follow the cycle; each kind alternates planted and non-planted
    draws.  Instance ``i`` draws from its own stream, split off a master
    stream, so its inputs do not depend on how many draws earlier
    instances needed.
    """
    master = SplitMix64(seed)
    seen: dict[str, int] = {}
    index = 0
    while True:
        kind = workload.cycle[index % len(workload.cycle)]
        planted = seen.get(kind, 0) % 2 == 0
        seen[kind] = seen.get(kind, 0) + 1
        rng = SplitMix64(master.next_u64())
        yield Instance(index, kind, KINDS[kind].draw(rng, planted))
        index += 1


def warmup_instance(seed: int) -> Instance:
    """A planted instance of WARMUP_KIND outside every workload stream."""
    rng = SplitMix64(seed ^ 0x5EED5EED5EED5EED)
    return Instance(-1, WARMUP_KIND, KINDS[WARMUP_KIND].draw(rng, True))
