"""Zero-error point location by sample, sort and infer rounds.

Each round queries a random sample of the live hyperplanes, sorts it by
comparison queries, and infers every hyperplane whose sign the sample
cell already pins down.  The sample itself is always pinned down, so
every round retires at least its own sample; in expectation a constant
fraction of the live set goes with it.  Once the live set drops below
the sample size (2*d_est) the loop stops and the stragglers are
labelled directly.

All signs come from oracle answers or exact certificates, never from
guesses, so the reported pattern is correct on every run regardless of
the seed.

The family is converted to one integer matrix (see geometry.Family),
which computes its bookkeeping once and keeps it for every solve on it:
duplicate and zero rows (Family.first_copies) and the coordinate bound
W (Family.top).  The live set is an ascending array of row indices.
The oracle is asked about rows by index (HiddenPointOracle.query_rows),
and a round's sorted sample names its members by the same indices, so a
solve builds no Vector.  A strict oracle checks once per query call
that the family is the declared one, so every label it answers is about
a declared member and every comparison about the difference of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .batch import cell_from_sample, infer_set
from .geometry import Family, SignVector, Vector
from .inference import build_sorted_sample
from .oracle import HiddenPointOracle
from .prng import SplitMix64

# a round retires a constant fraction of the live set in expectation,
# so a solve that runs this many has stalled
_MAX_ROUNDS = 64


@dataclass(frozen=True)
class SolveConfig:
    seed: int = 0
    sample_constant: Fraction = Fraction(2)


class SolverStalledError(RuntimeError):
    """The round budget ran out before the live set shrank enough."""


def ceil_mul_log2(mult: Fraction, q: Fraction) -> int:
    """Smallest integer at least mult * log2(q), computed exactly.

    Floating point log2 drifts for large arguments; comparing integer
    powers instead keeps the sample size identical on every platform.
    """
    if q <= 1:
        raise ValueError("logarithm argument must exceed 1")
    if mult <= 0:
        raise ValueError("multiplier must be positive")
    p, r = mult.numerator, mult.denominator
    num, den = q.numerator, q.denominator
    rhs = num**p
    base = den**p
    approx = float(mult) * (math.log2(num) - math.log2(den))
    d = max(0, int(approx) - 2)
    while (1 << (d * r)) * base < rhs:
        d += 1
    while d > 0 and (1 << ((d - 1) * r)) * base >= rhs:
        d -= 1
    return d


@dataclass
class RoundStats:
    live_before: int
    sample_size: int
    inferred: int
    label_queries: int
    comparison_queries: int


@dataclass
class SolveReport:
    pattern: SignVector
    rounds: list[RoundStats]
    final_labels: int
    label_queries: int
    comparison_queries: int
    d_estimate: int
    sample_target: int
    seed: int
    dim: int
    family_size: int

    @property
    def total_queries(self) -> int:
        return self.label_queries + self.comparison_queries


def solve(
    family: Sequence[Vector],
    oracle: HiddenPointOracle,
    config: SolveConfig | None = None,
) -> SolveReport:
    """Locate the hidden point's full sign pattern over the family.

    family is a Family or any sequence of Vectors, converted once.
    """
    config = config or SolveConfig()
    family = Family.of(family)
    m = len(family)
    if not m:
        raise ValueError("family must be nonempty")
    n = family.dim

    # duplicates copy the sign of their first occurrence, zero rows are
    # ZERO, and every other row starts live
    alias, live = family.first_copies()
    signs = np.zeros(m, dtype=np.int8)

    # the largest coordinate of the family as given, before scaling
    w = Fraction(family.top, family.den)
    q = Fraction(2) + n * w
    d_est = ceil_mul_log2(config.sample_constant * n, q)
    s_target = 2 * d_est

    before = oracle.ledger.snapshot()
    rng = SplitMix64(config.seed)
    rounds: list[RoundStats] = []
    while live.size and s_target > 0 and live.size >= s_target:
        if len(rounds) >= _MAX_ROUNDS:
            raise SolverStalledError(f"no resolution after {_MAX_ROUNDS} rounds")
        mark = oracle.ledger.snapshot()
        live_before = live.size
        picks = live[rng.sample_indices(live.size, s_target)].tolist()
        ss = build_sorted_sample(picks, family, oracle)
        cell = cell_from_sample(ss, family)
        outcome = infer_set(cell, live, family)
        ids, inferred = outcome.inferred.arrays()
        if not np.isin(picks, ids).all():
            raise RuntimeError("inference left a sample member unresolved")
        signs[ids] = inferred
        live = outcome.undetermined
        now = oracle.ledger.snapshot()
        rounds.append(
            RoundStats(
                live_before=live_before,
                sample_size=len(picks),
                inferred=len(outcome.inferred),
                label_queries=now[0] - mark[0],
                comparison_queries=now[1] - mark[1],
            )
        )

    final_labels = live.size
    labels, _ = oracle.query_rows(family, live.tolist())
    signs[live] = labels

    after = oracle.ledger.snapshot()
    return SolveReport(
        pattern=SignVector.from_arrays(np.arange(m), signs[alias]),
        rounds=rounds,
        final_labels=final_labels,
        label_queries=after[0] - before[0],
        comparison_queries=after[1] - before[1],
        d_estimate=d_est,
        sample_target=s_target,
        seed=config.seed,
        dim=n,
        family_size=m,
    )
