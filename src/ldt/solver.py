"""Zero-error point location by sample, sort and infer rounds.

Each round queries a random sample of the live hyperplanes, sorts it by
comparison queries, and infers every hyperplane whose sign the sample
cell already pins down.  The sample itself is always pinned down, so
every round retires at least its own sample; in expectation a constant
fraction of the live set goes with it.  Once the live set drops below
twice the sample size the loop stops and the stragglers are labelled
directly.

All signs come from oracle answers or exact certificates, never from
guesses, so the reported pattern is correct on every run regardless of
the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import Sign, SignVector, Vector
from .inference import build_sorted_sample, cell_from_sample, infer_set
from .oracle import HiddenPointOracle
from .prng import SplitMix64


@dataclass(frozen=True)
class SolveConfig:
    seed: int = 0
    sample_constant: Fraction = Fraction(2)
    max_rounds: int = 64


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
    """Locate the hidden point's full sign pattern over the family."""
    config = config or SolveConfig()
    family = list(family)
    if not family:
        raise ValueError("family must be nonempty")
    n = family[0].dim
    if any(v.dim != n for v in family):
        raise ValueError("family members must share one dimension")

    canon: dict[Vector, int] = {}
    alias: list[int] = []
    for i, v in enumerate(family):
        alias.append(canon.setdefault(v, i))

    pattern: dict[int, Sign] = {}
    work: list[tuple[int, Vector]] = []
    for i, v in enumerate(family):
        if alias[i] != i:
            continue
        if v.is_zero():
            pattern[i] = Sign.ZERO
        else:
            work.append((i, v))

    w = max((v.linf() for v in family), default=Fraction(0))
    q = Fraction(2) + n * w
    d_est = ceil_mul_log2(config.sample_constant * n, q)
    s_target = 2 * d_est

    before = oracle.ledger.snapshot()
    rng = SplitMix64(config.seed)
    rounds: list[RoundStats] = []
    while work and s_target > 0 and len(work) >= s_target:
        if len(rounds) >= config.max_rounds:
            raise SolverStalledError(
                f"no resolution after {config.max_rounds} rounds"
            )
        mark = oracle.ledger.snapshot()
        live_before = len(work)
        picks = rng.sample_indices(len(work), s_target)
        members = [work[j] for j in picks]
        ss = build_sorted_sample(members, oracle)
        cell = cell_from_sample(ss, n)
        outcome = infer_set(cell, work)
        if any(ident not in outcome.inferred for ident, _ in members):
            raise RuntimeError("inference left a sample member unresolved")
        pattern.update(outcome.inferred)
        work = [(i, v) for i, v in work if i not in outcome.inferred]
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

    final_labels = len(work)
    for ident, v in work:
        pattern[ident] = oracle.label_query(v, ident=ident)

    after = oracle.ledger.snapshot()
    entries = {i: pattern[alias[i]] for i in range(len(family))}
    return SolveReport(
        pattern=SignVector(entries),
        rounds=rounds,
        final_labels=final_labels,
        label_queries=after[0] - before[0],
        comparison_queries=after[1] - before[1],
        d_estimate=d_est,
        sample_target=s_target,
        seed=config.seed,
        dim=n,
        family_size=len(family),
    )


def decide(report: SolveReport) -> bool:
    """True when some hyperplane passes through the hidden point."""
    return report.pattern.contains_zero()
