"""Metered access to the hidden point.

The solver sees the hidden point x only through two query kinds:

  label_query(h)            sign of <h, x>
  comparison_query(h1, h2)  sign of <h1 - h2, x>

Every call is counted in a ledger and optionally logged.  Nothing else
about x is observable; the oracle object keeps the point in a private
attribute and exposes no accessor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import IO, Iterable

from .geometry import Sign, Vector, sign_of


@dataclass
class QueryLedger:
    """Counts of issued queries, with an optional structured log."""

    label_count: int = 0
    comparison_count: int = 0
    log: list[dict] | None = None

    @property
    def total(self) -> int:
        return self.label_count + self.comparison_count

    def snapshot(self) -> tuple[int, int]:
        return (self.label_count, self.comparison_count)

    def export_jsonl(self, fp: IO[str]) -> None:
        if self.log is None:
            raise ValueError("query logging was not enabled")
        for entry in self.log:
            fp.write(json.dumps(entry, separators=(",", ":")) + "\n")


class StrictModeViolation(AssertionError):
    """A query used a vector outside the declared family in strict mode."""


class HiddenPointOracle:
    """Answers sign queries about a fixed hidden point.

    In strict comparison mode the oracle additionally checks that label
    queries use members of the declared family and comparison queries
    use pairs of members, i.e. that every probed functional lies in the
    family or its difference set.
    """

    def __init__(
        self,
        secret: Vector,
        log_queries: bool = False,
        strict_family: Iterable[Vector] | None = None,
    ) -> None:
        self._secret = secret
        if secret.ints is not None:
            self._secret_ints = secret.ints
        else:
            # positive scaling never changes a sign, so clear denominators
            # once and answer every query with integer arithmetic
            denom = lcm(*(c.denominator for c in secret.coords)) if len(secret) else 1
            self._secret_ints = tuple(int(c * denom) for c in secret.coords)
        self.dim = len(self._secret_ints)
        self.ledger = QueryLedger(log=[] if log_queries else None)
        self._family = (
            frozenset(strict_family) if strict_family is not None else None
        )
        # <h, x> of every integer vector queried so far, keyed by id(h);
        # the entry holds h, so no other live object can share the key
        self._values: dict[int, tuple[Vector, int]] = {}

    def _check_member(self, h: Vector, kind: str) -> None:
        if h not in self._family:
            raise StrictModeViolation(f"{kind} query outside declared family: {h!r}")

    def _check_dim(self, h: Vector) -> None:
        if h.dim != self.dim:
            raise ValueError(f"query dimension {h.dim} != oracle dimension {self.dim}")

    def _value(self, h: Vector) -> int:
        """<h, x> for an integer vector h, dimension-checked and computed once."""
        hit = self._values.get(id(h))
        if hit is not None:
            return hit[1]
        self._check_dim(h)
        total = sum(map(mul, h.ints, self._secret_ints))
        self._values[id(h)] = (h, total)
        return total

    def _sign_at(self, h: Vector) -> Sign:
        if h.ints is not None:
            return sign_of(self._value(h))
        self._check_dim(h)
        acc = Fraction(0)
        for u, v in zip(h.coords, self._secret_ints):
            if u and v:
                acc += u * v
        return sign_of(acc)

    def label_query(self, h: Vector, ident: int | None = None) -> Sign:
        if self._family is not None:
            self._check_member(h, "label")
        answer = self._sign_at(h)
        self.ledger.label_count += 1
        if self.ledger.log is not None:
            entry: dict = {"kind": "label", "answer": answer.char}
            entry["id" if ident is not None else "vector"] = (
                ident if ident is not None else str(h)
            )
            self.ledger.log.append(entry)
        return answer

    def comparison_query(
        self,
        h1: Vector,
        h2: Vector,
        idents: tuple[int, int] | None = None,
    ) -> Sign:
        if self._family is not None:
            self._check_member(h1, "comparison")
            self._check_member(h2, "comparison")
        # <h1, x> - <h2, x> without building the difference vector; a
        # cached value was dimension-checked when it was computed
        hit1 = self._values.get(id(h1))
        hit2 = self._values.get(id(h2))
        if hit1 is not None and hit2 is not None:
            answer = sign_of(hit1[1] - hit2[1])
        elif h1.ints is not None and h2.ints is not None:
            answer = sign_of(self._value(h1) - self._value(h2))
        else:
            answer = self._sign_at(h1 - h2)
        self.ledger.comparison_count += 1
        if self.ledger.log is not None:
            entry = {"kind": "cmp", "answer": answer.char}
            if idents is not None:
                entry["ids"] = list(idents)
            else:
                entry["vectors"] = [str(h1), str(h2)]
            self.ledger.log.append(entry)
        return answer

