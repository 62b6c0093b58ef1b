"""Metered access to the hidden point.

The solver sees the hidden point x only through two query kinds:

  label                     sign of <h, x>
  comparison of h1 and h2   sign of <h1 - h2, x>

Each kind is asked either per vector (label_query, comparison_query) or
by row index into a Family (query_rows): one exact product then gives
the values of a whole row set, and its labels and comparisons are
answered from them.  Every query is counted in one ledger and
optionally logged, the same entry for either form.  Nothing else about
x is observable; the oracle object keeps the point in private
attributes and exposes no accessor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .geometry import Family, Sign, Vector, sign_of
from .intlin import exact_product, generator_matrix

# indexed by (d > 0) - (d < 0): the sign of d
_SIGN_AT = (Sign.ZERO, Sign.PLUS, Sign.MINUS)


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
    family or its difference set; query_rows checks every row of its set.
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
        # the scaled secret as one integer column, for query_rows
        self._secret_col = generator_matrix([self._secret_ints], self.dim)[0]
        self.ledger = QueryLedger(log=[] if log_queries else None)
        self._family = (
            frozenset(strict_family) if strict_family is not None else None
        )

    def _check_member(self, h: Vector, kind: str) -> None:
        if h not in self._family:
            raise StrictModeViolation(f"{kind} query outside declared family: {h!r}")

    def _check_dim(self, dim: int) -> None:
        if dim != self.dim:
            raise ValueError(f"query dimension {dim} != oracle dimension {self.dim}")

    def _dot(self, h: Vector) -> int | Fraction:
        """<h, x> times the secret's positive scale, dimension-checked."""
        self._check_dim(h.dim)
        coords = h.ints if h.ints is not None else h.coords
        return sum(map(mul, coords, self._secret_ints))

    def _record(self, kind: str, answer: Sign, key: str, about: object) -> Sign:
        """Count one answered query of kind "label" or "cmp" and, when
        logging, log it as {"kind", "answer", key: about}."""
        ledger = self.ledger
        if kind == "label":
            ledger.label_count += 1
        else:
            ledger.comparison_count += 1
        if ledger.log is not None:
            ledger.log.append({"kind": kind, "answer": answer.char, key: about})
        return answer

    def label_query(self, h: Vector, ident: int | None = None) -> Sign:
        if self._family is not None:
            self._check_member(h, "label")
        answer = sign_of(self._dot(h))
        if ident is not None:
            return self._record("label", answer, "id", ident)
        return self._record("label", answer, "vector", str(h))

    def comparison_query(
        self,
        h1: Vector,
        h2: Vector,
        idents: tuple[int, int] | None = None,
    ) -> Sign:
        if self._family is not None:
            self._check_member(h1, "comparison")
            self._check_member(h2, "comparison")
        # <h1, x> - <h2, x> without building the difference vector
        answer = sign_of(self._dot(h1) - self._dot(h2))
        if idents is not None:
            return self._record("cmp", answer, "ids", list(idents))
        return self._record("cmp", answer, "vectors", [str(h1), str(h2)])

    def query_rows(
        self, family: Family, ids: Sequence[int]
    ) -> tuple[list[Sign], Callable[[int, int], Sign]]:
        """Label the rows of family indexed by ids, in order, and return
        those labels with compare(p, q), the comparison query of rows
        ids[p] and ids[q].

        Each answer is counted and logged exactly as label_query(
        family[i], ident=i) and comparison_query(family[i], family[j],
        idents=(i, j)) would count and log it.  The values of all the
        rows come from one exact product; a family's common denominator
        scales them by one positive factor, which changes no sign.  In
        strict mode every row is checked against the declared family
        before any query is counted.
        """
        self._check_dim(family.dim)
        ids = list(ids)
        if self._family is not None:
            for h in family.members(ids):
                self._check_member(h, "label")
        rows = family.rows[np.asarray(ids, dtype=np.intp)]
        values = exact_product(rows, self._secret_col).tolist()
        labels = [_SIGN_AT[(v > 0) - (v < 0)] for v in values]
        record = self._record
        for i, answer in zip(ids, labels):
            record("label", answer, "id", i)

        def compare(p: int, q: int) -> Sign:
            d = values[p] - values[q]
            return record("cmp", _SIGN_AT[(d > 0) - (d < 0)], "ids", [ids[p], ids[q]])

        return labels, compare
