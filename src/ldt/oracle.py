"""Metered access to the hidden point.

The solver sees the hidden point x only through two query kinds:

  label                     sign of <h, x>
  comparison of h1 and h2   sign of <h1 - h2, x>

Both are asked by row index into a Family (query_rows): one exact
product gives the values of a whole row set, and its labels and
comparisons are answered from them.  Every query is counted in one
ledger and optionally logged.  Nothing else about x is observable; the
oracle object keeps the point in a private attribute and exposes no
accessor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import lcm
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .geometry import Family, Vector
from .intlin import exact_product, generator_matrix


@dataclass
class QueryLedger:
    """Counts of issued queries, with an optional structured log."""

    label_count: int = 0
    comparison_count: int = 0
    log: list[dict] | None = None

    def snapshot(self) -> tuple[int, int]:
        return (self.label_count, self.comparison_count)

    def export_jsonl(self, fp: IO[str]) -> None:
        if self.log is None:
            raise ValueError("query logging was not enabled")
        for entry in self.log:
            fp.write(json.dumps(entry, separators=(",", ":")) + "\n")


class StrictModeViolation(AssertionError):
    """A query in strict mode named a family other than the declared one."""


class HiddenPointOracle:
    """Answers sign queries about a fixed hidden point.

    In strict comparison mode the oracle refuses every query about a
    family other than the declared one: the same object, or a family
    with an equal denominator and equal rows.  A label then probes a
    declared member and a comparison the difference of two.
    """

    def __init__(
        self,
        secret: Vector,
        log_queries: bool = False,
        strict_family: Iterable[Vector] | None = None,
    ) -> None:
        # positive scaling never changes a sign, so clear denominators
        # once and answer every query with integer arithmetic
        denom = lcm(*(c.denominator for c in secret.coords))
        ints = tuple(int(c * denom) for c in secret.coords)
        self.dim = len(ints)
        # the scaled secret as one integer column
        self._secret_col = generator_matrix([ints], self.dim)[0]
        self.ledger = QueryLedger(log=[] if log_queries else None)
        self._declared = Family.of(strict_family) if strict_family is not None else None

    def query_rows(
        self, family: Family, ids: Sequence[int]
    ) -> tuple[np.ndarray, Callable[[int, int], int]]:
        """Label the rows of family indexed by ids, in order, and return
        those labels with compare(p, q), the comparison query of rows
        ids[p] and ids[q].

        The labels are one int8 array of -1, 0 and 1, and compare
        answers the sign of row ids[p] minus row ids[q] as the int -1,
        0 or 1.  Each label is logged as {"kind": "label", "answer",
        "id": i} and each comparison as {"kind": "cmp", "answer", "ids":
        [i, j]}, the answer as "-", "0" or "+".
        The values of all the rows come from one exact product; a
        family's common denominator scales them by one positive factor,
        which changes no sign.  A family of another dimension, a family
        other than the declared one in strict mode, and an id outside
        0..len(family)-1 are refused before any query is counted.
        """
        dim = family.dim
        if dim != self.dim:
            raise ValueError(f"query dimension {dim} != oracle dimension {self.dim}")
        declared = self._declared
        if declared is not None and family is not declared and not (
            family.den == declared.den and np.array_equal(family.rows, declared.rows)
        ):
            raise StrictModeViolation(f"{family!r} is not the declared family")
        ids = list(ids)
        at = np.asarray(ids, dtype=np.intp)
        if at.size and not (0 <= at.min() and at.max() < len(family)):
            raise ValueError(f"row ids must lie in 0..{len(family) - 1}")
        product = exact_product(family.rows[at], self._secret_col)
        labels = np.sign(product).astype(np.int8)
        values = product.tolist()
        ledger = self.ledger
        log = ledger.log
        ledger.label_count += len(ids)
        if log is not None:
            log.extend(
                {"kind": "label", "answer": "-0+"[s + 1], "id": i}
                for i, s in zip(ids, labels.tolist())
            )

        def compare(p: int, q: int) -> int:
            d = values[p] - values[q]
            answer = (d > 0) - (d < 0)
            ledger.comparison_count += 1
            if log is not None:
                log.append(
                    {"kind": "cmp", "answer": "-0+"[answer + 1], "ids": [ids[p], ids[q]]}
                )
            return answer

        return labels, compare
