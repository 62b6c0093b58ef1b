"""Sorted samples: the sort step of a sample, sort and infer round.

A queried sample pins the hidden point x into a cell: the set of points
that agree with every queried label and with the sorted order of the
sample's inner products.  This module labels the sample and sorts it by
comparison queries into equal-value blocks; the sorted sample names its
members by their row indices into the family, from whose matrix batch
builds the cell and infers the live rows against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Family, Sign, SignVector
# no code here calls feasible: the traced benchmark patches this binding
# (its lp.feasible hook) and reads 0 calls from it
from .lp import feasible  # noqa: F401
from .oracle import HiddenPointOracle


@dataclass
class SortedSample:
    """Labels and sorted order of a queried sample.

    ids holds the members' row indices into the family they were drawn
    from, in sample order; labels align with ids.  blocks groups the
    member positions into equal-value blocks, each ascending, listed by
    increasing inner product with the hidden point: members of one block
    tie, and each block lies strictly below the next.
    """

    ids: list[int]
    labels: list[Sign]
    blocks: list[list[int]]


class InconsistentSampleError(RuntimeError):
    """Oracle answers about a sample contradict each other; no point
    could have produced them."""


def build_sorted_sample(
    ids: Sequence[int], family: Family, oracle: HiddenPointOracle
) -> SortedSample:
    """Label the rows of family indexed by ids, then sort each label
    class by comparisons.

    The oracle answers about the rows by index (query_rows), and the
    returned sample names its members by the same indices, so neither
    the queries nor the sample need a Vector.  Labels order the classes
    MINUS < ZERO < PLUS and make the ZERO class one tie, so only MINUS
    and PLUS are sorted: a stable merge sort over equal-value blocks
    that compares two block heads once and fuses them on a tie.  No pair
    is compared twice or across labels, a member that joined a block is
    never compared again, and a class of c members costs at most
    c*ceil(log2 c) comparisons.
    """
    ids = list(ids)
    labels, compare = oracle.query_rows(family, ids)
    minus, plus = Sign.MINUS, Sign.PLUS

    def merge_sort(items: list[list[int]]) -> list[list[int]]:
        if len(items) <= 1:
            return items
        mid = len(items) // 2
        left = merge_sort(items[:mid])
        right = merge_sort(items[mid:])
        out: list[list[int]] = []
        append = out.append
        i = j = 0
        n_left, n_right = len(left), len(right)
        while i < n_left and j < n_right:
            a, b = left[i], right[j]
            s = compare(a[0], b[0])
            if s is minus:
                append(a)
                i += 1
            elif s is plus:
                append(b)
                j += 1
            else:
                # left positions precede right ones: the block stays ascending
                append(a + b)
                i += 1
                j += 1
        out.extend(left[i:])
        out.extend(right[j:])
        return out

    by_label: dict[Sign, list[list[int]]] = {lab: [] for lab in Sign}
    for p, lab in enumerate(labels):
        by_label[lab].append([p])
    zeros = [p for [p] in by_label[Sign.ZERO]]
    blocks = (
        merge_sort(by_label[Sign.MINUS])
        + ([zeros] if zeros else [])
        + merge_sort(by_label[Sign.PLUS])
    )
    return SortedSample(ids, labels, blocks)


@dataclass
class InferenceOutcome:
    """Result of inference over a live set of family rows.

    inferred holds the rows whose sign is settled, undetermined the
    ascending indices of the rows left for direct labels.
    """

    inferred: SignVector
    undetermined: np.ndarray

