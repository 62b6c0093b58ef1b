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
    from, in sample order; labels align with ids.  order lists the
    member positions by increasing inner product with the hidden point,
    and starts the indices into order where each equal-value block
    begins, ascending from 0: members of one block tie, each block
    lists its positions ascending and lies strictly below the next.
    Both are flat int lists, so a sort allocates no container per
    member.
    """

    ids: list[int]
    labels: list[Sign]
    order: list[int]
    starts: list[int]


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
    # the sort moves block heads only; tied[h] holds the other members
    # of the block headed by h, so a list is made per tie, not per member
    tied: dict[int, list[int]] = {}

    def merge_sort(heads: list[int]) -> list[int]:
        if len(heads) <= 1:
            return heads
        mid = len(heads) // 2
        left = merge_sort(heads[:mid])
        right = merge_sort(heads[mid:])
        out: list[int] = []
        append = out.append
        i = j = 0
        n_left, n_right = len(left), len(right)
        while i < n_left and j < n_right:
            a, b = left[i], right[j]
            s = compare(a, b)
            if s is minus:
                append(a)
                i += 1
            elif s is plus:
                append(b)
                j += 1
            else:
                # left positions precede right ones: the block stays ascending
                block = tied.setdefault(a, [])
                block.append(b)
                block += tied.pop(b, ())
                append(a)
                i += 1
                j += 1
        out.extend(left[i:])
        out.extend(right[j:])
        return out

    by_label: dict[Sign, list[int]] = {lab: [] for lab in Sign}
    for p, lab in enumerate(labels):
        by_label[lab].append(p)
    zeros = by_label[Sign.ZERO]
    if zeros:
        tied[zeros[0]] = zeros[1:]
    order: list[int] = []
    starts: list[int] = []
    for h in merge_sort(by_label[minus]) + zeros[:1] + merge_sort(by_label[plus]):
        starts.append(len(order))
        order.append(h)
        order += tied.get(h, ())
    return SortedSample(ids, labels, order, starts)


@dataclass
class InferenceOutcome:
    """Result of inference over a live set of family rows.

    inferred holds the rows whose sign is settled, undetermined the
    ascending indices of the rows left for direct labels.
    """

    inferred: SignVector
    undetermined: np.ndarray

