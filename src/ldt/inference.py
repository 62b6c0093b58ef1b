"""Sorted samples, polyhedral cells and sign inference.

A queried sample pins the hidden point x into a cell: the set of points
that agree with every queried label and with the sorted order of the
sample's inner products.  A hyperplane h is inferred when its sign is
constant over that whole cell; the sign then costs no further query.

The reduced cell uses one constraint per member label plus one per
consecutive sorted pair.  Transitivity makes this exact: every pairwise
comparison inside the sample is a nonnegative combination of
consecutive gaps, so the reduced system carves the same cell as the
full quadratic one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import Family, Sign, SignVector, Vector, sign_of
from .lp import HomogeneousSystem, feasible, interior_witness
from .oracle import HiddenPointOracle


@dataclass
class SortedSample:
    """Labels and sorted order of a queried sample.

    members holds (identifier, vector) pairs; labels align with members.
    blocks groups the member positions into equal-value blocks, each
    ascending, listed by increasing inner product with the hidden point:
    members of one block tie, and each block lies strictly below the
    next.
    """

    members: list[tuple[int, Vector]]
    labels: list[Sign]
    blocks: list[list[int]]


class InconsistentSampleError(RuntimeError):
    """Oracle answers about a sample contradict each other; no point
    could have produced them."""


def build_sorted_sample(
    members: Sequence[tuple[int, Vector]], oracle: HiddenPointOracle
) -> SortedSample:
    """Label every member, then sort each label class by comparisons.

    Labels order the classes MINUS < ZERO < PLUS and make the ZERO class
    one tie, so only MINUS and PLUS are sorted: a stable merge sort over
    equal-value blocks that compares two block heads once and fuses them
    on a tie.  No pair is compared twice or across labels, a member that
    joined a block is never compared again, and a class of c members
    costs at most c*ceil(log2 c) comparisons.
    """
    members = list(members)
    labels = [oracle.label_query(v, ident=i) for i, v in members]
    idents = [i for i, _ in members]
    vecs = [v for _, v in members]
    compare = oracle.comparison_query
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
            pa, pb = a[0], b[0]
            s = compare(vecs[pa], vecs[pb], idents=(idents[pa], idents[pb]))
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
    return SortedSample(members, labels, blocks)


@dataclass
class CellDescription:
    """Constraint view of the cell pinned down by a sorted sample.

    The constraint system is built from the sample on first access; the
    batched engine reads the sample alone and never pays for it.
    """

    dim: int
    sample: SortedSample
    _constraints: HomogeneousSystem | None = field(default=None, repr=False)
    _witness: Vector | None = field(default=None, repr=False)
    _witness_done: bool = field(default=False, repr=False)

    @property
    def constraints(self) -> HomogeneousSystem:
        """One row per member label, one row per consecutive gap."""
        if self._constraints is None:
            self._constraints = _sample_system(self.sample, self.dim)
        return self._constraints

    def witness(self) -> Vector | None:
        """Interior point of the cell, computed once and cached."""
        if not self._witness_done:
            self._witness = interior_witness(self.constraints)
            self._witness_done = True
        return self._witness


def cell_from_sample(sample: SortedSample, dim: int) -> CellDescription:
    """Reduced cell: one row per label, one row per consecutive gap."""
    return CellDescription(dim, sample)


def _sample_system(sample: SortedSample, dim: int) -> HomogeneousSystem:
    strict: list[Vector] = []
    equalities: list[Vector] = []
    for (_, v), lab in zip(sample.members, sample.labels):
        if lab is Sign.PLUS:
            strict.append(v)
        elif lab is Sign.MINUS:
            strict.append(-v)
        else:
            equalities.append(v)
    # sorted neighbours differ by an equality inside a block and by a
    # strict gap from one block to the next
    lo = None
    for blk in sample.blocks:
        for k, p in enumerate(blk):
            hi = sample.members[p][1]
            if lo is not None:
                (equalities if k else strict).append(hi - lo)
            lo = hi
    return HomogeneousSystem(dim, strict=tuple(strict), equalities=tuple(equalities))


def infer_sign(cell: CellDescription, h: Vector) -> Sign | None:
    """Sign of h over the whole cell, or None when both signs occur.

    The candidate sign is read off at an interior witness; it stands
    exactly when every alternative sign is infeasible against the cell.
    """
    if h.is_zero():
        return Sign.ZERO
    w = cell.witness()
    if w is None:
        raise ValueError("cell is empty; it cannot have come from a real sample")
    b = sign_of(h.dot(w))
    base = cell.constraints
    if b is Sign.PLUS:
        if not feasible(base.augmented(weak=[-h])):
            return Sign.PLUS
        return None
    if b is Sign.MINUS:
        if not feasible(base.augmented(weak=[h])):
            return Sign.MINUS
        return None
    if not feasible(base.augmented(strict=[h])) and not feasible(
        base.augmented(strict=[-h])
    ):
        return Sign.ZERO
    return None


@dataclass
class InferenceOutcome:
    """Result of inference over a live set of family rows.

    inferred holds the rows whose sign is settled, undetermined the
    ascending indices of the rows left for direct labels.
    """

    inferred: SignVector
    undetermined: np.ndarray


def infer_set(
    cell: CellDescription, live: Sequence[int], family: Family
) -> InferenceOutcome:
    """Decide every row of family indexed by live against the cell.

    The sample's member identifiers index the same family, and its
    member rows are read from the family's matrix.  Sample members
    always come back with their queried labels; the batched engine,
    which works on the chain structure of the sorted sample, decides
    the rest.
    """
    from .batch import infer_set_batch

    return infer_set_batch(cell, live, family)

