import gc
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import numpy as np

from ldt.batch import cell_from_sample, infer_set
from ldt.geometry import Family, Vector, sign_of
from ldt.inference import build_sorted_sample
from ldt.lp import RationalCell, infer_sign
from ldt.oracle import HiddenPointOracle


def _sample(member_vecs, secret):
    oracle = HiddenPointOracle(Vector(secret))
    family = Family.of(Vector(v) for v in member_vecs)
    return build_sorted_sample(range(len(family)), family, oracle), family, oracle


def test_sorted_sample_frozen_units():
    # secret (2,1,1): values 2,1,1 -> sorted e2,e3,e1 with gaps (0, +)
    sample, _, oracle = _sample([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (2, 1, 1))
    assert sample.labels.tolist() == [1, 1, 1]
    assert (sample.order, sample.starts) == ([1, 2, 0], [0, 2])
    # 3 labels, and the sort plus gaps fit the merge budget
    assert oracle.ledger.label_count == 3
    assert oracle.ledger.comparison_count <= 6


def test_sorted_sample_holds_the_oracle_labels():
    # the sort keeps the oracle's int8 label array as it is
    family = Family.of(Vector(v) for v in [(1, 0), (0, 1), (1, -1), (0, 0)])
    oracle = HiddenPointOracle(Vector([2, 3]))
    answered = []
    query_rows = oracle.query_rows

    def recording(fam, ids):
        labels, compare = query_rows(fam, ids)
        answered.append(labels)
        return labels, compare

    oracle.query_rows = recording
    sample = build_sorted_sample(range(4), family, oracle)
    assert sample.labels is answered[0]
    assert sample.labels.dtype == np.int8 and sample.labels.tolist() == [1, 1, -1, 0]


def test_sorted_sample_comparison_budget():
    secret = tuple(range(1, 18))
    vecs = [tuple(1 if j == i else 0 for j in range(17)) for i in range(17)]
    sample, _, oracle = _sample(vecs, secret)
    assert [sample.ids[p] for p in sample.order] == list(range(17))
    budget = 17 * math.ceil(math.log2(17)) + 16
    assert oracle.ledger.comparison_count <= budget


def test_sorted_sample_allocates_no_container_per_member():
    # every live container counts toward the cyclic collector's
    # thresholds, so a list per member would set off collections, and
    # now and then a full one, inside the solves that sort large samples
    family = Family(np.array([[i - 300, 1] for i in range(600)]))
    oracle = HiddenPointOracle(Vector([1, 0]))
    gc.disable()
    try:
        before = gc.get_count()[0]
        sample = build_sorted_sample(range(600), family, oracle)
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert sample.order == list(range(600)) and len(sample.starts) == 600
    assert grown < 50

def _reference_sort(values):
    """Stable merge sort of the whole sample by (value, position), with
    the gap signs of sorted neighbours: the sort that preceded the
    per-class block sort, answering each pair from the values."""

    def merge_sort(seq):
        if len(seq) <= 1:
            return seq
        mid = len(seq) // 2
        left = merge_sort(seq[:mid])
        right = merge_sort(seq[mid:])
        out = []
        i = j = 0
        while i < len(left) and j < len(right):
            if values[left[i]] <= values[right[j]]:
                out.append(left[i])
                i += 1
            else:
                out.append(right[j])
                j += 1
        out.extend(left[i:])
        out.extend(right[j:])
        return out

    order = merge_sort(list(range(len(values))))
    gaps = [sign_of(values[b] - values[a]) for a, b in zip(order, order[1:])]
    return order, gaps


def _order_and_gaps(sample):
    """The sample's sorted order, with the gap signs of sorted
    neighbours: 0 inside a block, 1 where the next block starts."""
    starts = set(sample.starts)
    assert sample.starts == sorted(starts)
    assert sample.starts[:1] == ([0] if sample.order else [])
    gaps = [1 if k in starts else 0 for k in range(len(sample.order))]
    return sample.order, gaps[1:]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([(-3, 3), (-1, 1), (0, 0), (1, 3), (-3, -1), (-9, 9)]),
    st.integers(min_value=0, max_value=30),
    st.data(),
)
def test_block_sort_matches_stable_sort(dim, value_range, size, data):
    # values are drawn first, then each member is built to take its
    # value: x_0 = 1, so setting coordinate 0 fixes <v, x>.  Narrow
    # ranges give many ties, (0, 0) an all-zero sample and the signed
    # ranges one-class samples.
    coord = st.integers(min_value=-3, max_value=3)
    secret = [1] + data.draw(st.lists(coord, min_size=dim - 1, max_size=dim - 1))
    values = data.draw(
        st.lists(st.integers(*value_range), min_size=size, max_size=size)
    )
    vecs = []
    for val in values:
        rest = data.draw(st.lists(coord, min_size=dim - 1, max_size=dim - 1))
        head = val - sum(a * b for a, b in zip(rest, secret[1:]))
        vecs.append(Vector([head] + rest))
    # the member at position pos is family row size - 1 - pos, so the
    # logged row indices differ from the member positions; the last row,
    # in no sample, gives an empty sample's family its dimension
    ids = list(range(size - 1, -1, -1))
    family = Family.of(vecs[::-1] + [Vector([0] * dim)])
    oracle = HiddenPointOracle(Vector(secret), log_queries=True)
    sample = build_sorted_sample(ids, family, oracle)

    assert sample.labels.tolist() == [sign_of(v) for v in values]
    assert _order_and_gaps(sample) == _reference_sort(values)
    assert sample.ids == ids
    label_of = dict(zip(ids, sample.labels.tolist()))
    pairs = [e["ids"] for e in oracle.ledger.log if e["kind"] == "cmp"]
    seen = set()
    for a, b in pairs:
        assert label_of[a] == label_of[b] != 0
        assert frozenset((a, b)) not in seen
        seen.add(frozenset((a, b)))
    counts = [int((sample.labels == lab).sum()) for lab in (-1, 1)]
    budget = sum(c * math.ceil(math.log2(c)) for c in counts if c)
    assert oracle.ledger.snapshot() == (size, len(pairs))
    assert len(pairs) <= budget


def test_cell_pins_witness_signs():
    sample, family, _ = _sample([(1, 0), (0, 1)], (3, 1))
    w = RationalCell(sample, family).witness
    assert w is not None
    assert w.dot(Vector([1, 0])) > 0
    assert w.dot(Vector([0, 1])) > 0
    assert w.dot(Vector([1, -1])) > 0  # gap: e1 above e2


def test_infer_sign_from_order():
    # secret (3,1): sample pins x1 > x2 > 0, so x1 - x2 > 0, x1 + x2 > 0
    sample, family, _ = _sample([(1, 0), (0, 1)], (3, 1))
    cell = RationalCell(sample, family)
    assert infer_sign(cell, Vector([1, -1])) == 1
    assert infer_sign(cell, Vector([1, 1])) == 1
    assert infer_sign(cell, Vector([1, -2])) is None  # sign varies over the cell
    assert infer_sign(cell, Vector([0, 0])) == 0


def test_infer_sign_zero_from_equalities():
    # secret (1,1): e1 = e2 forces sign(e1 - e2) = 0
    sample, family, _ = _sample([(1, 0), (0, 1)], (1, 1))
    cell = RationalCell(sample, family)
    assert infer_sign(cell, Vector([1, -1])) == 0
    assert infer_sign(cell, Vector([2, -2])) == 0
    assert infer_sign(cell, Vector([1, 1])) == 1


def test_infer_sign_minus():
    sample, family, _ = _sample([(1, 0), (0, 1)], (-2, -5))
    cell = RationalCell(sample, family)
    assert infer_sign(cell, Vector([1, 1])) == -1


def test_infer_set_matches_per_hyperplane():
    secret = (4, -1, 2)
    vecs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    sample, members, _ = _sample(vecs, secret)
    extra = [
        Vector([1, 1, 1]),
        Vector([1, -1, 0]),
        Vector([0, 1, -1]),
        Vector([2, 2, 0]),
    ]
    family = Family.of(list(members) + extra)
    live = range(len(vecs), len(family))
    outcome = infer_set(cell_from_sample(sample, family), live, family)
    inferred = dict(zip(outcome.inferred.tolist(), outcome.signs.tolist()))
    ref = RationalCell(sample, family)
    for ident, v in zip(live, extra):
        expected = infer_sign(ref, v)
        if expected is None:
            assert ident in outcome.undetermined
        else:
            assert inferred[ident] == expected


def test_infer_set_echoes_sample_labels():
    sample, family, _ = _sample([(1, 0), (0, 1)], (3, 1))
    outcome = infer_set(cell_from_sample(sample, family), [0, 1], family)
    assert outcome.inferred.tolist() == [0, 1]
    assert outcome.signs.tolist() == [1, 1]
    assert outcome.undetermined.tolist() == []

