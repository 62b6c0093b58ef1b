from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldt.geometry import Family, Vector, sign_of
from ldt.oracle import HiddenPointOracle, StrictModeViolation

# the character the query log writes for each sign
_CHAR = {-1: "-", 0: "0", 1: "+"}


def _family(*rows):
    return Family.of([Vector(r) for r in rows])


def test_label_query_signs():
    oracle = HiddenPointOracle(Vector([1, -2]))
    labels, _ = oracle.query_rows(_family([1, 0], [0, 1], [2, 1]), [0, 1, 2])
    assert labels.tolist() == [1, -1, 0]
    assert oracle.ledger.label_count == 3
    assert oracle.ledger.comparison_count == 0


def test_comparison_query_sumset_tie():
    # A = (3, 1), B = (0, 2): a1+b1 = 3 = a2+b2
    oracle = HiddenPointOracle(Vector([3, 1, 0, 2]))
    family = _family([1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1])
    _, compare = oracle.query_rows(family, [0, 1, 2])
    assert compare(0, 1) == 0
    assert compare(1, 2) == -1
    assert oracle.ledger.comparison_count == 2


def test_rational_secret_scaling():
    oracle = HiddenPointOracle(Vector([Fraction(1, 2), Fraction(-1, 3)]))
    labels, _ = oracle.query_rows(_family([2, 3], [6, 0]), [0, 1])
    assert labels.tolist() == [0, 1]


def test_ledger_snapshot():
    oracle = HiddenPointOracle(Vector([1, 1]))
    before = oracle.ledger.snapshot()
    _, compare = oracle.query_rows(_family([1, 0], [0, 1]), [1])
    compare(0, 0)
    after = oracle.ledger.snapshot()
    assert after[0] - before[0] == 1
    assert after[1] - before[1] == 1


def test_query_log_records(tmp_path):
    oracle = HiddenPointOracle(Vector([2, 5]), log_queries=True)
    rows = [[0, 0]] * 10
    rows[4], rows[9] = [1, 0], [0, 1]
    _, compare = oracle.query_rows(_family(*rows), [4, 9])
    compare(0, 1)
    out = tmp_path / "queries.jsonl"
    with open(out, "w", encoding="utf-8") as fp:
        oracle.ledger.export_jsonl(fp)
    assert out.read_text().splitlines() == [
        '{"kind":"label","answer":"+","id":4}',
        '{"kind":"label","answer":"+","id":9}',
        '{"kind":"cmp","answer":"-","ids":[4,9]}',
    ]


def test_strict_mode_rejects_foreign_vectors():
    fam = [Vector([1, 0]), Vector([0, 1])]
    oracle = HiddenPointOracle(Vector([1, 2]), strict_family=fam)
    labels, compare = oracle.query_rows(Family.of(fam), [0])
    assert labels.tolist() == [1]
    before = oracle.ledger.snapshot()
    # a family holding one foreign vector is refused, its members included,
    # in either position
    for foreign in ([fam[0], Vector([1, 1])], [Vector([2, 1]), fam[1]]):
        with pytest.raises(StrictModeViolation):
            oracle.query_rows(Family.of(foreign), [0])
    # so is the declared family with one more row
    with pytest.raises(StrictModeViolation):
        oracle.query_rows(Family.of(fam + [Vector([1, 1])]), [0, 1])
    assert oracle.ledger.snapshot() == before
    # the answers already handed out stay good
    assert compare(0, 0) == 0


small = st.integers(min_value=-4, max_value=4)
_HUGE = st.integers(min_value=1 << 62, max_value=(1 << 62) + 9)
coords = st.one_of(small, st.fractions(min_value=-4, max_value=4, max_denominator=7), _HUGE)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_comparison_equals_label_of_difference(dim, data):
    def vec():
        return Vector(data.draw(st.lists(coords, min_size=dim, max_size=dim)))

    secret, h1, h2 = vec(), vec(), vec()
    compared = HiddenPointOracle(secret, log_queries=True)
    (expected,), _ = HiddenPointOracle(secret).query_rows(Family.of([h1 - h2]), [0])
    assert expected == sign_of((h1 - h2).dot(secret))
    _, compare = compared.query_rows(Family.of([h1, h2]), [0, 1])
    assert compare(0, 1) == expected
    assert compared.ledger.snapshot() == (2, 1)
    assert compared.ledger.log[2:] == [
        {"kind": "cmp", "answer": _CHAR[expected], "ids": [0, 1]}
    ]


@pytest.mark.parametrize("h1, h2", [
    (Vector([1, 0, 0]), Vector([0, 1])),
    (Vector([1, 0]), Vector([0, 1, 0])),
    (Vector([1, 0, 0]), Vector([0, 1, 0])),
    (Vector([Fraction(1, 2), 0, 0]), Vector([0, 1])),
    (Vector([Fraction(1, 2), 0, 0]), Vector([0, 1, 0])),
    (Vector([1, 0]), Vector([Fraction(1, 2), 0, 0])),
])
def test_comparison_dimension_mismatch(h1, h2):
    # two rows of different dimensions never share a family, and a
    # family of another dimension than the point is refused uncounted
    oracle = HiddenPointOracle(Vector([1, 2]))
    if h1.dim != h2.dim:
        with pytest.raises(ValueError, match="share one dimension"):
            Family.of([h1, h2])
    else:
        with pytest.raises(ValueError, match="oracle dimension"):
            oracle.query_rows(Family.of([h1, h2]), [0, 1])
    for h in (h1, h2):
        if h.dim != oracle.dim:
            with pytest.raises(ValueError, match="oracle dimension"):
                oracle.query_rows(Family.of([h]), [0])
    assert oracle.ledger.snapshot() == (0, 0)


def test_repeated_queries_match_a_fresh_oracle():
    # however often a row is queried, within one call or across calls,
    # every answer matches a fresh oracle's and every query is counted
    secret = Vector([3, -7, 2, 5])
    family = Family.of(
        Vector([i % 3 - 1, i % 2, (i * 5) % 4 - 2, i % 5 - 2]) for i in range(12)
    )
    ids = list(range(12)) + [5, 5, 0]
    oracle = HiddenPointOracle(secret)
    for _ in range(3):
        labels, compare = oracle.query_rows(family, ids)
        fresh_labels, fresh_compare = HiddenPointOracle(secret).query_rows(family, ids)
        assert np.array_equal(labels, fresh_labels)
        for p in range(len(ids)):
            for q in range(len(ids)):
                assert compare(p, q) == fresh_compare(p, q)
    assert oracle.ledger.snapshot() == (3 * 15, 3 * 15 * 15)
    with pytest.raises(ValueError, match="oracle dimension"):
        oracle.query_rows(_family([1, 2]), [0])


# each kind of family matrix: int64 rows, Python-integer rows (an entry
# of 2^63 or more) and rows scaled by a common denominator above 1, each
# with the coordinate its first row is given to make it that kind
_FAMILY_KINDS = {
    "int64": (small, 1),
    "object": (st.one_of(small, st.integers(min_value=1 << 63, max_value=(1 << 63) + 9)), 1 << 63),
    "rational": (st.fractions(min_value=-4, max_value=4, max_denominator=7), Fraction(1, 3)),
}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.sampled_from(sorted(_FAMILY_KINDS)),
    st.booleans(),
    st.data(),
)
def test_query_rows_answers_as_per_vector_queries(dim, kind, rational_secret, data):
    # the reference is the exact inner product of each Vector the family
    # was made from with the secret
    coord, forced = _FAMILY_KINDS[kind]
    vecs = [
        Vector(data.draw(st.lists(coord, min_size=dim, max_size=dim)))
        for _ in range(data.draw(st.integers(min_value=1, max_value=6)))
    ]
    vecs[0] = Vector([forced] + list(vecs[0].coords[1:]))
    family = Family.of(vecs)
    assert (family.rows.dtype == object) is (kind == "object")
    assert (family.den > 1) is (kind == "rational")
    # secret coordinates reach 2^62, past the int64 product's guard
    secret_coord = coords if rational_secret else st.one_of(small, _HUGE)
    secret = data.draw(st.lists(secret_coord, min_size=dim, max_size=dim))
    if rational_secret:
        secret[0] = Fraction(1, 2)
    secret = Vector(secret)
    assert (secret.ints is None) is rational_secret
    ids = data.draw(st.lists(st.integers(min_value=0, max_value=len(vecs) - 1), max_size=8))
    position = st.integers(min_value=0, max_value=max(len(ids) - 1, 0))
    pairs = data.draw(st.lists(st.tuples(position, position), max_size=10)) if ids else []

    oracle = HiddenPointOracle(secret, log_queries=True)
    labels, compare = oracle.query_rows(family, ids)
    assert labels.tolist() == [sign_of(vecs[i].dot(secret)) for i in ids]
    log = [{"kind": "label", "answer": _CHAR[s], "id": i} for i, s in zip(ids, labels)]
    for p, q in pairs:
        i, j = ids[p], ids[q]
        answer = compare(p, q)
        assert answer == sign_of((vecs[i] - vecs[j]).dot(secret))
        log.append({"kind": "cmp", "answer": _CHAR[answer], "ids": [i, j]})
    assert oracle.ledger.snapshot() == (len(ids), len(pairs))
    assert oracle.ledger.log == log


def test_query_rows_refuses_before_counting():
    # the declared family is held as a family; a query about it, or about
    # a family of equal rows and denominator, is answered
    declared = Family(np.array([[3, 0], [0, 3], [3, 3]]), 2)
    oracle = HiddenPointOracle(Vector([1, 2]), log_queries=True, strict_family=declared)
    for family in (declared, Family.of(list(declared))):
        labels, compare = oracle.query_rows(family, [0, 1])
        assert labels.tolist() == [1, 1] and compare(0, 1) == -1
    before = (oracle.ledger.snapshot(), list(oracle.ledger.log))
    # one row changed, the rows reordered or cut to a subset, or another
    # denominator: each is refused, whichever rows are asked about
    for rows, den in (
        ([[3, 0], [0, 3], [3, 4]], 2),
        ([[0, 3], [3, 0], [3, 3]], 2),
        ([[3, 0], [0, 3]], 2),
        ([[3, 0], [0, 3], [3, 3]], 4),
    ):
        with pytest.raises(StrictModeViolation):
            oracle.query_rows(Family(np.array(rows), den), [0, 1])
    with pytest.raises(ValueError, match="oracle dimension"):
        oracle.query_rows(Family.of([Vector([1, 0, 0])]), [0])
    assert (oracle.ledger.snapshot(), oracle.ledger.log) == before
    # a dimension mismatch is refused however few rows are asked about
    fresh = HiddenPointOracle(Vector([1, 2]))
    with pytest.raises(ValueError, match="oracle dimension"):
        fresh.query_rows(Family(np.zeros((2, 3), dtype=np.int64)), [])
    assert fresh.ledger.snapshot() == (0, 0)


@pytest.mark.parametrize("strict", [False, True])
def test_query_rows_refuses_ids_outside_the_family(strict):
    family = _family([1, 0], [0, 1], [1, 1])
    oracle = HiddenPointOracle(
        Vector([1, 2]), log_queries=True, strict_family=family if strict else None
    )
    oracle.query_rows(family, [0, 2])
    before = (oracle.ledger.snapshot(), list(oracle.ledger.log))
    for ids in ([-1, 0], [0, 3], [-4], [3]):
        with pytest.raises(ValueError, match="row ids"):
            oracle.query_rows(family, ids)
    assert (oracle.ledger.snapshot(), oracle.ledger.log) == before


@pytest.mark.parametrize("secret", [Vector([1, -2]), Vector([1 << 62, -(1 << 62)])])
def test_query_rows_answers_int8_labels_and_int_comparisons(secret):
    # signs stay -1/0/1 machine values: the labels are one int8 array and
    # every comparison a plain int, whatever the product's dtype
    family = _family([1, 0], [0, 1], [2, 1], [1 << 63, 0])
    labels, compare = HiddenPointOracle(secret).query_rows(family, [0, 1, 2, 3])
    assert isinstance(labels, np.ndarray) and labels.dtype == np.int8
    assert labels.tolist() == [sign_of(family[i].dot(secret)) for i in range(4)]
    for p in range(4):
        for q in range(4):
            answer = compare(p, q)
            assert type(answer) is int and answer in (-1, 0, 1)
