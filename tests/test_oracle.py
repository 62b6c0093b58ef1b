from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldt.geometry import Family, Sign, Vector, sign_of
from ldt.oracle import HiddenPointOracle, StrictModeViolation


def test_label_query_signs():
    oracle = HiddenPointOracle(Vector([1, -2]))
    assert oracle.label_query(Vector([1, 0])) is Sign.PLUS
    assert oracle.label_query(Vector([0, 1])) is Sign.MINUS
    assert oracle.label_query(Vector([2, 1])) is Sign.ZERO
    assert oracle.ledger.label_count == 3
    assert oracle.ledger.comparison_count == 0


def test_comparison_query_sumset_tie():
    # A = (3, 1), B = (0, 2): a1+b1 = 3 = a2+b2
    oracle = HiddenPointOracle(Vector([3, 1, 0, 2]))
    h1 = Vector([1, 0, 1, 0])
    h2 = Vector([0, 1, 0, 1])
    assert oracle.comparison_query(h1, h2) is Sign.ZERO
    assert oracle.comparison_query(h2, Vector([1, 0, 0, 1])) is Sign.MINUS
    assert oracle.ledger.comparison_count == 2


def test_rational_secret_scaling():
    oracle = HiddenPointOracle(Vector([Fraction(1, 2), Fraction(-1, 3)]))
    assert oracle.label_query(Vector([2, 3])) is Sign.ZERO
    assert oracle.label_query(Vector([6, 0])) is Sign.PLUS


def test_ledger_snapshot_and_total():
    oracle = HiddenPointOracle(Vector([1, 1]))
    before = oracle.ledger.snapshot()
    oracle.label_query(Vector([1, 0]))
    oracle.comparison_query(Vector([1, 0]), Vector([0, 1]))
    after = oracle.ledger.snapshot()
    assert after[0] - before[0] == 1
    assert after[1] - before[1] == 1
    assert oracle.ledger.total == 2


def test_query_log_records(tmp_path):
    oracle = HiddenPointOracle(Vector([2, 5]), log_queries=True)
    oracle.label_query(Vector([1, 0]), ident=4)
    oracle.comparison_query(Vector([1, 0]), Vector([0, 1]), idents=(4, 9))
    out = tmp_path / "queries.jsonl"
    with open(out, "w", encoding="utf-8") as fp:
        oracle.ledger.export_jsonl(fp)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert '"label"' in lines[0]
    assert '"cmp"' in lines[1]


def test_strict_mode_rejects_foreign_vectors():
    fam = [Vector([1, 0]), Vector([0, 1])]
    oracle = HiddenPointOracle(Vector([1, 2]), strict_family=fam)
    assert oracle.label_query(Vector([1, 0])) is Sign.PLUS
    oracle.comparison_query(Vector([1, 0]), Vector([0, 1]))
    with pytest.raises(StrictModeViolation):
        oracle.label_query(Vector([1, 1]))
    with pytest.raises(StrictModeViolation):
        oracle.comparison_query(Vector([1, 0]), Vector([1, 1]))
    # a member already queried does not let a foreign partner through,
    # in either position
    member = fam[0]
    oracle.label_query(member)
    before = oracle.ledger.snapshot()
    with pytest.raises(StrictModeViolation):
        oracle.comparison_query(member, Vector([1, 1]))
    with pytest.raises(StrictModeViolation):
        oracle.comparison_query(Vector([2, 1]), member)
    assert oracle.ledger.snapshot() == before


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
    expected = HiddenPointOracle(secret).label_query(h1 - h2)
    assert compared.comparison_query(h1, h2) is expected
    assert compared.ledger.snapshot() == (0, 1)
    assert compared.ledger.log == [
        {"kind": "cmp", "answer": expected.char, "vectors": [str(h1), str(h2)]}
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
    oracle = HiddenPointOracle(Vector([1, 2]))
    with pytest.raises(ValueError):
        oracle.comparison_query(h1, h2)
    assert oracle.ledger.snapshot() == (0, 0)


def test_repeated_queries_match_a_fresh_oracle():
    # however often a vector is queried, every answer matches a fresh
    # oracle's and every query is counted
    secret = Vector([3, -7, 2, 5])
    vecs = [Vector([i % 3 - 1, i % 2, (i * 5) % 4 - 2, i % 5 - 2]) for i in range(12)]
    oracle = HiddenPointOracle(secret)
    for _ in range(3):
        for a in vecs:
            assert oracle.label_query(a) is HiddenPointOracle(secret).label_query(a)
            for b in vecs:
                assert oracle.comparison_query(a, b) is HiddenPointOracle(
                    secret
                ).comparison_query(a, b)
    assert oracle.ledger.snapshot() == (36, 3 * 144)
    with pytest.raises(ValueError, match="oracle dimension"):
        oracle.comparison_query(vecs[0], Vector([1, 2]))


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

    by_rows = HiddenPointOracle(secret, log_queries=True)
    by_vector = HiddenPointOracle(secret, log_queries=True)
    labels, compare = by_rows.query_rows(family, ids)
    assert labels == [by_vector.label_query(family[i], ident=i) for i in ids]
    assert labels == [sign_of(family[i].dot(secret)) for i in ids]
    for p, q in pairs:
        i, j = ids[p], ids[q]
        answer = compare(p, q)
        assert answer is by_vector.comparison_query(family[i], family[j], idents=(i, j))
        assert answer is sign_of((family[i] - family[j]).dot(secret))
    assert by_rows.ledger.snapshot() == by_vector.ledger.snapshot() == (len(ids), len(pairs))
    assert by_rows.ledger.log == by_vector.ledger.log


def test_query_rows_refuses_before_counting():
    # a family held as a matrix with a common denominator builds the
    # Vectors that strict mode checks against the declared ones
    family = Family(np.array([[3, 0], [0, 3], [3, 3]]), 2)
    declared = [Vector([Fraction(3, 2), 0]), Vector([0, Fraction(3, 2)])]
    oracle = HiddenPointOracle(Vector([1, 2]), log_queries=True, strict_family=declared)
    labels, compare = oracle.query_rows(family, [0, 1])
    assert labels == [Sign.PLUS, Sign.PLUS] and compare(0, 1) is Sign.MINUS
    before = (oracle.ledger.snapshot(), list(oracle.ledger.log))
    # one foreign row refuses the whole set, its members included
    with pytest.raises(StrictModeViolation):
        oracle.query_rows(family, [0, 2])
    with pytest.raises(ValueError, match="oracle dimension"):
        oracle.query_rows(Family.of([Vector([1, 0, 0])]), [0])
    assert (oracle.ledger.snapshot(), oracle.ledger.log) == before
    # a dimension mismatch is refused however few rows are asked about
    fresh = HiddenPointOracle(Vector([1, 2]))
    with pytest.raises(ValueError, match="oracle dimension"):
        fresh.query_rows(Family(np.zeros((2, 3), dtype=np.int64)), [])
    assert fresh.ledger.snapshot() == (0, 0)
