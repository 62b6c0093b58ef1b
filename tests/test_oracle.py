from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ldt.geometry import Sign, Vector
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
    # a member whose value is already cached does not let a foreign
    # partner through, in either position
    member = fam[0]
    oracle.label_query(member)
    before = oracle.ledger.snapshot()
    with pytest.raises(StrictModeViolation):
        oracle.comparison_query(member, Vector([1, 1]))
    with pytest.raises(StrictModeViolation):
        oracle.comparison_query(Vector([2, 1]), member)
    assert oracle.ledger.snapshot() == before


coords = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
    st.integers(min_value=1 << 62, max_value=(1 << 62) + 9),
)


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
    for cached in (False, True):
        oracle = HiddenPointOracle(Vector([1, 2]))
        if cached:
            # the well-formed partner's value is known before the query
            for h in (h1, h2):
                if h.ints is not None and h.dim == oracle.dim:
                    oracle._value(h)
        with pytest.raises(ValueError):
            oracle.comparison_query(h1, h2)
        assert oracle.ledger.snapshot() == (0, 0)


def test_repeated_queries_reuse_each_vectors_value(monkeypatch):
    # every answer still matches a fresh oracle, and <h, x> is computed
    # once per integer vector however often it is queried
    secret = Vector([3, -7, 2, 5])
    vecs = [Vector([i % 3 - 1, i % 2, (i * 5) % 4 - 2, i % 5 - 2]) for i in range(12)]
    oracle = HiddenPointOracle(secret)
    computed = []
    value = HiddenPointOracle._value

    def counting_value(self, h):
        if self is oracle and id(h) not in self._values:
            computed.append(h)
        return value(self, h)

    monkeypatch.setattr(HiddenPointOracle, "_value", counting_value)
    for _ in range(3):
        for a in vecs:
            assert oracle.label_query(a) is HiddenPointOracle(secret).label_query(a)
            for b in vecs:
                assert oracle.comparison_query(a, b) is HiddenPointOracle(
                    secret
                ).comparison_query(a, b)
    assert len(computed) == len(vecs)
    assert oracle.ledger.snapshot() == (36, 3 * 144)
    with pytest.raises(ValueError, match="oracle dimension"):
        oracle.comparison_query(vecs[0], Vector([1, 2]))
