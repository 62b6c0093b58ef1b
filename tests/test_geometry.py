from fractions import Fraction

import numpy as np
import pytest

from ldt.geometry import (
    Family,
    Sign,
    SignVector,
    Vector,
    format_rational,
    ground_truth_pattern,
    parse_rational,
    sign_of,
)
from ldt.problems import encode_sort_sumset


def test_parse_rational_forms():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("0.25") == Fraction(1, 4)
    with pytest.raises(ValueError):
        parse_rational("x")


def test_format_round_trip():
    for f in (Fraction(0), Fraction(-3), Fraction(22, 7)):
        assert parse_rational(format_rational(f)) == f


def test_sign_of():
    assert sign_of(Fraction(5)) is Sign.PLUS
    assert sign_of(Fraction(0)) is Sign.ZERO
    assert sign_of(Fraction(-1, 9)) is Sign.MINUS


def test_sign_flipped_and_char():
    assert Sign(-Sign.PLUS) is Sign.MINUS
    assert Sign(-Sign.ZERO) is Sign.ZERO
    assert Sign.MINUS.char == "-"


def test_vector_integer_fast_path():
    v = Vector([3, -1, 2])
    assert v.ints == (3, -1, 2)
    w = Vector([Fraction(1, 2), 0, 0])
    assert w.ints is None
    assert v.dot(Vector([1, 1, 1])) == 4


def test_vector_arithmetic():
    a = Vector([1, 2])
    b = Vector([3, -1])
    assert (a + b).coords == (4, 1)
    assert (a - b).coords == (-2, 3)
    assert (-a).coords == (-1, -2)
    assert a.scaled(Fraction(3, 2)).coords == (Fraction(3, 2), Fraction(3))
    assert Vector.zero(2).is_zero()
    assert not a.is_zero()


def test_sign_vector_access():
    sv = SignVector({0: Sign.PLUS, 1: Sign.ZERO, 5: Sign.MINUS})
    assert sv[1] is Sign.ZERO
    assert 5 in sv
    assert 3 not in sv
    assert sv.contains_zero()
    assert SignVector({2: Sign.PLUS}).contains_zero() is False
    assert sv.arrays()[0].tolist() == [0, 1, 5]


def test_ground_truth_weight3_pattern():
    # x = (1, 2, -3, 5): only {1,2,3} sums to zero among the triples
    x = Vector([1, 2, -3, 5])
    from itertools import combinations

    family = []
    zero_triples = []
    for triple in combinations(range(4), 3):
        coords = [0] * 4
        for i in triple:
            coords[i] = 1
        family.append(Vector(coords))
        if sum(x.coords[i] for i in triple) == 0:
            zero_triples.append(triple)
    assert zero_triples == [(0, 1, 2)]
    pattern = ground_truth_pattern(family, x)
    zero_ids = [i for i in range(len(family)) if pattern[i] is Sign.ZERO]
    assert zero_ids == [0]
    assert pattern[3] is Sign.PLUS  # 2 - 3 + 5


def test_family_of_integer_vectors_keeps_them():
    vecs = [Vector([1, -2]), Vector([0, 3]), Vector([1, -2])]
    fam = Family.of(vecs)
    assert fam.rows.dtype == np.int64 and fam.den == 1 and fam.dim == 2
    assert fam.rows.tolist() == [[1, -2], [0, 3], [1, -2]]
    assert list(fam) == vecs
    assert Family.of(fam) is fam
    with pytest.raises(ValueError):
        Family.of([Vector([1]), Vector([1, 2])])


def test_family_scales_rational_rows_by_one_denominator():
    vecs = [Vector([Fraction(1, 2), 1]), Vector([Fraction(-2, 3), 0]), Vector([4, 5])]
    fam = Family.of(vecs)
    assert fam.den == 6
    assert fam.rows.tolist() == [[3, 6], [-4, 0], [24, 30]]
    # members read back as their rows over the denominator
    assert list(fam) == list(Family(fam.rows, 6)) == vecs
    assert fam[0].ints is None and fam[2].ints == (4, 5)


def test_family_dtype_follows_its_entries():
    edge = (1 << 62) - 1
    assert Family.of([Vector([edge, -edge])]).rows.dtype == np.int64
    for big in (1 << 62, -(1 << 62), 1 << 63, 1 << 70):
        fam = Family.of([Vector([big, 1])])
        assert fam.rows.dtype == object
        assert fam[0] == Vector([big, 1])
        assert Family(np.array([[big, 1]], dtype=object))[0] == Vector([big, 1])
    small = Family(np.array([[1, 2]], dtype=object))
    assert small.rows.dtype == np.int64
    with pytest.raises(TypeError):
        Family(np.array([[0.5, 1.0]]))


def test_family_members_in_bulk():
    vecs = [Vector([1, -2]), Vector([Fraction(1, 2), 3]), Vector([0, 0])]
    fam = Family.of(vecs)
    assert [fam[i] for i in (2, 0, 2)] == [vecs[2], vecs[0], vecs[2]]
    assert fam[-1] == vecs[-1]
    with pytest.raises(IndexError):
        fam[3]
    edge = (1 << 62) - 1
    for rows in (
        np.array([[3, -1, 0], [edge, -edge, 7], [0, 0, 0]]),
        np.array([[1 << 62, -1, 0], [-(1 << 70), 2, 5]], dtype=object),
    ):
        family = Family(rows)
        for i in (1, 0, 1):
            v, want = family[i], Vector(tuple(rows[i].tolist()))
            assert v == want and hash(v) == hash(want)
            assert v.ints == want.ints and all(type(a) is int for a in v.ints)
    rational = list(Family(np.array([[3, 6], [-4, 1]]), 6))
    assert rational == [Vector([Fraction(1, 2), 1]), Vector([Fraction(-2, 3), Fraction(1, 6)])]
    assert rational[1].ints is None


def _copies_reference(rows):
    """The duplicate map and the distinct nonzero rows, row by row."""
    first = {}
    alias = [first.setdefault(tuple(r), i) for i, r in enumerate(rows.tolist())]
    distinct = [i for i, r in enumerate(rows.tolist()) if alias[i] == i and any(r)]
    return alias, distinct


@pytest.mark.parametrize(
    "family",
    [
        # sortab 12x12: 1,452 of its 10,296 rows repeat an earlier one
        encode_sort_sumset(range(12), range(12)).family,
        Family(np.array([[0, 0], [1, 2], [0, 0], [1, 2], [3, -1], [1, 2]])),
        Family(np.array([[1 << 70, 1], [0, 0], [1 << 70, 1], [2, -(1 << 64)]], dtype=object)),
    ],
    ids=["sortab12", "zero-rows", "object"],
)
def test_first_copies_are_kept_read_only_and_match_a_fresh_family(family):
    alias, distinct = family.first_copies()
    again = family.first_copies()
    assert again[0] is alias and again[1] is distinct
    for kept in (alias, distinct):
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 1
    fresh = Family(family.rows.copy()).first_copies()
    assert np.array_equal(alias, fresh[0]) and np.array_equal(distinct, fresh[1])
    want_alias, want_distinct = _copies_reference(family.rows)
    assert alias.tolist() == want_alias and distinct.tolist() == want_distinct
    assert (alias != np.arange(len(family))).any()
    assert family.top == max(abs(int(a)) for a in family.rows.flat)


def test_sign_vector_from_arrays():
    sv = SignVector.from_arrays([5, 0, 1], [-1, 1, 0])
    assert sv == SignVector({0: Sign.PLUS, 1: Sign.ZERO, 5: Sign.MINUS})
    assert sv.items() == [(0, Sign.PLUS), (1, Sign.ZERO), (5, Sign.MINUS)]
    assert sv.get(3) is None and sv.get(5) is Sign.MINUS
    assert sv.as_string() == "+0-"
    with pytest.raises(KeyError):
        sv.prefix(3)
    assert sv.prefix(2).tolist() == [1, 0]
    with pytest.raises(ValueError):
        SignVector.from_arrays([1, 1], [0, 0])
    dense = SignVector.from_arrays(range(4), [1, 1, -1, 1])
    assert dense[2] is Sign.MINUS and 4 not in dense and -1 not in dense
    assert not dense.contains_zero()
