from fractions import Fraction

import pytest

from ldt.geometry import Sign, Vector, ground_truth_pattern
from ldt.prng import SplitMix64
from ldt.problems import (
    InconsistentPatternError,
    InstanceFormatError,
    SizeCapError,
    brute_ksum,
    brute_kldt,
    brute_subset_sum,
    brute_sumset_order,
    brute_zero_triangles,
    encode_ksum,
    encode_kldt,
    encode_sort_sumset,
    encode_subset_sum,
    encode_zero_triangles,
    extract_answer,
    parse_triangle_instance,
    parse_two_line_instance,
    parse_value_line,
    random_ksum_instance,
    random_kldt_instance,
    random_subset_sum_instance,
    random_sumset_instance,
    random_triangles_instance,
)


def _answer(enc):
    return extract_answer(enc, ground_truth_pattern(enc.family, enc.hidden))


def test_ksum_encoding_shape():
    enc = encode_ksum([Fraction(v) for v in (5, -1, -4, 7, 2, 9)], 3)
    assert enc.kind == "ksum"
    assert enc.dim == 6
    assert len(enc.family) == 20
    assert all(sum(h.coords) == 3 for h in enc.family)
    assert _answer(enc) is True
    assert brute_ksum((5, -1, -4, 7, 2, 9), 3) is True


def test_ksum_negative_instance():
    vals = (1, 2, 4, 8, 16, 32)
    enc = encode_ksum([Fraction(v) for v in vals], 3)
    assert _answer(enc) is False
    assert brute_ksum(vals, 3) is False


def test_subset_sum_encoding():
    enc = encode_subset_sum([Fraction(v) for v in (3, -1, -2, 7)])
    assert enc.dim == 4
    assert len(enc.family) == 15
    assert _answer(enc) is True
    assert brute_subset_sum((3, -1, -2, 7)) is True
    assert brute_subset_sum((1, 2, 4)) is False


def test_subset_sum_cap():
    with pytest.raises(SizeCapError):
        encode_subset_sum([Fraction(1)] * 17)


def test_ksum_cap():
    # C(75, 3) = 67525 subsets: refused before any is built
    with pytest.raises(SizeCapError):
        encode_ksum(list(range(75)), 3)
    # 3-SUM n=64 (41664 hyperplanes) stays admitted
    assert len(encode_ksum(list(range(64)), 3).family) == 41664


def test_sumset_ordering_frozen():
    a = [Fraction(0), Fraction(1)]
    b = [Fraction(0), Fraction(2)]
    enc = encode_sort_sumset(a, b)
    groups = _answer(enc)
    assert groups == brute_sumset_order(a, b)
    assert groups == [[(1, 1)], [(2, 1)], [(1, 2)], [(2, 2)]]


def test_sumset_ordering_with_ties():
    a = [Fraction(0), Fraction(1)]
    b = [Fraction(1), Fraction(0)]
    groups = _answer(encode_sort_sumset(a, b))
    assert groups == brute_sumset_order(a, b)
    # sums 1,0,2,1: middle group holds the two ties
    assert groups[1] == [(1, 1), (2, 2)]


def test_sumset_distinguishes_permuted_b():
    # same multiset of sums, different pair layout: encodings must differ
    a = [Fraction(0), Fraction(100)]
    g1 = _answer(encode_sort_sumset(a, [Fraction(0), Fraction(1)]))
    g2 = _answer(encode_sort_sumset(a, [Fraction(1), Fraction(0)]))
    assert g1 != g2


def test_extract_answer_rejects_corrupt_pattern():
    a = [Fraction(0), Fraction(1)]
    b = [Fraction(0), Fraction(2)]
    enc = encode_sort_sumset(a, b)
    pattern = ground_truth_pattern(enc.family, enc.hidden)
    broken = {i: pattern[i] for i in range(len(enc.family))}
    flip = 0
    broken[flip] = pattern[flip].flipped() if pattern[flip] is not Sign.ZERO else Sign.PLUS
    from ldt.geometry import SignVector

    with pytest.raises(InconsistentPatternError):
        extract_answer(enc, SignVector(broken))


def test_kldt_encoding_frozen():
    # -3 + x1 + x2 over (1, 2, 5): some pair sums to 3
    enc = encode_kldt([Fraction(-3), Fraction(1), Fraction(1)], [Fraction(v) for v in (1, 2, 5)])
    assert enc.meta["k"] == 2
    assert enc.dim == 1 + 3 * 2
    assert _answer(enc) is True
    assert brute_kldt((-3, 1, 1), (1, 2, 5)) is True
    assert brute_kldt((-3, 1, 1), (1, 3, 5)) is False


def test_kldt_tuples_are_distinct_indices():
    enc = encode_kldt([Fraction(0), Fraction(1), Fraction(-1)], [Fraction(4), Fraction(4)])
    # x_i - x_j over distinct i, j: both orderings, so 2 hyperplanes
    assert len(enc.family) == 2
    assert _answer(enc) is True


def test_kldt_cap():
    with pytest.raises(SizeCapError):
        encode_kldt([Fraction(0)] + [Fraction(1)] * 4, [Fraction(v) for v in range(40)])


def test_triangles_encoding():
    edges = [(1, 2, Fraction(3)), (2, 3, Fraction(-1)), (1, 3, Fraction(-2)), (3, 4, Fraction(5))]
    enc = encode_zero_triangles(4, edges)
    assert enc.dim == 4
    assert len(enc.family) == 1
    assert _answer(enc) is True
    assert brute_zero_triangles(4, edges) is True
    assert brute_zero_triangles(4, edges[:2] + [(1, 3, Fraction(9)), edges[3]]) is False


def test_triangles_duplicate_edge_refused():
    with pytest.raises(InstanceFormatError):
        encode_zero_triangles(3, [(1, 2, Fraction(1)), (2, 1, Fraction(4))])


def test_parse_value_line():
    assert parse_value_line("1 -2/3 4\n") == [Fraction(1), Fraction(-2, 3), Fraction(4)]
    with pytest.raises(InstanceFormatError):
        parse_value_line("1 two 3")
    with pytest.raises(InstanceFormatError):
        parse_value_line("   \n")


def test_parse_two_line_instance():
    a, b = parse_two_line_instance("1 2\n3 4 5\n")
    assert a == [1, 2]
    assert b == [3, 4, 5]
    with pytest.raises(InstanceFormatError):
        parse_two_line_instance("1 2\n")


def test_parse_triangle_instance():
    n, edges = parse_triangle_instance("3\n1 2 5\n2 3 -5\n1 3 0\n")
    assert n == 3
    assert edges == [(1, 2, Fraction(5)), (2, 3, Fraction(-5)), (1, 3, Fraction(0))]
    with pytest.raises(InstanceFormatError):
        parse_triangle_instance("3\n1 2\n")


def test_planted_generators_hit():
    rng = SplitMix64(31)
    for n in (8, 12):
        vals = random_ksum_instance(rng, n, 3, True)
        assert brute_ksum(vals, 3) is True
        vals = random_subset_sum_instance(rng, n, True)
        assert brute_subset_sum(vals) is True
    alphas, values = random_kldt_instance(rng, 8, 3, True)
    assert brute_kldt(alphas, values) is True
    nv, edges = random_triangles_instance(rng, 7, True)
    assert brute_zero_triangles(nv, edges) is True


def test_wide_bound_draws_are_mostly_negative():
    rng = SplitMix64(77)
    negatives = 0
    for _ in range(10):
        vals = random_ksum_instance(rng, 16, 3, False, bound=10 * 16**3)
        negatives += not brute_ksum(vals, 3)
    assert negatives >= 8


def test_sumset_instance_shapes():
    rng = SplitMix64(4)
    a, b = random_sumset_instance(rng, 4, 6)
    assert len(a) == 4 and len(b) == 6
    enc = encode_sort_sumset(a, b)
    assert _answer(enc) == brute_sumset_order(a, b)
