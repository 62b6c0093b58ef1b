import io
import time
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from ldt import problems
from ldt.geometry import Family, Vector, ground_truth_pattern
from ldt.oracle import HiddenPointOracle
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
from ldt.solver import SolveConfig, solve


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


def test_ksum_rows_are_the_subset_indicators():
    for n, k in ((7, 1), (7, 3), (9, 4), (5, 5)):
        enc = encode_ksum(list(range(1, n + 1)), k)
        subsets = list(combinations(range(n), k))
        assert enc.family.rows.dtype == np.int64
        assert enc.family.rows.tolist() == [[int(i in s) for i in range(n)] for s in subsets]


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


def test_ksum_cap(monkeypatch):
    # C(75, 3) = 67525 subsets: refused before any is built
    with pytest.raises(SizeCapError):
        encode_ksum(list(range(75)), 3)
    # 3-SUM n=64 (41664 hyperplanes) stays admitted
    assert len(encode_ksum(list(range(64)), 3).family) == 41664
    # the entry cap stops 2-SUM past n=256 (shapes stubbed, so that no
    # matrix is built)
    monkeypatch.setattr(problems, "_ksum_shape", lambda n, k: (None, ()))
    assert encode_ksum(list(range(256)), 2).dim == 256
    with pytest.raises(SizeCapError):
        encode_ksum(list(range(257)), 2)


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
    broken = ground_truth_pattern(enc.family, enc.hidden).copy()
    flip = 0
    broken[flip] = -broken[flip] if broken[flip] else 1

    with pytest.raises(InconsistentPatternError):
        extract_answer(enc, broken)


def _one_encoding_per_kind():
    rng = SplitMix64(31)
    encodings = (
        encode_ksum(random_ksum_instance(rng, 6, 3, planted=True), 3),
        encode_subset_sum(random_subset_sum_instance(rng, 5, planted=False)),
        encode_sort_sumset(*random_sumset_instance(rng, 2, 3)),
        encode_kldt(*random_kldt_instance(rng, 5, 2, planted=False)),
        encode_zero_triangles(*random_triangles_instance(rng, 8, planted=True)),
    )
    return {enc.kind: enc for enc in encodings}


@pytest.mark.parametrize("kind", ["ksum", "subsetsum", "sortsumset", "kldt", "triangles"])
def test_extract_answer_refuses_a_pattern_of_the_wrong_length(kind):
    enc = _one_encoding_per_kind()[kind]
    truth = ground_truth_pattern(enc.family, enc.hidden)
    assert len(truth) > 1
    for wrong in (truth[:-1], np.append(truth, 0), truth[:0], truth.reshape(1, -1)):
        with pytest.raises(ValueError, match="pattern of shape"):
            extract_answer(enc, wrong)


def test_extract_answer_decides_with_a_python_bool():
    answers = set()
    for enc in _one_encoding_per_kind().values():
        if enc.kind != "sortsumset":
            answer = _answer(enc)
            assert type(answer) is bool
            answers.add(answer)
    assert answers == {False, True}


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


# Per-row reference encoders: one Vector per hyperplane, built the
# direct way, as the encoders did before they filled one matrix.


def _ref_ksum(n, k):
    subsets = list(combinations(range(n), k))
    rows = [Vector([1 if i in sub else 0 for i in range(n)]) for sub in subsets]
    return rows, {"k": k}


def _ref_subset_sum(n):
    rows = [Vector([(mask >> i) & 1 for i in range(n)]) for mask in range(1, 1 << n)]
    return rows, {}


def _ref_sort_sumset(na, nb):
    pairs = [(i, j) for i in range(na) for j in range(nb)]
    rows, compared = [], []
    for p, q in combinations(range(len(pairs)), 2):
        (i, j), (k, l) = pairs[p], pairs[q]
        coords = [0] * (na + nb)
        coords[i] += 1
        coords[k] -= 1
        coords[na + j] += 1
        coords[na + l] -= 1
        rows.append(Vector(coords))
        compared.append([p, q])
    return rows, {"compared": compared, "na": na, "nb": nb}


def _ref_kldt(n, k):
    rows = []
    for tup in permutations(range(n), k):
        coords = [0] * (1 + n * k)
        coords[0] = 1
        for t, j in enumerate(tup):
            coords[1 + t * n + j] = 1
        rows.append(Vector(coords))
    return rows, {"k": k, "n": n}


def _ref_triangles(n_vertices, edges):
    index = {(min(u, v), max(u, v)): e for e, (u, v, _) in enumerate(edges)}
    rows = []
    for u, v, w in combinations(range(1, n_vertices + 1), 3):
        ids = [index.get((u, v)), index.get((u, w)), index.get((v, w))]
        if None in ids:
            continue
        rows.append(Vector([1 if e in ids else 0 for e in range(len(edges))]))
    return rows, {}


def _assert_matches(enc, rows, meta, dim):
    fam = enc.family
    assert isinstance(fam, Family)
    assert len(fam) == len(rows)
    assert fam.dim == enc.dim == dim
    assert fam.den == 1 and fam.rows.dtype == np.int64
    assert fam.rows.tolist() == [list(v.ints) for v in rows]
    assert [fam[i] for i in range(len(fam))] == rows
    got = dict(enc.meta)
    if "compared" in got:
        got["compared"] = got["compared"].tolist()
    assert got == meta


@pytest.mark.parametrize("n, k", [(1, 1), (5, 1), (6, 3), (7, 2), (5, 5)])
def test_ksum_encoder_matches_reference(n, k):
    values = list(range(1, n + 1))
    _assert_matches(encode_ksum(values, k), *_ref_ksum(n, k), n)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_subset_sum_encoder_matches_reference(n):
    values = list(range(-n, 0))
    _assert_matches(encode_subset_sum(values), *_ref_subset_sum(n), n)


@pytest.mark.parametrize("na, nb", [(1, 1), (1, 3), (2, 3), (3, 2), (4, 4)])
def test_sumset_encoder_matches_reference(na, nb):
    enc = encode_sort_sumset(list(range(na)), list(range(nb)))
    _assert_matches(enc, *_ref_sort_sumset(na, nb), na + nb)


@pytest.mark.parametrize("n, k", [(2, 3), (3, 1), (4, 2), (5, 3)])
def test_kldt_encoder_matches_reference(n, k):
    enc = encode_kldt([7] + [1] * k, list(range(n)))
    _assert_matches(enc, *_ref_kldt(n, k), 1 + n * k)


@pytest.mark.parametrize("n_vertices, seed", [(3, 0), (5, 1), (6, 2), (7, 3)])
def test_triangle_encoder_matches_reference(n_vertices, seed):
    _, edges = random_triangles_instance(SplitMix64(seed), n_vertices, planted=True)
    enc = encode_zero_triangles(n_vertices, edges)
    _assert_matches(enc, *_ref_triangles(n_vertices, edges), len(edges))
    # a graph without triangles gives an empty family
    empty = encode_zero_triangles(4, [(1, 2, 5), (3, 4, -5)])
    _assert_matches(empty, [], {}, 2)


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached before the size cap")


def test_caps_refuse_before_any_matrix_is_allocated(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumeration started before the size cap")

    monkeypatch.setattr(problems, "np", _NoArrays())
    monkeypatch.setattr(problems, "combinations", no_enumeration)
    monkeypatch.setattr(problems, "permutations", no_enumeration)
    with pytest.raises(SizeCapError):
        encode_subset_sum([1] * 17)
    with pytest.raises(SizeCapError):
        encode_ksum(list(range(75)), 3)
    with pytest.raises(SizeCapError):
        encode_sort_sumset(list(range(17)), list(range(16)))
    with pytest.raises(SizeCapError):
        encode_kldt([1, 1, 1, 1], list(range(30)))
    # k=1 passes the row caps, but not the matrix's: 65,536 x 65,536
    # and 20,000 x 20,001 entries
    with pytest.raises(SizeCapError, match="cap 8388608 entries"):
        encode_ksum(list(range(65536)), 1)
    with pytest.raises(SizeCapError, match="cap 8388608 entries"):
        encode_kldt([1, 1], list(range(20000)))
    # K_60 has 34,220 triangles over 1,770 edges
    complete = [(u, v, 1) for u, v in combinations(range(1, 61), 2)]
    with pytest.raises(SizeCapError, match="a 34220 x 1770 family matrix"):
        encode_zero_triangles(60, complete)


def test_an_edgeless_graph_encodes_without_visiting_vertex_triples():
    start = time.perf_counter()
    enc = encode_zero_triangles(100_000, [])
    assert time.perf_counter() - start < 1.0
    assert len(enc.family) == 0 and enc.dim == 0
    assert extract_answer(enc, ground_truth_pattern(enc.family, enc.hidden)) is False


def _ordering_reference(enc, pattern):
    """The sumset ordering read off with one Python comparison table, as
    extract_answer did before it worked on one sign array."""
    nb = enc.meta["nb"]
    m = enc.meta["na"] * nb
    cmp = [[None] * m for _ in range(m)]
    for ident, (p, q) in enumerate(combinations(range(m), 2)):
        s = int(pattern[ident])
        cmp[p][q] = s
        cmp[q][p] = -s
    for p in range(m):
        cmp[p][p] = 0
    rank = [sum(1 for q in range(m) if cmp[p][q] == 1) for p in range(m)]
    order = sorted(range(m), key=lambda p: rank[p])
    groups = []
    for p in order:
        if groups and rank[groups[-1][0]] == rank[p]:
            groups[-1].append(p)
        else:
            groups.append([p])
    base = 0
    for g in groups:
        if rank[g[0]] != base:
            raise InconsistentPatternError("ranks do not tile the order")
        base += len(g)
    for gi, g in enumerate(groups):
        for p in g:
            if any(cmp[p][q] != 0 for q in g):
                raise InconsistentPatternError("grouped but not tied")
            for hg in groups[gi + 1 :]:
                if any(cmp[p][q] != -1 for q in hg):
                    raise InconsistentPatternError("ordered inconsistently")
    return [sorted((p // nb + 1, p % nb + 1) for p in g) for g in groups]


@pytest.mark.parametrize("seed", range(40))
def test_ordering_matches_reference_on_true_and_corrupt_patterns(seed):
    rng = SplitMix64(seed)
    na, nb = 1 + rng.below(3), 1 + rng.below(3)
    a = [rng.randint(-2, 2) for _ in range(na)]
    b = [rng.randint(-2, 2) for _ in range(nb)]
    enc = encode_sort_sumset(a, b)
    pattern = ground_truth_pattern(enc.family, enc.hidden).copy()
    # flip, zero or keep a few entries; most corruptions are inconsistent
    for _ in range(rng.below(3)):
        if len(pattern):
            i = rng.below(len(pattern))
            pattern[i] = rng.randint(-1, 1)
    try:
        want = _ordering_reference(enc, pattern)
    except InconsistentPatternError:
        with pytest.raises(InconsistentPatternError):
            extract_answer(enc, pattern)
    else:
        assert extract_answer(enc, pattern) == want


# per encoder: an instance, another of the same shape, one of another shape
_SHAPED = [
    (
        lambda: encode_ksum([1, 2, 3, 4, 5, 6], 3),
        lambda: encode_ksum([9, -4, 0, 7, 1, 2], 3),
        lambda: encode_ksum([1, 2, 3, 4, 5, 6], 2),
    ),
    (
        lambda: encode_subset_sum([1, -2, 3]),
        lambda: encode_subset_sum([5, 5, -10]),
        lambda: encode_subset_sum([1, -2, 3, 4]),
    ),
    (
        lambda: encode_sort_sumset([1, 2], [3, 4, 5]),
        lambda: encode_sort_sumset([0, -1], [7, 7, 2]),
        lambda: encode_sort_sumset([1, 2, 3], [4, 5]),
    ),
    (
        lambda: encode_kldt([1, 2, -1], [3, 4, 5, 6]),
        lambda: encode_kldt([-3, 1, 1], [0, 0, 2, 9]),
        lambda: encode_kldt([1, 2, -1, 4], [3, 4, 5, 6]),
    ),
]


@pytest.mark.parametrize(
    "first, again, other", _SHAPED, ids=["ksum", "subsetsum", "sortsumset", "kldt"]
)
def test_a_repeated_shape_shares_its_family(first, again, other):
    a, b, c = first(), again(), other()
    assert b.family is a.family
    assert c.family is not a.family
    assert b.hidden != a.hidden
    assert first().hidden == a.hidden and first().hidden is not a.hidden


def test_zero_triangles_build_their_family_per_call():
    edges = [(1, 2, 1), (1, 3, 2), (2, 3, -3)]
    assert encode_zero_triangles(3, edges).family is not encode_zero_triangles(3, edges).family


def test_changing_meta_leaves_the_next_encoding_as_it_was():
    enc = encode_ksum([1, 2, 3, 4, 5], 3)
    enc.meta["k"] = 9
    assert encode_ksum([5, 4, 3, 2, 1], 3).meta == {"k": 3}

    enc = encode_kldt([1, 2, -1], [3, 4, 5, 6])
    enc.meta.clear()
    assert encode_kldt([0, 1, 1], [1, 2, 3, 4]).meta == {"k": 2, "n": 4}

    enc = encode_sort_sumset([1, 2], [3, 4])
    enc.meta["nb"] = 1
    with pytest.raises(ValueError):
        enc.meta["compared"][0, 0] = 3
    again = encode_sort_sumset([5, 6], [7, 8])
    assert again.meta["na"] == again.meta["nb"] == 2
    assert again.meta["compared"].tolist() == [list(c) for c in combinations(range(4), 2)]


@pytest.mark.parametrize(
    "encode",
    [
        lambda: encode_ksum(random_ksum_instance(SplitMix64(2024), 16, 3, planted=True), 3),
        lambda: encode_subset_sum(random_subset_sum_instance(SplitMix64(5), 12, planted=True)),
        lambda: encode_sort_sumset(*random_sumset_instance(SplitMix64(6), 6, 6)),
    ],
    ids=["ksum", "subsetsum", "sortsumset"],
)
def test_a_solve_on_a_kept_family_repeats_one_on_a_fresh_copy(encode):
    enc = encode()
    runs = []
    # a fresh copy, then the kept family from two encodings
    for family in (Family(enc.family.rows.copy()), enc.family, encode().family):
        oracle = HiddenPointOracle(enc.hidden, log_queries=True)
        report = solve(family, oracle, SolveConfig(seed=3))
        log = io.StringIO()
        oracle.ledger.export_jsonl(log)
        runs.append((report, log.getvalue()))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1].count("\n") == runs[0][0].total_queries > 0
