from fractions import Fraction
from math import lcm

import numpy as np
from hypothesis import given, settings, strategies as st

from ldt.batch import cell_from_sample, infer_set
from ldt.geometry import (
    Family,
    Sign,
    Vector,
    format_rational,
    ground_truth_pattern,
    parse_rational,
    sign_of,
)
from ldt.inference import build_sorted_sample
from ldt.lp import HomogeneousSystem, RationalCell, feasible, infer_sign
from ldt.oracle import HiddenPointOracle
from ldt.solver import SolveConfig, ceil_mul_log2, solve

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=99
)
small_ints = st.integers(min_value=-6, max_value=6)


@given(rationals)
def test_rational_canonical_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.lists(small_ints, min_size=2, max_size=5), st.data())
def test_dot_is_bilinear(coords, data):
    dim = len(coords)
    a = Vector(coords)
    b = Vector(data.draw(st.lists(small_ints, min_size=dim, max_size=dim)))
    c = Vector(data.draw(st.lists(small_ints, min_size=dim, max_size=dim)))
    lam = data.draw(rationals)
    x = Vector(data.draw(st.lists(rationals, min_size=dim, max_size=dim)))
    assert (a + b).dot(x) == a.dot(x) + b.dot(x)
    assert a.scaled(lam).dot(x) == lam * a.dot(x)
    assert a.dot(b + c) == a.dot(b) + a.dot(c)


@given(
    st.lists(rationals, min_size=2, max_size=4),
    st.data(),
)
def test_comparison_antisymmetry(secret, data):
    dim = len(secret)
    oracle = HiddenPointOracle(Vector(secret))
    h1 = Vector(data.draw(st.lists(small_ints, min_size=dim, max_size=dim)))
    h2 = Vector(data.draw(st.lists(small_ints, min_size=dim, max_size=dim)))
    _, compare = oracle.query_rows(Family.of([h1, h2]), [0, 1])
    assert compare(0, 1) is Sign(-compare(1, 0))


@given(
    st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=60),
)
def test_feasibility_scale_invariant(rows, scale):
    vecs = [Vector(r) for r in rows]
    base = HomogeneousSystem(dim=3, strict=tuple(vecs), weak=(), equalities=())
    scaled = HomogeneousSystem(
        dim=3,
        strict=tuple(v.scaled(Fraction(scale)) for v in vecs),
        weak=(),
        equalities=(),
    )
    assert feasible(base) == feasible(scaled)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(rationals, min_size=2, max_size=3),
    st.data(),
)
def test_infer_set_sound_and_complete(secret, data):
    dim = len(secret)
    x = Vector(secret)
    n_members = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(
        st.lists(
            st.lists(small_ints, min_size=dim, max_size=dim),
            min_size=n_members,
            max_size=n_members,
        )
    )
    t_rows = data.draw(
        st.lists(st.lists(small_ints, min_size=dim, max_size=dim), min_size=1, max_size=5)
    )
    family = Family.of([Vector(r) for r in rows + t_rows])
    sample = build_sorted_sample(range(n_members), family, HiddenPointOracle(x))
    targets = [(n_members + i, family[n_members + i]) for i in range(len(t_rows))]
    outcome = infer_set(cell_from_sample(sample, family), [i for i, _ in targets], family)
    ref = RationalCell(sample, family)
    for ident, h in targets:
        slow = infer_sign(ref, h)
        if slow is None:
            assert ident in outcome.undetermined
        else:
            assert outcome.inferred[ident] is slow
            assert slow is sign_of(h.dot(x))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2, max_value=5),
    st.data(),
)
def test_solver_zero_error_property(seed, dim, data):
    n_family = data.draw(st.integers(min_value=1, max_value=14))
    rows = data.draw(
        st.lists(
            st.lists(small_ints, min_size=dim, max_size=dim),
            min_size=n_family,
            max_size=n_family,
        )
    )
    secret = data.draw(st.lists(rationals, min_size=dim, max_size=dim))
    family = [Vector(r) for r in rows]
    x = Vector(secret)
    oracle = HiddenPointOracle(x)
    report = solve(family, oracle, SolveConfig(seed=seed))
    for i, h in enumerate(family):
        assert report.pattern[i] is sign_of(h.dot(x))


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=40),
    st.fractions(min_value=Fraction(2), max_value=Fraction(10000), max_denominator=9),
)
def test_ceil_mul_log2_exact(p, r, q):
    mult = Fraction(p, r)
    d = ceil_mul_log2(mult, q)
    num, den = q.numerator, q.denominator
    # d is the least integer with 2^d >= q^mult, i.e. 2^(d r) den^p >= num^p
    assert 2 ** (d * r) * den**p >= num**p
    if d > 0:
        assert 2 ** ((d - 1) * r) * den**p < num**p


HUGE = (1 << 62, (1 << 63) + 5, 1 << 80)


@st.composite
def degenerate_families(draw):
    """Rows of dimension 2 or 3 with repeats, negated repeats, zero rows,
    collinear rows and coordinates of 2^62 and past 2^63, optionally
    divided by mixed denominators."""
    dim = draw(st.integers(min_value=2, max_value=3))
    kinds = ["fresh", "fresh", "repeat", "negated", "zero", "multiple"]
    if draw(st.booleans()):
        kinds.append("huge")
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(min_value=6, max_value=48))):
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh" or not rows:
            rows.append(draw(st.lists(small_ints, min_size=dim, max_size=dim)))
        elif kind == "zero":
            rows.append([0] * dim)
        elif kind == "huge":
            row = draw(st.lists(small_ints, min_size=dim, max_size=dim))
            row[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(HUGE)) * draw(
                st.sampled_from([1, -1])
            )
            rows.append(row)
        else:
            base = draw(st.sampled_from(rows))
            factor = {"repeat": 1, "negated": -1}.get(kind) or draw(
                st.sampled_from([2, 3, -2])
            )
            rows.append([factor * a for a in base])
    dens = [1]
    if draw(st.booleans()):
        dens = [draw(st.sampled_from([1, 2, 3, 6, 7])) for _ in rows]
    return [
        Vector([Fraction(a, dens[i % len(dens)]) for a in row])
        for i, row in enumerate(rows)
    ]


@settings(max_examples=60, deadline=None)
@given(
    degenerate_families(),
    st.data(),
    st.sampled_from([Fraction(1, 128), Fraction(1, 16), Fraction(1, 4), Fraction(2)]),
    st.integers(min_value=0, max_value=5),
)
def test_whole_solves_on_degenerate_families(family, data, constant, seed):
    dim = family[0].dim
    x = Vector(data.draw(st.lists(rationals, min_size=dim, max_size=dim)))
    if data.draw(st.booleans()):
        # put the point on one of the hyperplanes, so ZERO signs occur
        h = data.draw(st.sampled_from(family)).coords
        x = Vector([h[1], -h[0]] + [0] * (dim - 2))
    config = SolveConfig(seed=seed, sample_constant=constant)
    report = solve(family, HiddenPointOracle(x), config)
    assert report.pattern == ground_truth_pattern(family, x)

    # the same rows given as one integer matrix over a common denominator
    den = lcm(*(c.denominator for v in family for c in v.coords))
    rows = np.array([[int(c * den) for c in v.coords] for v in family], dtype=object)
    same = solve(Family(rows, den), HiddenPointOracle(x), config)
    assert same == report
