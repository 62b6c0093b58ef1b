"""The integer eliminations must reproduce the Fraction ones exactly.

The Fraction versions below are the reference: a row-reduced echelon
form over the rationals, a Bareiss forward pass followed by a rational
back-substitution, and a phase-1 revised simplex over the rationals
for cone membership, the reference the batch engine's Farkas
certificate is checked against in test_batch.  The double description
is held to the definitions: every ray satisfies the rows with the
tight-row rank of an extreme ray, the lineality basis spans the
kernel, and every point of the cone is a combination of them.
Inputs mix zero, duplicate and dependent rows, negative entries,
entries of 2^62 or more, and int64 entries whose elimination has to
finish in Python integers.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import numpy as np
from ldt import intlin
from ldt.intlin import (
    GEMM_GUARD,
    exact_product,
    generator_matrix,
    kernel_matrix,
    nonnegative_solutions,
    repeated,
)


def _rref_reference(rows, n):
    basis, pivots = [], []
    for row in rows:
        row = [Fraction(c) for c in row]
        for b, p in zip(basis, pivots):
            if row[p]:
                f = row[p]
                row = [a - f * bb for a, bb in zip(row, b)]
        lead = next((j for j in range(n) if row[j]), None)
        if lead is None:
            continue
        inv = 1 / row[lead]
        row = [a * inv for a in row]
        for b, p in zip(basis, pivots):
            if b[lead]:
                f = b[lead]
                b[:] = [a - f * rr for a, rr in zip(b, row)]
        basis.append(row)
        pivots.append(lead)
    return basis, pivots


def kernel_basis_reference(rows, n):
    basis, pivots = _rref_reference(rows, n)
    cols = []
    for f in range(n):
        if f in pivots:
            continue
        col = [Fraction(0)] * n
        col[f] = Fraction(1)
        for row, p in zip(basis, pivots):
            col[p] = -row[f]
        den = 1
        for q in col:
            den = den * q.denominator // _gcd(den, q.denominator)
        ints = [int(q * den) for q in col]
        g = 0
        for v in ints:
            g = _gcd(g, abs(v))
        cols.append([v // g for v in ints] if g > 1 else ints)
    return cols


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def support_solve_reference(cols, target, nr):
    k = len(cols)
    M = [[int(col[i]) for col in cols] + [int(target[i])] for i in range(nr)]
    piv_cols = []
    r = 0
    prev = 1
    for c in range(k):
        sel = next((i for i in range(r, nr) if M[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            M[r], M[sel] = M[sel], M[r]
        p = M[r][c]
        pivot_row = M[r]
        for i in range(r + 1, nr):
            f = M[i][c]
            M[i] = [(p * a - f * b) // prev for a, b in zip(M[i], pivot_row)]
        prev = p
        piv_cols.append(c)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if M[i][k]:
            return False
    coeffs = [Fraction(0)] * k
    for idx in range(r - 1, -1, -1):
        c = piv_cols[idx]
        row = M[idx]
        s = Fraction(row[k])
        for c2 in range(c + 1, k):
            if row[c2] and coeffs[c2]:
                s -= row[c2] * coeffs[c2]
        q = s / row[c]
        if q < 0:
            return False
        coeffs[c] = q
    for i in range(nr):
        total = sum(q * col[i] for q, col in zip(coeffs, cols) if q)
        if total != target[i]:
            return False
    return True


HUGE = 1 << 62
entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=HUGE, max_value=HUGE + 5),
    st.integers(min_value=-HUGE - 5, max_value=-HUGE),
)


@st.composite
def matrices(draw, max_rows=8):
    """Rows over n columns: random, zero, repeated, or combinations of
    earlier rows."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat", "combo"]))
        if kind == "zero" or (kind in ("repeat", "combo") and not rows):
            rows.append([0] * n)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combo":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(st.integers(min_value=-3, max_value=3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return n, rows


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_basis_matches_fraction_rref(case):
    n, rows = case
    got = kernel_matrix(generator_matrix(rows, n)).T.tolist()
    assert got == kernel_basis_reference(rows, n)
    for col in got:
        assert all(sum(a * c for a, c in zip(row, col)) == 0 for row in rows)


def _kernel_as_matrix(rows, n):
    return generator_matrix(kernel_basis_reference(rows, n), n).T


@settings(max_examples=300, deadline=None)
@given(matrices(max_rows=12))
def test_rank_stopped_kernel_matches_kernel_basis(case):
    n, rows = case
    got = kernel_matrix(generator_matrix(rows, n))
    want = _kernel_as_matrix(rows, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()


def _wide(top):
    """Entries of magnitude top / 4 to top, either sign, or small ones."""
    big = st.integers(min_value=top >> 2, max_value=top)
    return st.one_of(big, big.map(lambda a: -a), st.integers(min_value=-3, max_value=3))


@st.composite
def int64_matrices(draw):
    """int64 rows over n columns whose elimination outgrows int64:
    random rows of wide entries, zero rows, and small combinations of
    earlier rows.  Below 2^30 the first pivot's step passes the guard,
    (2^30 + 2^30) 2^30 = 2^61, and the products of the next one do not;
    entries up to 2^40 leave int64 before the first step."""
    n = draw(st.integers(min_value=1, max_value=6))
    wide = _wide(draw(st.sampled_from([1 << 30, 1 << 30, 1 << 40])))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["random", "random", "zero", "combo"]))
        if kind == "zero" or (kind == "combo" and not rows):
            rows.append([0] * n)
        elif kind == "combo":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(min_value=-3, max_value=3)), draw(st.integers(min_value=-3, max_value=3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(wide, min_size=n, max_size=n)))
    return n, rows


@settings(max_examples=300, deadline=None)
@given(int64_matrices(), st.data())
def test_elimination_past_int64_matches_the_references(case, data):
    # the kernel basis and the support solves of int64 input that the
    # elimination finishes in Python integers; the kernel comes back in
    # generator_matrix's dtype for its entries
    n, rows = case
    M = generator_matrix(rows, n)
    assert M.dtype == np.int64
    got = kernel_matrix(M)
    want = _kernel_as_matrix(rows, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()
    targets = [data.draw(st.lists(_wide(1 << 40), min_size=n, max_size=n)) for _ in range(2)]
    targets += [[sum(row[i] for row in rows) for i in range(n)]]
    verdicts = nonnegative_solutions(rows, generator_matrix(targets, n))
    assert verdicts.tolist() == [support_solve_reference(rows, t, n) for t in targets]


def test_elimination_leaves_int64_after_its_first_pivot():
    # the first step's bound is (2^30 + 2^30) 2^30 = 2^61, the second's
    # past 2^62: the basis ends in Python integers, the kernel in int64
    rows = [[1 << 30, 1, 0], [1, 1 << 30, 1]]
    M = generator_matrix(rows, 3)
    B, pivots = intlin.row_basis(M)
    assert M.dtype == np.int64 and B.dtype == object and pivots == [0, 1]
    got = kernel_matrix(M)
    assert got.dtype == np.int64
    assert got.tolist() == _kernel_as_matrix(rows, 3).tolist() == [[1], [-(1 << 30)], [(1 << 60) - 1]]


def test_kernel_of_object_rows_takes_the_exact_path():
    rows = [[HUGE, 1, 0], [2 * HUGE, 2, 0], [0, 0, 5], [HUGE, 1, 5]]
    M = generator_matrix(rows, 3)
    assert M.dtype == object
    got = kernel_matrix(M)
    want = _kernel_as_matrix(rows, 3)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_kernel_edge_cases_keep_their_shapes_and_dtypes():
    # no rows, zero rows, one row, more rows than columns, and full
    # rank, where the basis has no column; object rows of full rank too
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cases = [
        ([], 3, I3),
        ([[0, 0, 0], [0, 0, 0]], 3, I3),
        ([[2, -4, 6]], 3, [[2, -3], [1, 0], [0, 1]]),
        ([[1, 2], [2, 4], [3, 6]], 2, [[-2], [1]]),
        ([[1, 2], [3, 4]], 2, [[], []]),
        ([[1, 0], [0, 1], [1, 1], [2, 3]], 2, [[], []]),
        ([[HUGE, 1], [1, 0]], 2, [[], []]),
        ([], 0, []),
    ]
    for rows, n, want in cases:
        got = kernel_matrix(generator_matrix(rows, n))
        assert got.dtype == np.int64
        assert got.shape == (n, len(want[0]) if want else 0)
        assert got.tolist() == want == _kernel_as_matrix(rows, n).tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6)))
def test_repeated_finds_every_shared_key(keys):
    want = [i for i, k in enumerate(keys) if keys.count(k) > 1]
    assert repeated(np.array(keys, dtype=np.uint64)).tolist() == want


@settings(max_examples=400, deadline=None)
@given(matrices(max_rows=6), st.data())
def test_support_solve_matches_fraction_back_substitution(case, data):
    # one support against several targets: combinations of the columns
    # (so consistent systems come up often), scaled combinations whose
    # products overflow int64 although every entry fits, and random
    # targets, mostly outside the span
    dim, cols = case
    targets = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        kind = data.draw(st.sampled_from(["combination", "scaled", "random"]))
        if kind != "random" and cols:
            weights = data.draw(
                st.lists(st.integers(min_value=-2, max_value=3), min_size=len(cols), max_size=len(cols))
            )
            scale = (1 << 40) + 1 if kind == "scaled" else 1
            targets.append(
                [scale * sum(w * col[i] for w, col in zip(weights, cols)) for i in range(dim)]
            )
        else:
            targets.append(data.draw(st.lists(entries, min_size=dim, max_size=dim)))
    got = nonnegative_solutions(cols, generator_matrix(targets, dim))
    assert got.dtype == bool and got.shape == (len(targets),)
    assert got.tolist() == [support_solve_reference(cols, t, dim) for t in targets]


def test_support_solve_edge_cases():
    # the empty support and an all-zero one reach only the zero target
    zero = generator_matrix([[0, 0], [1, 0]], 2)
    assert nonnegative_solutions([], zero).tolist() == [True, False]
    assert nonnegative_solutions([[0, 0], [0, 0]], zero).tolist() == [True, False]
    # a repeated column keeps the first copy as pivot, a dependent one
    # stays free; no targets gives an empty verdict
    cols = [[1, 1], [1, 1], [2, 2], [0, 1]]
    targets = [[3, 3], [3, 5], [1, 0], [-1, -1]]
    got = nonnegative_solutions(cols, generator_matrix(targets, 2))
    assert got.tolist() == [support_solve_reference(cols, t, 2) for t in targets]
    assert got.tolist() == [True, True, False, False]
    assert nonnegative_solutions(cols, generator_matrix([], 2)).tolist() == []


def test_support_solve_runs_one_elimination(monkeypatch):
    # one row_basis of [A | I], however many targets
    calls = 0
    basis = intlin.row_basis

    def counting(M):
        nonlocal calls
        calls += 1
        return basis(M)

    monkeypatch.setattr(intlin, "row_basis", counting)
    cols = [[1, 0, 2], [0, 1, -1], [1, 1, 1], [2, 0, 4]]
    targets = [[1, 1, 1], [3, 1, 5], [-1, 0, -2], [0, 0, 1], [1, 0, 0]] * 8
    for count in (0, 1, 5, 40):
        calls = 0
        got = nonnegative_solutions(cols, generator_matrix(targets[:count], 3))
        assert calls == 1
        assert got.tolist() == [support_solve_reference(cols, t, 3) for t in targets[:count]]
    assert got[:5].tolist() == [True, True, False, False, False]


def _rank(rows, n):
    return len(_rref_reference(rows, n)[0])


@settings(max_examples=300, deadline=None)
@given(matrices(max_rows=9), st.data())
def test_cone_generators_are_the_exact_extreme_rays(case, data):
    # zero, repeated and dependent rows give lineality and redundant
    # constraints; no rows at all leave the whole space; combinations of
    # rows with entries of 2^62 or more arrive as object matrices
    n, rows = case
    C = generator_matrix(rows, n)
    L, R, interior = intlin.cone_generators(C, 10_000)
    lin, rays = L.T.tolist(), R.T.tolist()
    products = [[sum(a * b for a, b in zip(row, g)) for g in lin + rays] for row in rows]
    assert all(v == 0 for row in products for v in row[: len(lin)])
    assert all(v >= 0 for row in products for v in row[len(lin):])
    # L spans the kernel of C, and every ray is an extreme ray: its
    # tight rows leave exactly one dimension past the lineality space
    assert len(lin) == n - _rank(rows, n) == _rank(lin, n)
    for r in rays:
        assert any(r) and _gcd_all(r) == 1
        tight = [row for row in rows if sum(a * b for a, b in zip(row, r)) == 0]
        assert _rank(tight, n) == n - len(lin) - 1
    assert len({tuple(r) for r in rays}) == len(rays)
    assert interior is (_rank(lin + rays, n) == n)
    # complete: a point satisfying every row is a combination of the
    # rays and of the lineality columns taken either way
    gens = rays + lin + [[-a for a in col] for col in lin]
    points = [data.draw(st.lists(small, min_size=n, max_size=n)) for _ in range(4)]
    points += [[sum(col) for col in zip(*rays)]] if rays else []
    for y in points:
        inside = all(sum(a * b for a, b in zip(row, y)) >= 0 for row in rows)
        assert inside is (cone_member_reference(gens, y) is not None)


def _gcd_all(col):
    g = 0
    for a in col:
        g = _gcd(g, abs(a))
    return g


def test_cone_generators_combine_only_adjacent_rays():
    # the cone over a unit square, cut off at one corner: the cut
    # separates that corner from the three others, and the diagonal pair
    # is not adjacent, so the cut adds two rays, not three
    rows = [[1, 0, 0], [0, 1, 0], [-1, 0, 1], [0, -1, 1], [2, 2, -1]]
    for order in ([0, 1, 2, 3, 4], [4, 0, 1, 2, 3], [2, 4, 0, 3, 1]):
        L, R, interior = intlin.cone_generators(generator_matrix([rows[i] for i in order], 3), 100)
        assert L.shape == (3, 0) and interior
        assert sorted(R.T.tolist()) == [[0, 1, 1], [0, 1, 2], [1, 0, 1], [1, 0, 2], [1, 1, 1]]


def test_cone_generators_hand_back_past_the_limit():
    # the orthant of dimension 4 has four rays and no lineality; a cap
    # below the generator count stops the construction
    C = generator_matrix([[int(i == j) for j in range(4)] for i in range(4)], 4)
    L, R, interior = intlin.cone_generators(C, 4)
    assert L.shape == (4, 0) and sorted(R.T.tolist()) == sorted(C.tolist()) and interior
    assert intlin.cone_generators(C, 3) is None


def cone_member_reference(generators, target):
    """Phase-1 revised simplex with Bland's rule over Fractions.

    Returns {generator index: coefficient} with target equal to the
    nonnegative combination, or None when target is outside the cone.
    """
    n = len(target)
    m = len(generators)
    cols = [[(i, Fraction(c)) for i, c in enumerate(g) if c] for g in generators]
    b = [Fraction(c) for c in target]
    sgn = [1 if x >= 0 else -1 for x in b]
    binv = [[Fraction(sgn[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    xb = [abs(x) for x in b]
    basis = [m + i for i in range(n)]

    def column(ident):
        if ident < m:
            return cols[ident]
        return [(ident - m, Fraction(sgn[ident - m]))]

    while True:
        art_rows = [k for k, bi in enumerate(basis) if bi >= m]
        if not any(xb[k] for k in art_rows):
            break
        y = [Fraction(0)] * n
        for k in art_rows:
            for i in range(n):
                y[i] += binv[k][i]
        enter = -1
        for j in range(m):
            if j not in basis and sum(y[i] * c for i, c in cols[j]) > 0:
                enter = j
                break
        if enter < 0:
            for j in range(m, m + n):
                if j not in basis and 1 - y[j - m] * sgn[j - m] < 0:
                    enter = j
                    break
        if enter < 0:
            return None
        d = [Fraction(0)] * n
        for i, c in column(enter):
            for k in range(n):
                d[k] += binv[k][i] * c
        leave = -1
        best = None
        for k in range(n):
            if d[k] > 0:
                ratio = xb[k] / d[k]
                if best is None or ratio < best or (
                    ratio == best and basis[k] < basis[leave]
                ):
                    best = ratio
                    leave = k
        assert leave >= 0, "phase-1 objective unbounded"
        inv = 1 / d[leave]
        brow = [v * inv for v in binv[leave]]
        bx = xb[leave] * inv
        for k in range(n):
            if k != leave and d[k]:
                binv[k] = [a - d[k] * bb for a, bb in zip(binv[k], brow)]
                xb[k] -= d[k] * bx
        binv[leave] = brow
        xb[leave] = bx
        basis[leave] = enter
    return {bi: xb[k] for k, bi in enumerate(basis) if bi < m and xb[k]}


small = st.integers(min_value=-3, max_value=3)


@st.composite
def cones(draw, entries=small):
    """Generators over n columns, with zero, repeated and negated rows,
    and a target that is often a nonnegative combination of them, on a
    boundary ray, or zero."""
    n = draw(st.integers(min_value=1, max_value=5))
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=9))):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat", "negate"]))
        if kind == "zero" or (kind in ("repeat", "negate") and not gens):
            gens.append([0] * n)
        elif kind == "repeat":
            gens.append(list(draw(st.sampled_from(gens))))
        elif kind == "negate":
            gens.append([-a for a in draw(st.sampled_from(gens))])
        else:
            gens.append(draw(st.lists(entries, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["combination", "ray", "zero", "random"]))
    if kind == "combination" and gens:
        weights = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=len(gens), max_size=len(gens)))
        target = [sum(w * g[i] for w, g in zip(weights, gens)) for i in range(n)]
    elif kind == "ray" and gens:
        g = draw(st.sampled_from(gens))
        target = [draw(st.integers(min_value=1, max_value=4)) * a for a in g]
    elif kind == "zero":
        target = [0] * n
    else:
        target = draw(st.lists(entries, min_size=n, max_size=n))
    return gens, target


def _product_reference(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_exact_product_leaves_int64_at_the_guard():
    # the bound max|A| * max|B| * inner length picks the dtype; past it
    # the sums would wrap in int64 (2^31 * 2^31 * 2 = 2^63)
    cases = [
        ([[1 << 31, 1 << 31]], [[1 << 31], [1 << 31]], object),
        ([[(1 << 62) - 1]], [[-3]], object),
        ([[1 << 30, 1 << 30]], [[(1 << 31) - 1], [(1 << 31) - 1]], np.int64),
        ([[1 << 30, -(1 << 30)]], [[1 << 31], [1 << 31]], object),
        ([[1, 2], [3, 4]], [[5], [6]], np.int64),
    ]
    for A, B, dtype in cases:
        got = exact_product(np.array(A, dtype=np.int64), np.array(B, dtype=np.int64))
        assert got.dtype == dtype
        assert got.tolist() == _product_reference(A, B)


@settings(max_examples=200, deadline=None)
@given(matrices(max_rows=4), st.data())
def test_exact_product_matches_python_integers(case, data):
    # entries of 2^62 or more arrive as object matrices, as
    # generator_matrix builds them
    n, rows = case
    cols = data.draw(st.integers(min_value=0, max_value=3))
    B = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=n, max_size=n))
    got = exact_product(generator_matrix(rows, n), generator_matrix(B, cols))
    assert got.shape == (len(rows), cols)
    assert got.tolist() == _product_reference(rows, B)
    if got.dtype != object:
        assert all(abs(a) < GEMM_GUARD for row in got.tolist() for a in row)
