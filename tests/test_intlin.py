"""The integer eliminations must reproduce the Fraction ones exactly.

The Fraction versions below are the reference: a row-reduced echelon
form over the rationals, and a Bareiss forward pass followed by a
rational back-substitution.  Inputs mix zero, duplicate and dependent
rows, negative entries, and entries of 2^62 or more.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ldt.intlin import in_span, kernel_basis, nonnegative_solution, row_basis


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
    got = kernel_basis(rows, n)
    assert got == kernel_basis_reference(rows, n)
    for col in got:
        assert all(sum(a * c for a, c in zip(row, col)) == 0 for row in rows)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_span_membership_agrees_with_kernel(case, data):
    n, rows = case
    v = data.draw(st.lists(entries, min_size=n, max_size=n))
    kb = kernel_basis(rows, n)
    expected = all(sum(a * c for a, c in zip(v, col)) == 0 for col in kb)
    assert in_span(row_basis(rows), v) is expected
    for row in rows:
        assert in_span(row_basis(rows), row)


@settings(max_examples=400, deadline=None)
@given(matrices(max_rows=6), st.data())
def test_support_solve_matches_fraction_back_substitution(case, data):
    dim, cols = case
    if data.draw(st.booleans()) and cols:
        # a combination of the columns, so consistent systems come up often
        weights = data.draw(
            st.lists(st.integers(min_value=-2, max_value=3), min_size=len(cols), max_size=len(cols))
        )
        target = [sum(w * col[i] for w, col in zip(weights, cols)) for i in range(dim)]
    else:
        target = data.draw(st.lists(entries, min_size=dim, max_size=dim))
    expected = support_solve_reference(cols, target, dim)
    assert nonnegative_solution(cols, target, dim) is expected
