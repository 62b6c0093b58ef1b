"""Fraction-free exact linear algebra over the integers.

The solver side needs three exact eliminations: a kernel basis for the
equalities of a sample cell, a span membership test, and a particular
solution of a small system whose sign decides a conic certificate.
All three run here on Python integers.  Rows are kept primitive (gcd
content divided out) and combined by cross-multiplication; every
division is exact, so no rational number is ever formed, and a
rational value appears only as an integer numerator over a known
positive denominator.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

# pivot column -> primitive integer row, positive at its pivot, zero in
# every column before its pivot and at every other pivot column: the
# reduced row echelon form of the span, each row scaled to integers
RowBasis = dict[int, list[int]]


def _primitive(row: list[int], lead: int) -> list[int]:
    """row divided by its content, signed so that row[lead] > 0."""
    g = gcd(*row)
    if row[lead] < 0:
        g = -g
    return row if g == 1 else [a // g for a in row]


def _eliminate(row: list[int], basis: RowBasis) -> list[int]:
    """A positive multiple of row plus a combination of basis rows that
    is zero at every pivot column."""
    for p, b in basis.items():
        f = row[p]
        if not f:
            continue
        bp = b[p]
        if bp == 1:
            row = [a - f * x for a, x in zip(row, b)]
        else:
            g = gcd(f, bp)
            s, f = bp // g, f // g
            row = [s * a - f * x for a, x in zip(row, b)]
    return row


def row_basis(rows: Iterable[Sequence[int]]) -> RowBasis:
    """Reduced echelon basis of the span of rows."""
    basis: RowBasis = {}
    for row in rows:
        r = _eliminate(list(row), basis)
        lead = next((j for j, a in enumerate(r) if a), None)
        if lead is None:
            continue
        r = _primitive(r, lead)
        rl = r[lead]
        # clear the new pivot column from the rows already held
        for p, b in basis.items():
            f = b[lead]
            if f:
                g = gcd(f, rl)
                s, f = rl // g, f // g
                basis[p] = _primitive([s * x - f * y for x, y in zip(b, r)], p)
        basis[lead] = r
    return basis


def in_span(basis: RowBasis, row: Sequence[int]) -> bool:
    """Is row a rational combination of the basis rows?"""
    return not any(_eliminate(list(row), basis))


def kernel_basis(rows: Iterable[Sequence[int]], n: int) -> list[list[int]]:
    """Integer basis of the common kernel of the given functionals.

    One column per free column f of the reduced row echelon form, in
    increasing order of f: the primitive integer vector with a positive
    entry at f, zeros at the other free columns, and the pivot entries
    the kernel forces.  The echelon form is unique, so the basis is too.
    """
    basis = row_basis(rows)
    cols: list[list[int]] = []
    for f in range(n):
        if f in basis:
            continue
        hits = [(p, b[f], b[p]) for p, b in basis.items() if b[f]]
        den = lcm(*(bp for _, _, bp in hits))
        col = [0] * n
        col[f] = den
        for p, bf, bp in hits:
            col[p] = -bf * (den // bp)
        g = gcd(*col)
        cols.append(col if g == 1 else [a // g for a in col])
    return cols


def nonnegative_solution(
    cols: Sequence[Sequence[int]], target: Sequence[int], dim: int
) -> bool:
    """Does target = sum c_j cols[j] hold with a nonnegative particular
    solution?

    Bareiss fraction-free elimination runs over the augmented system;
    the particular solution sets every free coefficient to zero and is
    back-substituted as integer numerators over one common positive
    denominator.  A nonzero leftover past the rank means no solution.
    The result is checked once more against the original columns.
    """
    k = len(cols)
    M = [[int(col[i]) for col in cols] + [int(target[i])] for i in range(dim)]
    piv_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(k):
        sel = next((i for i in range(r, dim) if M[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            M[r], M[sel] = M[sel], M[r]
        p = M[r][c]
        pivot_row = M[r]
        for i in range(r + 1, dim):
            f = M[i][c]
            M[i] = [(p * a - f * b) // prev for a, b in zip(M[i], pivot_row)]
        prev = p
        piv_cols.append(c)
        r += 1
        if r == dim:
            break
    # rows past the rank are structurally zero; a leftover augmented
    # entry there means the system is inconsistent
    for i in range(r, dim):
        if M[i][k]:
            return False
    # coefficient j is num[j] / den
    num = [0] * k
    den = 1
    for idx in range(r - 1, -1, -1):
        c = piv_cols[idx]
        row = M[idx]
        s = row[k] * den
        for c2 in range(c + 1, k):
            if row[c2] and num[c2]:
                s -= row[c2] * num[c2]
        a = row[c]
        g = gcd(s, a)
        s, a = s // g, a // g
        if a < 0:
            s, a = -s, -a
        if s < 0:
            return False
        if a != 1:
            den *= a
            num = [x * a for x in num]
        num[c] = s
    for i in range(dim):
        total = sum(x * col[i] for x, col in zip(num, cols) if x)
        if total != target[i] * den:
            return False
    return True
