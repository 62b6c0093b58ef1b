"""Fraction-free exact linear algebra over the integers.

The solver side needs four exact computations: a kernel basis for the
equalities of a sample cell, a span membership test, a particular
solution of a small system whose sign decides a conic certificate,
and cone membership (is a target a nonnegative combination of given
generators).  All four run here on Python integers.  Rows are kept
primitive (gcd content divided out) and combined by
cross-multiplication; every division is exact, so no rational number
is ever formed, and a rational value appears only as an integer
numerator over a known positive denominator.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

# an int64 product sum whose bound (largest entry times largest entry
# times length) stays below this cannot overflow
GEMM_GUARD = 1 << 62

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


def generator_matrix(rows: Sequence[Sequence[int]], dim: int) -> np.ndarray:
    """The rows as one (len(rows), dim) integer matrix: int64 while every
    entry stays below GEMM_GUARD, Python integers (object dtype) past it."""
    top = max((abs(a) for row in rows for a in row), default=0)
    dtype = np.int64 if top < GEMM_GUARD else object
    return np.array(rows, dtype=dtype).reshape(len(rows), dim)


def cone_member(
    gens: np.ndarray, target: Sequence[int]
) -> tuple[dict[int, int], int] | None:
    """Is target a nonnegative combination of the rows of gens?

    Phase-1 revised simplex with Bland's rule.  Artificial column i is
    sgn(target_i) e_i, so the starting basis carries |target| and is its
    own inverse.  The basis inverse B^-1 is held as the integer matrix
    D B^-1 with D = |det B| > 0, and the basic values as numerators over
    D.  Pivoting on entry d_l > 0 of the entering column D B^-1 a maps
    every other row k to (d_l row_k - d_k row_l) / D, an exact division,
    keeps row l, and makes d_l the new D.  Ratios compare by
    cross-multiplication and ties go to the smallest basis id, so the
    pivots are those of the same simplex over the rationals.

    Returns (num, D) with target = sum_j num[j] / D * gens[j] and every
    num[j] > 0, or None when target lies outside the cone.  gens comes
    from generator_matrix; pricing is one product with it per pivot,
    in int64 while GEMM_GUARD allows and in Python integers past it.
    """
    m = gens.shape[0]
    n = len(target)
    b = [int(x) for x in target]
    sgn = [1 if x >= 0 else -1 for x in b]
    # generator ids are 0..m-1, artificial i has id m + i
    basis = [m + i for i in range(n)]
    binv = [[sgn[i] if i == j else 0 for j in range(n)] for i in range(n)]
    xb = [abs(x) for x in b]
    den = 1
    wide = gens.dtype == object
    gmax = 0 if wide or not m else int(np.abs(gens).max())
    gens_obj = gens if wide else None

    while True:
        art_rows = [k for k, bi in enumerate(basis) if bi >= m]
        if not any(xb[k] for k in art_rows):
            break  # artificial mass zero: membership certified
        # phase-1 duals, scaled by den
        y = [sum(binv[k][i] for k in art_rows) for i in range(n)]
        enter = -1
        if m:
            if not wide and gmax * max(map(abs, y)) * n < GEMM_GUARD:
                prices = gens @ np.array(y, dtype=np.int64)
            else:
                if gens_obj is None:
                    gens_obj = gens.astype(object)
                prices = gens_obj @ np.array(y, dtype=object)
            held = set(basis)
            for j in np.flatnonzero(prices > 0):
                if j not in held:
                    enter = int(j)
                    break
        if enter < 0:
            for i in range(n):
                if m + i not in basis and den - y[i] * sgn[i] < 0:
                    enter = m + i
                    break
        if enter < 0:
            return None  # optimum positive: target outside the cone
        # entering column, scaled by den
        if enter < m:
            col = gens[enter].tolist()
            nz = [(i, c) for i, c in enumerate(col) if c]
            d = [sum(row[i] * c for i, c in nz) for row in binv]
        else:
            i = enter - m
            d = [row[i] * sgn[i] for row in binv]
        leave = -1
        for k in range(n):
            if d[k] > 0 and (
                leave < 0
                or xb[k] * d[leave] < xb[leave] * d[k]
                or (
                    xb[k] * d[leave] == xb[leave] * d[k]
                    and basis[k] < basis[leave]
                )
            ):
                leave = k
        if leave < 0:
            raise ArithmeticError("phase-1 objective unbounded")
        dl = d[leave]
        prow = binv[leave]
        px = xb[leave]
        for k in range(n):
            if k != leave:
                dk = d[k]
                binv[k] = [(dl * a - dk * p) // den for a, p in zip(binv[k], prow)]
                xb[k] = (dl * xb[k] - dk * px) // den
        den = dl
        basis[leave] = enter

    return {bi: xb[k] for k, bi in enumerate(basis) if bi < m and xb[k]}, den
