"""Fraction-free exact linear algebra over the integers.

The solver side needs two exact computations: a kernel basis (of the
equalities of a sample cell, and of the rows a Farkas vector must
vanish on), and the particular solutions of one small system for a
whole batch of targets (their signs decide conic certificates).  Both
read one elimination, row_basis's reduced echelon form, run on Python
integers; the batched one then needs a single integer matrix product,
and exact_product multiplies integer matrices without overflow, which
is also how every proposed certificate is checked.
The one float in them, a matrix rank that tells the kernel basis where
its elimination may stop, is checked exactly before it is trusted.
Rows are kept primitive (gcd content divided out) and combined by
cross-multiplication; every division is exact, so no rational number
is ever formed, and a rational value appears only as an integer
numerator over a known positive denominator.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from .prng import SplitMix64

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


def _absorb(basis: RowBasis, row: Sequence[int]) -> None:
    """Extend basis, in place, to the reduced echelon basis of its span
    plus row."""
    r = _eliminate(list(row), basis)
    lead = next((j for j, a in enumerate(r) if a), None)
    if lead is None:
        return
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


def row_basis(rows: Iterable[Sequence[int]]) -> RowBasis:
    """Reduced echelon basis of the span of rows."""
    basis: RowBasis = {}
    for row in rows:
        _absorb(basis, row)
    return basis


def kernel_matrix(rows: np.ndarray) -> np.ndarray:
    """Integer basis of the common kernel of the rows of an integer
    matrix from generator_matrix, as the columns of another (n x n_red).

    One column per free column f of the reduced echelon basis of rows,
    in increasing order of f: the primitive integer vector with a
    positive entry at f, zeros at the other free columns, and the pivot
    entries the kernel forces.  The echelon form is unique, so the basis
    is too.  The elimination stops as soon as its basis reaches the
    float rank of rows, which only proposes: the basis is kept when
    every row vanishes on its kernel, checked exactly, and otherwise
    row_basis eliminates every row.  Object rows (past GEMM_GUARD) skip
    the proposal and are eliminated in full, and so are matrices with no
    more rows than columns, where stopping early saves less than the
    float rank costs.
    """
    n = rows.shape[1]
    todo = rows.tolist()
    if rows.dtype != object and len(todo) > n:
        rank = int(np.linalg.matrix_rank(rows.astype(np.float64)))
        basis: RowBasis = {}
        k = 0
        while k < len(todo) and len(basis) < rank:
            _absorb(basis, todo[k])
            k += 1
        KB = generator_matrix(_kernel_columns(basis, n), n).T
        if k == len(todo) or not exact_product(rows[k:], KB).any():
            return KB
    return generator_matrix(_kernel_columns(row_basis(todo), n), n).T


def _kernel_columns(basis: RowBasis, n: int) -> list[list[int]]:
    """kernel_matrix's columns from the reduced echelon basis of the
    functionals."""
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


def nonnegative_solutions(
    cols: Sequence[Sequence[int]], targets: np.ndarray
) -> np.ndarray:
    """Which rows t of targets satisfy t = sum c_j cols[j] with a
    nonnegative particular solution (every free coefficient zero)?

    One elimination, the reduced echelon basis of [A | I] with
    A[i][j] = cols[j][i], decides every target.  Each basis row b is
    y [A | I] for y = b[k:].  Its pivot columns inside A are the columns
    of A independent of the ones before them, and a row b pivoting at
    such a column p is zero at every other pivot column, so for a
    particular solution c, b[p] c_p = y A c = y t: with b[p] > 0, c_p
    >= 0 exactly when y t >= 0.  The rows pivoting past A have y A = 0
    and span A's left kernel, so t lies in the span of cols exactly when
    each of them vanishes on t.  Both tests read one exact_product of
    targets (from generator_matrix) with the y columns.
    """
    k = len(cols)
    dim = targets.shape[1]
    basis = row_basis(
        [int(col[i]) for col in cols] + [int(i == j) for j in range(dim)]
        for i in range(dim)
    )
    Y = generator_matrix([b[k:] for b in basis.values()], dim).T
    num = exact_product(targets, Y)
    inside = np.array([p < k for p in basis], dtype=bool)
    return (num[:, inside] >= 0).all(axis=1) & (num[:, ~inside] == 0).all(axis=1)


def generator_matrix(rows: Sequence[Sequence[int]], dim: int) -> np.ndarray:
    """The rows as one (len(rows), dim) integer matrix: int64 while every
    entry stays below GEMM_GUARD, Python integers (object dtype) past it."""
    top = max((abs(a) for row in rows for a in row), default=0)
    dtype = np.int64 if top < GEMM_GUARD else object
    return np.array(rows, dtype=dtype).reshape(len(rows), dim)


def hash_weights(n: int) -> np.ndarray:
    """n fixed odd 64-bit weights.  rows.astype(np.uint64) @ hash_weights(n)
    hashes int64 rows to one wrapping 64-bit key each: equal rows share
    a key, and a key shared by distinct rows is rare."""
    rng = SplitMix64(0xD1CE_0F_F00D)
    return np.array([rng.next_u64() | 1 for _ in range(n)], dtype=np.uint64)


def repeated(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the keys that occur more than once."""
    ordered = np.sort(keys)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    if not shared.size:
        return np.zeros(0, dtype=np.intp)
    # a binary search, not np.isin, whose first call imports numpy.ma
    at = np.minimum(np.searchsorted(shared, keys), shared.size - 1)
    return np.flatnonzero(shared[at] == keys)


def exact_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B exactly: in int64 while GEMM_GUARD bounds every sum, in
    Python integers (object dtype) past it or when either is object."""
    if A.dtype != object and B.dtype != object:
        top = int(np.abs(A).max(initial=0)) * int(np.abs(B).max(initial=0))
        if top * A.shape[-1] < GEMM_GUARD:
            return A @ B
    return A.astype(object) @ B.astype(object)

