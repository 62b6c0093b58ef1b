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
A low-dimensional cell's cone also gets its exact generators, a
lineality basis and the extreme rays, from cone_generators, a double
description built on the same products.
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


def cone_generators(
    C: np.ndarray, limit: int
) -> tuple[np.ndarray, np.ndarray, bool] | None:
    """Lineality basis and extreme rays of the cone {y : C y >= 0}.

    The double description method (Motzkin, Raiffa, Thompson and
    Thrall, 1953; Fukuda and Prodon, 1996), fraction-free.  It starts
    from the whole space, a lineality basis L = I and no rays, and
    takes only constraints that some current generator violates: a
    constraint every generator satisfies holds on the whole current
    cone and so on every smaller one, and is dropped for good.  A
    violated constraint c first consumes a lineality column l0 with
    c l0 != 0: oriented so that c l0 > 0, l0 becomes a ray, and every
    other generator g becomes (c l0) g - (c g) l0, which c vanishes on.
    Otherwise the rays split into c r > 0, = 0 and < 0; the last are
    dropped, and each adjacent pair (p, q) across the split adds
    (c p) q - (c q) p.  Adjacency is combinatorial: no third ray is
    tight on every processed constraint both are tight on.  Every column
    is primitive, and generator_matrix and exact_product keep them
    int64 until GEMM_GUARD.  Floats only pick which violated constraint
    comes next, the one that cuts deepest into a generator.

    Returns (L, R, interior), L and R integer matrices with the
    generators as columns and interior false when the cone lies in a
    hyperplane: some processed constraint vanishes on every generator.
    Returns None once the generators outnumber limit.
    """
    n = C.shape[1]
    lin = [[int(i == j) for i in range(n)] for j in range(n)]
    rays: list[list[int]] = []
    # bit k of tight[i]: the k-th processed constraint vanishes on rays[i]
    tight: list[int] = []
    norms = np.linalg.norm(C.astype(np.float64), axis=1)
    done = 0
    while len(C):
        nl = len(lin)
        G = generator_matrix(lin + rays, n).T
        S = exact_product(C, G)
        bad = (S[:, :nl] != 0).any(axis=1) | (S[:, nl:] < 0).any(axis=1)
        if not bad.any():
            break
        C, S, norms = C[bad], S[bad], norms[bad]
        depth = S.astype(np.float64) / norms[:, None]
        depth /= np.linalg.norm(G.astype(np.float64), axis=0)
        depth[:, :nl] = -np.abs(depth[:, :nl])
        pick = int(np.argmin(depth.min(axis=1)))
        s = S[pick].tolist()
        keep = np.arange(len(C)) != pick
        C, norms = C[keep], norms[keep]
        bit = 1 << done
        done += 1
        hits = [j for j in range(nl) if s[j]]
        if hits:
            j0 = min(hits, key=lambda j: abs(s[j]))
            a = s[j0]
            l0 = lin[j0] if a > 0 else [-x for x in lin[j0]]
            a = abs(a)
            lin = [
                _content_free([a * x - sj * y for x, y in zip(g, l0)])
                for j, (g, sj) in enumerate(zip(lin, s)) if j != j0
            ]
            rays = [
                _content_free([a * x - sr * y for x, y in zip(r, l0)])
                for r, sr in zip(rays, s[nl:])
            ]
            tight = [t | bit for t in tight]
            rays.append(l0)
            tight.append(bit - 1)
        else:
            sr = s[nl:]
            need = n - nl - 2
            new_rays = [r for r, v in zip(rays, sr) if v >= 0]
            new_tight = [t | (0 if v else bit) for t, v in zip(tight, sr) if v >= 0]
            for p, vp in enumerate(sr):
                if vp <= 0:
                    continue
                for q, vq in enumerate(sr):
                    if vq >= 0:
                        continue
                    common = tight[p] & tight[q]
                    if common.bit_count() < need or any(
                        not common & ~t
                        for i, t in enumerate(tight)
                        if i != p and i != q
                    ):
                        continue
                    new_rays.append(
                        _content_free([vp * x - vq * y for x, y in zip(rays[q], rays[p])])
                    )
                    new_tight.append(common | bit)
            rays, tight = new_rays, new_tight
        if len(lin) + len(rays) > limit:
            return None
    implicit = (1 << done) - 1
    for t in tight:
        implicit &= t
    return generator_matrix(lin, n).T, generator_matrix(rays, n).T, not implicit


def _content_free(col: list[int]) -> list[int]:
    """col divided by the gcd of its entries, direction kept."""
    g = gcd(*col)
    return col if g <= 1 else [a // g for a in col]


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
        if _largest(A) * _largest(B) * A.shape[-1] < GEMM_GUARD:
            return A @ B
    return A.astype(object) @ B.astype(object)


def _largest(M: np.ndarray) -> int:
    """The largest absolute entry of an int64 matrix, 0 when it is empty.
    Two reductions read M without the copy np.abs would make."""
    return max(int(M.max(initial=0)), -int(M.min(initial=0)))

