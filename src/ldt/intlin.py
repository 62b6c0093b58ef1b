"""Fraction-free exact linear algebra over the integers.

The solver side needs two exact computations: a kernel basis (of the
equalities of a sample cell, and of the rows a Farkas vector must
vanish on), and the particular solutions of one small system for a
whole batch of targets (their signs decide conic certificates).  Both
read row_basis, one fraction-free Gauss-Jordan elimination in numpy,
int64 while its products fit and Python integers (object dtype) past
that; no float enters either.  The batched one then needs a single
integer matrix product, and exact_product multiplies integer matrices
without overflow, which is also how every proposed certificate is
checked.  A low-dimensional cell's cone also gets its exact
generators, a lineality basis and the extreme rays, from
cone_generators, a double description built on the same products.
Rows are kept primitive (gcd content divided out); every division is
exact, so no rational number is ever formed, and a rational value
appears only as an integer numerator over a known positive
denominator.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

import numpy as np

from .prng import SplitMix64

# an int64 product sum whose bound (largest entry times largest entry
# times length) stays below this cannot overflow
GEMM_GUARD = 1 << 62


def row_basis(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced echelon basis of the row span of an integer matrix from
    generator_matrix: (B, pivots), one row of B per pivot column, in
    increasing order of the pivots, each row primitive, positive at its
    pivot and zero at every other pivot column.  Scaled so, the form is
    unique.

    One fraction-free Gauss-Jordan elimination (Bareiss) over all rows
    at once.  At column c the first row at or below r that is nonzero
    there moves up to r, its entry p becomes the pivot, and every other
    row becomes (p M[i] - M[i, c] M[r]) // prev, prev the pivot before.
    Every entry is then a minor of the input (Sylvester's identity), so
    the division is exact and the entries grow only as fast as the
    minors; every pivot entry equals the last p, and dependent rows end
    as zero rows.  Each term of a step is at most (|p| + max|M|) max|M|,
    so an int64 M moves to Python integers before the first step where
    that reaches GEMM_GUARD, and an object M stays there; B keeps the
    dtype the elimination ended in.
    """
    M = M.copy()
    pivots: list[int] = []
    prev = 1
    top = _largest(M)
    for c in range(M.shape[1]):
        r = len(pivots)
        hits = M[r:, c].nonzero()[0]
        if not len(hits):
            continue
        s = r + int(hits[0])
        row = M[s].copy()
        if s != r:
            M[s] = M[r]
            M[r] = row
        p = int(row[c])
        if M.dtype != object:
            # top is an upper bound on max|M|: the true maximum is read
            # only when the bound trips the guard
            if (abs(p) + top) * top >= GEMM_GUARD:
                top = _largest(M)
                if (abs(p) + top) * top >= GEMM_GUARD:
                    M, row = M.astype(object), row.astype(object)
            top = max(top, (abs(p) + top) * top // abs(prev))
        f = M[:, c].copy()
        f[r] = 0
        if p != 1:
            M *= p
        M -= f[:, None] * row
        if prev != 1:
            M //= prev
        M[r] = row
        prev = p
        pivots.append(c)
    B = M[: len(pivots)]
    if prev < 0:
        B = -B
    return B // np.gcd.reduce(B, axis=1)[:, None], pivots


def kernel_matrix(rows: np.ndarray) -> np.ndarray:
    """Integer basis of the common kernel of the rows of an integer
    matrix from generator_matrix, as the columns of another (n x n_red),
    int64 or object as generator_matrix would choose for it.

    One column per free column f of row_basis(rows), in increasing order
    of f: the primitive integer vector with a positive entry at f, zeros
    at the other free columns, and the pivot entries the kernel forces.
    The echelon form is unique, so the basis is too.  Scaled by the lcm
    of the pivot entries, which divides the elimination's last pivot,
    every column is integral before its content is divided out.
    """
    B, pivots = row_basis(rows)
    free = np.delete(np.arange(rows.shape[1]), pivots)
    lead = B[np.arange(len(pivots)), pivots]
    den = np.lcm.reduce(lead, initial=1)
    K = np.zeros((rows.shape[1], len(free)), dtype=B.dtype)
    K[free, np.arange(len(free))] = den
    K[pivots] = -B[:, free] * (den // lead)[:, None]
    return _narrowed(K // np.gcd.reduce(K, axis=0))


def nonnegative_solutions(
    cols: Sequence[Sequence[int]], targets: np.ndarray
) -> np.ndarray:
    """Which rows t of targets satisfy t = sum c_j cols[j] with a
    nonnegative particular solution (every free coefficient zero)?

    One elimination, row_basis of [A | I] with A[i][j] = cols[j][i],
    decides every target.  Each basis row b is y [A | I] for y = b[k:].
    Its pivot columns inside A are the columns of A independent of the
    ones before them, and a row b pivoting at such a column p is zero at
    every other pivot column, so for a particular solution c, b[p] c_p =
    y A c = y t: with b[p] > 0, c_p >= 0 exactly when y t >= 0.  The
    rows pivoting past A have y A = 0 and span A's left kernel, so t
    lies in the span of cols exactly when each of them vanishes on t.
    Both tests read one exact_product of targets (from generator_matrix)
    with the y columns.
    """
    k = len(cols)
    dim = targets.shape[1]
    B, pivots = row_basis(
        generator_matrix(
            [[int(col[i]) for col in cols] + [int(i == j) for j in range(dim)] for i in range(dim)],
            k + dim,
        )
    )
    num = exact_product(targets, _narrowed(B[:, k:]).T)
    inside = np.array(pivots, dtype=np.intp) < k
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
    # a binary search, not np.isin: for spread keys np.isin sorts with
    # np.unique, whose first call imports numpy.ma (about 10 ms)
    at = np.minimum(np.searchsorted(shared, keys), shared.size - 1)
    return np.flatnonzero(shared[at] == keys)


def exact_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B exactly: in int64 while GEMM_GUARD bounds every sum, in
    Python integers (object dtype) past it or when either is object."""
    if A.dtype != object and B.dtype != object:
        if _largest(A) * _largest(B) * A.shape[-1] < GEMM_GUARD:
            return A @ B
    return A.astype(object) @ B.astype(object)


def _narrowed(M: np.ndarray) -> np.ndarray:
    """M as int64 when it is an object matrix whose entries all stay
    below GEMM_GUARD, generator_matrix's choice; otherwise M itself."""
    if M.dtype == object and _largest(M) < GEMM_GUARD:
        return M.astype(np.int64)
    return M


def _largest(M: np.ndarray) -> int:
    """The largest absolute entry of an integer matrix, 0 when it is empty.
    Two reductions read M without the copy np.abs would make."""
    return max(int(M.max(initial=0)), -int(M.min(initial=0)))

