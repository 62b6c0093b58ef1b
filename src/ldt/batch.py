"""Batched sign inference against a chain-structured cell.

After factoring out its equalities, the cell carved by a sorted sample
is an open full-dimensional cone cut by the consecutive block
differences of the sorted chain.  Over such a cone a hyperplane is
sign-constant exactly when it, or its negation, is a nonnegative
combination of those differences, so inference reduces to cone
membership.  This module answers that question for a whole live set at
once.  Rows are first reduced modulo the equality span, where a
vanishing reduction means ZERO.  A cell of reduced dimension at most
_RAY_DIM is then decided in one step:

  * the integer double description (intlin.cone_generators) gives the
    lineality basis and the extreme rays of the closed cone, and exact
    products with them decide every row, completely: PLUS when
    the row vanishes on the lineality and is nonnegative on every ray,
    MINUS mirrored, undetermined otherwise.  A closed cone without an
    interior cannot hold an honest hidden point and raises
    InconsistentSampleError.

Above that dimension, or once the generators outnumber the rows left
to decide, the tiers run instead, cheapest proof first:

  * screen at one exact interior point, where a row the cell
    determines takes its only sign: that sign is the row's candidate;
  * certify by dominance, once per cell: the harvested coordinate
    comparisons, closed into one order matrix, and an anchor of the
    row's own side (or the origin) combine into explicit conic
    decompositions, for all rows at once when rows and anchors are 0/1
    of one weight k <= 4, else row by row after the next tier;
  * finish stragglers by shared support: a least-squares proposal from
    the first unproved row is verified exactly against every open row
    in one batched integer solve.  A row no support proves can only be
    shown outside the cone: cone_member rounds a Farkas vector from the
    residual of the row's own fit and checks it exactly, and never
    proves membership.  In a cell searched row by row, rows it does
    not separate go to that search, and so do all stragglers above
    _EXACT_LP_DIM reduced dimensions, where this tier is skipped.

Floating point only ever proposes, and numpy does all of it: a
normalised product picks the double description's next constraint, a
log-barrier Newton method (linprog) proposes the max-margin interior
point and a Lawson-Hanson NNLS (_nnls) proposes certificate supports
and Farkas vectors.  Every accepted sign carries an exact certificate,
so a wrong answer is impossible; the only cost of a missed proof is a
hyperplane left undetermined.  The interior point is verified too, and
any exact one gives the same decisions.  All exact algebra is
fraction-free integer arithmetic from intlin: the kernel bases of the
equalities and of a Farkas vector's tight rows, the cone's rays and
lineality, the integer products that reduce the cell and the live rows
by it, decide the rows against the rays, screen them at the interior
point and check every Farkas vector (exact_product, int64 while the
sums fit), and the batched support solves that verify least-squares
proposals (one elimination per support, one product with all its
targets).

A round makes two calls: cell_from_sample builds the reduced cell from
the sorted sample, and infer_set decides the live rows against it.
Both read one geometry.Family, whose integer matrix (rational families
scaled by a common denominator) supplies the sample's member rows and
the rows to decide, so every family takes this integer engine.  Each
tier works on the whole live matrix at once, and the result is
returned as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations
from math import frexp, sqrt
from typing import Sequence

import numpy as np

from .geometry import Family, Sign, SignVector
from .inference import InconsistentSampleError, InferenceOutcome, SortedSample
from .intlin import (
    cone_generators,
    exact_product,
    hash_weights,
    kernel_matrix,
    nonnegative_solutions,
    repeated,
)

_ANCHORS = 48
_UNIT_CAP = 12
_EXACT_LP_DIM = 16
# the extreme rays decide a cell up to this reduced dimension: on
# solved cells they took at most half the tiers' time through 8, and up
# to 1.25 and 1.74 times it at 9 and 10 (BENCH_17.json)
_RAY_DIM = 8
_NEWTON_CAP = 200
_BARRIER_GROWTH = 100.0
_NNLS_ITERS_PER_COLUMN = 3


@dataclass
class ChainCell:
    """Reduced, integer view of a sample cell.

    KB (n x n_red) holds the kernel basis of the equalities as columns,
    or is None when the sample has none and the reduced space is the
    full one.  reps holds the reduced block representatives in sorted
    order, the origin at row z, and chain their consecutive
    differences; chain_t is its float transpose, the NNLS's matrix.
    sample is the sorted sample the cell was built from.  order is the
    harvested strict order of the coordinates (_harvest_atoms), its
    node n_red the origin.  above holds the representatives above the
    origin and below the negations of those beneath it, both nearest
    first and at most _ANCHORS long: every one is positive over the
    cell, an anchor for the dominance certificates of its own side,
    which also try the origin itself.  Only the tiers read chain_t,
    order, above and below, so each is built on first use.
    """

    KB: np.ndarray | None
    reps: np.ndarray
    z: int
    chain: np.ndarray
    sample: SortedSample | None = field(default=None, repr=False)

    @property
    def n_red(self) -> int:
        return self.reps.shape[1]

    @cached_property
    def chain_t(self) -> np.ndarray:
        return self.chain.T.astype(np.float64)

    @cached_property
    def order(self) -> np.ndarray:
        return _harvest_atoms(self.reps)

    @cached_property
    def above(self) -> list[list[int]]:
        z = self.z
        return self.reps[z + 1:z + 1 + _ANCHORS].tolist()

    @cached_property
    def below(self) -> list[list[int]]:
        z = self.z
        return (-self.reps[max(z - _ANCHORS, 0):z][::-1]).tolist()


def cell_from_sample(sample: SortedSample, family: Family) -> ChainCell:
    """The reduced cell a sorted sample pins down.

    The sample's member ids index family, whose matrix supplies the
    member rows.
    """
    rows = family.rows[sample.ids]
    dim = rows.shape[1]
    order = np.asarray(sample.order, dtype=np.intp)
    starts = np.asarray(sample.starts, dtype=np.intp)
    # the labels and block number of each member, in sorted order
    labs = np.array(sample.labels, dtype=np.int8)[order]
    first = np.zeros(len(order), dtype=bool)
    first[starts] = True
    block = np.cumsum(first) - 1
    blabels = labs[starts]
    if (labs != blabels[block]).any():
        raise InconsistentSampleError("tied values with differing labels")
    zero_blocks = np.flatnonzero(blabels == Sign.ZERO)
    if len(zero_blocks) > 1:
        raise InconsistentSampleError("zero-labelled members in two separate blocks")
    reps_full = rows[order[starts]]
    z = int(zero_blocks[0]) if len(zero_blocks) else -1
    # every member of a block equals its head, and the zero block is
    # zero: an equality row is a member minus its head, or minus the
    # zero row appended below the members, in block order
    in_zero = block == z
    tails = ~first | in_zero
    heads = np.where(in_zero, len(rows), order[starts][block])
    padded = np.concatenate([rows, np.zeros((1, dim), dtype=rows.dtype)])
    e_rows = padded[order[tails]] - padded[heads[tails]]
    if z >= 0:
        reps_full[z] = 0
    else:
        z = int((blabels == Sign.MINUS).sum())
        reps_full = np.insert(reps_full, z, 0, axis=0)

    if len(e_rows):
        KB = kernel_matrix(e_rows)
        reps = exact_product(reps_full, KB)
    else:
        KB = None
        reps = reps_full
    chain = reps[1:] - reps[:-1]
    if not chain.any(axis=1).all():
        raise InconsistentSampleError("a strict gap lies in the span of the equalities")
    return ChainCell(KB, reps, z, chain, sample)


def _harvest_atoms(reps: np.ndarray) -> np.ndarray:
    """Strict coordinate comparisons mined from equal block differences.

    Two blocks whose reduced representatives differ by e_c - e_d pin the
    sign of x_c - x_d to the known order of the blocks; a difference of
    e_c alone compares x_c against zero.  Returns the boolean
    (n_red + 1)^2 matrix whose [u, v] is true when x_u > x_v is proved,
    node n_red standing for the origin, closed under transitivity.
    """
    nr = reps.shape[1]
    origin = nr
    # entry b * (nr + 1) stands for representative b, entry
    # b * (nr + 1) + 1 + c for it minus e_c; int64 entries are hashed
    # to one wrapping 64-bit key each (linear, so a unit shift subtracts
    # a weight), and only entries whose key is shared can be equal
    if reps.dtype == object:
        suspects = np.arange(len(reps) * (nr + 1))
    else:
        w = hash_weights(nr)
        keys = (reps.astype(np.uint64) @ w)[:, None] - np.append(np.uint64(0), w)
        suspects = repeated(keys.ravel())
    blk, shift = np.divmod(suspects, nr + 1)
    shift -= 1
    shifted = reps[blk]
    moved = np.flatnonzero(shift >= 0)
    shifted[moved, shift[moved]] -= 1
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for key, b, c in zip(map(tuple, shifted.tolist()), blk.tolist(), shift.tolist()):
        groups.setdefault(key, []).append((b, c))
    order = np.zeros((nr + 1, nr + 1), dtype=bool)
    for entries in groups.values():
        for (b1, c1), (b2, c2) in combinations(entries, 2):
            if b1 == b2 or c1 == c2 == -1:
                continue
            if c2 == -1:
                u, v = (c1, origin) if b1 > b2 else (origin, c1)
            elif c1 == -1:
                u, v = (c2, origin) if b2 > b1 else (origin, c2)
            else:
                u, v = (c1, c2) if b1 > b2 else (c2, c1)
            order[u, v] = True
    # Warshall's closure; a node with no edge in or none out joins no path
    for k in np.flatnonzero(order.any(axis=0) & order.any(axis=1)):
        order |= order[:, k, None] & order[k]
    return order


def linprog(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Max-margin point of the open cone {y : A y > 0}, A with unit rows.

    Maximizes t over A y >= t, |y_j| <= 1 by a log-barrier Newton
    method from the strictly feasible start y = 0, t = -1: each step is
    the longest one that keeps every slack positive, backtracked until
    the barrier function drops, and the barrier weight grows a hundred
    fold once the Newton decrement is below one.  It stops when the
    duality gap bound falls below t, so t is then about half the optimum
    or more; a singular Newton system or a vanishing step ends it early
    with the last iterate.  Returns (y, t), y strictly inside the box;
    t <= 0 means no interior point was found.
    """
    m, n = A.shape
    G = np.hstack([A, -np.ones((m, 1))])
    nu = m + 2 * n  # the barrier's logarithm count bounds the gap
    z = np.zeros(n + 1)
    z[-1] = -1.0
    tau = 10.0 * nu
    diag = np.arange(n)

    def barrier(z: np.ndarray) -> float:
        s, y = G @ z, z[:n]
        if s.min() <= 0 or np.abs(y).max(initial=0) >= 1:
            return np.inf
        logs = np.log(s).sum() + np.log1p(-y).sum() + np.log1p(y).sum()
        return float(-tau * z[-1] - logs)

    for _ in range(_NEWTON_CAP):
        s, y = G @ z, z[:n]
        inv = 1.0 / s
        g = -(inv @ G)
        g[:n] += 1.0 / (1.0 - y) - 1.0 / (1.0 + y)
        g[-1] -= tau
        Gs = G * inv[:, None]
        H = Gs.T @ Gs
        H[diag, diag] += 1.0 / (1.0 - y) ** 2 + 1.0 / (1.0 + y) ** 2
        try:
            d = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        dec = float(-g @ d)
        if not np.isfinite(dec):
            break
        if dec < 1.0:
            if z[-1] > 0 and nu <= tau * z[-1]:
                break
            tau *= _BARRIER_GROWTH
            continue
        ds, dy = G @ d, d[:n]
        room = np.concatenate(
            [
                s[ds < 0] / -ds[ds < 0],
                (1.0 - y[dy > 0]) / dy[dy > 0],
                (1.0 + y[dy < 0]) / -dy[dy < 0],
            ]
        )
        step = min(1.0, 0.99 * float(room.min(initial=np.inf)))
        f0 = barrier(z)
        while barrier(z + step * d) > f0 - 0.01 * step * dec:
            step *= 0.5
            if step < 1e-12:
                return z[:n], float(z[-1])
        z = z + step * d
    return z[:n], float(z[-1])


def _interior_point(cc: ChainCell) -> np.ndarray | None:
    """An exact integer point strictly inside the reduced cell, or None.

    A max-margin float program (linprog) proposes it, rounded to
    integers at the smallest power of two S with S * margin >
    sqrt(n_red), past which rounding moves no unit row's product by half
    the margin; it counts only with every chain product positive.  A
    cell with no chain rows, the whole reduced space, gets None, since
    every nonzero row takes both signs there; None leaves every nonzero
    row to direct labels.
    """
    if not len(cc.chain):
        return None
    Cf = cc.chain_t.T
    # maximize the worst row margin, in units of each row's norm
    y, margin = linprog(Cf / np.linalg.norm(Cf, axis=1)[:, None])
    if margin > 1e-12:
        # |y_j| < 1 and margin > 1e-12 keep the scale below 2^49 for
        # n_red below 2^16, so the rounded point stays inside int64
        point = np.rint(y * (1 << frexp(sqrt(cc.n_red) / margin)[1])).astype(np.int64)
        if (exact_product(cc.chain, point) > 0).all():
            return point
    return None


def _decompose_units(g: Sequence[int], order: list[list[bool]]) -> bool:
    """Ground every unit of g on a harvested strict comparison.

    g splits into +e_c and -e_d units; each positive unit needs either
    a negative partner it provably exceeds or a proof it exceeds zero,
    and leftover negative units need a proof they sit below zero.
    order is the cell's order matrix as nested lists.  A g of no units
    or more than _UNIT_CAP is refused before any unit is listed.
    """
    if not 0 < sum(map(abs, g)) <= _UNIT_CAP:
        return False
    origin = len(g)
    below_zero = order[origin]
    pos = [c for c, val in enumerate(g) if val > 0 for _ in range(val)]
    neg = [c for c, val in enumerate(g) if val < 0 for _ in range(-val)]
    memo: dict[tuple[int, int], bool] = {}

    def ok(i: int, used: int) -> bool:
        if i == len(pos):
            return all(below_zero[d] for j, d in enumerate(neg) if not used >> j & 1)
        key = (i, used)
        hit = memo.get(key)
        if hit is not None:
            return hit
        row = order[pos[i]]
        res = row[origin] and ok(i + 1, used)
        if not res:
            for j, d in enumerate(neg):
                if row[d] and not used >> j & 1 and ok(i + 1, used | 1 << j):
                    res = True
                    break
        memo[key] = res
        return res

    return ok(0, 0)


def _anchored_cert(
    target: list[int], anchors: list[list[int]], order: list[list[bool]]
) -> bool:
    """Conic decomposition of the nonzero target into unit atoms, or
    into one anchor of target's own side plus unit atoms.  A target
    grounded on zero (positive coordinates proved above it, negative
    ones below) passes first, with no _UNIT_CAP on its units."""
    origin = len(target)
    below_zero = order[origin]
    if all(
        order[c][origin] if t > 0 else below_zero[c] for c, t in enumerate(target) if t
    ):
        return True
    return _decompose_units(target, order) or any(
        _decompose_units([t - x for t, x in zip(target, a)], order) for a in anchors
    )


def _nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Nonnegative least squares, proposal quality only: Lawson and
    Hanson's active-set method.

    Returns (x, ||A x - b||).  Every pass of the main loop and every
    step of the inner one counts an iteration; past
    _NNLS_ITERS_PER_COLUMN of them per column it gives up with the zero
    proposal and ||b||.
    """
    m, n = A.shape
    maxiter = _NNLS_ITERS_PER_COLUMN * n
    tol = (
        10 * max(m, n) * np.finfo(np.float64).eps
        * max(1.0, float(np.abs(A).max(initial=0)))
        * max(1.0, float(np.abs(b).max(initial=0)))
    )
    give_up = np.zeros(n), float(np.linalg.norm(b))
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)

    def fit() -> np.ndarray:
        """Unconstrained least squares on the passive columns."""
        s = np.zeros(n)
        idx = np.flatnonzero(passive)
        s[idx] = np.linalg.lstsq(A[:, idx], b, rcond=None)[0]
        return s

    w = A.T @ b
    iterations = 0
    while n:
        iterations += 1
        if iterations > maxiter:
            return give_up
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            break
        passive[j] = True
        s = fit()
        if s[j] <= tol:
            # rounding made column j look useful; try the next one
            passive[j] = False
            w[j] = -np.inf
            continue
        while (s[passive] <= 0).any():
            iterations += 1
            if iterations > maxiter:
                return give_up
            # walk from x towards s until the first coefficient hits zero
            neg = passive & (s <= 0)
            alpha = float(np.min(x[neg] / (x[neg] - s[neg])))
            x += alpha * (s - x)
            passive &= x > tol
            x[~passive] = 0.0
            s = fit()
        x = s
        w = A.T @ (b - A @ x)
    return x, float(np.linalg.norm(A @ x - b))


def _nnls_support(
    cc: ChainCell, target: np.ndarray
) -> tuple[list[int] | None, np.ndarray]:
    """A nonnegative least-squares fit of target by the chain rows: the
    rows it puts weight on, if the fit is exact enough and uses at most
    n_red of them (None otherwise), and its residual target - chain^T x."""
    b = target.astype(np.float64)
    x, resid = _nnls(cc.chain_t, b)
    residual = b - cc.chain_t @ x
    if resid > 1e-7 * max(1.0, float(np.abs(b).max())):
        return None, residual
    support = [int(j) for j in np.flatnonzero(x > 1e-12)]
    return (support if len(support) <= cc.n_red else None), residual


def cone_member(
    cc: ChainCell, target: np.ndarray, residual: np.ndarray
) -> bool | None:
    """False when target provably lies outside the cone of the chain
    rows, None when no proof was found.  This only ever proves
    non-membership: it never returns True.

    The proof is a Farkas vector y with chain @ y >= 0 and target @ y < 0,
    both checked exactly, which no nonnegative combination of the rows
    can satisfy, so any y is sound.  residual = target - chain^T x at a
    nonnegative least-squares optimum x proposes it: there
    chain @ residual <= 0, vanishing on the rows the fit uses, and
    target @ residual = |residual|^2 > 0.  So y is -residual moved into
    the exact kernel of the rows where chain @ residual vanishes in
    floats (the tight rows): least squares over the kernel basis,
    rounded to integers with its largest coefficient at 2^20.  With no
    tight rows y is -residual rounded alike; with no rows at all the
    residual is target itself.
    """
    chain = cc.chain
    C = cc.chain_t.T
    slack = C @ residual
    norms = np.linalg.norm(C, axis=1) * np.linalg.norm(residual)
    tight = np.abs(slack) <= 1e-9 * norms
    if tight.any():
        K = kernel_matrix(chain[tight])
        u = np.linalg.lstsq(K.astype(np.float64), -residual, rcond=None)[0]
    else:
        K = None
        u = -residual
    top = float(np.abs(u).max(initial=0))
    if not 0 < top < np.inf:
        return None
    u = np.rint(u / top * (1 << 20)).astype(np.int64)
    y = u if K is None else exact_product(K, u)
    if (exact_product(chain, y) >= 0).all() and exact_product(target, y) < 0:
        return False
    return None


def _exact_memberships(cc: ChainCell, targets: np.ndarray) -> list[bool | None]:
    """Is each row of targets in the chain cone?  True and False are
    exact answers; None leaves the row open, and is every verdict when
    n_red exceeds _EXACT_LP_DIM.

    Supports repeat heavily across one round, so the loop runs over
    supports, not rows: the first row no support has proved yet
    proposes one by least squares, and once it proves that row it is
    checked against every row still open in one batched solve.  A row
    whose own proposal fails can only be proved outside the cone, by a
    Farkas vector drawn from the residual of that same fit
    (cone_member).
    """
    verdicts: list[bool | None] = [None] * len(targets)
    if cc.n_red > _EXACT_LP_DIM:
        return verdicts
    open_rows = np.ones(len(targets), dtype=bool)
    for head in range(len(targets)):
        if not open_rows[head]:
            continue
        support, residual = _nnls_support(cc, targets[head])
        if support is not None:
            rows = head + np.flatnonzero(open_rows[head:])
            proved = nonnegative_solutions(cc.chain[support], targets[rows])
            if proved[0]:
                for i in rows[proved]:
                    verdicts[i] = True
                open_rows[rows[proved]] = False
                continue
        open_rows[head] = False
        verdicts[head] = cone_member(cc, targets[head], residual)
    return verdicts


def _fast_uniform_certs(
    cc: ChainCell, Hred: np.ndarray, cand: np.ndarray, signs: np.ndarray
) -> bool:
    """Anchor dominance for 0/1 rows of one weight; True when it decided
    the cell: every row of Hred, and every anchor of both sides after
    its sign, is 0/1 of one weight k <= 4.  A row it proves takes its
    candidate sign from cand into signs and leaves cand.

    A row certifies PLUS when its support maps one-to-one onto the
    support of an anchor above zero, each coordinate provably at least
    its image, or when every coordinate is provably above zero (the
    origin as anchor); MINUS mirrors this with the anchors below zero.
    Small k keeps the search to a handful of permutations, for all
    candidate rows at once.

    In a decided cell this finds every certificate _anchored_cert would.
    For 0/1 t and a of weight k, a _decompose_units(t - a) certificate
    gives a bijection: shared coordinates map to themselves, matched
    units c > d to each other, and each unmatched unit above zero pairs
    with an unmatched one below zero (as many, and the closed order
    holds c > d through the origin node).  For a 0/1 row,
    _decompose_units(t) alone is the origin anchor.
    """
    if Hred.dtype == object or Hred.min() < 0 or Hred.max() > 1:
        return False
    weights = Hred.sum(axis=1)
    k = int(weights[0])
    if k < 1 or k > 4 or not (weights == k).all():
        return False
    nr = cc.n_red
    above = np.array(cc.above).reshape(len(cc.above), nr)
    below = -np.array(cc.below).reshape(len(cc.below), nr)
    for A in (above, below):
        if ((A != 0) & (A != 1)).any() or (A.sum(axis=1) != k).any():
            return False
    # at_least[u, v]: x_u >= x_v is proved
    at_least = cc.order | np.eye(nr + 1, dtype=bool)
    perms = np.array(list(permutations(range(k))))
    slots = np.arange(k)
    for sign, A, dominates in ((1, above, at_least), (-1, below, at_least.T)):
        rows = np.flatnonzero(cand == sign)
        idx = np.nonzero(Hred[rows])[1].reshape(rows.size, k)
        # the origin as anchor (node nr, never a row coordinate)
        hits = dominates[idx, nr].all(axis=1)
        for a in np.nonzero(A)[1].reshape(len(A), k):
            if hits.all():
                break
            # D[r, t, s]: row coordinate t dominates anchor coordinate s
            D = dominates[idx[:, :, None], a]
            hits |= D[:, slots, perms].all(axis=2).any(axis=1)
        signs[rows[hits]] = sign
        cand[rows[hits]] = 0
    return True


def infer_set(cell: ChainCell, live: Sequence[int], family: Family) -> InferenceOutcome:
    """Decide every row of family indexed by live against the cell.

    family is the one the cell was built from.  Sample members keep
    their queried labels; the tiers decide the rest.
    """
    sample = cell.sample
    live = np.asarray(live, dtype=np.intp)
    # 2 marks the rows outside the sample
    queried = np.full(len(family), 2, dtype=np.int8)
    queried[sample.ids] = [int(lab) for lab in sample.labels]
    signs = queried[live]
    done = signs != 2
    rest = np.flatnonzero(~done)
    if rest.size:
        rest_signs, rest_done = _decide_rows(cell, family.rows[live[rest]])
        signs[rest] = rest_signs
        done[rest] = rest_done
    return InferenceOutcome(
        SignVector.from_arrays(live[done], signs[done]), live[~done]
    )


def _ray_signs(cc: ChainCell, H: np.ndarray) -> np.ndarray | None:
    """Signs (-1, 0, 1, as int8) of the nonzero reduced rows H over the
    cell, from the exact generators of its closure, or None when they
    outnumber the rows.

    The closure is the cone P = {y : chain y >= 0}.  A row is PLUS on
    the open cell exactly when it vanishes on P's lineality space and is
    nonnegative on every extreme ray: then it is nonnegative on P, and
    positive inside it, since P has an interior and the row is nonzero.
    MINUS mirrors this, and every other row takes both signs, so the
    decision is complete.  A P with no interior cannot hold the hidden
    point strictly inside every chain gap.  Memory stays within a few
    copies of H, however many rays there are.
    """
    gens = cone_generators(cc.chain, len(H))
    if gens is None:
        return None
    L, R, interior = gens
    if not interior:
        raise InconsistentSampleError("the chain gaps leave the cell no interior")
    plus = ~exact_product(H, L).any(axis=1)
    minus = plus.copy()
    # the rays go in blocks of n_red, so no product outgrows H, and a row
    # leaves the products once it has taken both signs
    nr = H.shape[1]
    for start in range(0, R.shape[1], nr):
        rows = np.flatnonzero(plus | minus)
        if not rows.size:
            break
        V = exact_product(H[rows], R[:, start:start + nr])
        plus[rows] &= (V >= 0).all(axis=1)
        minus[rows] &= (V <= 0).all(axis=1)
    return plus.astype(np.int8) - minus


def _decide_rows(cc: ChainCell, Hfull: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs (-1, 0, 1, as int8) of the rows of Hfull over the cell, and
    which of them are settled."""
    Hred = Hfull if cc.KB is None else exact_product(Hfull, cc.KB)
    zero_rows = ~np.any(Hred != 0, axis=1)
    signs = np.zeros(len(Hfull), dtype=np.int8)
    rows = np.flatnonzero(~zero_rows)
    if rows.size and cc.n_red <= _RAY_DIM:
        decided = _ray_signs(cc, Hred[rows])
        if decided is not None:
            signs[rows] = decided
            return signs, zero_rows | (signs != 0)
    # a row of sign 0 at an interior point takes both signs; a proof
    # moves a candidate into signs, and a proof or a Farkas vector ends it
    point = _interior_point(cc) if rows.size else None
    if point is None:
        return signs, zero_rows
    cand = np.sign(exact_product(Hred, point)).astype(np.int8)
    uniform = _fast_uniform_certs(cc, Hred, cand, signs)

    open_rows = np.flatnonzero(cand)
    targets = Hred[open_rows] * cand[open_rows, None]
    for i, verdict in zip(open_rows, _exact_memberships(cc, targets)):
        if verdict is True:
            signs[i] = cand[i]
        if verdict is not None:
            cand[i] = 0
    # in a uniform cell the 0/1 check has found every anchored
    # certificate already
    still = [] if uniform else np.flatnonzero(cand)
    order = cc.order.tolist() if len(still) else []
    for i in still:
        side = int(cand[i])
        anchors = cc.above if side > 0 else cc.below
        if _anchored_cert((Hred[i] * side).tolist(), anchors, order):
            signs[i] = side

    # rows proven outside the cone keep sign 0 and stay undetermined,
    # so they get direct labels
    return signs, zero_rows | (signs != 0)
