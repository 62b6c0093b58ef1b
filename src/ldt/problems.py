"""Concrete decision problems encoded as hyperplane families.

Each encoder lays a problem out as a family of integer hyperplanes and
a hidden point built from the instance values, so that the answer can
be read off the hidden point's sign pattern.  The family is filled in
as one integer matrix; no per-row Vector is built.  Enumerative
encoders refuse inputs past their documented caps before any matrix is
allocated.

The family depends on the instance's shape alone, as in the paper: one
family per n.  So every encoder but zero-triangles (whose family follows
the edge set) keeps its recent shapes (_SHAPES, with the memory they
retain) and hands out the same Family for a repeated shape; only the
hidden point is built per call.  A shared Family then computes its
solve bookkeeping once (Family.first_copies).  The sumset's compared
array is read-only, so no caller can change a kept shape.

Brute-force references live here too; they answer the same questions by
direct enumeration and serve as ground truth everywhere the solver's
output gets checked.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations
from typing import Sequence

import numpy as np

from .geometry import Family, Rational, Vector, parse_rational
from .prng import SplitMix64


class SizeCapError(ValueError):
    """Instance exceeds a documented enumeration cap."""


class InstanceFormatError(ValueError):
    """Instance file or literal could not be parsed."""


class InconsistentPatternError(RuntimeError):
    """A sign pattern that no real point could have produced."""


SUBSET_SUM_CAP = 16
SUMSET_PAIR_CAP = 256
KLDT_TUPLE_CAP = 20000
# about the family size the subset-sum cap allows; 3-SUM is admitted up
# to n=73 (C(73, 3) = 62196)
KSUM_SUBSET_CAP = 1 << 16
# entries (rows x dim) of one family matrix, 64 MiB at 8 bytes each.  The
# row caps bound the matrix of every shape but narrow k-SUM and k-LDT,
# which this caps at 2-SUM n=256, 1-SUM n=2896 and 1-LDT n=2895, and
# zero-triangles, which have no other cap (K_60 is past it); the widest
# shapes the other caps admit, the 1x256 sumset (8,388,480 entries) and
# 3-SUM n=73 (4.5 M), stay under it.
FAMILY_ENTRY_CAP = 1 << 23

# Each encoder keeps the family of its last _SHAPES shapes (the sumset's
# with its compared array), so instances of one shape share them.  An
# entry holds what one instance of its shape allocates anyway: the rows
# at 8 bytes an entry and the family's first_copies at up to 16 bytes a
# row.  At the caps an entry takes 9.4 MB for subset-sum n=16, 9.4 MB for
# a 16x16 sumset (68 MB at 1x256), 37 MB for 3-SUM n=73 and 14 MB for
# 3-LDT n=28, so the four caches retain at most 4 * _SHAPES such entries:
# about 515 MB for these shapes.  FAMILY_ENTRY_CAP bounds the wider
# families a smaller k admits (2-SUM n=256: 67 MB an entry, measured with
# tracemalloc).
_SHAPES = 4


@dataclass
class Encoding:
    """A problem instance mapped onto a hyperplane family."""

    kind: str
    dim: int
    family: Family
    hidden: Vector
    meta: dict = field(default_factory=dict)


def _check_entries(rows: int, dim: int) -> None:
    if rows * dim > FAMILY_ENTRY_CAP:
        raise SizeCapError(
            f"a {rows} x {dim} family matrix exceeds cap {FAMILY_ENTRY_CAP} entries"
        )


def _as_rationals(values: Sequence[Rational | int]) -> list[Fraction]:
    return [Fraction(v) for v in values]


def encode_ksum(values: Sequence[Rational | int], k: int) -> Encoding:
    """Does some k-subset of the values sum to zero?"""
    vals = _as_rationals(values)
    n = len(vals)
    if n == 0:
        raise InstanceFormatError("no values given")
    if not 1 <= k <= n:
        raise InstanceFormatError(f"k={k} out of range for {n} values")
    count = math.comb(n, k)
    if count > KSUM_SUBSET_CAP:
        raise SizeCapError(
            f"{count} {k}-subsets of {n} values exceed cap {KSUM_SUBSET_CAP}"
        )
    _check_entries(count, n)
    return Encoding(
        kind="ksum",
        dim=n,
        family=_ksum_shape(n, k),
        hidden=Vector(vals),
        meta={"k": k},
    )


@lru_cache(maxsize=_SHAPES)
def _ksum_shape(n: int, k: int) -> Family:
    cols = np.fromiter(chain.from_iterable(combinations(range(n), k)), dtype=np.intp)
    count = len(cols) // k
    rows = np.zeros((count, n), dtype=np.int64)
    rows[np.arange(count)[:, None], cols.reshape(count, k)] = 1
    return Family(rows)


def encode_subset_sum(values: Sequence[Rational | int]) -> Encoding:
    """Does some nonempty subset of the values sum to zero?"""
    vals = _as_rationals(values)
    n = len(vals)
    if n == 0:
        raise InstanceFormatError("no values given")
    if n > SUBSET_SUM_CAP:
        raise SizeCapError(
            f"subset-sum enumerates 2^n-1 hyperplanes; n={n} exceeds cap {SUBSET_SUM_CAP}"
        )
    return Encoding(
        kind="subsetsum",
        dim=n,
        family=_subset_sum_shape(n),
        hidden=Vector(vals),
    )


@lru_cache(maxsize=_SHAPES)
def _subset_sum_shape(n: int) -> Family:
    # row mask - 1 holds the bits of mask: it is the subset itself
    return Family((np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1)


def encode_sort_sumset(
    a_values: Sequence[Rational | int],
    b_values: Sequence[Rational | int],
) -> Encoding:
    """Sort the pairwise sums a_i + b_j without looking at the values.

    One hyperplane per unordered pair of distinct (i, j) index pairs,
    including pairs sharing a row or a column: row and column repeats
    are exactly the comparisons that separate instances whose sumsets
    interleave differently, so they cannot be dropped.
    """
    avals = _as_rationals(a_values)
    bvals = _as_rationals(b_values)
    na, nb = len(avals), len(bvals)
    if na == 0 or nb == 0:
        raise InstanceFormatError("both value lists must be nonempty")
    if na * nb > SUMSET_PAIR_CAP:
        raise SizeCapError(
            "sumset sorting enumerates pair comparisons; "
            f"{na}x{nb} exceeds cap {SUMSET_PAIR_CAP}"
        )
    family, compared = _sumset_shape(na, nb)
    return Encoding(
        kind="sortsumset",
        dim=na + nb,
        family=family,
        hidden=Vector(avals + bvals),
        meta={"compared": compared, "na": na, "nb": nb},
    )


@lru_cache(maxsize=_SHAPES)
def _sumset_shape(na: int, nb: int) -> tuple[Family, np.ndarray]:
    # pair index p stands for (i, j) = divmod(p, nb); one row per pair
    # p < q, in combinations order: (a_i + b_j) - (a_k + b_l) for
    # p = (i, j) and q = (k, l)
    p, q = np.triu_indices(na * nb, 1)
    compared = np.stack([p, q], axis=1)
    compared.flags.writeable = False
    rows = np.zeros((len(p), na + nb), dtype=np.int64)
    r = np.arange(len(p))
    rows[r, p // nb] += 1
    rows[r, q // nb] -= 1
    rows[r, na + p % nb] += 1
    rows[r, na + q % nb] -= 1
    return Family(rows), compared


def encode_kldt(
    alphas: Sequence[Rational | int],
    values: Sequence[Rational | int],
) -> Encoding:
    """Does phi(a_{j1},..,a_{jk}) = alpha_0 + sum alpha_t a_{jt} vanish
    on any tuple of pairwise distinct indices?

    The hidden point carries alpha_0 and every product alpha_t * a_i,
    so each tuple becomes a 0/1 hyperplane with a constant-term slot.
    """
    alph = _as_rationals(alphas)
    vals = _as_rationals(values)
    if len(alph) < 2:
        raise InstanceFormatError("need alpha_0 and at least one coefficient")
    k = len(alph) - 1
    n = len(vals)
    count = math.perm(n, k) if n >= k else 0
    if count > KLDT_TUPLE_CAP:
        raise SizeCapError(
            f"{count} index tuples exceed cap {KLDT_TUPLE_CAP} for k={k}, n={n}"
        )
    dim = 1 + n * k
    _check_entries(count, dim)
    hidden = [alph[0]]
    for t in range(1, k + 1):
        hidden.extend(alph[t] * a for a in vals)
    return Encoding(
        kind="kldt",
        dim=dim,
        family=_kldt_shape(n, k),
        hidden=Vector(hidden),
        meta={"k": k, "n": n},
    )


@lru_cache(maxsize=_SHAPES)
def _kldt_shape(n: int, k: int) -> Family:
    tuples = tuple(permutations(range(n), k))
    rows = np.zeros((len(tuples), 1 + n * k), dtype=np.int64)
    rows[:, 0] = 1
    if tuples:
        # slot t of index j sits at 1 + t * n + j
        slots = 1 + np.arange(k) * n + np.array(tuples)
        rows[np.arange(len(tuples))[:, None], slots] = 1
    return Family(rows)


def encode_zero_triangles(
    n_vertices: int, edges: Sequence[tuple[int, int, Rational | int]]
) -> Encoding:
    """Does some triangle have edge weights summing to zero?

    Vertices are 1-based; each edge is (u, v, weight).  The hidden
    point is the weight vector, one coordinate per edge.
    """
    if n_vertices < 1:
        raise InstanceFormatError("need at least one vertex")
    index: dict[tuple[int, int], int] = {}
    weights: list[Fraction] = []
    for u, v, wt in edges:
        if not (1 <= u <= n_vertices and 1 <= v <= n_vertices) or u == v:
            raise InstanceFormatError(f"bad edge ({u}, {v})")
        key = (min(u, v), max(u, v))
        if key in index:
            raise InstanceFormatError(f"duplicate edge {key}")
        index[key] = len(weights)
        weights.append(Fraction(wt))
    # upper[u] holds u's neighbours above u: the triangles u < v < w on
    # the edge (u, v) are the common upper neighbours w of u and v, so
    # one set intersection per edge counts them, then lists them in
    # (u, v, w) order, and no loop runs over the vertex triples
    upper: defaultdict[int, set[int]] = defaultdict(set)
    for u, v in index:
        upper[u].add(v)
    ordered = sorted(index)
    count = sum(len(upper[u] & upper[v]) for u, v in ordered)
    _check_entries(count, len(weights))
    edge_ids = [
        (index[(u, v)], index[(u, w)], index[(v, w)])
        for u, v in ordered
        for w in sorted(upper[u] & upper[v])
    ]
    rows = np.zeros((count, len(weights)), dtype=np.int64)
    if edge_ids:
        rows[np.arange(count)[:, None], np.array(edge_ids)] = 1
    return Encoding(
        kind="triangles",
        dim=len(weights),
        family=Family(rows),
        hidden=Vector(weights),
    )


def extract_answer(enc: Encoding, pattern: np.ndarray):
    """Read the problem's answer off a full sign pattern.

    pattern holds one sign (-1, 0 or 1) per family row, in row order;
    any other length raises ValueError.  Decision problems answer the
    bool True when any hyperplane vanishes.  The ordering problem
    rebuilds the sorted groups of pairwise sums and cross-checks every
    comparison for consistency first; a pattern no point could produce
    raises instead of returning garbage.
    """
    signs = np.asarray(pattern)
    if signs.shape != (len(enc.family),):
        raise ValueError(f"pattern of shape {signs.shape} for {len(enc.family)} rows")
    if enc.kind != "sortsumset":
        return not signs.all()
    nb = enc.meta["nb"]
    p, q = enc.meta["compared"].T
    m = enc.meta["na"] * nb
    # cmp[p, q] is the sign of sum_p - sum_q
    cmp = np.zeros((m, m), dtype=np.int8)
    cmp[p, q] = signs
    cmp[q, p] = -signs
    rank = (cmp > 0).sum(axis=1)
    order = np.argsort(rank, kind="stable")
    ranks = rank[order]
    starts = np.flatnonzero(ranks[1:] != ranks[:-1]) + 1
    group = np.zeros(m, dtype=np.int64)
    group[starts] = 1
    group = np.cumsum(group)
    # consistent exactly when ties sit in one group and every earlier
    # group lies below every later one; the ranks then tile the order
    want = np.sign(group[:, None] - group[None, :])
    if not np.array_equal(cmp[np.ix_(order, order)], want):
        raise InconsistentPatternError("pattern orders the pairwise sums inconsistently")
    return [
        sorted((i + 1, j + 1) for i, j in (divmod(p, nb) for p in g.tolist()))
        for g in np.split(order, starts)
    ]


def brute_ksum(values: Sequence[Rational | int], k: int) -> bool:
    vals = _as_rationals(values)
    return any(sum(c) == 0 for c in combinations(vals, k))


def brute_subset_sum(values: Sequence[Rational | int]) -> bool:
    vals = _as_rationals(values)
    n = len(vals)
    for mask in range(1, 1 << n):
        total = Fraction(0)
        for i in range(n):
            if (mask >> i) & 1:
                total += vals[i]
        if total == 0:
            return True
    return False


def brute_sumset_order(
    a_values: Sequence[Rational | int], b_values: Sequence[Rational | int]
) -> list[list[tuple[int, int]]]:
    avals = _as_rationals(a_values)
    bvals = _as_rationals(b_values)
    sums: dict[Fraction, list[tuple[int, int]]] = {}
    for i, a in enumerate(avals):
        for j, b in enumerate(bvals):
            sums.setdefault(a + b, []).append((i + 1, j + 1))
    return [sorted(sums[s]) for s in sorted(sums)]


def brute_kldt(
    alphas: Sequence[Rational | int], values: Sequence[Rational | int]
) -> bool:
    alph = _as_rationals(alphas)
    vals = _as_rationals(values)
    k = len(alph) - 1
    for tup in permutations(range(len(vals)), k):
        total = alph[0]
        for t, j in enumerate(tup):
            total += alph[t + 1] * vals[j]
        if total == 0:
            return True
    return False


def brute_zero_triangles(
    n_vertices: int, edges: Sequence[tuple[int, int, Rational | int]]
) -> bool:
    index = {}
    weights = []
    for u, v, wt in edges:
        index[(min(u, v), max(u, v))] = len(weights)
        weights.append(Fraction(wt))
    for u, v, w in combinations(range(1, n_vertices + 1), 3):
        ids = [index.get((u, v)), index.get((u, w)), index.get((v, w))]
        if None in ids:
            continue
        if sum(weights[e] for e in ids) == 0:
            return True
    return False


def random_values(rng: SplitMix64, n: int, bound: int | None = None) -> list[int]:
    """Uniform integers in [-bound, bound], default bound 10n."""
    b = bound if bound is not None else 10 * n
    return [rng.randint(-b, b) for _ in range(n)]


def random_ksum_instance(
    rng: SplitMix64, n: int, k: int, planted: bool, bound: int | None = None
) -> list[int]:
    """Planted instances force one zero k-subset; generic ones are raw
    draws whose answer is whatever it happens to be.  A wide bound
    makes raw draws overwhelmingly negative."""
    vals = random_values(rng, n, bound)
    if planted:
        picks = rng.sample_indices(n, k)
        vals[picks[-1]] = -sum(vals[i] for i in picks[:-1])
    return vals


def random_subset_sum_instance(
    rng: SplitMix64, n: int, planted: bool, bound: int | None = None
) -> list[int]:
    vals = random_values(rng, n, bound)
    if planted:
        size = min(n, 2 + rng.below(max(1, n - 1)))
        picks = rng.sample_indices(n, size)
        vals[picks[-1]] = -sum(vals[i] for i in picks[:-1])
    return vals


def random_sumset_instance(
    rng: SplitMix64, na: int, nb: int
) -> tuple[list[int], list[int]]:
    return random_values(rng, na), random_values(rng, nb)


def random_kldt_instance(
    rng: SplitMix64, n: int, k: int, planted: bool
) -> tuple[list[int], list[int]]:
    alphas = [rng.randint(-10 * n, 10 * n)]
    alphas.extend(
        (1 if rng.below(2) else -1) * (1 + rng.below(5)) for _ in range(k)
    )
    vals = random_values(rng, n)
    if planted:
        # a unit coefficient keeps the planted value an integer
        alphas[k] = 1 if alphas[k] > 0 else -1
        picks = rng.sample_indices(n, k)
        partial = alphas[0] + sum(
            alphas[t + 1] * vals[j] for t, j in enumerate(picks[:-1])
        )
        vals[picks[-1]] = -partial * alphas[k]
    return alphas, vals


def random_triangles_instance(
    rng: SplitMix64, n_vertices: int, planted: bool
) -> tuple[int, list[tuple[int, int, int]]]:
    bound = 10 * n_vertices
    for _ in range(1000):
        edges: list[list[int]] = []
        present: dict[tuple[int, int], int] = {}
        for u, v in combinations(range(1, n_vertices + 1), 2):
            if rng.below(2):
                present[(u, v)] = len(edges)
                edges.append([u, v, rng.randint(-bound, bound)])
        if planted:
            tris = [
                (u, v, w)
                for u, v, w in combinations(range(1, n_vertices + 1), 3)
                if (u, v) in present and (u, w) in present and (v, w) in present
            ]
            if not tris:
                continue
            u, v, w = tris[rng.below(len(tris))]
            e1, e2, e3 = present[(u, v)], present[(u, w)], present[(v, w)]
            edges[e3][2] = -(edges[e1][2] + edges[e2][2])
        return n_vertices, [(u, v, wt) for u, v, wt in edges]
    raise RuntimeError("graph sampling never produced a triangle to plant")


def parse_value_line(text: str) -> list[Fraction]:
    """Whitespace separated rationals; newlines count as whitespace."""
    tokens = text.split()
    if not tokens:
        raise InstanceFormatError("no values found")
    try:
        return [parse_rational(t) for t in tokens]
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def parse_two_line_instance(text: str) -> tuple[list[Fraction], list[Fraction]]:
    """Two nonempty lines of rationals (first list, second list)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise InstanceFormatError(
            f"expected exactly two nonempty lines, found {len(lines)}"
        )
    return parse_value_line(lines[0]), parse_value_line(lines[1])


def parse_triangle_instance(
    text: str,
) -> tuple[int, list[tuple[int, int, Fraction]]]:
    """First line the vertex count, then one 'u v weight' line per edge."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InstanceFormatError("empty instance")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise InstanceFormatError("first line must be the vertex count") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise InstanceFormatError(f"edge line needs 'u v weight': {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), parse_rational(parts[2])))
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from None
    return n, edges
