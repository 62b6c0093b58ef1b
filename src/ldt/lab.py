"""Small-scale instruments that verify the solver's machinery
independently.

Everything here favours transparency over speed: feasibility by
Fourier-Motzkin elimination rather than the simplex, cell counts by
exhaustive subspace recursion, inference dimension by brute force over
all samples and all cells.  The caps are tight on purpose; these are
desk-checking tools, not production paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .geometry import Family, Sign, Vector, sign_of
from .inference import SortedSample
from .lp import HomogeneousSystem, RationalCell, feasible, infer_sign, interior_witness
from .problems import SizeCapError
from .prng import SplitMix64
from .solver import cell_from_sample, infer_set

FM_DIM_CAP = 4
FM_ROW_CAP = 10
CELL_DIM_CAP = 3
CELL_FAMILY_CAP = 8
INFDIM_FAMILY_CAP = 10

_GT = 0
_GE = 1
_EQ = 2


def _normalize(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        return tuple(coeffs)
    scale = Fraction(1) / abs(lead)
    return tuple(c * scale for c in coeffs)


def fm_feasible(system: HomogeneousSystem) -> bool:
    """Strict-aware Fourier-Motzkin feasibility for tiny systems.

    Equalities substitute a variable away, then each variable in turn
    is projected out by combining positive and negative rows; a
    combination inherits strictness from either parent.  A surviving
    all-zero strict row reads 0 > 0 and settles infeasibility.
    """
    if system.dim > FM_DIM_CAP:
        raise SizeCapError(f"dimension {system.dim} exceeds cap {FM_DIM_CAP}")
    if system.size > FM_ROW_CAP:
        raise SizeCapError(f"{system.size} rows exceed cap {FM_ROW_CAP}")
    rows: list[tuple[list[Fraction], int]] = []
    for v in system.strict:
        rows.append(([Fraction(c) for c in v.coords], _GT))
    for v in system.weak:
        rows.append(([Fraction(c) for c in v.coords], _GE))
    for v in system.equalities:
        rows.append(([Fraction(c) for c in v.coords], _EQ))

    def sweep(rows: list[tuple[list[Fraction], int]]) -> list | None:
        """Drop trivial rows; None means a strict row became 0 > 0."""
        out = []
        seen = set()
        for co, rel in rows:
            if not any(co):
                if rel == _GT:
                    return None
                continue
            key = (_normalize(co), rel)
            if key not in seen:
                seen.add(key)
                out.append((co, rel))
        return out

    for var in range(system.dim - 1, -1, -1):
        cleaned = sweep(rows)
        if cleaned is None:
            return False
        rows = cleaned
        pivot = next(
            (idx for idx, (co, rel) in enumerate(rows) if rel == _EQ and co[var]),
            None,
        )
        if pivot is not None:
            pco, _ = rows[pivot]
            nxt = []
            for idx, (co, rel) in enumerate(rows):
                if idx == pivot:
                    continue
                if co[var]:
                    f = co[var] / pco[var]
                    co = [a - f * b for a, b in zip(co, pco)]
                nxt.append((co, rel))
            rows = nxt
            continue
        pos = [(co, rel) for co, rel in rows if co[var] > 0]
        neg = [(co, rel) for co, rel in rows if co[var] < 0]
        keep = [(co, rel) for co, rel in rows if not co[var]]
        for pco, prel in pos:
            for nco, nrel in neg:
                combo = [
                    a * (-nco[var]) + b * pco[var] for a, b in zip(pco, nco)
                ]
                rel = _GT if _GT in (prel, nrel) else _GE
                keep.append((combo, rel))
        rows = keep
        if len(rows) > 100_000:
            raise RuntimeError("elimination exploded past any sane size")
    cleaned = sweep(rows)
    return cleaned is not None


@dataclass
class CellEnumeration:
    """All sign patterns of an arrangement, witnessed."""

    count: int
    patterns: list[tuple[Sign, ...]]
    witnesses: list[Vector]
    exact: bool


def _rref(rows: list[Vector], dim: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals: its rows, each 1 at
    its pivot, and their pivot columns, in the order they were found."""
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for v in rows:
        row = [Fraction(c) for c in v.coords]
        for b, p in zip(basis, pivots):
            if row[p]:
                f = row[p]
                row = [a - f * bb for a, bb in zip(row, b)]
        lead = next((j for j in range(dim) if row[j]), None)
        if lead is None:
            continue
        inv = Fraction(1) / row[lead]
        row = [a * inv for a in row]
        for b, p in zip(basis, pivots):
            if b[lead]:
                f = b[lead]
                b[:] = [a - f * rr for a, rr in zip(b, row)]
        basis.append(row)
        pivots.append(lead)
    return basis, pivots


def _rref_key(rows: list[Vector], dim: int) -> tuple:
    basis, pivots = _rref(rows, dim)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return tuple(tuple(basis[i]) for i in order)


def _kernel_cols(rows: list[Vector], dim: int) -> list[list[Fraction]]:
    basis, pivots = _rref(rows, dim)
    cols = []
    for f in range(dim):
        if f in pivots:
            continue
        col = [Fraction(0)] * dim
        col[f] = Fraction(1)
        for row, p in zip(basis, pivots):
            col[p] = -row[f]
        cols.append(col)
    return cols


def _open_cells(
    rows: list[Vector], dim: int
) -> list[tuple[tuple[Sign, ...], Vector]]:
    """Open cells of a strict arrangement, each with an interior witness."""
    states: list[tuple[list[Sign], list[Vector], Vector]] = [
        ([], [], Vector.zero(dim))
    ]
    for r in rows:
        nxt = []
        for pattern, constraints, wit in states:
            s = sign_of(r.dot(wit))
            for cand in (Sign.PLUS, Sign.MINUS):
                row = r if cand is Sign.PLUS else -r
                if s is cand:
                    nxt.append((pattern + [cand], constraints + [row], wit))
                    continue
                w2 = interior_witness(
                    HomogeneousSystem(dim, strict=tuple(constraints + [row]))
                )
                if w2 is not None:
                    nxt.append((pattern + [cand], constraints + [row], w2))
        states = nxt
    return [(tuple(p), w) for p, _, w in states]


def _enumerate_exact(family: Sequence[Vector], dim: int) -> CellEnumeration:
    seen: dict[tuple, list[Vector]] = {_rref_key([], dim): []}
    queue = [[]]
    while queue:
        span_rows = queue.pop()
        for h in family:
            cand = span_rows + [h]
            key = _rref_key(cand, dim)
            if key not in seen:
                seen[key] = cand
                queue.append(cand)
    patterns: list[tuple[Sign, ...]] = []
    witnesses: list[Vector] = []
    for span_rows in seen.values():
        key = _rref_key(span_rows, dim)
        zero_ids = []
        live_ids = []
        for i, h in enumerate(family):
            if _rref_key(span_rows + [h], dim) == key:
                zero_ids.append(i)
            else:
                live_ids.append(i)
        cols = _kernel_cols(span_rows, dim)
        k = len(cols)
        if k == 0:
            # the span is everything; only the origin remains, and it
            # belongs here exactly when no row stays live
            if not live_ids:
                patterns.append(tuple([Sign.ZERO] * len(family)))
                witnesses.append(Vector.zero(dim))
            continue
        reduced = [
            Vector(
                [
                    sum(
                        Fraction(c) * col[j]
                        for j, c in enumerate(family[i].coords)
                    )
                    for col in cols
                ]
            )
            for i in live_ids
        ]
        for sub_pattern, sub_wit in _open_cells(reduced, k):
            full = [Sign.ZERO] * len(family)
            for pos, i in enumerate(live_ids):
                full[i] = sub_pattern[pos]
            lifted = Vector(
                [
                    sum(col[j] * w for col, w in zip(cols, sub_wit.coords))
                    for j in range(dim)
                ]
            )
            for i in range(len(family)):
                assert sign_of(family[i].dot(lifted)) is full[i]
            patterns.append(tuple(full))
            witnesses.append(lifted)
    return CellEnumeration(len(patterns), patterns, witnesses, exact=True)


def enumerate_cells(family: Sequence[Vector]) -> CellEnumeration:
    """Every sign pattern the family can realize, by exhaustion.

    Patterns group by their zero set: each span of a subfamily
    contributes the open cells of the remaining rows restricted to its
    kernel.  Every pattern is counted once and returned with an exact
    witness point.
    """
    family = list(family)
    if not family:
        raise ValueError("family must be nonempty")
    dim = family[0].dim
    if dim > CELL_DIM_CAP:
        raise SizeCapError(f"dimension {dim} exceeds cap {CELL_DIM_CAP}")
    if len(family) > CELL_FAMILY_CAP:
        raise SizeCapError(
            f"{len(family)} hyperplanes exceed cap {CELL_FAMILY_CAP}"
        )
    return _enumerate_exact(family, dim)


def sample_cell_patterns(
    family: Sequence[Vector], trials: int, seed: int = 0
) -> CellEnumeration:
    """Distinct sign patterns hit by random rational points.

    A lower bound on the true count; the exact flag comes back False.
    """
    family = list(family)
    if not family:
        raise ValueError("family must be nonempty")
    dim = family[0].dim
    rng = SplitMix64(seed)
    found: dict[tuple[Sign, ...], Vector] = {}
    for _ in range(trials):
        x = Vector(
            [
                Fraction(rng.randint(-997, 997), 1 + rng.below(997))
                for _ in range(dim)
            ]
        )
        pat = tuple(sign_of(h.dot(x)) for h in family)
        found.setdefault(pat, x)
    patterns = list(found.keys())
    return CellEnumeration(len(patterns), patterns, list(found.values()), exact=False)


def sample_at(ids: Sequence[int], family: Family, x: Vector) -> SortedSample:
    """Synthetic sorted sample of the rows of family indexed by ids,
    evaluated directly at a known point.

    Lab-side substitute for oracle queries when the point is public.
    """
    ids = list(ids)
    values = [family[i].dot(x) for i in ids]
    labels = [sign_of(val) for val in values]
    order = sorted(range(len(ids)), key=values.__getitem__)
    starts = [
        k for k in range(len(order))
        if not k or values[order[k]] != values[order[k - 1]]
    ]
    return SortedSample(ids, labels, order, starts)


def inference_dimension_exact(family: Sequence[Vector], d: int) -> bool:
    """Check by exhaustion that d witnesses the inference dimension.

    True when every size-d sample, in every cell of its own extended
    arrangement, contains a member whose sign the rest of the sample
    already pins down.  One failing pair refutes d.
    """
    family = list(family)
    if not family:
        raise ValueError("family must be nonempty")
    dim = family[0].dim
    if len(family) > INFDIM_FAMILY_CAP:
        raise SizeCapError(
            f"{len(family)} hyperplanes exceed cap {INFDIM_FAMILY_CAP}"
        )
    if dim > CELL_DIM_CAP:
        raise SizeCapError(f"dimension {dim} exceeds cap {CELL_DIM_CAP}")
    if not 1 <= d <= len(family):
        raise ValueError("d out of range")
    for subset in combinations(range(len(family)), d):
        svecs = [family[i] for i in subset]
        sfam = Family.of(svecs)
        extended = list(svecs)
        seen = {v.coords for v in extended}
        for a, b in combinations(range(d), 2):
            for diff in (svecs[a] - svecs[b], svecs[b] - svecs[a]):
                if not diff.is_zero() and diff.coords not in seen:
                    seen.add(diff.coords)
                    extended.append(diff)
        cells = _enumerate_exact(extended, dim)
        for witness in cells.witnesses:
            ok = False
            for drop in range(d):
                rest = [i for i in range(d) if i != drop]
                if not rest:
                    if svecs[drop].is_zero():
                        ok = True
                        break
                    continue
                cell = RationalCell(sample_at(rest, sfam, witness), sfam)
                if infer_sign(cell, svecs[drop]) is not None:
                    ok = True
                    break
            if not ok:
                return False
    return True


def minimal_inference_dimension(
    family: Sequence[Vector], d_max: int | None = None
) -> int | None:
    """Smallest d passing the exhaustive check, None if none does."""
    limit = d_max if d_max is not None else len(list(family))
    for d in range(1, limit + 1):
        if inference_dimension_exact(family, d):
            return d
    return None


def find_signed_collision(ordered: Sequence[Vector]) -> list[int] | None:
    """Signed {-1,0,+1} combination of consecutive gaps summing to zero.

    Meet in the middle over the gap coefficients: enumerate one half,
    hash the partial sums, then scan the other half for the negation.
    Cost grows as 3^(m/2), so the cap holds m near two dozen.
    """
    ordered = list(ordered)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    m = len(gaps)
    if m == 0:
        return None
    for i, g in enumerate(gaps):
        if g.is_zero():
            alpha = [0] * m
            alpha[i] = 1
            return alpha
    half = m // 2
    if 3**half > 700_000 or 3 ** (m - half) > 5_000_000:
        raise SizeCapError(f"{m} gaps exceed the meet-in-the-middle budget")
    dim = ordered[0].dim
    zero_key = tuple([Fraction(0)] * dim)
    table: dict[tuple, tuple[int, ...]] = {}
    for combo in product((-1, 0, 1), repeat=half):
        total = [Fraction(0)] * dim
        for c, g in zip(combo, gaps):
            if c:
                for j, gc in enumerate(g.coords):
                    total[j] += c * gc
        key = tuple(total)
        if key not in table or (
            key == zero_key and not any(table[key]) and any(combo)
        ):
            table[key] = combo
    for combo in product((-1, 0, 1), repeat=m - half):
        total = [Fraction(0)] * dim
        for c, g in zip(combo, gaps[half:]):
            if c:
                for j, gc in enumerate(g.coords):
                    total[j] += c * gc
        key = tuple(-t for t in total)
        hit = table.get(key)
        if hit is not None and (any(hit) or any(combo)):
            return list(hit) + list(combo)
    return None


def cone_certificate(
    ordered: Sequence[Vector], alpha: Sequence[int]
) -> tuple[int, list[int]]:
    """Turn a signed gap collision into a nonnegative cone witness.

    With p the last nonzero coefficient flipped to -1, adding the
    all-ones combination telescopes into h_{p+1} - h_0 as a sum of
    earlier gaps with coefficients alpha_i + 1 in {0, 1, 2}.  Returns
    (p, those coefficients), verified exactly before returning.
    """
    ordered = list(ordered)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    alpha = list(alpha)
    if len(alpha) != len(gaps):
        raise ValueError("coefficient count must match gap count")
    if any(c not in (-1, 0, 1) for c in alpha):
        raise ValueError("coefficients must be in {-1, 0, +1}")
    if not any(alpha):
        raise ValueError("all-zero combination certifies nothing")
    total = Vector.zero(ordered[0].dim)
    for c, g in zip(alpha, gaps):
        if c:
            total = total + g.scaled(c)
    if not total.is_zero():
        raise ValueError("not a collision: gaps do not cancel")
    p = max(i for i, c in enumerate(alpha) if c)
    if alpha[p] == 1:
        alpha = [-c for c in alpha]
    coeffs = [alpha[i] + 1 for i in range(p)]
    check = Vector.zero(ordered[0].dim)
    for c, g in zip(coeffs, gaps):
        if c:
            check = check + g.scaled(c)
    if check != ordered[p + 1] - ordered[0]:
        raise AssertionError("telescoped certificate failed to verify")
    return p, coeffs


def check_ordering_count(
    vectors: Sequence[Vector], trials: int, seed: int = 0
) -> tuple[int, int, bool]:
    """Distinct value-orderings seen at random points, against the
    polynomial ceiling (2e m^2)^n.

    The ceiling uses 5436/1000 below 2e, so a pass here implies a pass
    against the true constant.
    """
    vectors = list(vectors)
    m = len(vectors)
    if m == 0:
        raise ValueError("need at least one vector")
    n = vectors[0].dim
    bound_frac = (Fraction(5436, 1000) * m * m) ** n
    bound = bound_frac.numerator // bound_frac.denominator
    rng = SplitMix64(seed)
    seen: set[tuple[int, ...]] = set()
    for _ in range(trials):
        x = Vector(
            [
                Fraction(rng.randint(-997, 997), 1 + rng.below(997))
                for _ in range(n)
            ]
        )
        values = [v.dot(x) for v in vectors]
        ranks = sorted(set(values))
        level = {val: r for r, val in enumerate(ranks)}
        seen.add(tuple(level[val] for val in values))
    observed = len(seen)
    return observed, bound, observed <= bound


def crosscheck_feasibility(trials: int, seed: int = 0) -> tuple[int, int]:
    """Random tiny systems through both feasibility deciders.

    Returns (agreements, trials); anything but equality is a bug in one
    of two fully independent implementations.
    """
    rng = SplitMix64(seed)
    agreements = 0
    for _ in range(trials):
        dim = 1 + rng.below(3)

        def rand_vec() -> Vector:
            return Vector([rng.randint(-2, 2) for _ in range(dim)])

        system = HomogeneousSystem(
            dim,
            strict=tuple(rand_vec() for _ in range(rng.below(3))),
            weak=tuple(rand_vec() for _ in range(rng.below(3))),
            equalities=tuple(rand_vec() for _ in range(rng.below(2))),
        )
        if feasible(system) == fm_feasible(system):
            agreements += 1
    return agreements, trials


def crosscheck_inference(trials: int, seed: int = 0) -> tuple[int, int]:
    """Batched inference versus Fourier-Motzkin, one cell at a time.

    Each trial builds a random cell from a synthetic sample, then asks
    for every hyperplane's sign three ways: the production infer_set,
    the per-hyperplane simplex route, and sign elimination by
    Fourier-Motzkin.  Returns (agreements, trials).
    """
    rng = SplitMix64(seed)
    agreements = 0
    for _ in range(trials):
        dim = 1 + rng.below(3)

        def rand_nonzero() -> Vector:
            while True:
                v = Vector([rng.randint(-2, 2) for _ in range(dim)])
                if not v.is_zero():
                    return v

        m = 3 + rng.below(4)
        family = [rand_nonzero() for _ in range(m)]
        x = Vector(
            [Fraction(rng.randint(-9, 9), 1 + rng.below(9)) for _ in range(dim)]
        )
        size = min(m, 2 + rng.below(3))
        rows = Family.of(family)
        sample = sample_at(range(size), rows, x)
        outcome = infer_set(cell_from_sample(sample, rows), range(m), rows)
        ref = RationalCell(sample, rows)

        good = True
        for i, h in enumerate(family):
            base = ref.constraints
            can_plus = fm_feasible(base.augmented(strict=[h]))
            can_minus = fm_feasible(base.augmented(strict=[-h]))
            can_zero = fm_feasible(base.augmented(equalities=[h]))
            achievable = [
                s
                for s, can in (
                    (Sign.PLUS, can_plus),
                    (Sign.MINUS, can_minus),
                    (Sign.ZERO, can_zero),
                )
                if can
            ]
            expected = achievable[0] if len(achievable) == 1 else None
            fast = outcome.inferred.get(i)
            slow = infer_sign(ref, h)
            if fast != expected or slow != expected:
                good = False
        if good:
            agreements += 1
    return agreements, trials
