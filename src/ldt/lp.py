"""Exact rational feasibility for homogeneous sign systems.

A system holds strict rows (<v,x> > 0), weak rows (<v,x> >= 0) and
equality rows (<v,x> = 0) over one dimension.  Feasibility is decided
by maximising a slack t with <v,x> >= t on every strict row inside the
box -1 <= x_j <= 1; the system is feasible exactly when the optimum is
positive.  All pivoting is exact rational simplex with Bland's rule, so
termination and soundness are unconditional.

On top of it sits the Fraction reference for sign inference, which the
tests and lab cross-check the batched engine against; no solve runs
it.  RationalCell holds the cell a sorted sample pins down as one
system, reading the members' Vectors from the family their ids index:
one row per member label, one per consecutive sorted pair.
Transitivity makes this exact: every pairwise comparison inside the
sample is a nonnegative combination of consecutive gaps, so the
reduced system carves the same cell as the full quadratic one.
infer_sign decides one hyperplane against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .geometry import Family, Vector, sign_of

if TYPE_CHECKING:
    from .inference import SortedSample

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class HomogeneousSystem:
    """Conjunction of strict, weak and equality constraints through the origin."""

    dim: int
    strict: tuple[Vector, ...] = ()
    weak: tuple[Vector, ...] = ()
    equalities: tuple[Vector, ...] = ()

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        for group in (self.strict, self.weak, self.equalities):
            for v in group:
                if v.dim != self.dim:
                    raise ValueError(
                        f"row dimension {v.dim} does not match system dimension {self.dim}"
                    )

    def augmented(
        self,
        strict: Sequence[Vector] = (),
        weak: Sequence[Vector] = (),
        equalities: Sequence[Vector] = (),
    ) -> "HomogeneousSystem":
        return HomogeneousSystem(
            self.dim,
            self.strict + tuple(strict),
            self.weak + tuple(weak),
            self.equalities + tuple(equalities),
        )

    @property
    def size(self) -> int:
        return len(self.strict) + len(self.weak) + len(self.equalities)


class _Tableau:
    """Dense exact simplex on min c.z s.t. Az = b, z >= 0 with Bland's rule."""

    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction]) -> None:
        self.n = len(rows[0]) if rows else 0
        self.m = len(rows)
        self.rows: list[list[Fraction]] = []
        for row, b in zip(rows, rhs):
            if b < 0:
                self.rows.append([-x for x in row] + [-b])
            else:
                self.rows.append(list(row) + [b])
        # one artificial per row forms the starting basis
        total = self.n + self.m
        for i, row in enumerate(self.rows):
            art = [_ZERO] * self.m
            art[i] = _ONE
            row[self.n : self.n] = art
        self.total = total
        self.basis = [self.n + i for i in range(self.m)]

    def _phase(self, cost: list[Fraction], allow: int) -> Fraction:
        """Run simplex to optimality for the given cost over columns < allow."""
        obj = list(cost) + [_ZERO]
        for i, bi in enumerate(self.basis):
            cb = cost[bi]
            if cb:
                row = self.rows[i]
                for j in range(self.total + 1):
                    if row[j]:
                        obj[j] -= cb * row[j]
        while True:
            enter = -1
            for j in range(allow):
                if j not in self.basis and obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return -obj[self.total]
            leave = -1
            best: Fraction | None = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[self.total] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                raise ArithmeticError("unbounded objective in exact simplex")
            self._pivot(leave, enter)
            cb = cost[enter]
            piv = self.rows[leave]
            factor = obj[enter]
            if factor:
                for j in range(self.total + 1):
                    if piv[j]:
                        obj[j] -= factor * piv[j]

    def _pivot(self, leave: int, enter: int) -> None:
        piv = self.rows[leave]
        inv = _ONE / piv[enter]
        self.rows[leave] = [x * inv for x in piv]
        piv = self.rows[leave]
        for i, row in enumerate(self.rows):
            if i == leave:
                continue
            f = row[enter]
            if f:
                self.rows[i] = [x - f * y for x, y in zip(row, piv)]
        self.basis[leave] = enter

    def solve(self, cost: list[Fraction]) -> tuple[bool, list[Fraction], Fraction]:
        """Phase 1 then phase 2.  Returns (feasible, solution, objective)."""
        phase1 = [_ZERO] * self.n + [_ONE] * self.m
        infeas = self._phase(phase1, self.total)
        if infeas > 0:
            return False, [], _ZERO
        # pivot surviving zero-value artificials out where possible
        for i in range(self.m):
            if self.basis[i] >= self.n:
                row = self.rows[i]
                for j in range(self.n):
                    if row[j]:
                        self._pivot(i, j)
                        break
        full = list(cost) + [_ZERO] * self.m
        value = self._phase(full, self.n)
        z = [_ZERO] * self.n
        for i, bi in enumerate(self.basis):
            if bi < self.n:
                z[bi] = self.rows[i][self.total]
        return True, z, value


def _max_slack(system: HomogeneousSystem) -> tuple[Fraction, Vector | None]:
    """Optimum of max t with strict rows held at >= t inside the unit box."""
    n = system.dim
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_rows: list[list[Fraction]] = []

    def shifted(v: Vector, t_plus: Fraction, t_minus: Fraction) -> None:
        # <v, u - 1> >= t  becomes  <v,u> - tp + tm - s = <v, 1>
        row = [Fraction(c) for c in v.coords] + [t_plus, t_minus]
        rows.append(row)
        rhs.append(sum(v.coords, _ZERO))

    for v in system.strict:
        shifted(v, Fraction(-1), _ONE)
    for v in system.weak:
        shifted(v, _ZERO, _ZERO)
    for v in system.equalities:
        # exact equalities run as paired weak rows
        shifted(v, _ZERO, _ZERO)
        shifted(-v, _ZERO, _ZERO)
    surplus = len(rows)
    for j in range(n):
        row = [_ZERO] * (n + 2)
        row[j] = _ONE
        rows.append(row)
        rhs.append(Fraction(2))
    rows.append([_ZERO] * n + [_ONE, _ZERO])
    rhs.append(_ONE)

    m = len(rows)
    width = n + 2 + surplus + (m - surplus)
    tableau_rows = []
    for i, row in enumerate(rows):
        ext = row + [_ZERO] * (surplus + (m - surplus))
        if i < surplus:
            ext[n + 2 + i] = Fraction(-1)
        else:
            ext[n + 2 + surplus + (i - surplus)] = _ONE
        tableau_rows.append(ext)

    cost = [_ZERO] * width
    cost[n] = Fraction(-1)  # maximise t = tp - tm by minimising tm - tp
    cost[n + 1] = _ONE
    tab = _Tableau(tableau_rows, rhs)
    ok, z, value = tab.solve(cost)
    if not ok:
        return Fraction(-1), None
    t_star = -value
    witness = Vector([z[j] - 1 for j in range(n)])
    return t_star, witness


def feasible(system: HomogeneousSystem) -> bool:
    """True iff some x satisfies every strict, weak and equality row."""
    t_star, _ = _max_slack(system)
    return t_star > 0


def interior_witness(system: HomogeneousSystem) -> Vector | None:
    """A rational point satisfying the system, or None when infeasible.

    Strict rows hold with the best uniform margin available inside the
    unit box, which keeps the witness away from the cell boundary.
    """
    t_star, witness = _max_slack(system)
    if t_star > 0:
        return witness
    return None



def _sample_system(sample: SortedSample, family: Family) -> HomogeneousSystem:
    """The sample's cell as a rational system over the member Vectors
    family[i], rows[i] / den, one for each id the sample names."""
    members = [family[i] for i in sample.ids]
    strict: list[Vector] = []
    equalities: list[Vector] = []
    for v, lab in zip(members, sample.labels.tolist()):
        if lab > 0:
            strict.append(v)
        elif lab < 0:
            strict.append(-v)
        else:
            equalities.append(v)
    # sorted neighbours differ by an equality inside a block and by a
    # strict gap from one block to the next
    starts = set(sample.starts)
    for k in range(1, len(sample.order)):
        lo, hi = members[sample.order[k - 1]], members[sample.order[k]]
        (strict if k in starts else equalities).append(hi - lo)
    return HomogeneousSystem(
        family.dim, strict=tuple(strict), equalities=tuple(equalities)
    )


class RationalCell:
    """The cell a sorted sample pins down, as one rational system.

    The sample's ids index family, which supplies the member vectors
    and the dimension.  constraints holds one row per member label and
    one per consecutive gap; witness is an interior point of the cell,
    computed once, or None when the cell is empty.
    """

    def __init__(self, sample: SortedSample, family: Family) -> None:
        self.constraints = _sample_system(sample, family)
        self.witness = interior_witness(self.constraints)


def infer_sign(cell: RationalCell, h: Vector) -> int | None:
    """Sign of h over the whole cell, or None when both signs occur.

    The candidate sign is read off at the interior witness; it stands
    exactly when every alternative sign is infeasible against the cell.
    """
    if h.is_zero():
        return 0
    w = cell.witness
    if w is None:
        raise ValueError("cell is empty; it cannot have come from a real sample")
    b = sign_of(h.dot(w))
    base = cell.constraints
    if b:
        # b stands unless the cell also reaches the closed side against it
        return None if feasible(base.augmented(weak=[h.scaled(-b)])) else b
    if not feasible(base.augmented(strict=[h])) and not feasible(
        base.augmented(strict=[-h])
    ):
        return 0
    return None
