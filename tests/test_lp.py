from fractions import Fraction

from ldt.geometry import Vector
from ldt.lp import HomogeneousSystem, feasible, interior_witness


def _sys(dim, strict=(), weak=(), equalities=()):
    return HomogeneousSystem(
        dim=dim,
        strict=tuple(Vector(v) for v in strict),
        weak=tuple(Vector(v) for v in weak),
        equalities=tuple(Vector(v) for v in equalities),
    )


def test_feasible_known_witness():
    # (3, 2) satisfies x - y > 0, -x + 2y > 0, y >= 0
    system = _sys(2, strict=[(1, -1), (-1, 2)], weak=[(0, 1)])
    assert feasible(system)
    w = interior_witness(system)
    assert w is not None
    assert w.dot(Vector([1, -1])) > 0
    assert w.dot(Vector([-1, 2])) > 0
    assert w.dot(Vector([0, 1])) >= 0


def test_infeasible_opposed_strict():
    system = _sys(3, strict=[(1, 2, 0), (-1, -2, 0)])
    assert not feasible(system)
    assert interior_witness(system) is None


def test_equality_cuts_strict():
    # y = 0 forced, then y > 0 impossible
    assert not feasible(_sys(2, strict=[(0, 1)], equalities=[(0, 1)]))
    assert feasible(_sys(2, strict=[(1, 0)], equalities=[(0, 1)]))


def test_feasibility_scale_invariance():
    base = _sys(2, strict=[(3, -5), (-1, 2)])
    scaled = _sys(2, strict=[(300, -500), (Fraction(-1, 7), Fraction(2, 7))])
    assert feasible(base) == feasible(scaled) is True


def test_empty_system_feasible():
    assert feasible(_sys(3))
