import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ldt.geometry import Vector
from ldt.lp import HomogeneousSystem, feasible
from ldt.lab import (
    SizeCapError,
    check_ordering_count,
    cone_certificate,
    crosscheck_feasibility,
    crosscheck_inference,
    enumerate_cells,
    find_signed_collision,
    fm_feasible,
    inference_dimension_exact,
    minimal_inference_dimension,
    sample_cell_patterns,
)


def _sys(dim, strict=(), weak=(), equalities=()):
    return HomogeneousSystem(
        dim=dim,
        strict=tuple(Vector(v) for v in strict),
        weak=tuple(Vector(v) for v in weak),
        equalities=tuple(Vector(v) for v in equalities),
    )


def test_fm_agrees_on_frozen_systems():
    cases = [
        _sys(2, strict=[(1, -1), (-1, 2)], weak=[(0, 1)]),
        _sys(2, strict=[(1, 0), (-1, 0)]),
        _sys(2, strict=[(0, 1)], equalities=[(0, 1)]),
        _sys(3, strict=[(1, 1, 1)], weak=[(-1, 0, 0)]),
        _sys(1, strict=[(1,)], weak=[(-1,)]),
    ]
    for system in cases:
        assert fm_feasible(system) == feasible(system)


def test_fm_caps():
    big = _sys(5, strict=[(1, 0, 0, 0, 0)])
    with pytest.raises(SizeCapError):
        fm_feasible(big)


def test_cell_counts_frozen():
    e1 = Vector([1, 0])
    e2 = Vector([0, 1])
    assert enumerate_cells([Vector([1])]).count == 3
    assert enumerate_cells([e1, e2]).count == 9
    assert enumerate_cells([e1, e2, Vector([1, 1])]).count == 13


def test_cell_enumeration_is_exact_and_consistent_with_sampling():
    family = [Vector([1, 0]), Vector([1, 1]), Vector([-1, 2])]
    exact = enumerate_cells(family)
    assert exact.exact
    sampled = sample_cell_patterns(family, trials=3000, seed=2)
    assert not sampled.exact
    assert set(sampled.patterns) <= set(exact.patterns)
    # random rational points almost never hit lower-dimensional cells,
    # but every full-dimensional one should appear
    full_dim = [p for p in exact.patterns if 0 not in p]
    assert set(full_dim) <= set(sampled.patterns)


def test_cell_witnesses_reproduce_patterns():
    family = [Vector([1, 0]), Vector([0, 1]), Vector([1, 1])]
    enum = enumerate_cells(family)
    for pattern, witness in zip(enum.patterns, enum.witnesses):
        for want, h in zip(pattern, family):
            d = h.dot(witness)
            assert (d > 0) - (d < 0) == int(want)


def test_cells_cap():
    family = [Vector([1, 0, 0, 0])] * 2
    with pytest.raises(SizeCapError):
        enumerate_cells([Vector([1, 0, 0, 0]), Vector([0, 1, 0, 0])])


def test_inference_dimension_frozen():
    assert inference_dimension_exact([Vector([1]), Vector([-1])], 2) is True
    assert inference_dimension_exact([Vector([1])], 1) is False
    fam = [Vector([1]), Vector([2]), Vector([3])]
    assert minimal_inference_dimension(fam, 3) == 2


def test_inference_dimension_monotone():
    fam = [Vector([1, 0]), Vector([0, 1]), Vector([1, 1]), Vector([1, -1])]
    results = [inference_dimension_exact(fam, d) for d in range(1, 5)]
    # once true it stays true
    assert results == sorted(results)


def test_collision_frozen_cases():
    assert find_signed_collision([Vector([1]), Vector([2])]) is None
    a = find_signed_collision([Vector([1]), Vector([2]), Vector([3])])
    assert a == [1, -1]
    assert find_signed_collision([Vector([1]), Vector([2]), Vector([4])]) is None
    a = find_signed_collision([Vector([1]), Vector([2]), Vector([4]), Vector([5])])
    assert a is not None
    gaps = [1, 2, 1]
    assert sum(c * g for c, g in zip(a, gaps)) == 0
    assert any(a)


def test_collision_zero_gap_shortcut():
    a = find_signed_collision([Vector([2, 1]), Vector([2, 1]), Vector([0, 5])])
    assert a is not None
    assert sum(1 for c in a if c) == 1


def test_cone_certificate_frozen():
    ordered = [Vector([1]), Vector([2]), Vector([3])]
    alpha = find_signed_collision(ordered)
    p, coeffs = cone_certificate(ordered, alpha)
    assert (p, coeffs) == (1, [2])
    # h_{p+1} - h_0 must equal the nonnegative gap combination
    lhs = ordered[p + 1] - ordered[0]
    acc = Vector.zero(1)
    for i, c in enumerate(coeffs):
        assert c >= 0
        acc = acc + (ordered[i + 1] - ordered[i]).scaled(Fraction(c))
    assert acc.coords == lhs.coords


def test_cone_certificate_random_families():
    from ldt.prng import SplitMix64

    rng = SplitMix64(9)
    done = 0
    while done < 25:
        vecs = []
        seen = set()
        while len(vecs) < 10:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if v != (0, 0) and v not in seen:
                seen.add(v)
                vecs.append(Vector(v))
        x = Vector([Fraction(rng.randint(-50, 50), 1 + rng.below(9)) for _ in range(2)])
        ordered = sorted(vecs, key=lambda v: v.dot(x))
        alpha = find_signed_collision(ordered)
        if alpha is None:
            continue
        p, coeffs = cone_certificate(ordered, alpha)
        lhs = ordered[p + 1] - ordered[0]
        acc = Vector.zero(2)
        for i, c in enumerate(coeffs):
            assert c >= 0
            acc = acc + (ordered[i + 1] - ordered[i]).scaled(Fraction(c))
        assert acc.coords == lhs.coords
        done += 1


def test_ordering_count_within_bound():
    observed, bound, ok = check_ordering_count(
        [Vector([1, 0]), Vector([0, 1]), Vector([1, 1])], trials=800, seed=5
    )
    assert ok
    assert observed <= bound


def test_crosschecks_clean():
    assert crosscheck_feasibility(120, seed=1) == (120, 120)
    assert crosscheck_inference(40, seed=1) == (40, 40)


_WRONG_WITNESS = """
from ldt import lab
from ldt.geometry import Vector

# every open cell claims the origin, where each row vanishes, as its witness
lab._open_cells = lambda rows, dim: [((1,) * len(rows), Vector.zero(dim))]
try:
    lab.enumerate_cells([Vector([1, 0]), Vector([0, 1])])
except lab.WitnessError:
    print("typed error")
"""


def test_wrong_cell_witness_raises_under_optimize():
    # python -O strips assert statements; the witness check must stay
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_WITNESS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "typed error"
