"""The batched inference engine must agree with the one-at-a-time
rational simplex route (lp.infer_sign) on every hyperplane: same inferred signs, same
undetermined set, across random cells.  Its integer cell must equal
the one built vector by vector, its numpy proposers (the interior-point
program and the NNLS) are checked against scipy where it is installed,
and every interior point must be exact.  Any other exact interior point
must give the same decisions.  Below the ray cap the extreme rays
decide a cell completely, so there the engine must equal the rational
route row for row, and on solved cells the rays and the tiers must give
the same verdicts."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from ldt.geometry import Family, Vector, ground_truth_pattern
from ldt.inference import InconsistentSampleError, SortedSample, build_sorted_sample
from ldt import batch
from ldt.batch import cell_from_sample, infer_set
from ldt.lp import RationalCell, infer_sign
from ldt.oracle import HiddenPointOracle
from ldt.problems import (
    brute_ksum,
    encode_kldt,
    encode_ksum,
    encode_sort_sumset,
    encode_subset_sum,
    encode_zero_triangles,
    random_kldt_instance,
    random_ksum_instance,
    random_subset_sum_instance,
    random_sumset_instance,
    random_triangles_instance,
)
from ldt.intlin import exact_product, generator_matrix
from ldt.prng import SplitMix64
from ldt.solver import SolveConfig, solve

from test_acceptance import _negative_ksum
from test_intlin import (
    cone_member_reference,
    cones,
    entries,
    kernel_basis_reference,
    support_solve_reference,
)


def _random_cell(rng, dim, n_members, width=2):
    secret = Vector([rng.randint(-9, 9) for _ in range(dim)])
    members = []
    seen = set()
    while len(members) < n_members:
        v = Vector([rng.randint(-width, width) for _ in range(dim)])
        if v.is_zero() or v.coords in seen:
            continue
        seen.add(v.coords)
        members.append(v)
    oracle = HiddenPointOracle(secret)
    family = Family.of(members)
    return build_sorted_sample(range(n_members), family, oracle), family, secret


def _with_members(sample, members, vectors):
    """The sample members (rows 0..k-1 of members, which its ids index)
    followed by vectors, as one family, the row indices of vectors in
    it, and the engine's cell."""
    members = list(members)
    k = len(members)
    family = Family.of(members + list(vectors))
    return family, list(range(k, k + len(vectors))), cell_from_sample(sample, family)


def _signs_of(outcome):
    """An inference outcome's settled rows as a dict of row id to sign."""
    return dict(zip(outcome.inferred.tolist(), outcome.signs.tolist()))


def _chain_cell_reference(sample, rows):
    """The reduced cell built one vector at a time, as tuples:
    (n_red, z, kernel basis columns or None, reps, chain)."""
    dim = rows.shape[1]
    vecs = [tuple(r) for r in rows.tolist()]
    bounds = sample.starts + [len(sample.order)]
    blocks = [sample.order[a:b] for a, b in zip(bounds, bounds[1:])]
    blabels = [sample.labels[blk[0]] for blk in blocks]
    zero_blocks = [i for i, lab in enumerate(blabels) if lab == 0]
    origin = (0,) * dim
    e_rows = []
    reps_full = []
    for i, blk in enumerate(blocks):
        if zero_blocks and i == zero_blocks[0]:
            reps_full.append(origin)
            e_rows.extend(vecs[p] for p in blk)
        else:
            rep = vecs[blk[0]]
            reps_full.append(rep)
            e_rows.extend([b - a for a, b in zip(rep, vecs[p])] for p in blk[1:])
    if zero_blocks:
        z = zero_blocks[0]
    else:
        z = sum(1 for lab in blabels if lab < 0)
        reps_full.insert(z, origin)
    kb = kernel_basis_reference(e_rows, dim) if e_rows else None
    if kb is None:
        reps = reps_full
    else:
        # coordinates of each representative in the kernel basis
        reps = [
            tuple(sum(h * col[i] for i, h in enumerate(v) if h) for col in kb)
            for v in reps_full
        ]
    chain = [tuple(b - a for a, b in zip(r, s)) for r, s in zip(reps, reps[1:])]
    n_red = dim if kb is None else len(kb)
    return n_red, z, kb, reps, chain


def _sample_cases():
    """Random sorted samples over small vectors, so that ties and zero
    blocks are common, and the same samples with one coordinate scaled
    by 2^62 (the secret's by 2^-62, which keeps every value)."""
    rng = SplitMix64(31)
    for _ in range(120):
        dim = 2 + rng.below(4)
        width = 1 + rng.below(3)
        secret = [rng.randint(-2, 2) for _ in range(dim)]
        vecs = [
            [rng.randint(-width, width) for _ in range(dim)]
            for _ in range(2 + rng.below(8))
        ]
        vecs = [v for v in vecs if any(v)] or [[1] + [0] * (dim - 1)]
        yield secret, vecs
        big = [list(v) for v in vecs]
        for v in big:
            v[0] <<= 62
        yield [Fraction(secret[0], 1 << 62)] + secret[1:], big


def test_chain_cell_matches_the_vector_by_vector_reference():
    seen = {"ties": 0, "zero block": 0, "no equalities": 0, "huge": 0}
    for secret, vecs in _sample_cases():
        family = Family.of(Vector(v) for v in vecs)
        sample = build_sorted_sample(range(len(vecs)), family, HiddenPointOracle(Vector(secret)))
        rows = family.rows
        try:
            n_red, z, kb, reps, chain = _chain_cell_reference(sample, rows)
        except InconsistentSampleError:
            continue
        cc = cell_from_sample(sample, family)
        assert (cc.n_red, cc.z) == (n_red, z)
        assert (cc.KB is None) is (kb is None)
        if kb is not None:
            assert cc.KB.shape == (rows.shape[1], n_red)
            assert cc.KB.T.tolist() == kb
        assert cc.reps.tolist() == [list(r) for r in reps]
        assert cc.chain.tolist() == [list(c) for c in chain]
        assert cc.chain_t.shape == (n_red, len(chain))
        assert cc.order.tolist() == _as_matrix(_reach_reference(cc.reps))
        seen["ties"] += len(sample.starts) < len(sample.order)
        seen["zero block"] += 0 in sample.labels
        seen["no equalities"] += kb is None
        seen["huge"] += rows.dtype == object
    assert all(count >= 10 for count in seen.values()), seen


def _reach_reference(reps):
    """The harvest's reachability masks, from a dict keyed by every
    representative and every unit shift of it."""
    nr = reps.shape[1]
    origin = nr
    groups = {}
    for b, lr in enumerate(reps.tolist()):
        groups.setdefault(tuple(lr), []).append((b, -1))
        for c in range(nr):
            lr[c] -= 1
            groups.setdefault(tuple(lr), []).append((b, c))
            lr[c] += 1
    adj = [0] * (nr + 1)
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
            adj[u] |= 1 << v
    reach = []
    for start in range(nr + 1):
        seen, stack = 0, [start]
        while stack:
            u = stack.pop()
            for v in range(nr + 1):
                if adj[u] >> v & 1 and not seen >> v & 1:
                    seen |= 1 << v
                    stack.append(v)
        reach.append(seen)
    return reach


def _as_matrix(masks):
    """Reachability masks as the order matrix's nested lists: [u][v] is
    bit v of mask u."""
    return [[bool(m >> v & 1) for v in range(len(masks))] for m in masks]


def test_hashed_harvest_matches_the_dict_reference(monkeypatch):
    rng = SplitMix64(8)
    cases = []
    for _ in range(150):
        nr, nb = rng.below(7), 1 + rng.below(30)
        reps = [[rng.randint(-2, 2) for _ in range(nr)] for _ in range(nb)]
        cases.append(np.array(reps, dtype=np.int64).reshape(nb, nr))
    # object representatives, shifted past int64 where they have columns
    huge = [reps.astype(object) for reps in cases[:50]]
    for reps in huge[::2]:
        reps[:, :1] += 1 << 63

    def harvest(reps):
        return batch._harvest_atoms(reps).tolist()

    edges = 0
    for reps in cases + huge:
        want = _reach_reference(reps)
        assert harvest(reps) == _as_matrix(want)
        edges += sum(r != 0 for r in want)
    assert edges > 200
    # every key equal: each entry is a suspect, and exact grouping alone
    # must keep distinct entries apart
    monkeypatch.setattr(batch, "hash_weights", lambda n: np.ones(n, dtype=np.uint64))
    for reps in cases[:60]:
        assert harvest(reps) == _as_matrix(_reach_reference(reps))


def test_engine_agrees_with_simplex_route():
    rng = SplitMix64(42)
    for _ in range(60):
        dim = 2 + rng.below(3)
        sample, members, secret = _random_cell(rng, dim, 2 + rng.below(3))
        vecs = [Vector([rng.randint(-2, 2) for _ in range(dim)]) for _ in range(6)]
        family, live, cell = _with_members(sample, members, vecs)
        batch_out = infer_set(cell, live, family)
        ref = RationalCell(sample, family)
        for ident, v in zip(live, vecs):
            slow = infer_sign(ref, v)
            if slow is None:
                assert ident in batch_out.undetermined
            else:
                assert _signs_of(batch_out).get(ident) == slow


@st.composite
def ray_cells(draw):
    """A sorted sample over small vectors and rows to decide against it.

    Small entries and a secret with zero coordinates make ties, zero
    blocks and lineality common, and an all-zero secret leaves no chain
    rows; with huge set, coordinate 0 of every vector is scaled by 2^62
    (the secret's by 2^-62, which keeps every value), so the rows are
    object matrices."""
    dim = draw(st.integers(min_value=1, max_value=4))
    coords = st.integers(min_value=-2, max_value=2)
    vector = st.lists(coords, min_size=dim, max_size=dim).filter(any)
    secret = draw(st.lists(coords, min_size=dim, max_size=dim))
    members = draw(st.lists(vector, min_size=1, max_size=7))
    rows = draw(st.lists(vector, min_size=1, max_size=8))
    huge = draw(st.booleans())
    if huge:
        secret[0] = Fraction(secret[0], 1 << 62)
        for v in members + rows:
            v[0] <<= 62
    return Vector(secret), [Vector(v) for v in members], [Vector(v) for v in rows]


@settings(max_examples=150, deadline=None)
@given(ray_cells())
def test_ray_decision_matches_the_simplex_route(case):
    # below the ray cap the decision is complete: every row the Fraction
    # reference infers is inferred with its sign, every other row stays
    # undetermined, and no tier runs
    secret, members, vecs = case
    family = Family.of(members)
    sample = build_sorted_sample(range(len(members)), family, HiddenPointOracle(secret))
    family, live, cell = _with_members(sample, members, vecs)
    assert cell.n_red <= batch._RAY_DIM
    event("no chain rows" if not len(cell.chain) else f"n_red {cell.n_red}")

    def forbidden(cc):
        raise AssertionError("no tier runs below the ray cap")

    generators = batch.cone_generators
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_interior_point", forbidden)
        # however few rows there are to decide, the rays decide them
        mp.setattr(batch, "cone_generators", lambda C, limit: generators(C, 1 << 30))
        out = infer_set(cell, live, family)
    ref = RationalCell(sample, family)
    for ident, v in zip(live, vecs):
        slow = infer_sign(ref, v)
        if slow is None:
            assert ident in out.undetermined
        else:
            assert _signs_of(out).get(ident) == slow


def test_a_cell_without_interior_raises_typed_error():
    # 0 < a < b < c with c = 2a - b: the gap c - b = 2(a - b) is twice
    # the negated gap b - a, so the closed cell y1 >= 0, y2 >= y1,
    # y1 >= y2 is a single ray and no point lies strictly inside it
    members = [Vector([1, 0]), Vector([0, 1]), Vector([2, -1])]
    sample = SortedSample([0, 1, 2], np.array([P, P, P], dtype=np.int8), [0, 1, 2], [0, 1, 2])
    family, live, cell = _with_members(sample, members, [Vector([1, 1]), Vector([1, -1])])
    assert cell.n_red == 2 and len(cell.chain) == 3
    with pytest.raises(InconsistentSampleError):
        infer_set(cell, live, family)


RAY_CASES = {
    "ksum16": lambda r: encode_ksum(random_ksum_instance(r, 16, 3, True), 3),
    "ksum24": lambda r: encode_ksum(random_ksum_instance(r, 24, 3, True), 3),
    "subset-sum": lambda r: encode_subset_sum(random_subset_sum_instance(r, 10, True)),
    "sumset": lambda r: encode_sort_sumset(*random_sumset_instance(r, 6, 6)),
    "kldt": lambda r: encode_kldt(*random_kldt_instance(r, 9, 3, True)),
}


@pytest.mark.parametrize("kind", sorted(RAY_CASES))
def test_rays_and_tiers_agree_on_solved_cells(kind, monkeypatch):
    # every cell at or below the ray cap from a c=1/2 and a c=1 solve,
    # decided once by the tiers and once by the rays, gets the same
    # verdict on every row; at c=1/2 the 3-SUM n=16 and sumset cells
    # lie above the cap, at c=1 every kind has cells below it
    cells = []
    decide = batch._decide_rows

    def recording(cc, H):
        if cc.n_red <= batch._RAY_DIM:
            cells.append((cc, H))
        return decide(cc, H)

    monkeypatch.setattr(batch, "_decide_rows", recording)
    for sample_constant in (Fraction(1, 2), Fraction(1)):
        enc = RAY_CASES[kind](SplitMix64(1))
        solve(
            enc.family,
            HiddenPointOracle(enc.hidden),
            SolveConfig(seed=1, sample_constant=sample_constant),
        )
    monkeypatch.undo()
    assert cells

    def forbidden(cc):
        raise AssertionError("the rays decide every cell here")

    generators = batch.cone_generators
    for cc, H in cells:
        monkeypatch.setattr(batch, "_RAY_DIM", 0)
        tiers = decide(cc, H)
        monkeypatch.undo()
        monkeypatch.setattr(batch, "_interior_point", forbidden)
        monkeypatch.setattr(batch, "cone_generators", lambda C, limit: generators(C, 1 << 30))
        rays = decide(cc, H)
        monkeypatch.undo()
        assert np.array_equal(tiers[0], rays[0]) and np.array_equal(tiers[1], rays[1])


SERVED_CASES = {
    "ksum32": lambda r, planted: encode_ksum(random_ksum_instance(r, 32, 3, planted), 3),
    "subset14": lambda r, planted: encode_subset_sum(random_subset_sum_instance(r, 14, planted)),
    "sortab12": lambda r, planted: encode_sort_sumset(*random_sumset_instance(r, 12, 12)),
    "kldt12": lambda r, planted: encode_kldt(*random_kldt_instance(r, 12, 3, planted)),
}


@pytest.mark.parametrize("kind", sorted(SERVED_CASES))
def test_kernel_bases_of_served_cells_match_the_fraction_reference(kind, monkeypatch):
    # the shapes the benchmark solves (3-SUM n=32, subset-sum n=14, a
    # 12x12 sumset, 3-LDT n=12), planted and not: every kernel basis of
    # a cell's equalities equals the Fraction reference
    captured = []
    kernel = batch.kernel_matrix

    def recording(rows):
        KB = kernel(rows)
        captured.append((rows.tolist(), KB))
        return KB

    monkeypatch.setattr(batch, "kernel_matrix", recording)
    for seed, planted in ((1, True), (2, False)):
        enc = SERVED_CASES[kind](SplitMix64(seed), planted)
        solve(enc.family, HiddenPointOracle(enc.hidden), SolveConfig(seed=seed))
    assert captured
    for rows, KB in captured:
        assert KB.dtype == np.int64
        assert KB.T.tolist() == kernel_basis_reference(rows, len(rows[0]))


def test_engine_never_contradicts_hidden_point():
    rng = SplitMix64(17)
    for _ in range(40):
        dim = 2 + rng.below(3)
        sample, members, secret = _random_cell(rng, dim, 3)
        vecs = [Vector([rng.randint(-3, 3) for _ in range(dim)]) for _ in range(8)]
        family, live, cell = _with_members(sample, members, vecs)
        out = infer_set(cell, live, family)
        for ident, v in zip(live, vecs):
            got = _signs_of(out).get(ident)
            if got is not None:
                truth = v.dot(secret)
                expected = 0 if truth == 0 else 1 if truth > 0 else -1
                assert got == expected


def test_regression_open_cone_overclaim():
    # a target outside cone and -cone must stay undetermined
    family = [
        Vector([-1, -2, 0]),
        Vector([1, 2, 0]),
        Vector([-1, 1, -2]),
    ]
    secret = Vector([Fraction(-1), Fraction(-7), Fraction(7)])
    oracle = HiddenPointOracle(secret)
    sample = build_sorted_sample(range(3), Family.of(family), oracle)
    family, live, cell = _with_members(sample, family, [Vector([-2, -1, 2])])
    out = infer_set(cell, live, family)
    assert out.undetermined.tolist() == [3]


def test_zero_combination_inferred_without_queries():
    # equal values make consecutive gaps equalities; their span is dead
    secret = Vector([5, 5, 1])
    members = Family.of([Vector([1, 0, 0]), Vector([0, 1, 0])])
    oracle = HiddenPointOracle(secret)
    sample = build_sorted_sample(range(2), members, oracle)
    family, live, cell = _with_members(sample, members, [Vector([3, -3, 0])])
    out = infer_set(cell, live, family)
    assert _signs_of(out)[2] == 0


def test_huge_coordinates_take_exact_path():
    big = 1 << 40
    secret = Vector([big, 1])
    members = Family.of([Vector([1, 0]), Vector([0, 1])])
    oracle = HiddenPointOracle(secret)
    sample = build_sorted_sample(range(2), members, oracle)
    targets = [Vector([big, big]), Vector([1, -1]), Vector([-big, 0])]
    family, live, cell = _with_members(sample, members, targets)
    out = infer_set(cell, live, family)
    assert [_signs_of(out)[i] for i in live] == [1, 1, -1]


def test_sample_members_always_resolved():
    rng = SplitMix64(23)
    for _ in range(20):
        dim = 2 + rng.below(2)
        sample, members, _ = _random_cell(rng, dim, 3)
        family, _, cell = _with_members(sample, members, [])
        out = infer_set(cell, range(len(family)), family)
        assert not out.undetermined.size
        signs = _signs_of(out)
        for ident, lab in zip(sample.ids, sample.labels.tolist()):
            assert signs[ident] == lab


P, Z, M = 1, 0, -1


@pytest.mark.parametrize(
    "vectors, labels, gaps",
    [
        # tied values with differing labels
        ([(1, 0), (0, 1)], [M, P], [Z]),
        # zero-valued members in two separate blocks
        ([(1, 0), (0, 1)], [Z, Z], [P]),
        # the strict gap from the tie {a, b} to c = 2a - b is an equality
        ([(1, 0), (0, 1), (2, -1)], [P, P, P], [Z, P]),
    ],
)
def test_contradictory_answers_raise_typed_error(vectors, labels, gaps):
    # members in the given order, gaps[i] the sign between members i
    # and i + 1: ZERO extends a block, PLUS starts the next
    starts = [0] + [p for p, gap in enumerate(gaps, start=1) if gap != Z]
    members = list(range(len(vectors)))
    sample = SortedSample(members, np.array(labels, dtype=np.int8), members, starts)
    with pytest.raises(InconsistentSampleError):
        _with_members(sample, map(Vector, vectors), [Vector([1, 1])])


def test_exact_membership_on_solved_ksum_cell(monkeypatch):
    # the tiers decide only cells above the ray cap
    monkeypatch.setattr(batch, "_RAY_DIM", 0)
    # this planted 3-SUM n=16 solve reduces a sample cell to 2 dimensions
    # over a long chain, and its stragglers reach the Farkas certificate
    sweeps = []
    cones = []
    support_check = batch.nonnegative_solutions
    cone = batch.cone_member

    def recording_support(cols, targets):
        proved = support_check(cols, targets)
        sweeps.append((cols.tolist(), targets.tolist(), proved.tolist()))
        return proved

    def recording_cone(cc, target, residual):
        verdict = cone(cc, target, residual)
        cones.append((cc.chain.tolist(), target.tolist(), verdict))
        return verdict

    monkeypatch.setattr(batch, "nonnegative_solutions", recording_support)
    monkeypatch.setattr(batch, "cone_member", recording_cone)
    enc = encode_ksum(random_ksum_instance(SplitMix64(4), 16, 3, planted=True), 3)
    solve(enc.family, HiddenPointOracle(enc.hidden), SolveConfig(seed=4))
    assert any(len(gens[0]) == 2 and len(gens) > 100 for gens, _, _ in cones)
    assert any(len(targets) > 1 and any(proved[1:]) for _, targets, proved in sweeps)
    for cols, targets, proved in sweeps:
        dim = len(targets[0])
        assert proved == [support_solve_reference(cols, t, dim) for t in targets]
    for gens, target, verdict in cones:
        assert verdict is False
        assert cone_member_reference(gens, target) is None


def test_exact_memberships_spend_the_budget_only_on_unproved_rows(monkeypatch):
    # nonnegative chain combinations share supports and never reach the
    # Farkas certificate; every row no support proves runs it once, and
    # every verdict is the exact one
    rng = SplitMix64(8)
    cone = batch.cone_member
    support_check = batch.nonnegative_solutions
    for _ in range(30):
        dim = 3 + rng.below(2)
        sample, members, _ = _random_cell(rng, dim, 6)
        _, _, cc = _with_members(sample, members, [])
        nr = cc.n_red
        chain = cc.chain.tolist()
        targets = []
        for _ in range(12):
            if rng.below(2):
                targets.append([rng.randint(-3, 3) for _ in range(nr)])
            else:
                picks = [(rng.randint(0, 2), row) for row in chain]
                targets.append([sum(w * row[i] for w, row in picks) for i in range(nr)])
        calls = []
        swept = []

        def recording_cone(cc, target, residual):
            calls.append(target)
            return cone(cc, target, residual)

        def recording_support(cols, rows):
            proved = support_check(cols, rows)
            if proved[0]:
                swept.extend(rows[proved].tolist())
            return proved

        monkeypatch.setattr(batch, "cone_member", recording_cone)
        monkeypatch.setattr(batch, "nonnegative_solutions", recording_support)
        verdicts = batch._exact_memberships(cc, generator_matrix(targets, nr))
        assert len(calls) + len(swept) == len(targets)
        assert all(cone_member_reference(chain, t) is not None for t in swept)
        for t, verdict in zip(targets, verdicts):
            assert verdict is (cone_member_reference(chain, t) is not None)


def test_exact_memberships_skip_cells_above_the_exact_dimension(monkeypatch):
    dim = batch._EXACT_LP_DIM + 1
    cc = _cell_of_chain([[1] * dim, [0] * (dim - 1) + [1]])

    def forbidden(*args):
        raise AssertionError("no exact work above _EXACT_LP_DIM")

    monkeypatch.setattr(batch, "_nnls", forbidden)
    monkeypatch.setattr(batch, "cone_member", forbidden)
    targets = generator_matrix([[1] * dim, [-1] * dim, [2] * dim], dim)
    assert batch._exact_memberships(cc, targets) == [None, None, None]


def _farkas_verdict(gens, target, residual=None):
    """The certificate on one cone, proposed by the exact tier's NNLS
    unless a residual is given."""
    cc = _cell_of_chain(gens, len(target))
    t = generator_matrix([target], len(target))[0]
    if residual is None:
        _, residual = batch._nnls_support(cc, t)
    return batch.cone_member(cc, t, residual)


def _check_farkas_soundness(case, data):
    gens, target = case
    member = cone_member_reference(gens, target) is not None
    verdict = _farkas_verdict(gens, target)
    assert verdict is None or verdict is False
    if verdict is False:
        assert not member
    event("member" if member else f"non-member, decided {verdict is False}")
    # any vector is a sound proposal: only the exact check decides
    residual = data.draw(
        st.lists(
            st.floats(min_value=-8, max_value=8),
            min_size=len(target),
            max_size=len(target),
        )
    )
    verdict = _farkas_verdict(gens, target, np.array(residual))
    assert verdict is None or (verdict is False and not member)


@settings(max_examples=400, deadline=None)
@given(cones(), st.data())
def test_farkas_certificate_proves_only_non_members(case, data):
    _check_farkas_soundness(case, data)


@settings(max_examples=200, deadline=None)
@given(cones(entries=entries), st.data())
def test_farkas_certificate_proves_only_non_members_on_huge_entries(case, data):
    _check_farkas_soundness(case, data)


@pytest.mark.parametrize("huge, floor", [(False, 0.99), (True, 0.3)])
def test_farkas_certificate_decides_most_non_members(huge, floor):
    # random cones over small entries, or with half of the entries
    # near +-2^62, where the float fit itself often gives up
    rng = SplitMix64(5)

    def entry():
        if huge and rng.below(2):
            return (1 - 2 * rng.below(2)) * ((1 << 62) + rng.below(6))
        return rng.randint(-3, 3)

    outside = decided = 0
    for _ in range(600):
        n, m = 1 + rng.below(5), rng.below(10)
        gens = [[entry() for _ in range(n)] for _ in range(m)]
        target = [entry() for _ in range(n)]
        member = cone_member_reference(gens, target) is not None
        verdict = _farkas_verdict(gens, target)
        assert verdict is None or (verdict is False and not member)
        outside += not member
        decided += verdict is False
    assert outside > 200
    assert decided >= floor * outside, (decided, outside)


def test_unit_decomposition_counts_units_before_expanding():
    # one unit list entry per unit of g: a 2^62 entry must be refused by
    # its count, not by allocating the list
    order = _cell_of_chain([[1, 0], [0, 1]]).order.tolist()
    assert batch._decompose_units([1 << 62, 0], order) is False
    assert batch._decompose_units([1, -(1 << 62)], order) is False
    assert batch._decompose_units([0, 0], order) is False
    assert batch._decompose_units([1, 0], order) is True


HUGE_ROWS_RUN = """
import resource
from fractions import Fraction

resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

import numpy as np
from ldt.geometry import Vector, ground_truth_pattern
from ldt.oracle import HiddenPointOracle
from ldt.prng import SplitMix64
from ldt.solver import SolveConfig, solve

rng = SplitMix64(1)
top = 1 << 40
rows = [Vector([rng.randint(-top, top) for _ in range(18)]) for _ in range(300)]
secret = Vector([rng.randint(-top, top) for _ in range(18)])
config = SolveConfig(seed=0, sample_constant=Fraction(1, 16))
report = solve(rows, HiddenPointOracle(secret), config)
assert report.rounds, "the solve ran no inference round"
assert np.array_equal(report.pattern, ground_truth_pattern(rows, secret))
"""


def test_solve_with_entries_near_two_to_the_forty_fits_in_a_gigabyte():
    # anchored certificates of such rows once expanded every unit of
    # every coordinate into a list and ran out of memory
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", HUGE_ROWS_RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


def _assert_nnls_like_scipy(A, b):
    scipy_nnls = pytest.importorskip("scipy.optimize").nnls
    x, resid = batch._nnls(A, b)
    _, expected = scipy_nnls(A, b)
    scale = max(1.0, float(np.linalg.norm(b)))
    assert (x >= 0).all()
    assert abs(resid - float(np.linalg.norm(A @ x - b))) <= 1e-12 * scale
    assert abs(resid - expected) <= 1e-9 * scale


def test_nnls_matches_scipy_on_random_problems():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m, n = int(rng.integers(1, 10)), int(rng.integers(1, 40))
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        b = rng.integers(-6, 7, size=m).astype(float)
        _assert_nnls_like_scipy(A, b)
        # an exact nonnegative combination of a few columns
        w = np.where(rng.random(n) < 0.2, rng.integers(1, 4, size=n), 0)
        _assert_nnls_like_scipy(A, A @ w.astype(float))


def test_nnls_matches_scipy_on_a_solved_ksum_cell(monkeypatch):
    # the tiers decide only cells above the ray cap
    monkeypatch.setattr(batch, "_RAY_DIM", 0)
    calls = []
    nnls = batch._nnls

    def recording_nnls(A, b):
        calls.append((A.copy(), b.copy()))
        return nnls(A, b)

    monkeypatch.setattr(batch, "_nnls", recording_nnls)
    enc = encode_ksum(random_ksum_instance(SplitMix64(4), 16, 3, planted=True), 3)
    solve(enc.family, HiddenPointOracle(enc.hidden), SolveConfig(seed=4))
    monkeypatch.undo()
    assert len(calls) > 5
    for A, b in calls:
        _assert_nnls_like_scipy(A, b)


def test_nnls_gives_up_past_the_iteration_cap(monkeypatch):
    # below the cap the fit is the uncapped one; past it, the zero
    # proposal and ||b||.  With no iteration allowed every fit gives up;
    # one per column caps the fits that need more passes than columns
    rng = np.random.default_rng(5)
    capped = finished = 0
    for _ in range(200):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 20))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-5, 6, size=m).astype(float)
        x, resid = batch._nnls(A, b)
        for per_column in (0, 1):
            monkeypatch.setattr(batch, "_NNLS_ITERS_PER_COLUMN", per_column)
            xc, rc = batch._nnls(A, b)
            monkeypatch.undo()
            gave_up = not xc.any() and rc == float(np.linalg.norm(b))
            if per_column == 0:
                assert gave_up
            elif gave_up and x.any():
                capped += 1
            else:
                assert np.array_equal(xc, x) and rc == resid
                finished += 1
    assert capped > 0 and finished > 0


def _cell_of_chain(chain, dim=None):
    """A cell whose chain is the given rows (over dim columns), with no
    equalities, the origin as its lowest representative."""
    chain = generator_matrix(chain, len(chain[0]) if dim is None else dim)
    reps = np.vstack([np.zeros_like(chain[:1]), np.cumsum(chain, axis=0)])
    return batch.ChainCell(None, reps, 0, chain)


def _exact_interior(C, y):
    """The point y strictly inside every row of C, in exact integers."""
    products = np.array(C, dtype=object) @ np.array(y, dtype=object)
    return all(int(v) > 0 for v in products)


POOL_CASES = {
    "ksum": (lambda r: encode_ksum(random_ksum_instance(r, 16, 3, True), 3), 2),
    "ksum-small-sample": (
        lambda r: encode_ksum(random_ksum_instance(r, 16, 3, True), 3),
        Fraction(1, 2),
    ),
    "subset-sum": (
        lambda r: encode_subset_sum(random_subset_sum_instance(r, 10, True)),
        Fraction(1, 2),
    ),
    "sumset": (lambda r: encode_sort_sumset(*random_sumset_instance(r, 6, 6)), 2),
    "kldt": (lambda r: encode_kldt(*random_kldt_instance(r, 9, 3, True)), Fraction(1, 2)),
    "triangles": (
        lambda r: encode_zero_triangles(*random_triangles_instance(r, 24, True)),
        Fraction(1, 8),
    ),
}


@pytest.mark.parametrize("kind", sorted(POOL_CASES))
def test_pool_points_are_exactly_interior_on_solved_cells(kind, monkeypatch):
    # the tiers decide only cells above the ray cap; a cell with no
    # chain rows gets no point, and every other one an exact one
    monkeypatch.setattr(batch, "_RAY_DIM", 0)
    make, sample_constant = POOL_CASES[kind]
    cells = []
    interior_point = batch._interior_point

    def recording(cc):
        y = interior_point(cc)
        cells.append((cc.chain, y))
        return y

    monkeypatch.setattr(batch, "_interior_point", recording)
    enc = make(SplitMix64(3))
    report = solve(
        enc.family,
        HiddenPointOracle(enc.hidden),
        SolveConfig(seed=3, sample_constant=Fraction(sample_constant)),
    )
    assert cells
    for C, y in cells:
        if not len(C):
            assert y is None
        else:
            assert y is not None and _exact_interior(C, y)
    assert np.array_equal(report.pattern, ground_truth_pattern(enc.family, enc.hidden))


@pytest.mark.parametrize(
    "chain",
    [
        [(1 << 30, -(1 << 30) + 1), (-(1 << 30) + 1, 1 << 30)],
        [
            (1 << 30, -(1 << 30) + 1, 0),
            (-(1 << 30) + 1, 1 << 30, 0),
            (0, 1 << 30, -(1 << 30) + 1),
            (0, -(1 << 30) + 1, 1 << 30),
        ],
    ],
)
def test_pool_of_a_thin_cell_near_two_to_the_thirty(chain):
    # each pair of rows leaves a wedge of relative width 2^-30
    y = batch._interior_point(_cell_of_chain(chain))
    assert y is not None and _exact_interior(chain, y)


def test_pool_of_a_cell_too_thin_for_the_first_rounding():
    # the interior holds (1, 1, 0), but the barrier point has margin
    # about 8e-10, so a fixed scale such as 2^20 rounds it to a point
    # outside; the point's scale, past sqrt(3) / margin, lands inside
    chain = [[(1 << 30) + 7, -(1 << 30), 3], [-(1 << 30) + 1, 1 << 30, -2], [1, 1, 1]]
    cc = _cell_of_chain(chain)
    C = cc.chain_t.T
    y, margin = batch.linprog(C / np.linalg.norm(C, axis=1)[:, None])
    assert 0 < margin < 1e-8
    assert not _exact_interior(chain, np.rint(y * 2.0 ** 20).astype(np.int64))
    point = batch._interior_point(cc)
    assert point is not None and _exact_interior(chain, point)


def test_pool_program_margin_is_near_optimal():
    scipy_linprog = pytest.importorskip("scipy.optimize").linprog
    rng = SplitMix64(29)
    checked = 0
    for _ in range(30):
        dim = 2 + rng.below(3)
        sample, members, _ = _random_cell(rng, dim, 6)
        _, _, cc = _with_members(sample, members, [])
        if not len(cc.chain):
            continue
        C = cc.chain_t.T
        A = C / np.linalg.norm(C, axis=1)[:, None]
        y, margin = batch.linprog(A)
        m, nr = A.shape
        best = scipy_linprog(
            np.r_[np.zeros(nr), -1.0],
            A_ub=np.hstack([-A, np.ones((m, 1))]),
            b_ub=np.zeros(m),
            bounds=[(-1, 1)] * nr + [(None, None)],
            method="highs",
        ).x[-1]
        assert np.abs(y).max() < 1
        assert (A @ y >= margin).all()
        assert 0.5 * best <= margin <= best + 1e-9
        checked += 1
    assert checked > 10


def _tie_free_ksum_cell():
    """A wide-bound negative 3-SUM n=24 cell (no equalities, so every
    row is 0/1 of weight 3), its live rows and their true signs, the
    candidate signs at its interior point, and the candidates and signs
    _fast_uniform_certs leaves."""
    rng = SplitMix64(0)
    while True:
        vals = random_ksum_instance(rng, 24, 3, False, bound=10 * 24**3)
        if not brute_ksum(vals, 3):
            break
    enc = encode_ksum(vals, 3)
    family = enc.family
    ids = sorted(rng.sample_indices(len(family), 150))
    oracle = HiddenPointOracle(enc.hidden)
    cc = cell_from_sample(build_sorted_sample(ids, family, oracle), family)
    assert cc.KB is None and cc.n_red == 24
    live = np.setdiff1d(np.arange(len(family)), ids)
    H = family.rows[live]
    screened = np.sign(H @ batch._interior_point(cc)).astype(np.int8)
    cand = screened.copy()
    signs = np.zeros(len(H), dtype=np.int8)
    assert batch._fast_uniform_certs(cc, H, cand, signs)
    truth = ground_truth_pattern(family, enc.hidden)
    return cc, H, [truth[i] for i in live], screened, cand, signs


def test_fast_uniform_tier_only_speeds_up_the_anchored_one():
    # each row the fast tier settles must also be certified by
    # _anchored_cert, from its own side's anchors, with the same sign,
    # and that sign must be the true one
    cc, H, truth, screened, cand, signs = _tie_free_ksum_cell()
    settled = signs != 0
    assert (signs == 1).sum() > 500 and (signs == -1).sum() > 500
    assert not cand[settled].any()
    assert np.array_equal(cand[~settled], screened[~settled])
    order = cc.order.tolist()
    for i in np.flatnonzero(settled):
        flip = int(signs[i])
        assert truth[i] == flip
        anchors = cc.above if flip > 0 else cc.below
        assert batch._anchored_cert((H[i] * flip).tolist(), anchors, order)


def test_fast_uniform_tier_finds_every_anchored_certificate():
    # the converse: in this cell every anchor is 0/1 of weight 3 too, so
    # each row _anchored_cert certifies, grounded on zero or from a
    # (row, anchor) pair, the fast tier settles with the same sign
    cc, H, _, screened, cand, signs = _tie_free_ksum_cell()
    for anchors in (np.array(cc.above), -np.array(cc.below)):
        assert np.isin(anchors, (0, 1)).all() and (anchors.sum(axis=1) == 3).all()
    order = cc.order.tolist()
    certified = 0
    for i in np.flatnonzero(screened):
        flip = int(screened[i])
        anchors = cc.above if flip > 0 else cc.below
        if batch._anchored_cert((H[i] * flip).tolist(), anchors, order):
            certified += 1
            assert signs[i] == flip and not cand[i]
    assert certified == np.count_nonzero(signs) > 1000


@pytest.mark.parametrize("side", [1, -1])
def test_fast_uniform_tier_grounds_rows_on_the_origin(side, monkeypatch):
    # members e0+e1 < e0+e1+e2 < e0+e1+e2+e3 (mirrored for side -1)
    # prove x_2 and x_3 beyond zero; with one anchor per side, e0+e1 (an
    # anchor of weight 2 like the row), only the origin as anchor
    # certifies e2+e3
    monkeypatch.setattr(batch, "_ANCHORS", 1)
    rows = [[1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1], [0, 0, 1, 1]]
    family = Family.of([Vector(r) for r in rows])
    oracle = HiddenPointOracle(Vector([side * v for v in (1, 2, 4, 8)]))
    cc = cell_from_sample(build_sorted_sample(range(3), family, oracle), family)
    cand = np.array([side], dtype=np.int8)
    signs = np.zeros(1, dtype=np.int8)
    assert batch._fast_uniform_certs(cc, family.rows[3:], cand, signs)
    assert signs[0] == side and not cand[0]


def test_anchored_cert_never_runs_in_a_uniform_cell(monkeypatch):
    # a wide-bound negative 3-SUM n=32 draw has no ties, so every cell
    # is 0/1 of weight 3 in rows and anchors and takes the fast tier
    # alone; the solve still gets every sign right
    def forbidden(*args):
        raise AssertionError("the 0/1 dominance check decides this cell")

    decided = []
    uniform = batch._fast_uniform_certs

    def recording(*args):
        decided.append(uniform(*args))
        return decided[-1]

    monkeypatch.setattr(batch, "_anchored_cert", forbidden)
    monkeypatch.setattr(batch, "_fast_uniform_certs", recording)
    rng = SplitMix64(32)
    while True:
        vals = random_ksum_instance(rng, 32, 3, False, bound=10 * 32**3)
        if not brute_ksum(vals, 3):
            break
    enc = encode_ksum(vals, 3)
    report = solve(enc.family, HiddenPointOracle(enc.hidden), SolveConfig(seed=1))
    assert decided and all(decided)
    assert np.array_equal(report.pattern, ground_truth_pattern(enc.family, enc.hidden))


def test_grounded_row_past_the_unit_cap_is_certified():
    # the chain e_0, ..., e_16 proves every coordinate above zero; the
    # cell lies above the ray cap and the exact tier, and its rows are
    # not 0/1 of one weight, so the per-row search alone can certify
    # them, and each has more units than _UNIT_CAP, also less any anchor
    dim = batch._EXACT_LP_DIM + 1
    cc = _cell_of_chain(np.eye(dim, dtype=np.int64).tolist())
    cap = batch._UNIT_CAP
    H = np.zeros((3, dim), dtype=np.int64)
    H[0, 0] = 2 * cap
    H[1, :2] = -cap
    H[2, :3] = 1
    signs, settled = batch._decide_rows(cc, H)
    assert settled.all() and signs.tolist() == [1, -1, 1]
    order = cc.order.tolist()
    assert not batch._decompose_units(H[0].tolist(), order)
    assert not batch._decompose_units((-H[1]).tolist(), order)


def test_zero_labelled_members_spanning_the_space_leave_no_dimension():
    # a hidden point at the origin labels e_0 and e_1 zero; their span is
    # the whole space, so n_red is 0 and every other row is ZERO
    members = Family.of([Vector([1, 0]), Vector([0, 1])])
    sample = build_sorted_sample(range(2), members, HiddenPointOracle(Vector([0, 0])))
    targets = [Vector([3, -5]), Vector([1, 1])]
    family, live, cell = _with_members(sample, members, targets)
    assert cell.n_red == 0
    out = infer_set(cell, live, family)
    assert [_signs_of(out)[i] for i in live] == [0, 0]
    assert not out.undetermined.size


def _second_interior_point(C, H, y):
    """An exact interior point of the cell {x : C x > 0} other than y:
    y pushed along a signed unit vector as far as doubling keeps it
    inside, the first such push that changes the sign of a row of H,
    else K y + e_0 with K past every |C| entry."""
    for j, step in product(range(len(y)), (1, -1)):
        point = None
        while abs(step) < 1 << 20:
            pushed = y.copy()
            pushed[j] += step
            if not (C @ pushed > 0).all():
                break
            point, step = pushed, 2 * step
        if point is not None and (np.sign(H @ point) != np.sign(H @ y)).any():
            return point
    point = (1 + int(np.abs(C).max())) * y
    point[0] += 1
    return point


def test_decisions_do_not_depend_on_the_interior_point(monkeypatch):
    # only a row the cell determines has one sign at every interior
    # point, and every certificate is exact, so a second exact interior
    # point leaves every sign and the settled mask as they were; on the
    # cells above the ray cap of C5's first 3-SUM n=16 draws at c=1/2,
    # the second point screens some rows differently
    cells = []
    decide = batch._decide_rows

    def recording(cc, H):
        if cc.n_red > batch._RAY_DIM:
            cells.append((cc, H))
        return decide(cc, H)

    monkeypatch.setattr(batch, "_decide_rows", recording)
    rng = SplitMix64(5516)
    for trial in range(4):
        if trial % 2 == 0:
            vals = random_ksum_instance(rng, 16, 3, True)
        else:
            vals = _negative_ksum(rng, 16, 3)
        enc = encode_ksum(vals, 3)
        config = SolveConfig(seed=trial, sample_constant=Fraction(1, 2))
        solve(enc.family, HiddenPointOracle(enc.hidden), config)
    monkeypatch.undo()
    assert len(cells) >= 4
    rescreened = 0
    for cc, H in cells:
        first = decide(cc, H)
        y = batch._interior_point(cc)
        Hred = H if cc.KB is None else exact_product(H, cc.KB)
        other = _second_interior_point(cc.chain, Hred, y)
        assert _exact_interior(cc.chain, other)
        rescreened += (np.sign(Hred @ other) != np.sign(Hred @ y)).any()
        monkeypatch.setattr(batch, "_interior_point", lambda cc: other)
        second = decide(cc, H)
        monkeypatch.undo()
        assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])
    assert rescreened >= 3


def test_a_cell_without_chain_rows_leaves_every_nonzero_row_open(monkeypatch):
    # one zero-labelled member leaves a reduced space above the ray cap
    # and no chain rows: the cell is that whole space, where every
    # nonzero row takes both signs, so no float program runs
    def forbidden(A):
        raise AssertionError("a cell with no chain rows needs no interior point")

    monkeypatch.setattr(batch, "linprog", forbidden)
    dim = batch._RAY_DIM + 2
    unit = [1] + [0] * (dim - 1)
    members = [Vector(unit)]
    oracle = HiddenPointOracle(Vector([0] + list(range(1, dim))))
    sample = build_sorted_sample([0], Family.of(members), oracle)
    targets = [Vector([5 * u for u in unit]), Vector([0, 1] + [0] * (dim - 2)), Vector([1] * dim)]
    family, live, cell = _with_members(sample, members, targets)
    assert cell.n_red == dim - 1 > batch._RAY_DIM and not len(cell.chain)
    out = infer_set(cell, live, family)
    assert _signs_of(out).get(live[0]) == 0
    assert out.undetermined.tolist() == live[1:]
