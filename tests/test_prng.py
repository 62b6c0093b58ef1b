import pytest

from ldt.prng import SplitMix64

# reference outputs for the standard mixer, seed 0 and a nonzero seed
SEED0_FIRST = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SEED0_FIRST


def test_determinism_across_instances():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_below_range_and_coverage():
    rng = SplitMix64(7)
    seen = set()
    for _ in range(400):
        v = rng.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_randint_bounds():
    rng = SplitMix64(3)
    lo, hi = -5, 5
    vals = [rng.randint(lo, hi) for _ in range(300)]
    assert min(vals) == lo and max(vals) == hi


def test_sample_indices_distinct_and_in_range():
    rng = SplitMix64(11)
    for n, k in ((10, 10), (50, 7), (3, 1)):
        picks = rng.sample_indices(n, k)
        assert len(picks) == k
        assert len(set(picks)) == k
        assert all(0 <= p < n for p in picks)


def test_sample_indices_full_draw_is_permutation():
    rng = SplitMix64(2)
    assert sorted(rng.sample_indices(6, 6)) == list(range(6))


class _Identity(dict):
    """range(n) as a dict of moved slots, for n too large for a list."""

    def __missing__(self, i):
        return i


def _reference_sample(rng, n, k, pool=None):
    """The list-based partial Fisher-Yates draw: swap slot i with a
    uniform slot in [i, n) for each of the first k slots."""
    pool = list(range(n)) if pool is None else pool
    for i in range(k):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return [pool[i] for i in range(k)]


def test_sample_indices_matches_the_list_reference():
    cases = SplitMix64(20)
    shapes = [(0, 0), (1, 0), (1, 1), (5, 0), (5, 5), (16383, 224), (10296, 452)]
    for _ in range(300):
        n = 1 + cases.below(3000)
        shapes.append((n, cases.below(n + 1)))
    for seed, (n, k) in enumerate(shapes):
        got, want = SplitMix64(seed), SplitMix64(seed)
        assert got.sample_indices(n, k) == _reference_sample(want, n, k), (n, k)
        # the draw leaves the stream where the reference leaves it
        assert got.next_u64() == want.next_u64(), (n, k)


class _Counting(SplitMix64):
    outputs = 0

    def next_u64(self):
        self.outputs += 1
        return super().next_u64()


def test_sample_indices_replays_rejected_draws():
    # below 2^63 + 1 about half of all outputs are rejected, so the draw
    # takes more outputs than picks
    n = (1 << 63) + 1
    outputs = 0
    for seed in range(40):
        got, want = SplitMix64(seed), _Counting(seed)
        picks = got.sample_indices(n, 6)
        assert picks == _reference_sample(want, n, 6, _Identity())
        assert got.next_u64() == want.next_u64()
        outputs += want.outputs - 1
    assert outputs > 40 * 6


def test_sample_indices_refuses_impossible_draws():
    rng = SplitMix64(1)
    for n, k in ((3, 4), (3, -1)):
        with pytest.raises(ValueError):
            rng.sample_indices(n, k)
