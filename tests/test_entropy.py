import numpy as np
import pytest
from scipy.stats import chisquare

from stochcirc.entropy import DEFAULT_SEED, MASK64, EntropyStream, fork_states, mix64
from stochcirc.errors import InvalidWidthError


def test_same_seed_same_sequence():
    a = EntropyStream(1234)
    b = EntropyStream(1234)
    assert [a.next_bits(8) for _ in range(100)] == [b.next_bits(8) for _ in range(100)]


def test_draw_counter_advances_once_per_call():
    s = EntropyStream(0)
    s.next_bits(1)
    s.next_bits(64)
    assert s.draws_consumed == 2


def test_invalid_widths_rejected():
    s = EntropyStream(0)
    with pytest.raises(InvalidWidthError):
        s.next_bits(0)
    with pytest.raises(InvalidWidthError):
        s.next_bits(65)


def test_single_bit_mean_within_3_sigma():
    # 3-sigma binomial bound at 1e6 draws: 0.5 +/- 0.0015
    s = EntropyStream(DEFAULT_SEED)
    n = 10**6
    ones = sum(s.next_bits(1) for _ in range(n))
    assert 0.497 <= ones / n <= 0.503


def test_no_64bit_collisions():
    # xorshift64 output equals its state, which never repeats within a period
    s = EntropyStream(99)
    seen = {s.next_bits(64) for _ in range(10**4)}
    assert len(seen) == 10**4


def test_zero_seed_usable():
    s = EntropyStream(0)
    assert s.state != 0
    vals = {s.next_bits(32) for _ in range(1000)}
    assert len(vals) > 990


def test_fork_deterministic():
    parent = EntropyStream(77)
    c1 = parent.fork(5)
    c2 = EntropyStream(77).fork(5)
    assert [c1.next_bits(32) for _ in range(50)] == [c2.next_bits(32) for _ in range(50)]


def test_fork_is_pure_and_leaves_parent_alone():
    parent = EntropyStream(77)
    before = parent.draws_consumed
    parent.fork(1)
    assert parent.draws_consumed == before
    assert parent.fork(1).seed == parent.fork(1).seed


def test_fork_distinct_children_share_no_values():
    # birthday bound: 2e5 draws from a 64-bit space collide with p < 1e-9
    c1 = EntropyStream(123).fork(1)
    c2 = EntropyStream(123).fork(2)
    a = {c1.next_bits(64) for _ in range(10**5)}
    b = {c2.next_bits(64) for _ in range(10**5)}
    assert not (a & b)


def test_fork_bit_streams_uncorrelated():
    # |r| < 0.004 is 4 sigma under independence at 1e6 bits; deterministic seed
    n_words = 10**6 // 64
    c1 = EntropyStream(2024).fork(1)
    c2 = EntropyStream(2024).fork(2)
    w1 = np.array([c1.next_bits(64) for _ in range(n_words)], dtype=np.uint64)
    w2 = np.array([c2.next_bits(64) for _ in range(n_words)], dtype=np.uint64)
    b1 = np.unpackbits(w1.view(np.uint8)).astype(float)
    b2 = np.unpackbits(w2.view(np.uint8)).astype(float)
    r = np.corrcoef(b1, b2)[0, 1]
    assert abs(r) < 0.004


@pytest.mark.parametrize("child_id", [0, 1])
def test_forked_streams_uniform_bytes(child_id):
    # chi-square on 8-bit words, p > 0.001 at 1e6 draws
    s = EntropyStream(DEFAULT_SEED).fork(child_id)
    counts = np.zeros(256, dtype=np.int64)
    for _ in range(10**6):
        counts[s.next_bits(8)] += 1
    _, p = chisquare(counts)
    assert p > 0.001


def test_mix64_bijective_on_sample():
    xs = list(range(5000))
    assert len({mix64(x) for x in xs}) == len(xs)


def test_next_below_range_and_determinism():
    s = EntropyStream(5)
    vals = [s.next_below(7) for _ in range(2000)]
    assert all(0 <= v < 7 for v in vals)
    assert len(set(vals)) == 7
    assert EntropyStream(5).next_below(1) == 0


def unmix64(z: int) -> int:
    """The inverse of mix64."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    z = unshift(z, 30)
    return (z - 0x9E3779B97F4A7C15) & MASK64


@pytest.mark.parametrize("seed", [0, 7, DEFAULT_SEED, MASK64])
def test_fork_states_equal_forked_streams(seed):
    master = EntropyStream(seed)
    assert fork_states(seed, 300).tolist() == [master.fork(i).state for i in range(300)]


def test_fork_states_remap_the_zero_word():
    assert all(unmix64(mix64(z)) == z for z in (0, 1, 12345, MASK64))
    # the seed whose fork 2 would start in the all-zero state
    seed = unmix64(unmix64(0)) ^ mix64(2)
    assert EntropyStream(seed).fork(2).state == 0x9E3779B97F4A7C15
    assert fork_states(seed, 3).tolist()[2] == 0x9E3779B97F4A7C15


@pytest.mark.parametrize("seed", [-1, MASK64 + 1])
def test_fork_states_check_the_seed_like_the_stream(seed):
    with pytest.raises(InvalidWidthError):
        fork_states(seed, 2)


def _below_by_wide_words(stream, bound):
    """next_below as stitched rejection: every attempt takes _next_wide(k)."""
    if bound == 1:
        return 0
    k = (bound - 1).bit_length()
    while True:
        v = stream._next_wide(k)
        if v < bound:
            return v


def test_next_below_takes_the_stitched_words():
    # bounds just below, at and above 2^k: most and fewest rejections
    for k, bound in ((k, bound) for k in [*range(1, 66), 70, 128, 129, 270]
                     for bound in (2 ** k - 1, 2 ** k, 2 ** k + 1, 3 * 2 ** (k - 1))):
        a, b = EntropyStream(k), EntropyStream(k)
        assert ([a.next_below(bound) for _ in range(20)]
                == [_below_by_wide_words(b, bound) for _ in range(20)])
        assert (a.state, a.draws_consumed) == (b.state, b.draws_consumed)
