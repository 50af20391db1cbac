"""Deterministic, seedable streams of pseudorandom bits.

Every stochastic element in the package draws its randomness from an
EntropyStream; nothing else in the library touches a random source. The
generator is a 64-bit xorshift with the classic (13, 7, 17) shift triple:

    x ^= x << 13;  x ^= x >> 7;  x ^= x << 17        (mod 2**64)

The raw 64-bit seed is passed through the splitmix64 finalizer before use,
which both decorrelates nearby seeds and guarantees the all-zero state
(which xorshift can never leave) is unreachable. Child streams are derived
by hashing (seed, child_id) through the same finalizer, so forking is a
pure function and forked streams can be handed to parallel workers while
keeping whole-simulation reproducibility.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidWidthError

MASK64 = (1 << 64) - 1

# splitmix64 constants (Steele, Lea & Flood's SplitMix finalizer).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

#: Default master seed used by the CLI when --seed is not given.
DEFAULT_SEED = 0xD1CE5EED


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit hash."""
    z = (z + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def _mix64_lanes(z: np.ndarray) -> np.ndarray:
    """mix64 of every uint64 entry; numpy's uint64 arithmetic wraps mod 2**64."""
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _check_seed(seed: int):
    if not 0 <= seed <= MASK64:
        raise InvalidWidthError(f"seed must be a 64-bit unsigned integer, got {seed}")


def fork_states(seed: int, count: int) -> np.ndarray:
    """EntropyStream(seed).fork(i).state for i in range(count), as uint64.

    Each is mix64(mix64(seed ^ mix64(i))), with the zero word remapped as
    EntropyStream does; no stream object is built.
    """
    _check_seed(seed)
    z = _mix64_lanes(np.uint64(seed) ^ _mix64_lanes(np.arange(count, dtype=np.uint64)))
    state = _mix64_lanes(z)
    state[state == 0] = _GOLDEN
    return state


class EntropyStream:
    """A deterministic stream of uniform bits owned by one consumer.

    Attributes:
        seed: the 64-bit seed this stream was built from.
        state: current generator word (never zero).
        draws_consumed: number of generator steps taken so far.
    """

    __slots__ = ("seed", "state", "draws_consumed")

    def __init__(self, seed: int):
        _check_seed(seed)
        self.seed = seed
        state = mix64(seed)
        if state == 0:
            # mix64 maps exactly one input to zero; remap to a fixed word.
            state = _GOLDEN
        self.state = state
        self.draws_consumed = 0

    def __repr__(self):
        return f"EntropyStream(seed={self.seed:#x}, draws={self.draws_consumed})"

    def next_bits(self, n: int) -> int:
        """Return the top n bits of the next generator word, 1 <= n <= 64."""
        if not 1 <= n <= 64:
            raise InvalidWidthError(f"bit width must be in [1, 64], got {n}")
        x = self.state
        x ^= (x << 13) & MASK64
        x ^= x >> 7
        x ^= (x << 17) & MASK64
        self.state = x
        self.draws_consumed += 1
        return x >> (64 - n)

    def _next_wide(self, n: int) -> int:
        """n uniform bits for any n >= 1, stitched from 64-bit words."""
        out = 0
        while n > 64:
            out = (out << 64) | self.next_bits(64)
            n -= 64
        return (out << n) | self.next_bits(n)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection; bound may exceed 2^64."""
        if bound <= 0:
            raise InvalidWidthError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0
        k = (bound - 1).bit_length()
        if k <= 64:  # one word per attempt, the words _next_wide(k) would take
            while True:
                v = self.next_bits(k)
                if v < bound:
                    return v
        while True:
            v = self._next_wide(k)
            if v < bound:
                return v

    def next_unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return self.next_bits(53) * 2.0 ** -53

    def fork(self, child_id: int) -> "EntropyStream":
        """Derive an independent child stream; pure in (seed, child_id)."""
        return EntropyStream(mix64(self.seed ^ mix64(child_id & MASK64)))
