"""Deterministic 64-bit pseudo-random generator (SplitMix64).

The generator is the SplitMix64 state transition of Steele, Lea and
Flood: the state advances by the golden-ratio increment and each output
is a finalizing xor-shift/multiply mix of the state.  It is fast, has a
single 64-bit word of state, and is trivially reproducible across
platforms, which is all the random corpus draws need.  The tests'
Monte Carlo oracle (``tests/montecarlo.py``) runs the same streams,
vectorized, from :func:`stream_state` and these constants.

Independent streams are derived from ``(seed, worker)`` by hashing
``seed + worker * GOLDEN`` through the output mix.  Starting states are
therefore scattered pseudo-uniformly over the 64-bit state space, and
two streams of length L collide only if their start states differ by
less than L increments, which has probability about L * streams^2 / 2^64.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 output mix of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def stream_state(seed: int, worker: int = 0) -> int:
    """Initial SplitMix64 state of worker stream ``worker`` under ``seed``."""
    return mix64((seed + worker * GOLDEN) & MASK64)


class SplitMix64:
    """Scalar SplitMix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = stream_state(seed)

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (unbiased)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return lo + self.next_below(hi - lo + 1)
