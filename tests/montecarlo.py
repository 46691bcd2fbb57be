"""Seeded Monte Carlo oracle for Q_u(n): a statistical cross-check of the exact values.

Floating point and numpy serve only here; no command of the package
estimates Q.  The walk streams come from ``harmlat.rng.stream_state``, so
the library and the oracle share one stream derivation.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from harmlat.errors import InvalidParameterError, OutOfRangeError, ResourceLimitError
from harmlat.lattice import LatticeFunction
from harmlat.rng import GOLDEN, MIX1, MIX2, stream_state


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: Fraction
    stderr: float
    samples: int
    seed: int
    workers: int


def monte_carlo_Q(
    u: LatticeFunction, n: int, samples: int, seed: int, workers: int = 1024
) -> MonteCarloEstimate:
    """Seeded Monte Carlo estimate of Q_u(n) with its standard error.

    Runs ``workers`` independent SplitMix64 streams (stream i seeded from
    (seed, i); see :mod:`harmlat.rng`), each producing walks of n steps in
    round-robin batches until ``samples`` endpoints are collected.  Steps
    are drawn by rejection, so directions are exactly uniform, and the
    estimate is a deterministic function of (seed, workers, samples).
    The mean is returned exactly; the standard error is the sample
    standard deviation of u(X_n)^2 divided by sqrt(samples).
    """
    if samples < 1:
        raise InvalidParameterError("need at least one sample")
    if n < 0 or n > u.R:
        raise OutOfRangeError(f"need 0 <= n <= {u.R}, got n={n}")
    if workers < 1:
        raise InvalidParameterError("need at least one worker stream")
    d = u.d
    twod = 2 * d
    span = 2 * n + 1
    if span ** d >= 1 << 62:
        raise ResourceLimitError("walk endpoints do not fit the packed 63-bit encoding")
    lanes = workers
    states = np.array(
        [stream_state(seed, i) for i in range(lanes)], dtype=np.uint64
    )
    golden = np.uint64(GOLDEN)
    mix1 = np.uint64(MIX1)
    mix2 = np.uint64(MIX2)
    shift30, shift27, shift31 = np.uint64(30), np.uint64(27), np.uint64(31)
    bound = np.uint64(twod)
    rejected = (1 << 64) % twod  # 0 when 2d divides 2^64: no rejection needed
    reject_limit = np.uint64((1 << 64) - rejected) if rejected else None

    def next_u64(mask=None):
        nonlocal states
        if mask is None:
            states = states + golden
            z = states.copy()
        else:
            states[mask] += golden
            z = states[mask]
        z = (z ^ (z >> shift30)) * mix1
        z = (z ^ (z >> shift27)) * mix2
        return z ^ (z >> shift31)

    endpoint_counts: dict = {}
    remaining = samples
    rows = np.arange(lanes)
    while remaining > 0:
        pos = np.zeros((lanes, d), dtype=np.int64)
        for _ in range(n):
            z = next_u64()
            if reject_limit is not None:
                bad = z >= reject_limit
                while bad.any():
                    z[bad] = next_u64(bad)
                    bad = z >= reject_limit
            direction = (z % bound).astype(np.int64)
            axis = direction >> 1
            sign = 1 - 2 * (direction & 1)
            pos[rows, axis] += sign
        take = min(lanes, remaining)
        base = np.int64(span)
        codes = np.zeros(lanes, dtype=np.int64)
        for i in range(d):
            codes = codes * base + (pos[:, i] + n)
        uniq, cnt = np.unique(codes[:take], return_counts=True)
        for code, c in zip(uniq.tolist(), cnt.tolist()):
            endpoint_counts[code] = endpoint_counts.get(code, 0) + c
        remaining -= take

    s1 = Fraction(0)
    s2 = Fraction(0)
    for code, c in endpoint_counts.items():
        coords = []
        acc = code
        for _ in range(d):
            coords.append(acc % span - n)
            acc //= span
        point = tuple(reversed(coords))
        v = u.value(point) ** 2
        s1 += c * v
        s2 += c * v * v
    mean = s1 / samples
    if samples > 1:
        var = (s2 - s1 * s1 / samples) / (samples - 1)
        stderr = math.sqrt(float(var) / samples) if var > 0 else 0.0
    else:
        stderr = 0.0
    return MonteCarloEstimate(mean, stderr, samples, seed, workers)
