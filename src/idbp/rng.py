"""Counter-based 64-bit pseudo-random generator.

The generator is the splitmix64 xorshift-multiply mixer: output i of a
stream is ``mix64(seed + (i + 1) * GAMMA) mod 2**64``.  Because every output
is a pure function of (seed, counter), a stream can be reproduced exactly on
any platform and draws can be vectorised with numpy's wrapping uint64
arithmetic.  Gaussian variates use Box-Muller on consecutive uniform pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_TWO_NEG53 = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


@dataclass
class RngState:
    """Explicit generator state: a seed and the number of 64-bit draws so far.

    Two states with equal (seed, counter) produce identical raw streams.
    Methods advance ``counter``; everything else is immutable.
    """

    seed: int
    counter: int = field(default=0)

    def __post_init__(self) -> None:
        self.seed = int(self.seed) & _U64_MASK
        self.counter = int(self.counter)
        if self.counter < 0:
            raise ValueError("counter must be nonnegative")

    def raw(self, count: int) -> np.ndarray:
        """Next `count` raw 64-bit outputs as a uint64 array."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        idx = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        return _mix64(np.uint64(self.seed) + idx * _GAMMA)

    def uniforms(self, count: int) -> np.ndarray:
        """`count` doubles uniform on [0, 1), 53 random mantissa bits each."""
        return (self.raw(count) >> np.uint64(11)).astype(np.float64) * _TWO_NEG53

    def gaussians(self, count: int) -> np.ndarray:
        """`count` standard normal doubles via Box-Muller.

        Consumes two uniforms per pair of outputs; an odd `count` still
        consumes the full last pair so the stream position only depends on
        ceil(count / 2).
        """
        if count == 0:
            return np.zeros(0)
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        u1 = 1.0 - u[0::2]  # (0, 1]: keeps log() finite
        u2 = u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]

    def shuffled_prefix(self, n: int, k: int) -> np.ndarray:
        """First `k` entries of a Fisher-Yates shuffle of range(n).

        Runs only the first `k` swap steps, which is enough to make the
        prefix a uniform k-subset in uniform order.  Step i swaps i with
        j = i + floor(u_i * (n - i)); all k targets are computed up front, one
        float64 product and truncation each, and only the swaps run in a
        loop, on a Python list.
        """
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        targets = np.arange(k) + (self.uniforms(k) * np.arange(n, n - k, -1)).astype(np.int64)
        idx = list(range(n))
        for i, j in enumerate(targets.tolist()):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx[:k], dtype=np.int64)
