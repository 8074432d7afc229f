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

    def shuffled_tail(self, n: int, k: int) -> np.ndarray:
        """Entries k..n-1, in position order, of range(n) after the first `k`
        Fisher-Yates swap steps, as int64.

        Step i swaps positions i and j = i + floor(u_i * (n - i)), one
        float64 product and truncation per step, so the tail is the
        complement of a uniform k-subset.  No swap runs.  The entry that
        ends at position p was carried there by p's last writer, the last
        step i < p that targeted p (found by ``np.maximum.at``, since numpy
        leaves repeated-index assignment unordered), from position i, whose
        entry just before step i is fixed by its own last writer, and so on
        back to a position that no earlier step wrote, whose entry is its
        own index.  All tail entries follow their chains together, one hop
        per round, and each leaves the rounds when its chain ends.  A chain
        averages ln(n / (n - k)) hops (1.6 at k = 0.8 n), so the rounds
        are few and shrink fast.  The order of the prefix is never built.
        """
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        steps = np.arange(k)
        targets = steps + (self.uniforms(k) * np.arange(n, n - k, -1)).astype(np.int64)
        # a step that swaps i with itself carries nothing; -1: never written
        writer = np.full(n, -1, dtype=np.int64)
        np.maximum.at(writer, targets, np.where(targets == steps, -1, steps))
        tail = np.arange(k, n, dtype=np.int64)
        moving = np.arange(n - k)  # tail entries whose chain goes on
        while moving.size:
            back = writer[tail[moving]]
            written = back >= 0
            moving = moving[written]
            tail[moving] = back[written]
        return tail
