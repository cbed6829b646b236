"""splitmix64 generator.

The simulator draws random numbers only for scenario-declared arrival
jitter, and the algorithm is pinned so the same seed yields the same run
everywhere. Reference: Steele, Lea and Flood's SplittableRandom mixer.
"""

from __future__ import annotations

from .errors import InvalidRange

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def seed_fits(seed: int) -> bool:
    """The rule on seeds, for the generator and the scenario parser alike."""
    return 0 <= seed <= _MASK64


class SplitMix64:
    def __init__(self, seed: int):
        if not seed_fits(seed):
            msg = f"seed must fit in an unsigned 64-bit integer, got {seed}"
            raise InvalidRange(msg, field="seed")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound); fine for jitter, not cryptography."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound
