"""Deterministic pseudo-random generation for the verification suites.

A 64-bit linear congruential generator with the multiplier/increment
pair 6364136223846793005 / 1442695040888963407 modulo 2**64.  Draws
take the upper 32 bits of the advanced state modulo the range, so the
sequences are reproducible from the seed alone on any platform (and
re-implementable outside Python).
"""

from __future__ import annotations

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return (self.next_u64() >> 32) % n

    def randint(self, lo: int, hi: int) -> int:
        """Inclusive range draw."""
        return lo + self.below(hi - lo + 1)

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num
