"""Exact fixed-point arithmetic on [0,1) and special binary numbers.

Everything here is integer arithmetic: a value is ``bits / 2**width`` and all
operations act modulo 1 (i.e. modulo ``2**width``).  Keeping the substrate
exact makes Kronecker orbits {k*alpha} bit-reproducible across platforms;
floats only appear when a caller converts at the trigonometric boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_WIDTH = 128


def to_words(nums: list[int], width: int) -> np.ndarray:
    """The word array of W-bit numerators: ceil(W/64) uint64 words a row, most
    significant first, holding the numerator shifted left to fill them."""
    nw = -(-width // 64)
    raw = b"".join([(v << (64 * nw - width)).to_bytes(8 * nw, "big") for v in nums])
    return np.frombuffer(raw, dtype=">u8").reshape(len(nums), nw).astype(np.uint64)


def from_words(words: np.ndarray, width: int) -> list[int]:
    """The W-bit numerators of a word array, as Python ints."""
    raw, step = words.astype(">u8").tobytes(), 8 * words.shape[1]
    shift = 8 * step - width
    return [int.from_bytes(raw[i : i + step], "big") >> shift for i in range(0, len(raw), step)]


@dataclass(frozen=True)
class UnitFraction:
    """W-bit fixed-point number ``bits / 2**width`` in [0, 1)."""

    bits: int
    width: int = DEFAULT_WIDTH

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError("bits out of range [0, 2**width)")

    @property
    def modulus(self) -> int:
        return 1 << self.width

    def as_fraction(self) -> Fraction:
        return Fraction(self.bits, self.modulus)

    def to_float(self) -> float:
        # int/int true division is correctly rounded in CPython.
        return self.bits / self.modulus

    def add(self, other: UnitFraction) -> UnitFraction:
        if other.width != self.width:
            raise ValueError("width mismatch")
        return UnitFraction((self.bits + other.bits) & (self.modulus - 1), self.width)

    def mul_int(self, k: int) -> UnitFraction:
        """{k * value}, exact on the truncated representation."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return UnitFraction((self.bits * k) & (self.modulus - 1), self.width)

    def multiples(self, count: int) -> np.ndarray:
        """The Kronecker orbit {k * value}, k < count <= 2^32, as a word array:
        the products of k with the 32-bit limbs of the words, then one carry
        pass from the lowest limb up, dropping the integer part."""
        if not 0 <= count <= 1 << 32:
            raise ValueError("count must lie in [0, 2^32]")
        limbs = to_words([self.bits], self.width).astype(">u8").view(">u4")[0].astype(np.uint64)
        t = np.multiply.outer(np.arange(count, dtype=np.uint64), limbs)  # each below 2^64 - 2^32
        for i in range(len(limbs) - 1, 0, -1):
            t[:, i - 1] += t[:, i] >> np.uint64(32)
        return t.astype(">u4").view(">u8").astype(np.uint64)  # each limb mod 2^32, in pairs

    def shift_left(self, j: int) -> UnitFraction:
        """{2**j * value}; the low j bits of the true value are already gone
        from the representation, so this is a plain masked shift."""
        if j < 0:
            raise ValueError("shift must be non-negative")
        return UnitFraction((self.bits << j) & (self.modulus - 1), self.width)

    def distance_to_int(self) -> Fraction:
        """Exact distance of the value to the nearest integer."""
        return Fraction(min(self.bits, self.modulus - self.bits), self.modulus)


def make_unit_fraction(numerator: int, denominator: int, width: int = DEFAULT_WIDTH) -> UnitFraction:
    """Truncating conversion of numerator/denominator to W-bit fixed point.

    Exact whenever the denominator is a power of two.
    """
    if denominator == 0:
        raise ValueError("denominator must be nonzero")
    if not 0 <= numerator < denominator:
        raise ValueError("need 0 <= numerator < denominator")
    return UnitFraction((numerator << width) // denominator, width)


# -- special alpha constructions ---------------------------------------------


def shallit_beta(width: int = DEFAULT_WIDTH) -> UnitFraction:
    """beta = sum_{k>=0} 4**(-2**k): binary ones exactly at positions
    2, 4, 8, 16, ... after the point."""
    bits = 0
    p = 2
    while p <= width:
        bits |= 1 << (width - p)
        p *= 2
    return UnitFraction(bits, width)


def rational_bad(n: int, width: int = DEFAULT_WIDTH) -> UnitFraction:
    """W-bit truncation of 2**(n-1) / (2**n + 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return make_unit_fraction(1 << (n - 1), (1 << n) + 1, width)


def theorem_alpha(n: int, width: int = DEFAULT_WIDTH) -> UnitFraction:
    """alpha = 2**(n-1)/(2**n + 1) + beta (mod 1), the sharp lower-bound
    parameter.  Both summands are produced by integer long division, so the
    value is bit-exact for the given width."""
    return rational_bad(n, width).add(shallit_beta(width))
