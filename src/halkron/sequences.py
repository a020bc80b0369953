"""Generation of the perturbed Halton component, the Kronecker component
and their two-dimensional hybrid.

The generating matrix is the identity with a perturbed first row whose
pattern has a single 1 per period; it is never materialized.  The first
output digit is the parity of the input digits at the positions the pattern
selects, all other digits are mirrored across the radix point as in the
plain base-2 radical inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numtheory import UnitFraction


@dataclass(frozen=True)
class PerturbSpec:
    """Periodic perturbing pattern c (c_j = 1 iff j % period == 0) together
    with a shift selecting c^(l), c^(l)_j = c_{j+l}.

    Generation always uses shift 0; nonzero shifts exist for the shifted
    digit parities and trigonometric products in ``expsum``.
    """

    period: int
    shift: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.shift < 0:
            raise ValueError("shift must be >= 0")

    def gamma(self, r: int) -> tuple[int, ...]:
        """The weights c^(shift)_j, j < r: the pattern's one definition."""
        return tuple(int((j + self.shift) % self.period == 0) for j in range(r))

    def digit_mask(self, nbits: int) -> int:
        """Bit mask of the digit positions below nbits where ``gamma`` is 1."""
        return sum(1 << p for p, c in enumerate(self.gamma(nbits)) if c)

    def digit_parity(self, ks: np.ndarray) -> np.ndarray:
        """Parity of the ``digit_mask`` digits of each non-negative int64 in
        ``ks``, as an int64 array of 0 and 1 (bitwise parity by folding)."""
        a = ks & self.digit_mask(63)
        for s in (32, 16, 8, 4, 2, 1):
            a ^= a >> s
        return a & 1


@dataclass(frozen=True)
class PointSet2:
    """Finite list of exact 2D points in [0,1)^2: ``x`` and ``y`` hold the
    numerators over 2**width as word arrays (``numtheory.to_words``), one row
    per point.  The fields are frozen and the arrays read-only."""

    x: np.ndarray
    y: np.ndarray
    width: int

    def __post_init__(self) -> None:
        shape = (len(self.x), -(-self.width // 64))
        if any(a.shape != shape or a.dtype != np.uint64 for a in (self.x, self.y)):
            raise ValueError(f"coordinates must be two uint64 word arrays of shape {shape}")
        self.x.flags.writeable = self.y.flags.writeable = False

    def __len__(self) -> int:
        return len(self.x)


def generate_point_set(spec: PerturbSpec, alpha: UnitFraction, count: int) -> PointSet2:
    """First ``count`` hybrid points z_0..z_{count-1}; O(count) time and
    memory."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if spec.shift != 0:
        raise ValueError("point generation uses the unshifted pattern")
    width = alpha.width
    m = max(1, (count - 1).bit_length())  # x_k needs m fractional digits
    if m + 1 > width:
        raise ValueError("count too large for the fixed-point width")
    ks = np.arange(count, dtype=np.int64)
    xnum = spec.digit_parity(ks) << (m - 1)
    for i in range(1, m):
        xnum |= ((ks >> i) & 1) << (m - 1 - i)
    x = np.zeros((count, -(-width // 64)), dtype=np.uint64)
    x[:, 0] = xnum.astype(np.uint64) << np.uint64(64 - m)
    return PointSet2(x, alpha.multiples(count), width)
