"""Oracle for the point generator: the scalar route to one point z_k, one
Python int at a time, against which ``generate_point_set`` and
``PerturbSpec.digit_parity`` are compared.
"""

from __future__ import annotations

from halkron.numtheory import DEFAULT_WIDTH, UnitFraction
from halkron.sequences import PerturbSpec


def weighted_digit_sum(k: int, spec: PerturbSpec) -> int:
    """Parity of the dyadic digits of k at the positions selected by the
    shifted pattern (positions congruent to -shift mod period)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return (k & spec.digit_mask(k.bit_length())).bit_count() & 1


def digital_point(k: int, spec: PerturbSpec, width: int = DEFAULT_WIDTH) -> UnitFraction:
    """x_k: first output digit is the weighted digit-sum parity, the rest
    mirror the digits of k across the radix point.  Exact in fixed point."""
    if spec.shift != 0:
        raise ValueError("point generation uses the unshifted pattern")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k.bit_length() > width - 1:
        raise ValueError("k has more digits than the fixed-point width holds")
    bits = weighted_digit_sum(k, spec) << (width - 1)
    kk = k >> 1
    i = 1
    while kk:
        if kk & 1:
            bits |= 1 << (width - 1 - i)
        kk >>= 1
        i += 1
    return UnitFraction(bits, width)


def hybrid_point(k: int, spec: PerturbSpec, alpha: UnitFraction) -> tuple[UnitFraction, UnitFraction]:
    """z_k = (x_k, {k*alpha})."""
    return digital_point(k, spec, alpha.width), alpha.mul_int(k)
