"""Helpers that only the tests use: dyadic digit vectors, the float
distance to the nearest integer, continued fractions of fixed-point
numbers, and the closed-form geometric exponential sum."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from halkron.expsum import ExpSumResult, frac_sin_abs
from halkron.numtheory import UnitFraction


@dataclass(frozen=True)
class DigitVector:
    """Dyadic digits of a non-negative integer, least significant first."""

    digits: tuple[int, ...]

    @staticmethod
    def of(k: int) -> "DigitVector":
        if k < 0:
            raise ValueError("k must be non-negative")
        return DigitVector(tuple((k >> i) & 1 for i in range(max(1, k.bit_length()))))

    def reconstruct(self) -> int:
        return sum(d << i for i, d in enumerate(self.digits))


def nearest_int_distance(t: float) -> float:
    """min({t}, 1-{t}), the distance of t to the nearest integer."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    f = t % 1.0
    return min(f, 1.0 - f)


@dataclass(frozen=True)
class ContinuedFraction:
    """[0; a_1, a_2, ...] with the convergents p_i/q_i of the same depth.

    ``terminated`` is set when Euclid's algorithm exhausted the (truncated)
    input before ``max_terms``; the tail of a truncated irrational is
    truncation noise, not part of the true expansion.
    """

    coefficients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    terminated: bool


def continued_fraction(a: UnitFraction, max_terms: int) -> ContinuedFraction:
    """Euclid's algorithm on (bits, 2**width)."""
    if a.bits == 0:
        raise ValueError("continued fraction of 0 is not defined here")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    coeffs: list[int] = []
    convs: list[tuple[int, int]] = []
    # value = r1/r0 with the invariant r0 > r1 >= 0
    r0, r1 = a.modulus, a.bits
    h_prev, h = 1, 0  # numerators of [0;] seed
    k_prev, k = 0, 1  # denominators
    terminated = False
    while len(coeffs) < max_terms:
        q, r = divmod(r0, r1)
        coeffs.append(q)
        h_prev, h = h, q * h + h_prev
        k_prev, k = k, q * k + k_prev
        convs.append((h, k))
        r0, r1 = r1, r
        if r1 == 0:
            terminated = True
            break
    return ContinuedFraction(tuple(coeffs), tuple(convs), terminated)


def geometric_sum(count: int, alpha: UnitFraction) -> ExpSumResult:
    """sum_{m<count} e(m*alpha) in closed form; modulus
    |sin(count*pi*alpha)| / |sin(pi*alpha)| for non-integer alpha."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if alpha.bits == 0:
        return ExpSumResult(complex(count, 0.0), float(count), count)
    top = frac_sin_abs(count, alpha)
    den = frac_sin_abs(1, alpha)
    num = cmath.exp(2j * math.pi * ((count * alpha.bits & (alpha.modulus - 1)) / alpha.modulus)) - 1.0
    dencplx = cmath.exp(2j * math.pi * alpha.to_float()) - 1.0
    value = num / dencplx
    return ExpSumResult(value, top / den if den else abs(value), count)
