"""Helpers that only the tests use: dyadic digit vectors, the float
distance to the nearest integer, continued fractions of fixed-point
numbers, the closed-form geometric exponential sum, the exact 1D star
discrepancy, the index sequence m_k with its exponential sum, and the
angle-doubling fixed point xi_n with the G_n values and bounds around it."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from halkron.discrepancy import BoxSide, DiscrepancyResult
from halkron.expsum import ExpSumResult, _phases, _sum_of_phases, frac_sin_abs
from halkron.numtheory import UnitFraction
from halkron.sequences import PerturbSpec
from halkron.trigprod import _g_from_f, _xi_angle, f_iterate, log_g_at_xi

_MAX_MK_COUNT = 1 << 24


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


def star_discrepancy_1d(xs: Sequence[UnitFraction]) -> DiscrepancyResult:
    """Order-statistics formula max_i max(i/N - x_(i), x_(i) - (i-1)/N)."""
    n = len(xs)
    if n == 0:
        raise ValueError("empty point set")
    vals = sorted(x.as_fraction() for x in xs)
    best = Fraction(-1)
    witness = None
    for i, x in enumerate(vals, start=1):
        pos = Fraction(i, n) - x
        neg = x - Fraction(i - 1, n)
        if pos > best:
            best, witness = pos, (BoxSide(x, True),)
        if neg > best:
            best, witness = neg, (BoxSide(x, False),)
    return DiscrepancyResult(n, best, witness)


def mk_array(n: int, count: int) -> np.ndarray:
    """First ``count`` non-negative integers whose digits at positions
    divisible by n have even sum, as an int64 array.  These are exactly the
    indices k with x_k(n) < 1/2; for n = 1 they are the evil numbers.
    Digit 0 is always counted, so of 2k and 2k + 1 exactly one has even
    sum: m_k = 2k + parity(2k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    evens = 2 * np.arange(count, dtype=np.int64)
    return evens + PerturbSpec(n).digit_parity(evens)


def exp_sum_mk(n: int, count: int, alpha: UnitFraction) -> ExpSumResult:
    """sum_{k<count} e(m_k * alpha) with m_k the even-weighted-digit-sum
    indices; compensated accumulation."""
    if count < 1 or count > _MAX_MK_COUNT:
        raise ValueError(f"count must be in [1, {_MAX_MK_COUNT}]")
    mks = mk_array(n, count)
    return _sum_of_phases(_phases(mks, alpha))


def xi_fixed_point(n: int) -> float:
    """xi_n = sin(2^n pi / (2 (2^n + 1))) = cos(pi / (2 (2^n + 1))), the
    fixed point of the n-fold angle-doubling iterate."""
    return math.cos(_xi_angle(n))


def g_value(n: int, x):
    """G_n(x) = f_n(x) / (2^n sqrt(1-x^2)), with G_n(1) set to the limit 1
    of the product form (every g(f_nu(1)) = g(0) = 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    arr = np.asarray(x, dtype=float)
    scalar = np.isscalar(x) or arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = _g_from_f(n, arr, f_iterate(n, arr))
    return float(out[0]) if scalar else out


def g_value_product(n: int, x):
    """Product form f_0 * prod_{nu=1}^{n-1} sqrt(1 - f_nu^2); used as the
    cross-check route for g_value."""
    if n < 1:
        raise ValueError("n must be >= 1")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = arr.copy()
    f = arr.copy()
    for _ in range(1, n):
        f = np.clip(2.0 * f * np.sqrt((1.0 - f) * (1.0 + f)), 0.0, 1.0)
        out = out * np.sqrt((1.0 - f) * (1.0 + f))
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


def product_upper_bound_log(n: int, ell: int, r: int) -> tuple[float, int]:
    """log of the proof-chain bound (G_n(xi_n))^(d-1) with
    d = floor((r - j0)/n), j0 the first index where the shifted pattern hits
    a 1.  Returns (log bound, d); callers should skip d < 1 (no content)."""
    j0 = (-ell) % n
    d = (r - j0) // n
    return (d - 1) * log_g_at_xi(n), d
