"""Lacunary trigonometric products, the sharp exponent a(n), and the
angle-doubling fixed-point apparatus with its numerical certification.

Phase arguments are never formed as ``2**j * alpha`` in floating point: the
doubling happens on the exact bit representation (or exactly modulo q for a
rational alpha) and only the reduced phase in [0,1) is converted to double.
That keeps hundreds of factors meaningful where naive doubles would have no
phase accuracy left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sequences import PerturbSpec

_HARD_ZERO = 1e-300


def lacunary_factor(phase, sine, out=None):
    """|sin(pi p)| if ``sine`` else |cos(pi p)|, for a phase p in [0,1] given
    as a float or an array.

    Both are sin(pi a) of a reduced argument, a = min(p, 1 - p) for the sine
    and a = |1/2 - p| for the cosine, so the factor keeps its relative
    accuracy near its zeros at p = 0, 1 and p = 1/2.  With ``out`` every
    step writes into that array.  For the sine, ``out`` must not share
    memory with ``phase``: 1 - p is written to it before the minimum reads
    p.  For the cosine, ``out`` may be ``phase`` itself.
    """
    if sine:
        arg = np.minimum(phase, np.subtract(1.0, phase, out=out), out=out)
    else:
        arg = np.abs(np.subtract(0.5, phase, out=out), out=out)
    return np.sin(np.multiply(arg, np.pi, out=out), out=out)


def doubling_factors(num: int, den: int, gamma: Sequence[int], r: int) -> list[float]:
    """The r factors |cos(2^j pi num/den + gamma_j pi/2)|, j < r: the
    ``lacunary_factor`` of each doubled phase, sine where gamma_j = 1.

    The phase num/den is doubled exactly as ``num = 2 num mod den``: a
    left shift of the fixed-point bits for den = 2^W, exact modular
    reduction for a rational p/q.  Only the reduced phase becomes a double.
    Both factors are taken of the r phases at once and gamma picks one of
    each pair: a numpy call per factor would cost more than the doubling.

    This is the single-product route, for any modulus.  It serves
    ``log_pi_product`` and through it ``sharpness_identity`` and
    ``expsum.product_lower_bound``.  The bound table doubles many 2^W phases
    at once (``expsum.upper_bound_rhs``) and gives the same factors.
    """
    if not 0 <= r <= len(gamma):
        raise ValueError("need 0 <= r <= len(gamma)")
    phases = []
    for _ in range(r):
        phases.append(num / den)
        num = (num << 1) % den
    phases = np.array(phases)
    sine = np.array(gamma[:r], dtype=bool)
    return np.where(sine, lacunary_factor(phases, True), lacunary_factor(phases, False)).tolist()


def log_pi_product(r: int, gamma: Sequence[int], p: int, q: int) -> float:
    """log Pi_{r,gamma}(p/q) = sum_{j<r} log |cos(2^j pi p/q + gamma_j pi/2)|,
    -inf on a hard zero.  The phases 2^j p mod q are reduced exactly; a
    W-bit alpha is p = its bits and q = 2^W."""
    if not 0 <= p < q:
        raise ValueError("need 0 <= p < q")
    acc = 0.0
    for f in doubling_factors(p, q, gamma, r):
        if f < _HARD_ZERO:
            return -math.inf
        acc += math.log(f)
    return acc


def _xi_angle(n: int) -> float:
    """pi / (2 (2^n + 1)) for 1 <= n <= 1022.  From n = 1023 on the double
    2 (2^n + 1) overflows, so the angle is 0 and its cotangent infinite."""
    if not 1 <= n <= 1022:
        raise ValueError("n must lie in 1..1022")
    return math.pi / (2.0 * ((1 << n) + 1))


def _log_cot_xi_angle(n: int) -> float:
    return math.log(1.0 / math.tan(_xi_angle(n)))


def a_exponent(n: int) -> float:
    """a(n) = log_{2^n} cot(pi / (2 (2^n + 1)))."""
    return _log_cot_xi_angle(n) / (n * math.log(2.0))


def xi_fixed_point(n: int) -> float:
    """xi_n = sin(2^n pi / (2 (2^n + 1))) = cos(pi / (2 (2^n + 1))), the
    fixed point of the n-fold angle-doubling iterate."""
    return math.cos(_xi_angle(n))


def f_iterate(nu: int, x):
    """f_nu with f_0 = id and f_1(x) = 2 x sqrt(1-x^2); accepts scalars or
    arrays in [0,1], clamped against rounding excursions."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("x must lie in [0,1]")
    for _ in range(nu):
        # 1-x^2 as (1-x)(1+x): no cancellation near x = 1
        arr = 2.0 * arr * np.sqrt((1.0 - arr) * (1.0 + arr))
        arr = np.clip(arr, 0.0, 1.0)
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(arr)
    return arr


def g_value(n: int, x):
    """G_n(x) = f_n(x) / (2^n sqrt(1-x^2)), with G_n(1) set to the limit 1
    of the product form (every g(f_nu(1)) = g(0) = 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    arr = np.asarray(x, dtype=float)
    scalar = np.isscalar(x) or arr.ndim == 0
    arr = np.atleast_1d(arr)
    denom = (1 << n) * np.sqrt((1.0 - arr) * (1.0 + arr))
    num = f_iterate(n, arr)
    out = np.empty_like(arr)
    at_one = arr == 1.0
    ok = ~at_one
    out[ok] = num[ok] / denom[ok]
    out[at_one] = 1.0
    out = np.clip(out, 0.0, None)
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


def g_at_xi(n: int) -> float:
    """G_n(xi_n) = 2^-n cot(pi / (2 (2^n + 1))), the extremal product value."""
    return math.exp(log_g_at_xi(n))


def log_g_at_xi(n: int) -> float:
    return _log_cot_xi_angle(n) - n * math.log(2.0)


@dataclass(frozen=True)
class GelfondCertificate:
    """Sweep record for the dichotomy: for every x, G_n(x) <= G_n(xi_n) or
    G_n(x) G_n(f_n(x)) <= G_n(xi_n)^2.  Passes iff max_violation stays below
    the tolerance."""

    n: int
    grid_size: int
    max_violation: float
    worst_x: float
    tolerance: float = 1e-12

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def gelfond_violation(n: int, xs: np.ndarray, g_xi: float) -> np.ndarray:
    """min(G_n(x) - G_n(xi_n), G_n(x) G_n(f_n(x)) - G_n(xi_n)^2); the
    dichotomy holds at x iff this is <= 0."""
    g1 = g_value(n, xs)
    g2 = g_value(n, f_iterate(n, xs))
    return np.minimum(g1 - g_xi, g1 * g2 - g_xi * g_xi)


def gelfond_certify(n: int, grid_size: int) -> GelfondCertificate:
    """Grid sweep of the dichotomy plus three bisection rounds of local
    refinement around the worst node.  The sweep guards the implementation;
    the dichotomy itself is a proven statement."""
    if grid_size < 1000:
        raise ValueError("grid_size must be >= 1000")
    g_xi = g_at_xi(n)
    xs = np.linspace(0.0, 1.0, grid_size + 1)
    v = gelfond_violation(n, xs, g_xi)
    i = int(np.argmax(v))
    max_v = float(v[i])
    worst = float(xs[i])
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, grid_size)]
    for _ in range(3):
        fine = np.linspace(lo, hi, 201)
        fv = gelfond_violation(n, fine, g_xi)
        j = int(np.argmax(fv))
        if fv[j] > max_v:
            max_v = float(fv[j])
            worst = float(fine[j])
        lo = fine[max(j - 1, 0)]
        hi = fine[min(j + 1, 200)]
    return GelfondCertificate(n, grid_size, max_v, worst)


@dataclass(frozen=True)
class SharpnessResult:
    """Both sides of the optimality identity
    Pi_{nL,c}(2^{n-1}/(2^n+1)) = (2^-n cot(pi/(2(2^n+1))))^L."""

    n: int
    blocks: int
    log_lhs: float
    log_rhs: float

    @property
    def lhs(self) -> float:
        return math.exp(self.log_lhs)

    @property
    def rhs(self) -> float:
        return math.exp(self.log_rhs)

    @property
    def log_diff(self) -> float:
        return abs(self.log_lhs - self.log_rhs)


def sharpness_identity(n: int, blocks: int) -> SharpnessResult:
    if n < 1 or blocks < 1:
        raise ValueError("need n >= 1 and blocks >= 1")
    r = n * blocks
    if r > 1000:
        raise ValueError("n * blocks must stay <= 1000")
    gamma = PerturbSpec(n).gamma(r)
    log_lhs = log_pi_product(r, gamma, 1 << (n - 1), (1 << n) + 1)
    log_rhs = blocks * log_g_at_xi(n)
    return SharpnessResult(n, blocks, log_lhs, log_rhs)


def product_upper_bound_log(n: int, ell: int, r: int) -> tuple[float, int]:
    """log of the proof-chain bound (G_n(xi_n))^(d-1) with
    d = floor((r - j0)/n), j0 the first index where the shifted pattern hits
    a 1.  Returns (log bound, d); callers should skip d < 1 (no content)."""
    j0 = (-ell) % n
    d = (r - j0) // n
    return (d - 1) * log_g_at_xi(n), d
