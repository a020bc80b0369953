"""Lacunary trigonometric products, the sharp exponent a(n), and the
angle-doubling fixed-point apparatus with its numerical certification.

Phase arguments are never formed as ``2**j * alpha`` in floating point:
``doubled_phases`` reads {2^j b} from the words of b (a rational alpha is
reduced exactly modulo q) and only the reduced phase in [0,1) becomes a
double.  That keeps hundreds of factors meaningful where
naive doubles would have no phase accuracy left.
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


def doubled_phases(words: np.ndarray, r: int) -> np.ndarray:
    """The [rows, r] table of the phases {2^j b}, j < r, of the rows b of a
    word array (``numtheory.to_words``), each rounded to double exactly as
    the int division ((b << j) mod 2^W) / 2^W rounds, for every phase down
    to 2^-1022.

    Entry j is the 64-bit window of b that starts j bits below the point,
    with every lower bit folded into its last bit (round to odd).  A window
    of at least 2^54 keeps 55 or more bits, so the one rounding of the
    uint64 -> float64 cast is then the correct one; so is the cast of a
    window with no lower bits.  An odd window below 2^54 is moved down past
    its leading zeros until it is not, and scaled back exactly.  Columns
    j >= W are 0.  The table is column-major, so each column is contiguous.
    """
    padded = np.pad(words.T, ((0, 3), (0, 0)))  # [word, row]
    nonzero_from = padded != 0  # [k, row]: words k on, or-ed up from the last word below
    for k in range(len(padded) - 2, -1, -1):
        nonzero_from[k] |= nonzero_from[k + 1]

    def windows(rows, offsets):
        q, t = offsets >> 6, (offsets & 63).astype(np.uint64)
        hi, lo = padded[q, rows], padded[q + 1, rows]
        window = (hi << t) | ((lo >> np.uint64(1)) >> (np.uint64(63) - t))
        return window | ((lo << t) != 0) | nonzero_from[q + 2, rows]

    table = windows(np.arange(len(words)), np.minimum(np.arange(r), 64 * words.shape[1])[:, None])
    phases = np.multiply(table, 2.0**-64).T
    j, i = np.nonzero((table < np.uint64(1 << 54)) & (table & np.uint64(1) != 0))
    off, window = j.copy(), table[j, i]
    while (low := window < np.uint64(1 << 54)).any():  # skip the window's leading zeros
        off[low] += 64 - np.frexp(window[low].astype(np.float64))[1]
        window[low] = windows(i[low], off[low])
    phases[i, j] = np.ldexp(window.astype(np.float64), j - off - 64)
    return phases


def lacunary_factors(phases: np.ndarray, gamma: Sequence[int]) -> np.ndarray:
    """The [rows, r] factor table of a [rows, r] phase table: column j holds
    the ``lacunary_factor`` of column j, the sine where gamma_j = 1.  A
    gamma of one kind is one call; otherwise the cosine of every column is
    overwritten by the sine of the gathered sine columns."""
    out = np.empty_like(phases)
    if len(set(gamma)) < 2:
        return lacunary_factor(phases, 1 in gamma, out=out)
    sine = np.array(gamma, dtype=bool)
    lacunary_factor(phases, False, out=out)
    out[:, sine] = lacunary_factor(phases[:, sine], True)
    return out


def log_pi_product(r: int, gamma: Sequence[int], p: int, q: int) -> float:
    """log Pi_{r,gamma}(p/q) = sum_{j<r} log |cos(2^j pi p/q + gamma_j pi/2)|,
    -inf on a hard zero.  Every phase is reduced exactly and rounded once,
    by the int division ((p << j) mod q) / q, whatever q is; a W-bit alpha
    is p = its bits over q = 2^W, whose rows ``doubled_phases`` rounds the
    same way."""
    if not 0 <= p < q:
        raise ValueError("need 0 <= p < q")
    if not 0 <= r <= len(gamma):
        raise ValueError("need 0 <= r <= len(gamma)")
    acc = 0.0
    phases = np.array([[((p << j) % q) / q for j in range(r)]])
    for f in lacunary_factors(phases, gamma[:r])[0].tolist():
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


def f_iterate(nu: int, x):
    """f_nu with f_0 = id and f_1(x) = 2 x sqrt(1-x^2) at x in [0,1], as a
    float array of x's shape, clamped against rounding excursions."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("x must lie in [0,1]")
    for _ in range(nu):
        # 1-x^2 as (1-x)(1+x): no cancellation near x = 1
        arr = 2.0 * arr * np.sqrt((1.0 - arr) * (1.0 + arr))
        arr = np.clip(arr, 0.0, 1.0)
    return arr


def _g_from_f(n: int, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """G_n at the nodes ``x`` from fx = f_n(x)."""
    denom = (1 << n) * np.sqrt((1.0 - x) * (1.0 + x))
    out = np.ones_like(x)  # the limit at x = 1
    ok = x != 1.0
    out[ok] = fx[ok] / denom[ok]
    return np.clip(out, 0.0, None)


def g_at_xi(n: int) -> float:
    """G_n(xi_n) = 2^-n cot(pi / (2 (2^n + 1))), the extremal product value."""
    return math.exp(log_g_at_xi(n))


def log_g_at_xi(n: int) -> float:
    return _log_cot_xi_angle(n) - n * math.log(2.0)


# largest violation of the dichotomy that the sweep still accepts
GELFOND_TOLERANCE = 1e-12


@dataclass(frozen=True)
class GelfondCertificate:
    """Sweep record for the dichotomy: for every x, G_n(x) <= G_n(xi_n) or
    G_n(x) G_n(f_n(x)) <= G_n(xi_n)^2.  Passes iff max_violation stays below
    ``GELFOND_TOLERANCE``."""

    n: int
    grid_size: int
    max_violation: float
    worst_x: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= GELFOND_TOLERANCE


def gelfond_sweep(n: int, xs: np.ndarray, g_xi: float) -> tuple[np.ndarray, np.ndarray]:
    """G_n(x) and the violation min(G_n(x) - G_n(xi_n), G_n(x) G_n(f_n(x))
    - G_n(xi_n)^2) at the nodes ``xs``, from f_n(x) and f_n(f_n(x)); the
    dichotomy holds at x iff the violation is <= 0."""
    f1 = f_iterate(n, xs)
    g1 = _g_from_f(n, xs, f1)
    g2 = _g_from_f(n, f1, f_iterate(n, f1))
    return g1, np.minimum(g1 - g_xi, g1 * g2 - g_xi * g_xi)


def dichotomy_grid(grid_size: int) -> np.ndarray:
    """The grid_size + 1 equispaced nodes of [0, 1] the dichotomy sweep checks."""
    if grid_size < 1000:
        raise ValueError("grid_size must be >= 1000")
    return np.linspace(0.0, 1.0, grid_size + 1)


def gelfond_certify(n: int, grid_size: int) -> GelfondCertificate:
    """Grid sweep of the dichotomy plus three bisection rounds of local
    refinement around the worst node.  The sweep guards the implementation;
    the dichotomy itself is a proven statement."""
    xs = dichotomy_grid(grid_size)
    g_xi = g_at_xi(n)
    _, v = gelfond_sweep(n, xs, g_xi)
    i = int(np.argmax(v))
    max_v = float(v[i])
    worst = float(xs[i])
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, grid_size)]
    for _ in range(3):
        fine = np.linspace(lo, hi, 201)
        _, fv = gelfond_sweep(n, fine, g_xi)
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
