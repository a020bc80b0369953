"""Transfer-operator recurrence for the averaged product kernel, the
mu constant, monotone ratio brackets for the metric exponents, integral
evaluation, and structural checks (symmetry, concavity, monotonicity).

The operator L f(x) = 2^-n sum_{k<2^n} w_k(x) f((x + k)/2^n), with
w_k(x) = |sin(pi x)| / (2^n |cos(pi (x + k)/2^n)|), is the product
S_0^(n-1) S_1 of one-step operators S_c g(x) = 1/2 sum_{e<2} f_c((x + e)/2)
g((x + e)/2), f_1 = |sin(pi .)| and f_0 = |cos(pi .)|: the halvings
telescope, and the weight of a branch is its sine times the cosines of its
doublings.  On node values it is M_0^(n-1) M_1, the product of the M x M
collocation matrices of the S_c at the M first-kind Chebyshev nodes of
[0,1].  Every branch weight f_c((x + e)/2) is entire in x, so the leading
eigenfunction is analytic and collocation converges geometrically in M
(Bandtlow & Jenkinson, Adv. Math. 218 (2008)).  A level is its M node
values, rescaled by their maximum with the scale tracked in log space, and
the next level is the matrix times them.  Its interpolant is evaluated in
barycentric form (Berrut & Trefethen, SIAM Review 46 (2004)) and
integrated by Fejer's first rule.  The ratio extrema are located on a
uniform grid of 256..2^14 cells, sampled in one matmul, and refined by
golden-section searches run in lockstep as arrays.  The direct quadrature
takes each factor once per group of panels of one binade, on one period of
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .sequences import PerturbSpec
from .trigprod import lacunary_factor

DEFAULT_GRID = 1 << 14  # bracket grid cells where the caller names none, and the most allowed
_MIN_GRID = 256
_NODES = 48  # collocation nodes M; 3M/2 nodes move no exponent by 1e-14 (test_metric)
_MAX_N = 1000  # largest n; at n = 1024 the first level's node values go subnormal (7.7e-309)
_QUAD_POINTS = 8  # Gauss-Legendre points a panel of the direct quadrature
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# depths of the structural checks: symmetric levels, monotone ratio levels, integral bounds
_J_SYMMETRY, _J_MONOTONE, _L_MAX = 6, 12, 10
STRUCTURAL_LEVEL = max(_J_SYMMETRY, _J_MONOTONE + 1, _L_MAX)  # deepest level they build


@cache
def _chebyshev(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m first-kind Chebyshev nodes of [0,1] in increasing order,
    t_j = sin^2(theta_j / 2) for theta_j = (2j + 1) pi / 2m; their
    barycentric weights (-1)^j sin(theta_j); and their Fejer first-rule
    quadrature weights on [0,1].  Read-only, and taken on first use: numpy
    work at import would grow the start-up of every command."""
    theta = (2 * np.arange(m) + 1) * np.pi / (2 * m)
    k = np.arange(1, m // 2 + 1)
    fejer = 1.0 - 2.0 * (np.cos(np.outer(theta, 2 * k)) / (4 * k * k - 1)).sum(axis=1)
    arrays = np.sin(theta / 2) ** 2, (-1.0) ** np.arange(m) * np.sin(theta), fejer / m
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _basis(x):
    """The Lagrange basis of the nodes at x, on a new last axis, in
    barycentric form: w_j / (x - t_j), normalized to sum 1.  At a node it is
    that node's unit vector."""
    nodes, weights, _ = _chebyshev(_NODES)
    d = np.subtract.outer(x, nodes)
    with np.errstate(divide="ignore"):
        c = np.divide(weights, d, out=d)
    total = c.sum(axis=-1, keepdims=True)
    hit = np.isinf(total)  # a node hit's term is +-inf, and no other term overflows
    if hit.any():
        np.copyto(c, np.isinf(c), where=hit)
        total[hit] = 1.0
    c /= total
    return c


@dataclass(frozen=True)
class PhiGrid:
    """One level of the recurrence: its values at the collocation nodes,
    ``node_values``, normalized to max 1; the true level values are these
    times ``exp(log_scale)``.  Levels decay geometrically, so deep runs
    would underflow without the split.  ``grid_size`` is the number of
    cells of the uniform grid that seeds the ratio search; no samples are
    stored.  The fields are frozen and the array read-only.
    """

    n: int
    level: int
    node_values: np.ndarray
    log_scale: float
    grid_size: int

    def __post_init__(self) -> None:
        self.node_values.flags.writeable = False

    def interpolate(self, x: float) -> float:
        """Normalized value of the interpolant at x in [0,1]."""
        if not 0.0 <= x <= 1.0:
            raise ValueError("x must lie in [0,1]")
        return float((_basis(np.float64(x)) * self.node_values).sum())

    def value_at(self, x: float) -> float:
        return self.interpolate(x) * math.exp(self.log_scale)

    def integral(self) -> float:
        """Fejer integral of the level over [0,1]."""
        return float(_chebyshev(_NODES)[2] @ self.node_values) * math.exp(self.log_scale)


def check_levels(n: int, grid_size: int) -> None:
    """Raises ``ValueError`` on an n or a grid that ``phi_levels`` refuses."""
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"n must lie in 1..{_MAX_N}")
    if not _MIN_GRID <= grid_size <= DEFAULT_GRID:
        raise ValueError(f"grid_size must lie in {_MIN_GRID}..{DEFAULT_GRID}")


def _step(sine: bool) -> np.ndarray:
    """The M x M collocation of the one-step operator
    S g(x) = 1/2 sum_{e<2} f((x + e)/2) g((x + e)/2), f = |sin(pi .)| if
    ``sine`` else |cos(pi .)|: entry (i, j) is 1/2 sum_e f(y) l_j(y) at
    y = (t_i + e)/2, l_j the ``_basis``."""
    y = (_chebyshev(_NODES)[0][:, None] + np.array([0.0, 1.0])) / 2.0
    return 0.5 * np.einsum("ie,iej->ij", lacunary_factor(y, sine), _basis(y))


def _collocation(n: int) -> np.ndarray:
    """The M x M matrix of L on node values, M_0^(n-1) M_1 for the
    one-step matrices M_c = ``_step(c)``: the sine step acts first."""
    return np.linalg.matrix_power(_step(False), n - 1) @ _step(True)


def _node_levels(n: int, j_max: int) -> tuple[np.ndarray, list[float]]:
    """Node values [j, node] of levels 0..j_max, iterated from the constant 1
    and each normalized to max 1, and their log scales."""
    a = _collocation(n)
    vals = np.ones((j_max + 1, len(a)))
    logs = [0.0]
    for j in range(1, j_max + 1):
        v = a @ vals[j - 1]
        s = float(v.max())
        vals[j] = v / s
        logs.append(logs[-1] + math.log(s))
    return vals, logs


def phi_levels(n: int, j_max: int, grid_size: int) -> list[PhiGrid]:
    """Levels 0..j_max of the recurrence, iterated from the constant 1 on
    every call; nothing is kept once the caller drops the list.  Each
    carries ``grid_size``, the grid its ratio search starts from."""
    check_levels(n, grid_size)
    if j_max < 0:
        raise ValueError("level must be >= 0")
    vals, logs = _node_levels(n, j_max)
    return [PhiGrid(n, j, v, s, grid_size) for j, (v, s) in enumerate(zip(vals, logs))]


def _grid_points(i: np.ndarray, g: int) -> np.ndarray:
    """The points i/g of the grid of g cells as ``np.linspace(0, 1, g + 1)``
    takes them: i times the step 1/g, and 1.0 at i = g."""
    return np.where(i == g, 1.0, i * (1.0 / g))


def _samples(levels: list[PhiGrid]) -> np.ndarray:
    """The normalized samples [level, point] of the levels at the g + 1
    points of their grid: level 0 is 1 everywhere, and the others are one
    matmul of their node values with the basis at the points."""
    g = levels[0].grid_size
    vals = np.array([lv.node_values for lv in levels])
    samples = np.ones((len(levels), g + 1))
    np.matmul(vals[1:], _basis(_grid_points(np.arange(g + 1), g)).T, out=samples[1:])
    return samples


def _grid_extrema(levels: list[PhiGrid]) -> tuple[np.ndarray, np.ndarray, int, float]:
    """The sampled extrema of the grid: per ratio of consecutive levels its
    max and then its min, as point indices and values, and level 1's
    largest second difference, as point index and value.  The first of
    equals wins, and so does the first NaN."""
    scale = np.array([math.exp(b.log_scale - a.log_scale) for a, b in zip(levels, levels[1:])])
    samples = _samples(levels)
    ratio = np.divide(samples[1:], samples[:-1])
    ratio *= scale[:, None]
    at = np.stack([ratio.argmax(axis=1), ratio.argmin(axis=1)], axis=1).ravel()
    v = samples[1]
    d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
    k = int(np.argmax(d2))
    return at, ratio[np.repeat(np.arange(len(ratio)), 2), at], k + 1, float(d2[k])


def mu(n: int) -> float:
    """mu(n) = 4^-n sum_{k<2^n} |cos((1+2k) pi / 2^(n+1))|^-1; equals the
    first level evaluated at 1/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    b = 1 << n
    ks = np.arange(b, dtype=float)
    terms = 1.0 / lacunary_factor((1.0 + 2.0 * ks) / (2.0 * b), False)
    return float(terms.sum()) / (4.0**n)


@dataclass(frozen=True)
class LevelRecord:
    j: int
    ratio_min: float
    ratio_max: float
    exp_lower: float
    exp_upper: float


@dataclass(frozen=True)
class LambdaBracket:
    """Bracket [m_{n,j_max}, M_{n,j_max}] for the metric rates, with the
    exponent transforms 1 + log_{2^n}(.) and the per-level history."""

    n: int
    j_max: int
    lower: float
    upper: float
    exponent_lower: float
    exponent_upper: float
    levels: tuple[LevelRecord, ...]


def _exponent(n: int, value: float) -> float:
    return 1.0 + math.log(value) / (n * math.log(2.0))


def _level_records(n: int, levels: list[PhiGrid], ext: np.ndarray,
                   grid_best: np.ndarray) -> list[LevelRecord]:
    """Ratio extrema of each level over the one before, with their exponents.

    An extremum of q = Phi_{j+1}/Phi_j is its extremum on the sample grid,
    at a point c, or, where more extreme, the best of 60 golden-section
    steps over [x_{c-1}, x_{c+1}]; ``ext`` and ``grid_best`` are the points
    c and the sampled extrema that ``_grid_extrema`` gives.  All the
    searches, max and min alternating, step in lockstep as arrays, each reading both levels'
    node values through one ``_basis`` of its points."""
    g = levels[0].grid_size
    pairs = list(zip(levels, levels[1:]))
    scale = np.repeat([math.exp(b.log_scale - a.log_scale) for a, b in pairs], 2)
    lower = np.repeat([a.node_values for a, _ in pairs], 2, axis=0)  # [search, node]
    upper = np.repeat([b.node_values for _, b in pairs], 2, axis=0)
    sign = np.tile([1.0, -1.0], len(pairs))

    def q(x: np.ndarray) -> np.ndarray:
        basis = _basis(x)
        return scale * (basis * upper).sum(axis=-1) / (basis * lower).sum(axis=-1)

    a, d = _grid_points(np.maximum(ext - 1, 0), g), _grid_points(np.minimum(ext + 1, g), g)
    b, c = d - _GOLDEN * (d - a), a + _GOLDEN * (d - a)
    fb, fc = q(b), q(c)
    for _ in range(60):
        left = sign * fb >= sign * fc  # keep [a, c] and probe a new b, else [b, d] and a new c
        d = np.where(left, c, d)
        a = np.where(left, a, b)
        x = np.where(left, d - _GOLDEN * (d - a), a + _GOLDEN * (d - a))
        fx = q(x)
        b, c = np.where(left, x, c), np.where(left, b, x)
        fb, fc = np.where(left, fx, fc), np.where(left, fb, fx)
    # the first of two equals wins, as in Python's max and min
    best = np.where(sign * fc > sign * fb, fc, fb)
    best = np.where(sign * best > sign * grid_best, best, grid_best).tolist()
    return [
        LevelRecord(j, lo, hi, _exponent(n, lo), _exponent(n, hi))
        for j, (hi, lo) in enumerate(zip(best[::2], best[1::2]))
    ]


def lambda_bracket(n: int, j_max: int, grid_size: int = DEFAULT_GRID) -> LambdaBracket:
    """Ratio extrema per level up to j_max; the max sequence is
    non-increasing and the min sequence non-decreasing, so the deepest pair
    brackets both limit rates."""
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    levels = phi_levels(n, j_max + 1, grid_size)
    records = _level_records(n, levels, *_grid_extrema(levels)[:2])
    last = records[-1]
    return LambdaBracket(
        n,
        j_max,
        last.ratio_min,
        last.ratio_max,
        last.exp_lower,
        last.exp_upper,
        tuple(records),
    )


# -- integral of the product -------------------------------------------------


@dataclass(frozen=True)
class IntegralPi:
    """int_0^1 Pi_{nL,c} by the two routes: (a) integrating level L of the
    recurrence, (b) direct panel quadrature of the product."""

    n: int
    blocks: int
    by_recurrence: float
    by_direct: float | None

    @property
    def disagreement(self) -> float | None:
        if self.by_direct is None:
            return None
        return abs(self.by_recurrence - self.by_direct)

    @property
    def consistent(self) -> bool | None:
        d = self.disagreement
        return None if d is None else d <= 1e-5


def _pi_direct_quadrature(n: int, blocks: int, qpts: int) -> float:
    """Composite Gauss-Legendre over 2^R dyadic panels, R = min(r, 18), r = n blocks.

    The factor j has its kinks at multiples of 2^-(j+1), so the panel
    boundaries contain every kink only for r <= 18.  Beyond that the panels
    straddle kinks and the route goes wrong (about 3 times the recurrence
    value at n = 2, blocks = 12), so ``by_direct`` is no check there.

    Panel 0 is a group of its own, and group b = 1..R holds the panels
    [2^(b-1), 2^b), whose centres c_p = (p + 1/2) 2^-R lie in one binade and
    are even multiples of its ulp.  So x = fl(c_p + o_k) rounds the Gauss
    offset o_k to the same multiple of that ulp for every panel of a group,
    and the phase {2^j x}, doubled exactly in place, is the same for panels
    p and p + 2^(R-j) of a group, and for all of them once j >= R.  Factor j
    is taken on the group's first min(group, 2^(R-j)) panels and multiplied
    into each period of the group in j order, as a point-by-point product."""
    r = n * blocks
    depth = min(r, 18)  # R
    panels = 1 << depth
    nodes, weights = np.polynomial.legendre.leggauss(qpts)
    h = 1.0 / panels
    offsets = (0.5 * h) * nodes
    gamma = PerturbSpec(n).gamma(r)
    prod = np.ones((panels, qpts))
    phase, factor = np.empty((2, (panels + 1) // 2, qpts))  # for the largest group
    for b in range(depth + 1):
        lo, hi = (1 << b) >> 1, 1 << b
        # t holds the phase {2^j x}, doubled in place: 2t - floor(2t) is exact on [0, 1)
        t = np.add(((np.arange(lo, hi, dtype=float) + 0.5) * h)[:, None], offsets,
                   out=phase[: hi - lo])
        for j in range(r):
            t = t[: 1 << max(depth - j, 0)]  # one period of factor j
            f = factor[: len(t)]
            if j:
                t *= 2.0
                t -= np.floor(t, out=f)
            lacunary_factor(t, gamma[j], out=f)
            each = prod[lo:hi].reshape(-1, len(f), qpts)  # the group's periods of factor j
            each *= f
    prod *= weights
    return float(prod.sum() * 0.5 * h)


def integral_pi(n: int, blocks: int) -> IntegralPi:
    if n < 1 or blocks < 0:
        raise ValueError("need n >= 1 and blocks >= 0")
    if n * blocks > 60:
        raise ValueError("n * blocks must stay <= 60 for the recurrence path")
    if blocks == 0:
        return IntegralPi(n, 0, 1.0, 1.0)
    vals, logs = _node_levels(n, blocks)
    by_rec = float(_chebyshev(_NODES)[2] @ vals[-1]) * math.exp(logs[-1])
    by_direct = _pi_direct_quadrature(n, blocks, _QUAD_POINTS) if n * blocks <= 24 else None
    return IntegralPi(n, blocks, by_rec, by_direct)


# -- structural checks --------------------------------------------------------


@dataclass(frozen=True)
class StructuralReport:
    n: int
    symmetry_max_dev: float
    concavity_max_d2: float
    failures: tuple[str, ...]
    integral_rows: tuple[tuple[int, float, float], ...]  # (L, integral, mu^L)

    @property
    def all_pass(self) -> bool:
        return not self.failures


def structural_checks(n: int, grid_size: int = DEFAULT_GRID) -> StructuralReport:
    """Verifies mirror symmetry about 1/2 of the node values of levels up
    to _J_SYMMETRY (the nodes are mirrored, t_{M-1-i} = 1 - t_i), concavity
    of the first level on the sample grid, monotonicity of the ratio
    extrema up to level _J_MONOTONE, and the integral bound
    int Pi_{nL,c} <= mu(n)^L for L up to _L_MAX."""
    failures: list[str] = []
    levels = phi_levels(n, STRUCTURAL_LEVEL, grid_size)

    sym_dev = 0.0
    for lv in levels[: _J_SYMMETRY + 1]:
        sym_dev = max(sym_dev, float(np.max(np.abs(lv.node_values - lv.node_values[::-1]))))
    if not sym_dev <= 1e-10:
        failures.append(f"symmetry deviation {sym_dev:.3e} above 1e-10")

    monotone = levels[: _J_MONOTONE + 2]
    ext, grid_best, i, max_d2 = _grid_extrema(monotone)
    if not max_d2 <= 1e-8:  # a NaN fails too
        failures.append(f"second difference {max_d2:.3e} > 1e-8 at node {i}")

    records = _level_records(n, monotone, ext, grid_best)
    for a, b in zip(records, records[1:]):
        if b.ratio_max > a.ratio_max + 1e-9:
            failures.append(f"ratio max increased at level {b.j}")
        if b.ratio_min < a.ratio_min - 1e-9:
            failures.append(f"ratio min decreased at level {b.j}")

    mu_n = mu(n)
    rows = []
    for ell in range(1, _L_MAX + 1):
        val = levels[ell].integral()
        bound = mu_n**ell
        rows.append((ell, val, bound))
        if val > bound + 1e-12:
            failures.append(f"integral at L={ell} exceeds mu^L: {val:.6e} > {bound:.6e}")

    return StructuralReport(n, sym_dev, max_d2, tuple(failures), tuple(rows))
