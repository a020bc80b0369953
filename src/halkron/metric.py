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
the next level is the matrix times them (``phi_levels``).  Its
interpolant is evaluated in barycentric form (Berrut & Trefethen, SIAM
Review 46 (2004)) and integrated by Fejer's first rule.  One search,
``_level_records``, takes the level stacks of any number of n on one
uniform grid of 256..2^14 cells: it builds the basis at the grid points
once, samples each stack in one matmul with it, locates the ratio extrema
there, and refines them by the golden-section searches of all the stacks
run in lockstep as arrays, ``_LANES`` at a time; it returns ratio records
only.  Concavity is read off level 1's Chebyshev series.  The direct quadrature
takes each factor once per group of panels of one binade, on one period
of it.
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
_MU_SUM_N = 16  # largest n whose mu(n) is its 2^n-term sum; above it mu takes the closed form
_EULER_GAMMA = 0.5772156649015329  # Euler's constant, rounded to a double
_QUAD_POINTS = 8  # Gauss-Legendre points a panel of the direct quadrature
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section searches queued and stepped at once.  A search takes about 300
# doubles: its two levels' node values as queued and as gathered (4 x 48), its
# basis and one product (2 x 48) and a few scalars.  So 2^10 searches take about
# 2.4 MB, below half of one grid basis of 48 (2^14 + 1) doubles (6.3 MB).
_LANES = 1 << 10
_CONCAVITY_POINTS = 257  # equispaced points of [0, 1], both ends, where level 1's p'' is taken
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
    stored.  A level's depth is its index in the list of ``phi_levels``.
    The fields are frozen and the array read-only.
    """

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


def _check_n(n: int) -> None:
    """Raises ``ValueError`` on an n outside 1.._MAX_N."""
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"n must lie in 1..{_MAX_N}")


def check_levels(n: int | range, grid_size: int) -> range:
    """The n's of an int or a range; raises ``ValueError`` on the first n,
    each checked with the grid, that ``phi_levels`` refuses."""
    ns = n if isinstance(n, range) else range(n, n + 1)
    for m in ns:
        _check_n(m)
        if not _MIN_GRID <= grid_size <= DEFAULT_GRID:
            raise ValueError(f"grid_size must lie in {_MIN_GRID}..{DEFAULT_GRID}")
    return ns


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


def phi_levels(n: int, j_max: int, grid_size: int = DEFAULT_GRID) -> list[PhiGrid]:
    """Levels 0..j_max of the recurrence from the constant 1, built on every
    call and kept nowhere: each the collocation matrix times the one before,
    normalized to max 1 with the scale added in log space.  Each carries
    ``grid_size``, the grid its ratio search starts from."""
    check_levels(n, grid_size)
    if j_max < 0:
        raise ValueError("level must be >= 0")
    a = _collocation(n)
    levels = [PhiGrid(np.ones(len(a)), 0.0, grid_size)]
    for _ in range(j_max):
        v = a @ levels[-1].node_values
        s = float(v.max())
        levels.append(PhiGrid(v / s, levels[-1].log_scale + math.log(s), grid_size))
    return levels


def _samples(levels: list[PhiGrid], basis: np.ndarray | None = None) -> np.ndarray:
    """The normalized samples [level, point] of the levels at the g + 1
    points of their grid: level 0 is 1 everywhere, and the others are one
    matmul of their node values with ``basis``, the ``_basis`` at the
    points, built here when not given."""
    if basis is None:
        basis = _basis(np.linspace(0.0, 1.0, levels[0].grid_size + 1))
    vals = np.array([lv.node_values for lv in levels])
    samples = np.ones((len(levels), len(basis)))
    np.matmul(vals[1:], basis.T, out=samples[1:])
    return samples


def mu(n: int) -> float:
    """mu(n) = 4^-n sum_{k<2^n} |cos((1+2k) pi / 2^(n+1))|^-1; equals the
    first level evaluated at 1/2.  For n <= 16 it is that sum; above 16 it
    is the closed form, for M = 2^n,

        mu(n) 2^n = (2/pi)(ln(8M/pi) + gamma) + (pi/72) M^-2.

    Reindexed, mu(n) 4^n = sum_{k<M} csc(pi (k + 1/2)/M), the midpoint sum
    of csc over [0, pi] at step pi/M.  Its two poles 1/x + 1/(pi - x) sum
    exactly to (2M/pi)(psi(M + 1/2) + gamma + 2 ln 2), and psi(M + 1/2) =
    ln M + M^-2/24 - 7 M^-4/960 + ....  The rest r(x) = csc x - 1/x -
    1/(pi - x) is smooth and symmetric about pi/2, with integral 2 ln(2/pi),
    r'(0) = 1/6 - 1/pi^2 and r'''(0) = 7/60 - 6/pi^4, so the midpoint
    Euler-Maclaurin rule sums it to (2M/pi) ln(2/pi) + (pi/12M)(1/6 -
    1/pi^2) - (7 pi^3/2880 M^3)(7/60 - 6/pi^4) + ....  Divided by M, the
    1/(12 pi M^2) and 7/(480 pi M^4) terms of psi and r cancel, which leaves
    the form above with the remainder -(49 pi^3/172800) 16^-n + O(64^-n).
    Against a 200-bit sum, what that term leaves is 0.0048 64^-n to two
    digits for n = 6..10.  For n > 16 it is below 1e-23 of the value,
    far below a double's rounding: the form is within 0.8 ulp of a 200-bit
    sum for n = 11..18.  An n outside 1..1000 raises ``ValueError``."""
    _check_n(n)
    if n > _MU_SUM_N:
        head = (2.0 / math.pi) * ((n + 3) * math.log(2.0) - math.log(math.pi) + _EULER_GAMMA)
        return math.ldexp(head + math.ldexp(math.pi / 72.0, -2 * n), -n)
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


def _grid_extrema(levels: list[PhiGrid], xs: np.ndarray, basis: np.ndarray):
    """The searches of one level stack, sampled at the grid points ``xs``
    through ``basis``, their ``_basis``: per search, max and min
    alternating for each pair of levels, the node values of both levels,
    the pair's scale, the two grid cells around the pair's grid extremum
    and that extremum, with the first of equals and the first NaN winning.
    The ratios overwrite the samples, from the top level down."""
    g = len(xs) - 1
    scale = np.array([math.exp(b.log_scale - a.log_scale) for a, b in zip(levels, levels[1:])])
    samples = _samples(levels, basis)
    for j in range(len(levels) - 1, 0, -1):
        samples[j] /= samples[j - 1]
        samples[j] *= scale[j - 1]
    ratio = samples[1:]
    ext = np.stack([ratio.argmax(axis=1), ratio.argmin(axis=1)], axis=1).ravel()
    pair = np.repeat(np.arange(len(ratio)), 2)
    vals = np.array([lv.node_values for lv in levels])
    searches = (vals[pair], vals[pair + 1], scale[pair],
                xs[np.maximum(ext - 1, 0)], xs[np.minimum(ext + 1, g)], ratio[pair, ext])
    return searches


def _refine(queue: list) -> list[list[LevelRecord]]:
    """The records of the stacks in ``queue``, each an (n, searches) of
    ``_grid_extrema``.  The searches of all of them step in lockstep as
    arrays, ``_LANES`` at a time, each reading both levels' node values
    through one ``_basis`` of its points."""
    fields = [np.concatenate(f) for f in zip(*(searches for _, searches in queue))]
    best = []
    for at in range(0, len(fields[0]), _LANES):
        lower, upper, scale, a, d, grid_best = (f[at:at + _LANES] for f in fields)
        sign = np.tile([1.0, -1.0], len(a) // 2)  # every stack starts with a max

        def q(x: np.ndarray) -> np.ndarray:
            basis = _basis(x)
            return scale * (basis * upper).sum(axis=-1) / (basis * lower).sum(axis=-1)

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
        found = np.where(sign * fc > sign * fb, fc, fb)
        best += np.where(sign * found > sign * grid_best, found, grid_best).tolist()
    results, at = [], 0
    for n, searches in queue:
        stack = best[at:at + len(searches[0])]
        at += len(stack)
        results.append([LevelRecord(j, lo, hi, _exponent(n, lo), _exponent(n, hi))
                        for j, (hi, lo) in enumerate(zip(stack[::2], stack[1::2]))])
    return results


def _level_records(stacks) -> list[list[LevelRecord]]:
    """For each (n, level stack) of ``stacks``, an iterable of stacks on one
    grid: the ratio extrema of each level over the one before, with their
    exponents, as one ``LevelRecord`` per level pair.

    An extremum of q = Phi_{j+1}/Phi_j is its extremum on the sample grid,
    at a point c, or, where more extreme, the best of 60 golden-section
    steps over [x_{c-1}, x_{c+1}].  The basis at the grid points is built
    once, for the first stack, and every stack is sampled by its own matmul
    with it (``_grid_extrema``).  The stacks are read one at a time, and
    their searches queue until the next stack would take the queue past
    ``_LANES``; then ``_refine`` steps the queue's searches in lockstep."""
    results, queue, queued, xs = [], [], 0, None
    for n, levels in stacks:
        if xs is None:  # one grid for every stack
            xs = np.linspace(0.0, 1.0, levels[0].grid_size + 1)
            basis = _basis(xs)
        searches = _grid_extrema(levels, xs, basis)
        if queued + len(searches[0]) > _LANES and queue:
            results += _refine(queue)
            queue, queued = [], 0
        queue.append((n, searches))
        queued += len(searches[0])
    return results + _refine(queue) if queue else results


def lambda_bracket(n: int | range, j_max: int,
                   grid_size: int = DEFAULT_GRID) -> LambdaBracket | list[LambdaBracket]:
    """Ratio extrema per level up to j_max; the max sequence is
    non-increasing and the min sequence non-decreasing, so the deepest pair
    brackets both limit rates.  For a range of n, the list of every n's
    bracket, from one search over all their stacks; each n's levels are
    built as the search reads them."""
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    ns = check_levels(n, grid_size)
    stacks = ((m, phi_levels(m, j_max + 1, grid_size)) for m in ns)
    brackets = [
        LambdaBracket(m, j_max, records[-1].ratio_min, records[-1].ratio_max,
                      records[-1].exp_lower, records[-1].exp_upper, tuple(records))
        for m, records in zip(ns, _level_records(stacks))
    ]
    return brackets if isinstance(n, range) else brackets[0]


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
    by_rec = phi_levels(n, blocks)[-1].integral()
    by_direct = _pi_direct_quadrature(n, blocks, _QUAD_POINTS) if n * blocks <= 24 else None
    return IntegralPi(n, blocks, by_rec, by_direct)


# -- structural checks --------------------------------------------------------


@dataclass(frozen=True)
class StructuralReport:
    n: int
    symmetry_max_dev: float
    concavity_max_d2: float  # the largest p'' of the normalized level-1 interpolant
    failures: tuple[str, ...]
    integral_rows: tuple[tuple[int, float, float], ...]  # (L, integral, mu^L)

    @property
    def all_pass(self) -> bool:
        return not self.failures


def _second_derivative(values: np.ndarray) -> np.ndarray:
    """p'' of the interpolant of node values at the _CONCAVITY_POINTS.  Its
    coefficients in T_k(2x - 1) are c_k = (2/M) sum_j v_j T_k(t_j), c_0
    halved, by discrete orthogonality at the nodes (Trefethen, ATAP, ch. 3
    and 21); numpy.polynomial loads here, on first use, not at start-up."""
    cheb = np.polynomial.chebyshev
    t = 2.0 * _chebyshev(_NODES)[0] - 1.0
    c = (2.0 / _NODES) * (cheb.chebvander(t, _NODES - 1).T @ values)
    c[0] /= 2.0
    return cheb.chebval(np.linspace(-1.0, 1.0, _CONCAVITY_POINTS), cheb.chebder(c, 2, scl=2.0))


def structural_checks(n: int | range,
                      grid_size: int = DEFAULT_GRID) -> StructuralReport | list[StructuralReport]:
    """Verifies mirror symmetry about 1/2 of the node values of levels up
    to _J_SYMMETRY (the nodes are mirrored, t_{M-1-i} = 1 - t_i), concavity
    of the first level's interpolant (p'' <= 1e-8 at _CONCAVITY_POINTS, on
    no grid), monotonicity of the ratio extrema up to level _J_MONOTONE, and
    the integral bound int Pi_{nL,c} <= mu(n)^L for L up to _L_MAX.  For a
    range of n, the list of every n's report, from one search over all."""
    ns = check_levels(n, grid_size)
    stacks = [phi_levels(m, STRUCTURAL_LEVEL, grid_size) for m in ns]
    searches = _level_records((m, levels[: _J_MONOTONE + 2]) for m, levels in zip(ns, stacks))
    reports = []
    for m, levels, records in zip(ns, stacks, searches):
        failures: list[str] = []
        vals = np.array([lv.node_values for lv in levels[: _J_SYMMETRY + 1]])
        sym_dev = float(np.max(np.abs(vals - vals[:, ::-1])))  # a NaN is the max
        if not sym_dev <= 1e-10:
            failures.append(f"symmetry deviation {sym_dev:.3e} above 1e-10")

        max_d2 = float(np.max(_second_derivative(levels[1].node_values)))
        if not max_d2 <= 1e-8:  # a NaN fails too
            failures.append(f"second derivative {max_d2:.3e} of level 1 above 1e-8")

        for a, b in zip(records, records[1:]):
            if not b.ratio_max <= a.ratio_max + 1e-9:  # a NaN fails, as below
                failures.append(f"ratio max increased at level {b.j}")
            if not b.ratio_min >= a.ratio_min - 1e-9:
                failures.append(f"ratio min decreased at level {b.j}")

        mu_n = mu(m)
        rows = []
        for ell in range(1, _L_MAX + 1):
            val = levels[ell].integral()
            bound = mu_n**ell
            rows.append((ell, val, bound))
            if not val <= bound + 1e-12:  # a NaN fails too
                failures.append(f"integral at L={ell} exceeds mu^L: {val:.6e} > {bound:.6e}")
        reports.append(StructuralReport(m, sym_dev, max_d2, tuple(failures), tuple(rows)))
    return reports if isinstance(n, range) else reports[0]
