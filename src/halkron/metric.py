"""Transfer-operator recurrence for the averaged product kernel, the
mu constant, monotone ratio brackets for the metric exponents, integral
evaluation, and structural checks (symmetry, concavity, monotonicity).

Levels are tabulated on a uniform grid of [0,1] with monotone cubic (PCHIP)
interpolation for off-grid children.  The grid is a multiple of 2^n, so the
children (x_i + k)/2^n of node i = q 2^n + r all sit at the local offset
r/2^n of cell k g/2^n + q.  A level step therefore gathers the cubic
coefficients of those cells as [q, k, p], multiplies them by a [q, r, k]
branch-weight kernel (built once per ``phi_levels`` call) in one batched
matmul, and contracts the result with the offset powers (r/2^n)^(3-p).
Every level is rescaled by its maximum with the scale tracked in log space;
the ratio extrema that produce the exponent brackets are invariant under
that rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sequences import PerturbSpec
from .trigprod import lacunary_factor

_MIN_GRID = 256
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_QUAD_CHUNK = 1 << 14  # quadrature points whose factors are taken together, in cache


def _edge_slope(d0: float, d1: float) -> float:
    """One-sided three-point end derivative on equal steps, set to 0 or
    clipped to 3 d0 where it would break shape preservation (Moler,
    Numerical Computing with MATLAB, sec. 3.6)."""
    d = (3.0 * d0 - d1) / 2.0
    if np.sign(d) != np.sign(d0):
        return 0.0
    if np.sign(d0) != np.sign(d1) and abs(d) > 3.0 * abs(d0):
        return 3.0 * d0
    return d


def _pchip_cells(grid: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson PCHIP of uniform samples as cubic coefficients
    c[0..3, i], so cell i is ((c0 t + c1) t + c2) t + c3 for t in [0,1).

    Slopes and derivatives are in units of one cell.  An interior
    derivative is the harmonic mean of the adjacent slopes, or 0 where they
    differ in sign or one vanishes.  The extra cell len(grid)-1 is the
    constant last node, so t = 0 there evaluates x = 1.
    """
    delta = np.diff(grid)
    a, b = delta[:-1], delta[1:]
    d = np.zeros_like(grid)
    inner = (np.sign(a) == np.sign(b)) & (a != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the weighted form (w/a + w/b) / 2w with w = 3: it rounds like the
        # reference PCHIP that the tests compare against
        d[1:-1] = np.where(inner, 1.0 / ((3.0 / a + 3.0 / b) / 6.0), 0.0)
    d[0] = _edge_slope(delta[0], delta[1])
    d[-1] = _edge_slope(delta[-1], delta[-2])
    c = np.zeros((4, len(grid)))
    c[0, :-1] = d[:-1] + d[1:] - 2.0 * delta
    c[1, :-1] = (delta - d[:-1]) - c[0, :-1]
    c[2, :-1] = d[:-1]
    c[3] = grid
    c.flags.writeable = False
    return c


def _simpson(y: np.ndarray) -> float:
    """Composite Simpson rule over [0,1] for samples on an even number of
    uniform cells: weights 1, 4, 2, ..., 2, 4, 1 times h/3."""
    cells = len(y) - 1
    s = y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()
    return float(s) / (3.0 * cells)


@dataclass
class PhiGrid:
    """One level of the recurrence, tabulated on grid_size+1 uniform nodes.

    ``grid`` is normalized to max 1; the true level values are
    ``grid * exp(log_scale)``.  Levels decay geometrically, so deep runs
    would underflow without the split.  ``grid`` is read-only because the
    interpolation coefficients ``cells`` derive from it.
    """

    n: int
    level: int
    grid: np.ndarray
    log_scale: float

    def __post_init__(self) -> None:
        self.grid.flags.writeable = False

    @property
    def grid_size(self) -> int:
        return len(self.grid) - 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, len(self.grid))

    @cached_property
    def cells(self) -> np.ndarray:
        """Read-only PCHIP coefficients of ``grid``, see ``_pchip_cells``."""
        return _pchip_cells(self.grid)

    def interpolate(self, x: float) -> float:
        """Normalized PCHIP value at x in [0,1], from the one cell holding x."""
        if not 0.0 <= x <= 1.0:
            raise ValueError("x must lie in [0,1]")
        idx = x * self.grid_size
        i = int(idx)
        t = idx - i
        c0, c1, c2, c3 = self.cells[:, i]
        return float(((c0 * t + c1) * t + c2) * t + c3)

    def values(self) -> np.ndarray:
        return self.grid * math.exp(self.log_scale)

    def value_at(self, x: float) -> float:
        return self.interpolate(x) * math.exp(self.log_scale)

    def integral(self) -> float:
        """Simpson integral of the level over [0,1]."""
        return _simpson(self.grid) * math.exp(self.log_scale)


def _check_grid(n: int, grid_size: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    b = 1 << n
    if grid_size < _MIN_GRID or grid_size % b:
        raise ValueError(f"grid_size must be a multiple of 2^n = {b} and >= {_MIN_GRID}")


def kernel_bytes(n: int, grid_size: int) -> int:
    """Bytes of the float64 kernel that building levels of (n, grid_size)
    allocates, the largest array of a level step: 2^n x 2^n weights for
    each of the grid_size/2^n + 1 blocks of 2^n nodes."""
    _check_grid(n, grid_size)
    return 8 * (1 << n) * (grid_size + (1 << n))


def _kernel(n: int, grid_size: int) -> np.ndarray:
    """Branch weights w_k(x_i) = |sin(pi x_i)| / (2^n |cos((x_i+k) pi / 2^n)|)
    indexed [q, r, k] for node i = q 2^n + r.  Rows with i > grid_size
    belong to no node; they hold finite values that the level step drops.
    The 0/0 points (x=0 with the middle branch, x=1 with its mirror) take
    their finite limit 1.  One buffer of ``kernel_bytes`` is filled in place:
    the child of branch k sits at (i + k g) / (2^n g) on the fine grid."""
    b = 1 << n
    m = grid_size // b
    i = np.arange((m + 1) * b, dtype=float).reshape(m + 1, b, 1)
    w = np.add(i, grid_size * np.arange(b, dtype=float), out=np.empty((m + 1, b, b)))
    w /= b * grid_size
    lacunary_factor(w, False, out=w)  # |cos(pi y)| in place, as the cosine allows
    w *= b
    with np.errstate(invalid="ignore"):
        np.divide(lacunary_factor(i / grid_size, True), w, out=w)
    w[0, 0, b // 2] = 1.0
    w[m, 0, b // 2 - 1] = 1.0
    return w


def _gather_cells(cells: np.ndarray, b: int) -> np.ndarray:
    """Cell coefficients of every child, indexed [q, k, p].

    On g cells with b | g the child (x_i + k)/b of node i = q b + r lies in
    cell k g/b + q at the local offset r/b, so the cell depends on (q, k)
    only and the offset on r only."""
    m = (cells.shape[1] - 1) // b
    return cells.T[np.arange(b) * m + np.arange(m + 1)[:, None]]


def _offset_powers(b: int) -> np.ndarray:
    """Powers t^(3-p) of the local offsets t = r/b, indexed [r, p], so a cell
    polynomial at offset r is its coefficients dotted with row r."""
    t = np.arange(b) / b
    return t[:, None] ** np.arange(3, -1, -1)


def phi_levels(n: int, j_max: int, grid_size: int) -> list[PhiGrid]:
    """Levels 0..j_max of the recurrence, iterated from the constant 1 on
    every call; nothing is kept once the caller drops the list.

    A level step is one batched matmul: for each block q of 2^n nodes, the
    [r, k] weights times the [k, p] coefficients of the children's cells,
    then each row r evaluated at its offset r/2^n."""
    _check_grid(n, grid_size)
    if j_max < 0:
        raise ValueError("level must be >= 0")
    b = 1 << n
    w = _kernel(n, grid_size)
    powers = _offset_powers(b)
    levels = [PhiGrid(n, 0, np.ones(grid_size + 1), 0.0)]
    for j in range(1, j_max + 1):
        prev = levels[-1]
        # [q, r, p]: weighted coefficient sums over the branches k
        sums = np.einsum("qrp,rp->qr", w @ _gather_cells(prev.cells, b), powers)
        vals = sums.ravel()[: grid_size + 1] / b
        s = float(vals.max())
        levels.append(PhiGrid(n, j, vals / s, prev.log_scale + math.log(s)))
    return levels


def phi_level(n: int, j: int, grid_size: int) -> PhiGrid:
    return phi_levels(n, j, grid_size)[j]


def mu(n: int) -> float:
    """mu(n) = 4^-n sum_{k<2^n} |cos((1+2k) pi / 2^(n+1))|^-1; equals the
    first level evaluated at 1/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    b = 1 << n
    ks = np.arange(b, dtype=float)
    terms = 1.0 / lacunary_factor((1.0 + 2.0 * ks) / (2.0 * b), False)
    return float(terms.sum()) / (4.0**n)


def _golden_extremum(f, lo: float, hi: float, maximize: bool, iters: int = 60) -> float:
    """Deterministic golden-section search; returns the extremal value."""
    a, d = lo, hi
    b = d - _GOLDEN * (d - a)
    c = a + _GOLDEN * (d - a)
    fb, fc = f(b), f(c)
    sign = 1.0 if maximize else -1.0
    for _ in range(iters):
        if sign * fb >= sign * fc:
            d, c, fc = c, b, fb
            b = d - _GOLDEN * (d - a)
            fb = f(b)
        else:
            a, b, fb = b, c, fc
            c = a + _GOLDEN * (d - a)
            fc = f(c)
    best = max(fb, fc) if maximize else min(fb, fc)
    return best


def _ratio_extrema(prev: PhiGrid, nxt: PhiGrid) -> tuple[float, float]:
    """Extrema of q(x) = Phi_{j+1}(x)/Phi_j(x) over [0,1]: grid extrema plus
    golden-section refinement in the two adjacent cells."""
    scale = math.exp(nxt.log_scale - prev.log_scale)
    ratio = nxt.grid / prev.grid * scale
    g = prev.grid_size
    xs = prev.nodes

    def q(x: float) -> float:
        return scale * nxt.interpolate(x) / prev.interpolate(x)

    imax = int(np.argmax(ratio))
    imin = int(np.argmin(ratio))
    hi = max(
        float(ratio[imax]),
        _golden_extremum(q, xs[max(imax - 1, 0)], xs[min(imax + 1, g)], maximize=True),
    )
    lo = min(
        float(ratio[imin]),
        _golden_extremum(q, xs[max(imin - 1, 0)], xs[min(imin + 1, g)], maximize=False),
    )
    return lo, hi


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


def _level_records(n: int, levels: list[PhiGrid], j_max: int) -> list[LevelRecord]:
    """Ratio extrema of levels j+1 over j, with their exponents, for j <= j_max."""
    records = []
    for j in range(j_max + 1):
        lo, hi = _ratio_extrema(levels[j], levels[j + 1])
        records.append(LevelRecord(j, lo, hi, _exponent(n, lo), _exponent(n, hi)))
    return records


def lambda_bracket(n: int, j_max: int, grid_size: int = 1 << 14) -> LambdaBracket:
    """Ratio extrema per level up to j_max; the max sequence is
    non-increasing and the min sequence non-decreasing, so the deepest pair
    brackets both limit rates."""
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    levels = phi_levels(n, j_max + 1, grid_size)
    records = _level_records(n, levels, j_max)
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
    """Composite Gauss-Legendre over 2^min(r, 18) dyadic panels, r = n blocks.

    The factor j has its kinks at multiples of 2^-(j+1), so the panel
    boundaries contain every kink only for r <= 18.  Beyond that the panels
    straddle kinks and the route goes wrong (about 3 times the recurrence
    value at n = 2, blocks = 12), so ``by_direct`` is no check there."""
    r = n * blocks
    panels = 1 << min(r, 18)
    nodes, weights = np.polynomial.legendre.leggauss(qpts)
    h = 1.0 / panels
    mids = (np.arange(panels, dtype=float) + 0.5) * h
    xs = (mids[:, None] + (0.5 * h) * nodes[None, :]).ravel()
    gamma = PerturbSpec(n).gamma(r)
    prod = np.ones_like(xs)
    scratch = np.empty(min(xs.size, _QUAD_CHUNK))
    for c in range(0, xs.size, _QUAD_CHUNK):
        # t holds the phase {2^j x}, doubled in place: 2t - floor(2t) is exact on [0, 1)
        t, p = xs[c : c + _QUAD_CHUNK], prod[c : c + _QUAD_CHUNK]
        f = scratch[: t.size]
        for j in range(r):
            if j:
                t *= 2.0
                t -= np.floor(t, out=f)
            p *= lacunary_factor(t, gamma[j], out=f)
    prod = prod.reshape(panels, qpts)
    return float((prod * weights[None, :]).sum() * 0.5 * h)


def integral_pi(n: int, blocks: int, quadrature_points: int = 8, grid_size: int = 1 << 14) -> IntegralPi:
    if n < 1 or blocks < 0:
        raise ValueError("need n >= 1 and blocks >= 0")
    if quadrature_points < 2:
        raise ValueError("quadrature_points must be >= 2")
    r = n * blocks
    if r > 60:
        raise ValueError("n * blocks must stay <= 60 for the recurrence path")
    if blocks == 0:
        return IntegralPi(n, 0, 1.0, 1.0)
    level = phi_level(n, blocks, grid_size)
    by_rec = level.integral()
    by_direct = _pi_direct_quadrature(n, blocks, quadrature_points) if r <= 24 else None
    return IntegralPi(n, blocks, by_rec, by_direct)


# -- structural checks --------------------------------------------------------


@dataclass(frozen=True)
class StructuralReport:
    n: int
    symmetry_ok: bool
    symmetry_max_dev: float
    concavity_ok: bool
    concavity_max_d2: float
    monotonic_ok: bool
    integral_ok: bool
    failures: tuple[str, ...]
    level_records: tuple[LevelRecord, ...]
    integral_rows: tuple[tuple[int, float, float], ...]  # (L, integral, mu^L)

    @property
    def all_pass(self) -> bool:
        return not self.failures


def structural_checks(
    n: int,
    grid_size: int = 1 << 14,
    j_symmetry: int = 6,
    j_monotone: int = 12,
    l_max: int = 10,
) -> StructuralReport:
    """Verifies, on the grid: mirror symmetry about 1/2 for the early levels,
    concavity of the first level, monotonicity of the ratio extrema, and the
    integral bound int Pi_{nL,c} <= mu(n)^L."""
    failures: list[str] = []
    depth = max(j_symmetry, j_monotone + 1, l_max)
    levels = phi_levels(n, depth, grid_size)

    sym_dev = 0.0
    for j in range(j_symmetry + 1):
        dev = float(np.max(np.abs(levels[j].grid - levels[j].grid[::-1])))
        sym_dev = max(sym_dev, dev)
    symmetry_ok = sym_dev <= 1e-10
    if not symmetry_ok:
        failures.append(f"symmetry deviation {sym_dev:.3e} above 1e-10")

    v = levels[1].grid
    d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
    max_d2 = float(d2.max())
    concavity_ok = max_d2 <= 1e-8
    if not concavity_ok:
        i = int(np.argmax(d2)) + 1
        failures.append(f"second difference {max_d2:.3e} > 1e-8 at node {i}")

    records = _level_records(n, levels, j_monotone)
    monotonic_ok = True
    for a, b in zip(records, records[1:]):
        if b.ratio_max > a.ratio_max + 1e-9:
            monotonic_ok = False
            failures.append(f"ratio max increased at level {b.j}")
        if b.ratio_min < a.ratio_min - 1e-9:
            monotonic_ok = False
            failures.append(f"ratio min decreased at level {b.j}")

    mu_n = mu(n)
    rows = []
    integral_ok = True
    for ell in range(1, l_max + 1):
        val = levels[ell].integral()
        bound = mu_n**ell
        rows.append((ell, val, bound))
        if val > bound + 1e-12:
            integral_ok = False
            failures.append(f"integral at L={ell} exceeds mu^L: {val:.6e} > {bound:.6e}")

    return StructuralReport(
        n,
        symmetry_ok,
        sym_dev,
        concavity_ok,
        max_d2,
        monotonic_ok,
        integral_ok,
        tuple(failures),
        tuple(records),
        tuple(rows),
    )
