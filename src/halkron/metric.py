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
The cells are stored cell-major, so the gathered [q, k, p] array is a
strided view of them.  Both sine-bound layers take a recurring sine
once and reuse its double: the kernel's cosines are symmetric in
j <-> 2^n g - j, exactly so on a power-of-two grid, and the direct
quadrature's factors repeat with a period of panels within each group of
panels of one binade.
Every level is rescaled by its maximum with the scale tracked in log space;
the ratio extrema that produce the exponent brackets are invariant under
that rescaling.  The extrema of a whole level stack come from one set of
golden-section searches run in lockstep as arrays; off the grid they and
``PhiGrid.interpolate`` evaluate the cell cubics by the one ``_horner``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sequences import PerturbSpec
from .trigprod import lacunary_factor

DEFAULT_GRID = 1 << 14  # tabulation cells of a level where the caller names none
_MIN_GRID = 256
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_QUAD_CHUNK = 1 << 14  # quadrature points whose factors are taken together, in cache
# depths of the structural checks: symmetric levels, monotone ratio levels, integral bounds
_J_SYMMETRY, _J_MONOTONE, _L_MAX = 6, 12, 10


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
    c[i, 0..3], cell-major, so cell i is ((c0 t + c1) t + c2) t + c3 for t
    in [0,1).

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
    c = np.zeros((len(grid), 4))
    c[:-1, 0] = d[:-1] + d[1:] - 2.0 * delta
    c[:-1, 1] = (delta - d[:-1]) - c[:-1, 0]
    c[:-1, 2] = d[:-1]
    c[:, 3] = grid
    c.flags.writeable = False
    return c


def _horner(c: np.ndarray, t):
    """The cell cubic ((c0 t + c1) t + c2) t + c3 at offset t, with the
    coefficients on the last axis of c: the one off-grid evaluator."""
    return ((c[..., 0] * t + c[..., 1]) * t + c[..., 2]) * t + c[..., 3]


def _simpson(y: np.ndarray) -> float:
    """Composite Simpson rule over [0,1] for samples on an even number of
    uniform cells: weights 1, 4, 2, ..., 2, 4, 1 times h/3."""
    cells = len(y) - 1
    s = y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()
    return float(s) / (3.0 * cells)


@dataclass(frozen=True)
class PhiGrid:
    """One level of the recurrence, tabulated on grid_size+1 uniform nodes.

    ``grid`` is normalized to max 1; the true level values are
    ``grid * exp(log_scale)``.  Levels decay geometrically, so deep runs
    would underflow without the split.  The fields are frozen and ``grid``
    is read-only: the interpolation coefficients ``cells`` derive from it.
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
        return float(_horner(self.cells[i], t))

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
    the child of branch k sits at y = j / (2^n g), j = i + k g, on the fine
    grid.

    On a power-of-two grid y and 1/2 - y are exact, so the cosine at j is
    bit for bit the one at 2^n g - j: entry (i, k) equals
    (g - i, 2^n - 1 - k).  There only the rows q <= m/2, m = g/2^n, and the
    padding row m take their cosines, and the nodes i of rows
    m/2 + 1..m - 1 copy those of g - i with the branches reversed.  On
    other grids the two roundings differ, and every row takes its own."""
    b = 1 << n
    m = grid_size // b
    i = np.arange((m + 1) * b, dtype=float).reshape(m + 1, b, 1)
    w = np.empty((m + 1, b, b))
    mirrored = grid_size & (grid_size - 1) == 0
    half = m // 2 + 1 if mirrored else m  # rows 0..half-1 and m are filled
    for rows in (slice(0, half), slice(m, m + 1)):
        y = np.add(i[rows], grid_size * np.arange(b, dtype=float), out=w[rows])
        y /= b * grid_size
        lacunary_factor(y, False, out=y)  # |cos(pi y)| in place, as the cosine allows
    flat = w.reshape(-1, b)
    flat[half * b : m * b] = flat[grid_size - half * b : 0 : -1, ::-1]
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
    only and the offset on r only.  The result is a read-only strided view
    of the cell-major ``cells``, no copy: for each branch k the window of
    m + 1 cells starting at cell k m.  Each [k, p] matrix has unit column
    stride and row stride 4m, so the batched matmul hands it to BLAS as it
    is."""
    m = (len(cells) - 1) // b
    return sliding_window_view(cells, m + 1, axis=0)[::m].transpose(2, 0, 1)


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
    """Ratio extrema of levels j+1 over j, with their exponents, for j <= j_max.

    An extremum of q = Phi_{j+1}/Phi_j is its grid extremum at a node c or,
    where more extreme, the best of 60 golden-section steps over
    [x_{c-1}, x_{c+1}].  All 2(j_max+1) searches, max and min alternating,
    step in lockstep as arrays.  Rounding is monotone, so each new point
    lies in its search's current interval and hence in the start interval;
    a node x_k = k fl(1/g) times g rounds to within k 2^-51 of k, so
    int(x g) lies in c-2..c+1.  Each search reads both levels' cubics from
    that window of the cell tables, clipped to 0..g like int(x g) itself."""
    g = levels[0].grid_size
    xs = levels[0].nodes
    scale, ext, grid_best, window = [], [], [], []
    for prev, nxt in zip(levels[: j_max + 1], levels[1 : j_max + 2]):
        s = math.exp(nxt.log_scale - prev.log_scale)
        ratio = nxt.grid / prev.grid * s
        c = [int(np.argmax(ratio)), int(np.argmin(ratio))]
        cells = np.clip(np.add.outer(c, np.arange(-2, 2)), 0, g)
        window.append(np.stack([prev.cells[cells], nxt.cells[cells]], axis=2))
        scale += [s, s]
        ext += c
        grid_best += ratio[c].tolist()
    window = np.concatenate(window)  # [search, cell, level, coefficient]
    scale, ext = np.array(scale), np.array(ext)
    sign = np.tile([1.0, -1.0], j_max + 1)
    searches = np.arange(len(ext))

    def q(x: np.ndarray) -> np.ndarray:
        idx = x * g
        i = idx.astype(np.int64)
        v = _horner(window[searches, i - ext + 2], (idx - i)[:, None])
        return scale * v[:, 1] / v[:, 0]

    a, d = xs[np.maximum(ext - 1, 0)], xs[np.minimum(ext + 1, g)]
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
    best = np.where(sign * best > sign * np.array(grid_best), best, grid_best).tolist()
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


def _panel_block(qpts: int) -> int:
    """Panels whose factors are taken together, in cache: the largest power
    of two <= max(1, _QUAD_CHUNK // qpts), so a block of a group (see
    ``_pi_direct_quadrature``) holds whole periods of every factor."""
    return 1 << (max(1, _QUAD_CHUNK // qpts).bit_length() - 1)


def _check_integral(n: int, blocks: int, qpts: int) -> None:
    if n < 1 or blocks < 0:
        raise ValueError("need n >= 1 and blocks >= 0")
    if qpts < 2:
        raise ValueError("quadrature_points must be >= 2")
    if n * blocks > 60:
        raise ValueError("n * blocks must stay <= 60 for the recurrence path")


def quadrature_bytes(n: int, blocks: int, qpts: int) -> int:
    """Bytes of the direct quadrature, r = n blocks in 1..24 (else 0): the float64
    product at 2^R x qpts points, R = min(r, 18), the phases and factors of
    one block of panels, the factor tables of the largest group, and a
    qpts x qpts companion matrix.  A block is at most ``_panel_block(qpts)``
    panels, the power of two the quadrature takes together.  The largest
    group holds 2^(R-1) panels, so it tables the periods 2^(R-j) of
    j = 2..R-1 and one panel for each j = R..r-1.  Raises ``ValueError`` on
    the arguments ``integral_pi`` refuses."""
    _check_integral(n, blocks, qpts)
    r = n * blocks
    if not 1 <= r <= 24:
        return 0
    depth = min(r, 18)
    panels = 1 << depth
    block = min(panels, _panel_block(qpts))
    tables = max(panels // 2 - 2, 0) + r - depth
    return 8 * ((panels + 2 * block + tables) * qpts + qpts * qpts)


def _pi_direct_quadrature(n: int, blocks: int, qpts: int) -> float:
    """Composite Gauss-Legendre over 2^R dyadic panels, R = min(r, 18), r = n blocks.

    The factor j has its kinks at multiples of 2^-(j+1), so the panel
    boundaries contain every kink only for r <= 18.  Beyond that the panels
    straddle kinks and the route goes wrong (about 3 times the recurrence
    value at n = 2, blocks = 12), so ``by_direct`` is no check there.

    Each factor is taken once per period of panels.  Panel 0 is a group of
    its own, and group b = 1..R holds the panels [2^(b-1), 2^b), whose
    centres c_p = (p + 1/2) 2^-R lie in one binade and are even multiples of
    its ulp.  So x = fl(c_p + o_k) rounds the Gauss offset o_k to the same
    multiple of that ulp for every panel of a group, and the phase {2^j x},
    doubled exactly in place, is the same for panels p and p + 2^(R-j) of a
    group, and for every panel of it once j >= R.  A group is split into
    blocks of ``_panel_block(qpts)`` panels, a power of two, so a block
    holds whole periods: factor j is taken on the block's first
    min(len, 2^(R-j)) panels and multiplied into every period of the block,
    in the same j order.  Where the period 2^(R-j) is shorter than the
    group, the factor is taken into a table of the group's first period,
    and a block at offset o >= 2^(R-j) in the group reads the same doubles
    from rows o mod 2^(R-j) on; blocks and periods are powers of two, so
    those rows are whole periods or a whole block.  Every product element
    sees the same factors in the same order as one taken point by point."""
    r = n * blocks
    depth = min(r, 18)  # R
    panels = 1 << depth
    nodes, weights = np.polynomial.legendre.leggauss(qpts)
    h = 1.0 / panels
    offsets = (0.5 * h) * nodes
    gamma = PerturbSpec(n).gamma(r)
    prod = np.ones((panels, qpts))
    periods = [1 << max(depth - j, 0) for j in range(r)]  # panels per period of factor j
    step = _panel_block(qpts)
    scratch = np.empty((min(panels, step), qpts))
    for b in range(depth + 1):
        lo, hi = (1 << b) >> 1, 1 << b
        # factor j over the group's first period, for the periods shorter than the group
        tables = {j: np.empty((s, qpts)) for j, s in enumerate(periods) if s < hi - lo}
        for p0 in range(lo, hi, step):
            p = prod[p0 : min(p0 + step, hi)]
            o = p0 - lo
            # t holds the phase {2^j x}, doubled in place: 2t - floor(2t) is exact on [0, 1)
            t = ((np.arange(p0, p0 + len(p), dtype=float) + 0.5) * h)[:, None] + offsets
            for j, period in enumerate(periods):
                if o >= period:  # a later period of the group: factor j is in its table
                    f = tables[j][o % period :][: len(p)]
                else:
                    t = t[:period]
                    f = tables[j][o : o + len(t)] if j in tables else scratch[: len(t)]
                    if j:
                        t *= 2.0
                        t -= np.floor(t, out=f)
                    lacunary_factor(t, gamma[j], out=f)
                each = p.reshape(-1, len(f), qpts)  # the block's periods of factor j
                each *= f
        del tables  # before the next group's, twice the size
    prod *= weights
    return float(prod.sum() * 0.5 * h)


def integral_pi(n: int, blocks: int, quadrature_points: int = 8,
                grid_size: int = DEFAULT_GRID) -> IntegralPi:
    _check_integral(n, blocks, quadrature_points)
    if blocks == 0:
        return IntegralPi(n, 0, 1.0, 1.0)
    level = phi_level(n, blocks, grid_size)
    by_rec = level.integral()
    by_direct = _pi_direct_quadrature(n, blocks, quadrature_points) if n * blocks <= 24 else None
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
    """Verifies, on the grid: mirror symmetry about 1/2 for levels up to
    _J_SYMMETRY, concavity of the first level, monotonicity of the ratio
    extrema up to level _J_MONOTONE, and the integral bound
    int Pi_{nL,c} <= mu(n)^L for L up to _L_MAX."""
    failures: list[str] = []
    levels = phi_levels(n, max(_J_SYMMETRY, _J_MONOTONE + 1, _L_MAX), grid_size)

    sym_dev = 0.0
    for j in range(_J_SYMMETRY + 1):
        dev = float(np.max(np.abs(levels[j].grid - levels[j].grid[::-1])))
        sym_dev = max(sym_dev, dev)
    if not sym_dev <= 1e-10:
        failures.append(f"symmetry deviation {sym_dev:.3e} above 1e-10")

    v = levels[1].grid
    d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
    max_d2 = float(d2.max())
    if not max_d2 <= 1e-8:  # a NaN fails too
        i = int(np.argmax(d2)) + 1
        failures.append(f"second difference {max_d2:.3e} > 1e-8 at node {i}")

    records = _level_records(n, levels, _J_MONOTONE)
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
