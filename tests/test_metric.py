import dataclasses
import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kernel_oracle import full_fill
from level_step_oracle import oracle_phi_levels
from ratio_search_oracle import oracle_ratio_extrema
from quadrature_oracle import pi_direct_quadrature
from halkron import metric
from halkron.cli import DEFAULT_DEPTH_CAP
from halkron.metric import (
    _NODES,
    PhiGrid,
    _chebyshev,
    _pi_direct_quadrature,
    _samples,
    integral_pi,
    lambda_bracket,
    mu,
    phi_levels,
    structural_checks,
)
from halkron.trigprod import lacunary_factor

GRID = 1 << 12  # enough for unit tests; acceptance uses 2^14


def phi_level(n: int, j: int, grid_size: int) -> PhiGrid:
    return phi_levels(n, j, grid_size)[j]


def level_samples(n: int, j: int, grid_size: int) -> np.ndarray:
    """Level j's normalized samples on the grid_size + 1 points of its grid."""
    return _samples(phi_levels(n, j, grid_size))[j]


def factor_sizes(monkeypatch) -> list[int]:
    """The sizes of the phase arrays that ``metric`` passes to
    ``lacunary_factor`` from now on, one entry a call."""
    taken = []

    def counting(phase, sine, out=None):
        taken.append(phase.size)
        return lacunary_factor(phase, sine, out=out)

    monkeypatch.setattr("halkron.metric.lacunary_factor", counting)
    return taken


class TestPhiLevel:
    def test_level_zero_is_one(self):
        lv = phi_level(3, 0, GRID)
        assert (lv.node_values == 1.0).all()
        assert (level_samples(3, 0, GRID) == 1.0).all()
        assert lv.log_scale == 0.0

    def test_closed_form_level_one_n1(self):
        # folding the two branches by half-angle identities:
        # (sin(x pi/2) + cos(x pi/2)) / 2
        lv = phi_level(1, 1, 1 << 14)
        xs = np.linspace(0.0, 1.0, (1 << 14) + 1)
        expected = (np.sin(xs * np.pi / 2) + np.cos(xs * np.pi / 2)) / 2.0
        got = level_samples(1, 1, 1 << 14) * math.exp(lv.log_scale)
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_half_point_value_n1(self):
        lv = phi_level(1, 1, GRID)
        assert lv.value_at(0.5) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_interior_positive(self):
        for n in (1, 2, 3):
            for j in (1, 2, 3):
                assert (level_samples(n, j, GRID)[1:-1] > 0.0).all()

    def test_symmetry(self):
        for n in (1, 2, 4):
            v = level_samples(n, 3, GRID)
            assert np.max(np.abs(v - v[::-1])) < 1e-10

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            phi_level(1, 1, 100)
        with pytest.raises(ValueError):
            phi_level(1, -1, GRID)
        with pytest.raises(ValueError):
            phi_level(1, 1, GRID).value_at(1.5)
        for n in (0, 1001):
            with pytest.raises(ValueError, match=r"n must lie in 1\.\.1000"):
                phi_level(n, 1, GRID)
        for grid in (255, (1 << 14) + 1):
            with pytest.raises(ValueError, match=r"grid_size must lie in 256\.\.16384"):
                phi_level(1, 1, grid)

    def test_node_values_are_read_only(self):
        before = lambda_bracket(2, 4, GRID)
        lv = phi_level(2, 3, GRID)
        with pytest.raises(ValueError):
            lv.node_values[3] = 0.0
        assert lambda_bracket(2, 4, GRID) == before

    def test_interpolate_at_a_node_is_its_value(self):
        lv = phi_level(3, 2, GRID)
        nodes = _chebyshev(_NODES)[0]
        for i in (0, 17, _NODES - 1):
            assert lv.interpolate(float(nodes[i])) == lv.node_values[i]

    def test_interpolate_against_scipy(self):
        interp = pytest.importorskip("scipy.interpolate")
        lv = phi_level(2, 3, GRID)
        xs = np.random.default_rng(0).random(500)
        want = interp.BarycentricInterpolator(_chebyshev(_NODES)[0], lv.node_values)(xs)
        got = np.array([lv.interpolate(float(x)) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_fields_cannot_be_rebound(self):
        # a level holds no samples: the grid is only where its ratio search starts
        lv = phi_level(1, 2, 256)
        cubic = lv.interpolate(0.3001)
        fields = [f.name for f in dataclasses.fields(lv)]
        assert fields == ["node_values", "log_scale", "grid_size"]
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(lv, name, 0)
        assert lv.interpolate(0.3001) == cubic

    def test_levels_are_not_retained(self):
        gc.collect()
        tracemalloc.start()
        try:
            lambda_bracket(3, 12, 1 << 14)
            structural_checks(2, GRID)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20


class TestLevelStepOracle:
    """The collocation level step against the Chebyshev-series step in
    ``level_step_oracle``, on power-of-two and other grids."""

    CASES = [(n, g) for n in range(1, 7) for g in (1 << 10, 1 << 14, 3 << 10)]
    CASES += [(7, 1 << 12), (8, 1 << 12), (12, 1 << 10), (14, 1 << 10)]

    @pytest.mark.parametrize("n,grid", CASES)
    def test_levels_match(self, n, grid):
        got = phi_levels(n, 13, grid)
        want = oracle_phi_levels(n, 13, grid)
        assert len(got) == len(want) == 14
        for a, samples, (want_samples, want_log) in zip(got, _samples(got), want):
            assert np.max(np.abs(samples - want_samples)) <= 1e-12
            assert abs(a.log_scale - want_log) <= 1e-12


class TestKernelOracle:
    """Levels 1 and 2 sampled on the grid against the operator applied at
    every sample node with the full fill of ``kernel_oracle``, on
    power-of-two grids from 2^8 (one node per branch at n = 8) to 2^14 and
    on grids that are not powers of two."""

    CASES = [(n, 1 << e) for n in range(1, 9) for e in range(8, 15)]
    CASES += [(n, g) for n in range(1, 9) for g in (3 << 10, 5 << 9) if g % (1 << n) == 0]

    @pytest.mark.parametrize("n,grid", CASES)
    def test_node_rows_equal_the_full_fill(self, n, grid):
        levels = phi_levels(n, 2, grid)
        nodes = _chebyshev(_NODES)[0]
        for prev, lv, samples in zip(levels, levels[1:], _samples(levels)[1:]):
            want = full_fill(n, grid, nodes, prev.node_values) * math.exp(prev.log_scale - lv.log_scale)
            assert np.isfinite(want).all()
            assert np.max(np.abs(samples - want)) <= 1e-13

    def test_cosines_taken_once(self, monkeypatch):
        taken = factor_sizes(monkeypatch)
        for n in (8, 200):
            taken.clear()
            metric._collocation(n)
            # each one-step build takes one factor per node and branch, whatever n is
            assert taken == [2 * _NODES] * 2


class TestMu:
    def test_mu1_exact(self):
        assert mu(1) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-13)

    def test_mu2_independent_sum(self):
        # four-term sum written out by hand
        expected = (2.0 / math.cos(math.pi / 8) + 2.0 / math.cos(3 * math.pi / 8)) / 16.0
        assert mu(2) == pytest.approx(expected, abs=1e-14)
        assert mu(2) == pytest.approx(0.4619397662556434, abs=1e-13)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_first_level_at_half(self, n):
        assert mu(n) == pytest.approx(phi_level(n, 1, GRID).value_at(0.5), abs=1e-10)

    def test_upper_exponent_dominates_reference(self):
        ref_upper = {1: 0.40348, 2: 0.37516, 3: 0.34962, 4: 0.32672, 5: 0.30599}
        for n, up in ref_upper.items():
            assert 1.0 + math.log(mu(n)) / (n * math.log(2.0)) >= up

    @staticmethod
    def secant_sum(n: int) -> float:
        # the 2^n-term definition in float64, each |cos(pi p)| taken as the
        # sine of its reduced argument |1/2 - p|
        b = 1 << n
        p = (1.0 + 2.0 * np.arange(b, dtype=float)) / (2.0 * b)
        return float((1.0 / np.sin(np.abs(0.5 - p) * np.pi)).sum()) / 4.0**n

    @pytest.mark.parametrize("n", range(1, 17))
    def test_sum_up_to_16(self, n):
        assert mu(n) == self.secant_sum(n)

    @pytest.mark.parametrize("n", range(17, 21))
    def test_closed_form_above_16(self, n):
        want = self.secant_sum(n)
        assert abs(mu(n) - want) <= 2 * math.ulp(want)

    def test_closed_form_stays_normal_to_n_1000(self):
        assert 4.0e-299 < mu(1000) < 4.2e-299

    @pytest.mark.parametrize("n", [0, -1, 1001])
    def test_n_outside_1_to_1000_raises(self, n):
        with pytest.raises(ValueError, match=r"^n must lie in 1\.\.1000$"):
            mu(n)


class TestLambdaBracket:
    def test_more_nodes_move_no_exponent(self, monkeypatch):
        # M collocation nodes against 3M/2: the collocation has converged
        def exponents():
            return [(r.exp_lower, r.exp_upper)
                    for n in range(1, 9) for r in lambda_bracket(n, 12, 1 << 14).levels]

        base = exponents()
        monkeypatch.setattr(metric, "_NODES", 3 * _NODES // 2)
        for (lo, hi), (lo2, hi2) in zip(base, exponents(), strict=True):
            assert abs(lo - lo2) <= 1e-14 and abs(hi - hi2) <= 1e-14

    def test_fejer_weights_integrate_the_nodes_polynomials(self):
        # Fejer's first rule is exact for polynomials of degree < M
        nodes, _, weights = _chebyshev(_NODES)
        for p in range(0, _NODES, 7):
            assert weights @ nodes**p == pytest.approx(1.0 / (p + 1), rel=1e-13)

    def test_depth_zero_anchor(self):
        # M_0 = mu(1): upper exponent 1 + log2(sqrt(2)/2) = 1/2
        br = lambda_bracket(1, 0, GRID)
        assert br.exponent_upper == pytest.approx(0.5, abs=1e-9)

    def test_monotone_level_records(self):
        br = lambda_bracket(2, 10, GRID)
        for a, b in zip(br.levels, br.levels[1:]):
            assert b.ratio_max <= a.ratio_max + 1e-9
            assert b.ratio_min >= a.ratio_min - 1e-9
        assert br.lower <= br.upper

    def test_reference_bracket_n1(self):
        br = lambda_bracket(1, 12, 1 << 14)
        lo, hi = br.exponent_lower - 5e-4, br.exponent_upper + 5e-4
        assert lo <= 0.40337 and 0.40348 <= hi

    def test_scale_invariance_of_ratios(self):
        # ratios from normalized grids + log scales == ratios from the
        # denormalized level values
        levels = phi_levels(2, 5, GRID)
        a, b = levels[4], levels[5]
        grid_a, grid_b = _samples(levels)[4:]
        q_norm = grid_b / grid_a * math.exp(b.log_scale - a.log_scale)
        q_plain = (grid_b * math.exp(b.log_scale)) / (grid_a * math.exp(a.log_scale))
        assert np.max(np.abs(q_norm - q_plain)) < 1e-12 * np.max(q_plain)

    def test_grid_doubling_convergence(self):
        coarse = lambda_bracket(1, 8, 1 << 11).exponent_upper
        mid = lambda_bracket(1, 8, 1 << 12).exponent_upper
        fine = lambda_bracket(1, 8, 1 << 13).exponent_upper
        assert abs(fine - mid) < 5e-5
        assert abs(fine - mid) <= abs(mid - coarse) + 1e-12


class TestIntegralPi:
    def test_empty_product(self):
        res = integral_pi(1, 0)
        assert res.by_recurrence == 1.0 and res.by_direct == 1.0

    def test_two_over_pi_both_paths(self):
        res = integral_pi(1, 1)
        assert res.by_recurrence == pytest.approx(2.0 / math.pi, abs=1e-8)
        assert res.by_direct == pytest.approx(2.0 / math.pi, abs=1e-8)

    def test_n2_l2_agreement(self):
        res = integral_pi(2, 2)
        assert res.disagreement < 1e-6

    @pytest.mark.parametrize("n,l", [(1, 12), (2, 5), (3, 4)])
    def test_dual_path_agreement(self, n, l):
        res = integral_pi(n, l)
        assert res.consistent

    def test_recurrence_guard(self):
        with pytest.raises(ValueError):
            integral_pi(4, 20)

    def test_direct_skipped_beyond_24(self):
        res = integral_pi(3, 10)  # nL = 30
        assert res.by_direct is None and res.consistent is None

    def test_middle_split_identity(self):
        # int Pi_{nL} == int Phi_{n,j} * Pi_{n(L-j)} for a middle j
        from halkron.metric import _pi_direct_quadrature
        from halkron.sequences import PerturbSpec
        import numpy as np

        n, l, j = 2, 3, 1
        lv = phi_level(n, j, 1 << 12)
        # composite Simpson rule for Phi_{n,j}(x) * Pi_{n(L-j),c}(x) on the level's sample grid
        xs = np.linspace(0.0, 1.0, (1 << 12) + 1)
        gamma = PerturbSpec(n).gamma(n * (l - j))
        prod = np.ones_like(xs)
        for idx in range(n * (l - j)):
            t = (xs * float(2**idx)) % 1.0
            prod *= np.sin(np.pi * np.minimum(t, 1 - t)) if gamma[idx] else np.sin(np.pi * np.abs(0.5 - t))
        y = level_samples(n, j, 1 << 12) * math.exp(lv.log_scale) * prod
        lhs = (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()) / (3.0 * len(xs) - 3.0)
        rhs = _pi_direct_quadrature(n, l, 8)
        assert lhs == pytest.approx(rhs, abs=2e-7)


class TestDirectQuadratureOracle:
    """The in-place phase doubling of ``_pi_direct_quadrature`` against the
    former loop with fresh arrays per factor, for every n = 1..5 and L with
    n L <= 16 (the pair of routes takes under 1 s each)."""

    CASES = [(n, l) for n in range(1, 6) for l in range(1, 16 // n + 1)]

    @pytest.mark.parametrize("n,l", CASES)
    def test_bit_identical(self, n, l):
        assert _pi_direct_quadrature(n, l, 8) == pi_direct_quadrature(n, l, 8)

    def test_bit_identical_other_quadrature_orders(self):
        # (1, 13, 3) and (2, 6, 5): a panel holds an odd number of points;
        # (1, 20, 2): r > 18, so the factors j >= 18 are taken on one panel
        # a group; (1, 16, 3) and (1, 12, 200): q is no power of two, and
        # the largest group holds 2^15 panels of 3 points or 2^11 of 200;
        # (1, 16, 40) and (3, 6, 5): the largest group holds 2^15 or 2^17
        # panels, so most factors are multiplied into many periods of it
        for n, l, q in [(1, 5, 2), (2, 4, 5), (3, 3, 16), (1, 13, 3), (2, 6, 5),
                        (1, 20, 2), (1, 16, 3), (1, 12, 200), (1, 16, 40), (3, 6, 5)]:
            assert _pi_direct_quadrature(n, l, q) == pi_direct_quadrature(n, l, q)

    def test_factors_taken_once_per_period(self, monkeypatch):
        taken = []

        def counting(phase, sine, out=None):
            taken.append(phase.size)
            return lacunary_factor(phase, sine, out=out)

        monkeypatch.setattr("halkron.metric.lacunary_factor", counting)
        _pi_direct_quadrature(2, 12, 8)
        # one factor per point would be 24 x 2^18 x 8 = 50,331,648
        assert sum(taken) < 20_000_000

    def test_factors_taken_once_per_group_period(self, monkeypatch):
        taken = factor_sizes(monkeypatch)
        _pi_direct_quadrature(2, 12, 8)
        # once per period of each block of 2048 panels would be 18,911,568
        assert sum(taken) < 9_000_000


def traced_peak(fn, *args) -> int:
    """The peak bytes that tracemalloc traces while fn(*args) runs; numpy
    reports its array buffers to it."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestByteGuards:
    """The levels that ``lambda``'s depth cap admits stay below 2^30 traced
    bytes, and the direct quadrature, which no cap guards, stays below a
    fixed bound, each up to a fixed slack for Python objects and numpy's
    small temporaries."""

    SLACK = 1 << 16

    @pytest.fixture(autouse=True)
    def warm(self):
        # made once per process, not per call: the node tables and the
        # first Gauss-Legendre rule's imports
        _chebyshev(_NODES)
        _pi_direct_quadrature(1, 1, 2)

    @pytest.mark.parametrize("n,l", [(1, r) for r in range(1, 25)] + [(2, 12), (24, 1)])
    def test_quadrature_peak(self, n, l):
        # at r = n l >= 18, the largest: the product at 2^18 panels x 8
        # points, the phases and factors of the largest group (2^17 panels),
        # its centres twice, the companion matrix and one ufunc buffer of
        # 8192 doubles, about 36 MB; so no r <= 24 needs a guard
        peak = traced_peak(_pi_direct_quadrature, n, l, metric._QUAD_POINTS)
        assert peak <= 8 * (2**19 * 8 + 2**18 + 8**2 + 8192) + self.SLACK

    def test_many_n_peak(self):
        # 1000 stacks of 14 levels on 257 points: the peak holds the 13,000
        # records returned (about 3 MB) and one queue of at most 2^10
        # searches (about 2.4 MB); the searches of every n at once would
        # take over 60 MB, and their levels over 5 MB more
        assert metric._LANES == 1 << 10
        assert traced_peak(lambda_bracket, range(1, 1001), 12, 256) <= 8 << 20

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_level_bytes(self, n):
        # at the largest grid, 2^14 cells, the peak holds one basis (48
        # doubles a point) and the samples and ratios of 14 levels; a level
        # adds its samples and its ratios, 16 (2^14 + 1) bytes whatever n,
        # so the cap's depth stays below 2^30 bytes
        points = (1 << 14) + 1
        for fn, args in ((lambda_bracket, (n, 12)), (structural_checks, (n,))):
            assert traced_peak(fn, *args, 1 << 14) <= 8 * points * (48 + 2 * 14) + self.SLACK
        per_level = 16 * points
        low, high = (traced_peak(lambda_bracket, n, depth, 1 << 14) for depth in (12, 400))
        assert high - low <= (400 - 12) * per_level + self.SLACK
        assert low + (DEFAULT_DEPTH_CAP - 12) * per_level + self.SLACK < 1 << 30


class TestStructuralChecks:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_all_pass(self, n):
        rep = structural_checks(n, GRID)
        assert rep.all_pass, rep.failures

    def test_reports_details(self):
        rep = structural_checks(1, GRID)
        assert rep.symmetry_max_dev < 1e-10
        assert rep.concavity_max_d2 <= 1e-8
        assert len(rep.integral_rows) == 10
        for ell, val, bound in rep.integral_rows:
            assert val <= bound + 1e-12

    def test_search_failures(self, monkeypatch):
        # a rising max and a falling min, as the one search reports them
        def search(stacks):
            records = [metric.LevelRecord(0, 0.5, 1.0, 0.0, 1.0),
                       metric.LevelRecord(1, 0.4, 1.1, 0.0, 1.0)]
            return [records for _ in stacks]

        monkeypatch.setattr(metric, "_level_records", search)
        rep = structural_checks(1, GRID)
        assert rep.failures == ("ratio max increased at level 1",
                                "ratio min decreased at level 1")

    @staticmethod
    def patch_level_1(monkeypatch, change):
        """``phi_levels`` with level 1's node values replaced by
        ``change(node values, nodes)``."""
        true_levels = metric.phi_levels
        nodes = _chebyshev(_NODES)[0]

        def patched(*args):
            levels = true_levels(*args)
            v = change(levels[1].node_values.copy(), nodes)
            levels[1] = dataclasses.replace(levels[1], node_values=v)
            return levels

        monkeypatch.setattr(metric, "phi_levels", patched)

    def test_convex_first_level_fails(self, monkeypatch):
        # 2 (x - 1/2)^2 adds 4 to p'', which is -1.745 at both ends for n = 1
        self.patch_level_1(monkeypatch, lambda v, t: v + 2.0 * (t - 0.5) ** 2)
        rep = structural_checks(1, GRID)
        assert rep.failures[0] == "second derivative 2.255e+00 of level 1 above 1e-8"
        assert rep.concavity_max_d2 == pytest.approx(4.0 - 1.745, abs=1e-3)

    def test_second_derivative_of_the_first_level(self):
        # for n = 1, Phi_1(x) = (sin(pi x/2) + cos(pi x/2))/2
        lv = phi_levels(1, 1)[1]
        x = np.linspace(0.0, 1.0, metric._CONCAVITY_POINTS)
        want = -(math.pi**2 / 8.0) * (np.sin(math.pi * x / 2) + np.cos(math.pi * x / 2))
        d2 = metric._second_derivative(lv.node_values)
        assert np.max(np.abs(d2 * math.exp(lv.log_scale) - want)) <= 1e-6
        assert structural_checks(1, GRID).concavity_max_d2 == float(np.max(d2))

    def test_concavity_reads_no_grid(self):
        small, large = structural_checks(range(1, 9), 256), structural_checks(range(1, 9), 1 << 14)
        for a, b in zip(small, large):
            assert a.concavity_max_d2 == b.concavity_max_d2 < 0.0

    def test_nan_first_level_fails(self, monkeypatch):
        def poison(v, t):
            v[5] = np.nan
            return v

        self.patch_level_1(monkeypatch, poison)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = structural_checks(1, GRID)
        assert math.isnan(rep.concavity_max_d2)
        assert "second derivative nan of level 1 above 1e-8" in rep.failures
        assert "symmetry deviation nan above 1e-10" in rep.failures
        assert "ratio max increased at level 1" in rep.failures
        assert "integral at L=1 exceeds mu^L: nan > 7.071068e-01" in rep.failures
        assert not rep.all_pass

    def test_integral_bound_failure(self, monkeypatch):
        true_mu = metric.mu
        monkeypatch.setattr(metric, "mu", lambda n: true_mu(n) / 2.0)
        rep = structural_checks(1, GRID)
        assert rep.failures[0] == "integral at L=1 exceeds mu^L: 6.366198e-01 > 3.535534e-01"
        assert all(f.startswith("integral at L=") for f in rep.failures)

    def test_symmetry_failure(self, monkeypatch):
        true_levels = metric.phi_levels
        tilt = 1.0 + 1e-6 * _chebyshev(_NODES)[0]

        def tilted(*args):
            levels = true_levels(*args)
            levels[2] = dataclasses.replace(levels[2], node_values=levels[2].node_values * tilt)
            return levels

        monkeypatch.setattr(metric, "phi_levels", tilted)
        v = tilted(1, 2, GRID)[2].node_values
        dev = float(np.max(np.abs(v - v[::-1])))
        assert dev > 1e-10
        rep = structural_checks(1, GRID)
        assert rep.symmetry_max_dev == dev
        assert rep.failures[0] == f"symmetry deviation {dev:.3e} above 1e-10"


class TestRangeOfN:
    """A range of n searches every n's stack in one pass, from one basis of
    the grid points; each n's records equal those of its own call."""

    @pytest.mark.parametrize("grid", [1 << 8, 1 << 12, 1 << 14])
    @pytest.mark.parametrize("depth", [0, 3, 12])
    def test_lambda_brackets_equal_the_single_n_calls(self, grid, depth):
        ns = range(1, 9)
        assert lambda_bracket(ns, depth, grid) == [lambda_bracket(n, depth, grid) for n in ns]

    @pytest.mark.parametrize("grid", [1 << 8, 1 << 12, 1 << 14])
    def test_structural_reports_equal_the_single_n_calls(self, grid):
        ns = range(1, 9)
        assert structural_checks(ns, grid) == [structural_checks(n, grid) for n in ns]

    def test_a_stack_above_the_lane_count_steps_in_parts(self, monkeypatch):
        # 3 stacks of 26 searches against 16 lanes: each stack is queued
        # alone and stepped in two parts
        want = lambda_bracket(range(1, 4), 12, 256)
        monkeypatch.setattr(metric, "_LANES", 16)
        assert lambda_bracket(range(1, 4), 12, 256) == want

    def test_an_n_is_checked_before_any_level_is_built(self, monkeypatch):
        def build(*args):
            raise AssertionError("a level was built before the n rule")

        monkeypatch.setattr(metric, "phi_levels", build)
        for fn, args in ((lambda_bracket, (12, 256)), (structural_checks, (256,))):
            with pytest.raises(ValueError, match=r"n must lie in 1\.\.1000"):
                fn(range(999, 1002), *args)


class TestRatioSearchOracle:
    """The lockstep array search of every ratio extremum against the former
    scalar golden-section search in ``ratio_search_oracle``, bit for bit, on
    power-of-two and other grids from either end of the domain 256..2^14;
    2^8 divides each grid."""

    CASES = [(n, g) for g in (1 << 8, 1 << 11, 1 << 14, 3 << 10, 5 << 9) for n in range(1, 9)]

    @pytest.mark.parametrize("n,grid", CASES)
    def test_extrema_match(self, n, grid):
        got = [(r.ratio_min, r.ratio_max) for r in lambda_bracket(n, 12, grid).levels]
        assert got == oracle_ratio_extrema(phi_levels(n, 13, grid), 12)
