import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import coordinates, point_set, random_point_set
from corner_oracle import brute_force_discrepancy_2d, brute_force_discrepancy_points
from exact_helpers import star_discrepancy_1d
from row_sweep_oracle import row_sweep_discrepancy_2d
from halkron.discrepancy import _RankSweep, growth_scan, star_discrepancy_2d
from halkron.numtheory import UnitFraction, make_unit_fraction, rational_bad, theorem_alpha
from halkron.sequences import PerturbSpec, PointSet2, generate_point_set


def uf(p, q, w=128):
    return make_unit_fraction(p, q, w)


def brute_1d(fracs):
    """Independent 1D oracle: thresholds at the point values and 1, both
    counting modes, exact rationals."""
    n = len(fracs)
    best = Fraction(0)
    for t in set(fracs) | {Fraction(1)}:
        le = sum(1 for v in fracs if v <= t)
        lt = sum(1 for v in fracs if v < t)
        best = max(best, abs(Fraction(le, n) - t), abs(t - Fraction(lt, n)))
    return best


def colliding_set(rng: random.Random) -> PointSet2:
    """One to five pairs of distinct 128-bit points whose x (and y) round
    to the same double."""
    xs, ys = [], []
    for _ in range(rng.randint(1, 5)):
        bx = rng.getrandbits(100) | (1 << 99)  # low bits: far below 1 ulp
        by = rng.getrandbits(100) | (1 << 99)
        xs += [bx, bx + 1]
        ys += [by + 1, by]
    return point_set(xs, ys)


class TestStar1D:
    def test_two_symmetric_points(self):
        res = star_discrepancy_1d([uf(1, 4), uf(3, 4)])
        assert res.d_star == Fraction(1, 4)

    def test_single_midpoint(self):
        assert star_discrepancy_1d([uf(1, 2)]).d_star == Fraction(1, 2)

    def test_van_der_corput_8(self):
        # bit-reversal of 0..7: {0, 1/2, 1/4, 3/4, 1/8, 5/8, 3/8, 7/8}
        pts = [uf(p, 8) for p in [0, 4, 2, 6, 1, 5, 3, 7]]
        res = star_discrepancy_1d(pts)
        assert res.d_star == Fraction(1, 8)
        assert res.d_star == brute_1d([p.as_fraction() for p in pts])

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            star_discrepancy_1d([])

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 20)
            pts = [UnitFraction(rng.getrandbits(24), 24) for _ in range(n)]
            res = star_discrepancy_1d(pts)
            assert res.d_star == brute_1d([p.as_fraction() for p in pts])

    def test_witness_reevaluates(self):
        pts = [uf(1, 5), uf(2, 5), uf(4, 5)]
        res = star_discrepancy_1d(pts)
        (side,) = res.witness_box
        fracs = [p.as_fraction() for p in pts]
        if side.closed:
            c = sum(1 for v in fracs if v <= side.coord)
            assert Fraction(c, 3) - side.coord == res.d_star
        else:
            c = sum(1 for v in fracs if v < side.coord)
            assert side.coord - Fraction(c, 3) == res.d_star


class TestStar2D:
    def test_single_center_point(self):
        ps = point_set([1 << 127], [1 << 127])
        assert star_discrepancy_2d(ps).d_star == Fraction(3, 4)

    def test_single_origin_point(self):
        ps = point_set([0], [0])
        assert star_discrepancy_2d(ps).d_star == 1

    def test_two_diagonal_points(self):
        # box closing on (1/2,1/2) from above: count 2, area 1/4
        ps = point_set([0, 1 << 127], [0, 1 << 127])
        assert star_discrepancy_2d(ps).d_star == Fraction(3, 4)

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            star_discrepancy_2d(point_set([], []))

    def test_permutation_invariance(self):
        rng = random.Random(17)
        ps = random_point_set(rng, 12)
        ref = star_discrepancy_2d(ps).d_star
        order = list(range(12))
        rng.shuffle(order)
        shuffled = PointSet2(ps.x[order], ps.y[order], ps.width)
        assert star_discrepancy_2d(shuffled).d_star == ref

    def test_bounds(self):
        rng = random.Random(29)
        for _ in range(20):
            ps = random_point_set(rng, rng.randint(1, 16))
            d = star_discrepancy_2d(ps).d_star
            assert Fraction(0) < d <= 1

    def test_repeated_point_forces_large_discrepancy(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(2, 12)
            ps = random_point_set(rng, n, allow_dups=False)
            dup = [0, 0, *range(2, n)]  # point 1 replaced by point 0
            ps = PointSet2(ps.x[dup], ps.y[dup], ps.width)
            assert star_discrepancy_2d(ps).d_star >= Fraction(1, n)

    def test_witness_reevaluates(self):
        rng = random.Random(37)
        for _ in range(15):
            ps = random_point_set(rng, rng.randint(1, 24), coarse=True)
            res = star_discrepancy_2d(ps)
            sx, sy = res.witness_box
            q = 1 << ps.width
            xb, yb = coordinates(ps)
            if sx.closed:
                c = sum(1 for a, b in zip(xb, yb)
                        if Fraction(a, q) <= sx.coord and Fraction(b, q) <= sy.coord)
                term = Fraction(c, len(ps)) - sx.coord * sy.coord
            else:
                c = sum(1 for a, b in zip(xb, yb)
                        if Fraction(a, q) < sx.coord and Fraction(b, q) < sy.coord)
                term = sx.coord * sy.coord - Fraction(c, len(ps))
            assert term == res.d_star

    @pytest.mark.parametrize("coarse", [False, True])
    def test_oracle_equivalence(self, coarse):
        rng = random.Random(41 if coarse else 43)
        for _ in range(40):
            ps = random_point_set(rng, rng.randint(1, 32), coarse=coarse)
            assert star_discrepancy_2d(ps).d_star == brute_force_discrepancy_points(ps)

    def test_coordinates_colliding_in_double(self):
        # pairs of distinct 128-bit values that round to the same double
        # must still be separated by the exact confirmation stage
        rng = random.Random(53)
        for _ in range(20):
            ps = colliding_set(rng)
            xs, _ = coordinates(ps)
            assert float(xs[0] / (1 << 128)) == float(xs[1] / (1 << 128))
            assert star_discrepancy_2d(ps).d_star == brute_force_discrepancy_points(ps)


def unique_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The former ranking: np.unique over the big-endian word rows, viewed
    as one void scalar each, and back to native words."""
    row = np.dtype((np.void, 8 * words.shape[1]))
    vals, rank = np.unique(words.astype(">u8", order="C").view(row)[:, 0], return_inverse=True)
    return vals.view(">u8").reshape(len(vals), -1).astype(np.uint64), rank


class TestRanks:
    """The lexsort ranks of ``_RankSweep`` against the np.unique route on
    tie-heavy sets: a rational alpha (k*alpha on a handful of values),
    coordinates that collide in double, coarse grids with duplicates at
    one and four words, and a theorem-alpha set."""

    @pytest.mark.parametrize("make_set", [
        lambda: generate_point_set(PerturbSpec(1), rational_bad(1), 4096),
        lambda: generate_point_set(PerturbSpec(3), rational_bad(3), 4096),
        lambda: colliding_set(random.Random(53)),
        lambda: random_point_set(random.Random(5), 300, width=16, coarse=True),
        lambda: random_point_set(random.Random(6), 300, width=200, coarse=True),
        lambda: generate_point_set(PerturbSpec(2), theorem_alpha(2), 1 << 13),
    ], ids=["rational-1", "rational-3", "colliding", "coarse-w16", "coarse-w200", "theorem-2"])
    def test_same_as_np_unique(self, make_set):
        ps = make_set()
        sweep = _RankSweep(ps)
        xs, rank_x = unique_rows(ps.x)
        ys, rank_y = unique_rows(ps.y)
        k = np.zeros(len(xs) + 2, dtype=np.int64)
        k[1:len(xs) + 1] = np.cumsum(np.bincount(rank_x, minlength=len(xs)))
        k[-1] = len(ps)
        assert sweep.xs.dtype == sweep.ys.dtype == np.uint64
        assert np.array_equal(sweep.xs, xs) and np.array_equal(sweep.ys, ys)
        assert np.array_equal(sweep.keys, np.sort(rank_x * len(ys) + rank_y))
        assert np.array_equal(sweep.k, k)


class TestRowSweepOracle:
    """The exact-rank sweep against the former two-pass float row sweep on
    generated sets up to N = 2^12: the rational alpha puts k*alpha on a
    handful of doubles, so it covers the float ties."""

    @pytest.mark.parametrize("make_alpha", [theorem_alpha, rational_bad])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generated_sets(self, n, make_alpha):
        alpha = make_alpha(n)
        for count in (1, 7, 64, 1000, 4096):
            ps = generate_point_set(PerturbSpec(n), alpha, count)
            got = star_discrepancy_2d(ps)
            want = row_sweep_discrepancy_2d(ps)
            assert (got.d_star, got.witness_box) == (want.d_star, want.witness_box), count


class TestBruteForceGrid:
    def test_empty_region_coarse_grid(self):
        b = int(0.999 * (1 << 60)) << 68  # ~0.999 in 128 bits
        ps = point_set([b], [b])
        assert brute_force_discrepancy_2d(ps, 2) >= 0.25

    def test_grid_containing_coordinates_matches_exact(self):
        # dyadic points on a 2^3 lattice with G = 8: corners cover all coords
        ps = generate_point_set(PerturbSpec(1), uf(1, 2, 128), 8)
        exact = float(star_discrepancy_2d(ps).d_star)
        assert brute_force_discrepancy_2d(ps, 8) == pytest.approx(exact, abs=1e-12)

    def test_lower_bound_and_convergence(self):
        rng = random.Random(47)
        ps = random_point_set(rng, 10)
        exact = float(star_discrepancy_2d(ps).d_star)
        prev = 0.0
        for g in (4, 16, 64, 256):
            val = brute_force_discrepancy_2d(ps, g)
            assert val <= exact + 1e-12
            prev = val
        assert prev >= exact - 0.02

    def test_uniform_lattice_at_matching_grid(self):
        # 2^m x 2^m lattice with G = 2^m: the corners cover every
        # coordinate, so the grid oracle equals the exact value (and both
        # are small)
        m = 3
        w = 128
        coords = [i << (w - m) for i in range(1 << m)]
        xs = [cx for cx in coords for _ in coords]
        ys = [cy for _ in coords for cy in coords]
        ps = point_set(xs, ys, w)
        exact = float(star_discrepancy_2d(ps).d_star)
        assert brute_force_discrepancy_2d(ps, 1 << m) == pytest.approx(exact, abs=1e-12)
        assert exact <= 2.0 ** (1 - m)


class TestGrowthScan:
    def test_single_sample_has_no_fit(self):
        rec = growth_scan(PerturbSpec(1), theorem_alpha(1), [5])
        assert rec.fitted_exponent is None
        assert len(rec.samples) == 1

    def test_rational_alpha_degenerates_to_linear(self):
        rec = growth_scan(PerturbSpec(1), uf(1, 2, 128), list(range(4, 10)))
        assert rec.fitted_exponent == pytest.approx(1.0, abs=0.1)

    def test_samples_sorted_and_reference(self):
        rec = growth_scan(PerturbSpec(2), theorem_alpha(2), [3, 1, 2])
        assert [s[0] for s in rec.samples] == [1, 2, 3]
        assert rec.reference_exponent == pytest.approx(0.81093, abs=5e-5)
