import cmath
import math
import random

import pytest

from bound_table_oracle import upper_bound_rhs as oracle_upper_bound_rhs
from exact_helpers import geometric_sum
from halkron.expsum import (
    BoundParams,
    _doubled_phases,
    exp_sum_mk,
    exp_sum_perturbed,
    frac_sin_abs,
    upper_bound_rhs,
    product_lower_bound,
    two_additive_bound_check,
)
from halkron.numtheory import UnitFraction, make_unit_fraction, theorem_alpha
from halkron.sequences import PerturbSpec, mk_sequence
from halkron.trigprod import log_pi_product


def direct_exp_sum(values, alpha_frac: float) -> complex:
    return sum(cmath.exp(2j * math.pi * ((v * alpha_frac) % 1.0)) for v in values)


def run_bits(rng: random.Random, width: int) -> int:
    """width bits made of random runs of equal bits, up to 30 long: doubled
    phases then often lie below 2^-10 (or above 1 - 2^-10) with set bits
    beyond a 64-bit window."""
    bits, pos = 0, 0
    while pos < width:
        run = rng.randint(1, 30)
        if rng.random() < 0.5:
            bits |= ((1 << run) - 1) << pos
        pos += run
    return bits & ((1 << width) - 1)


class TestExpSumMk:
    def test_alpha_zero_gives_count(self):
        res = exp_sum_mk(2, 37, UnitFraction(0, 128))
        assert res.value == pytest.approx(37 + 0j, abs=1e-12)

    def test_two_terms_cancel(self):
        # m = [0, 3] at alpha = 1/2: 1 + e(3/2) = 0
        res = exp_sum_mk(1, 2, make_unit_fraction(1, 2, 128))
        assert res.modulus < 1e-12

    def test_matches_naive_small(self):
        alpha = theorem_alpha(2).fraction
        res = exp_sum_mk(2, 50, alpha)
        naive = direct_exp_sum(mk_sequence(2, 50), alpha.to_float())
        assert res.value == pytest.approx(naive, abs=1e-9)

    def test_count_guard(self):
        with pytest.raises(ValueError):
            exp_sum_mk(1, (1 << 24) + 1, UnitFraction(0, 128))

    @pytest.mark.parametrize("blocks", [2, 6, 10, 14])
    def test_lower_bound_chain_modulus(self, blocks):
        # |sum e(m_k a)| >= 2^{nL-1} Pi_{nL,c}(a) - |sin(2^{nL} pi a)| / (2 sin(pi a))
        n = 1
        alpha = theorem_alpha(n).fraction
        r = n * blocks
        res = exp_sum_mk(n, 1 << (r - 1), alpha)
        prod = math.exp(log_pi_product(r, PerturbSpec(n).gamma(r), alpha.bits, alpha.modulus))
        lead = 2.0 ** (r - 1) * prod
        frac = alpha.mul_int(1 << r).to_float()
        corr = math.sin(math.pi * min(frac, 1 - frac)) / (2.0 * math.sin(math.pi * alpha.to_float()))
        assert res.modulus >= lead - corr - 1e-6


class TestIdentities:
    @pytest.mark.parametrize("n,l", [(1, 4), (2, 3), (3, 2), (2, 8), (1, 16)])
    def test_split_identity_exact(self, n, l):
        # sum over the m_k equals half of (perturbed sum + geometric sum)
        alpha = theorem_alpha(n).fraction
        r = n * l
        lhs = exp_sum_mk(n, 1 << (r - 1), alpha).value
        pert = exp_sum_perturbed(n, r, alpha).value
        geom = geometric_sum(1 << r, alpha).value
        assert lhs == pytest.approx(0.5 * (pert + geom), abs=1e-8)

    def test_product_identity_random_alpha(self):
        # |sum_{m<2^R} e(m a + s_c(m)/2)| = 2^R Pi_{R,c}(a)
        rng = random.Random(97)
        for _ in range(25):
            n = rng.randint(1, 4)
            r = rng.randint(n, 12)
            r -= r % n  # full blocks so the pattern covers r
            if r == 0:
                continue
            alpha = UnitFraction(rng.getrandbits(128), 128)
            lhs = exp_sum_perturbed(n, r, alpha).modulus
            log_prod = log_pi_product(r, PerturbSpec(n).gamma(r), alpha.bits, alpha.modulus)
            rhs = 2.0**r * math.exp(log_prod)
            # relative tolerance plus the direct sum's rounding envelope
            assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs) + 2e-15 * 2.0**r

    def test_geometric_closed_form(self):
        rng = random.Random(89)
        for _ in range(20):
            alpha = UnitFraction(rng.getrandbits(64), 64)
            m = rng.randint(1, 500)
            got = geometric_sum(m, alpha)
            naive = direct_exp_sum(range(m), alpha.to_float())
            assert got.value == pytest.approx(naive, abs=1e-7)
            assert got.modulus == pytest.approx(abs(naive), abs=1e-7)


class TestTwoAdditive:
    def test_single_term(self):
        chk = two_additive_bound_check(0, 1, theorem_alpha(1).fraction, 1, 1)
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)
        assert chk.rhs >= 1.0 - 1e-12

    def test_spec_instance(self):
        chk = two_additive_bound_check(0, 1, theorem_alpha(1).fraction, 1, 1 << 12)
        assert chk.ok

    def test_power_of_two_telescopes(self):
        # V = 2^r: the sum collapses to the single product term
        rng = random.Random(71)
        for _ in range(20):
            n = rng.randint(1, 3)
            ell = rng.randint(0, 4)
            h = rng.randint(1, 9)
            r = rng.randint(1, 10)
            alpha = UnitFraction(rng.getrandbits(128), 128)
            chk = two_additive_bound_check(ell, h, alpha, n, 1 << r)
            theta = alpha.mul_int(h).shift_left(ell)
            gamma = PerturbSpec(n, shift=ell).gamma(r)
            prod = 2.0**r * math.exp(log_pi_product(r, gamma, theta.bits, theta.modulus))
            assert chk.lhs == pytest.approx(prod, rel=1e-7, abs=1e-6)

    def test_inequality_random_instances(self):
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(1, 4)
            ell = rng.randint(0, 6)
            h = rng.randint(1, 50)
            v = rng.randint(1, 1 << 14)
            alpha = UnitFraction(rng.getrandbits(128), 128)
            chk = two_additive_bound_check(ell, h, alpha, n, v)
            assert chk.ok

    def test_guard(self):
        with pytest.raises(ValueError):
            two_additive_bound_check(0, 1, theorem_alpha(1).fraction, 1, (1 << 22) + 1)


class TestUpperBoundRhs:
    def test_degenerate_sums_empty(self):
        res = upper_bound_rhs(BoundParams(2, 1, 1), 1, theorem_alpha(1).fraction)
        ln2 = math.log(2.0)
        assert res.term_nk == 2.0
        assert res.term_nh_log == pytest.approx(2.0 * ln2, abs=1e-14)
        assert res.term_log2 == pytest.approx(ln2 * ln2, abs=1e-14)
        assert res.term_sum == 0.0 and not res.rows

    def test_rational_alpha_degenerates(self):
        res = upper_bound_rhs(BoundParams(16, 16, 16), 1, make_unit_fraction(1, 2, 128))
        assert res.degenerate  # every ell >= 1 kills ||2^l h / 2||
        assert all(ell >= 1 for ell, _h in res.degenerate)
        assert not res.finite
        assert math.isinf(res.total)

    def test_rows_exposed(self):
        res = upper_bound_rhs(BoundParams(64, 8, 8), 2, theorem_alpha(2).fraction)
        assert res.rows
        for row in res.rows:
            assert row.term_norm > 0.0 and row.term_prod >= 1.0

    def test_dominates_scaled_discrepancy(self):
        # the proposition is an order bound; c = 64 frozen as the stand-in
        # for its unspecified absolute constant
        from halkron.discrepancy import star_discrepancy_2d
        from halkron.sequences import generate_point_set

        n = 1
        alpha = theorem_alpha(n).fraction
        big_n = 1 << 8
        ps = generate_point_set(PerturbSpec(n), alpha, big_n)
        nd = float(big_n * star_discrepancy_2d(ps).d_star)
        res = upper_bound_rhs(BoundParams(big_n, big_n, big_n), n, alpha)
        assert res.total >= nd / 64.0


class TestProductLowerBound:
    def test_evaluates_finite(self):
        val = product_lower_bound(2, 2, theorem_alpha(2).fraction)
        assert math.isfinite(val)


class TestBoundTableOracle:
    """The bound table against the former scalar row loop in
    ``bound_table_oracle``: rows, degenerate pairs and term_sum compared
    with ==."""

    @staticmethod
    def assert_same(params, n, alpha):
        got = upper_bound_rhs(params, n, alpha)
        want = oracle_upper_bound_rhs(params, n, alpha)
        assert got.rows == want.rows
        assert got.degenerate == want.degenerate
        assert got.term_sum == want.term_sum
        assert got == want

    @pytest.mark.parametrize("width", [8, 53, 64, 100, 128, 200])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_widths_h_and_k_below_n(self, width, n):
        rng = random.Random(1000 * width + n)
        for bits in (rng.getrandbits(width), run_bits(rng, width)):
            self.assert_same(BoundParams(1 << 10, 700, 300), n, UnitFraction(bits, width))

    @pytest.mark.parametrize("width", [64, 128, 200])
    def test_factor_index_beyond_64(self, width):
        # N = 2^70: rows of 69 and 68 factors
        rng = random.Random(width)
        for bits in (rng.getrandbits(width), run_bits(rng, width)):
            for n in (1, 3):
                self.assert_same(BoundParams(1 << 70, 4, 4), n, UnitFraction(bits, width))

    def test_all_phases_zero(self):
        alpha = make_unit_fraction(1, 2, 128)
        self.assert_same(BoundParams(1 << 10, 1 << 10, 1 << 10), 2, alpha)

    def test_dyadic_alpha_with_long_zero_runs(self):
        # 1/2 + 2^-70 + 2^-127: the phases fall to 2^-60 and below
        alpha = UnitFraction((1 << 127) | (1 << 58) | 1, 128)
        for n in (1, 2):
            self.assert_same(BoundParams(1 << 12, 1 << 12, 1 << 12), n, alpha)

    def test_rows_in_several_blocks(self):
        # l = 1 has 2^14 + 3 rows, more than one block of the table
        rng = random.Random(3)
        for alpha in (theorem_alpha(2).fraction, UnitFraction(rng.getrandbits(128), 128)):
            self.assert_same(BoundParams(1 << 16, (1 << 15) + 6, 4), 2, alpha)

    def test_benchmark_table(self):
        # the bound table of perfbench's brackets workload: N = H = K = 2^16
        self.assert_same(BoundParams(1 << 16, 1 << 16, 1 << 16), 1, theorem_alpha(1).fraction)


class TestDoubledPhases:
    @pytest.mark.parametrize("width", [8, 53, 64, 100, 128, 200])
    def test_every_entry_is_the_int_division(self, width):
        rng = random.Random(width)
        mod = 1 << width
        r = 70
        bs = [rng.getrandbits(width) for _ in range(200)] + [run_bits(rng, width) for _ in range(800)]
        want = [[((b << j) & (mod - 1)) / mod for j in range(r)] for b in bs]
        assert _doubled_phases(bs, width, r).tolist() == want

    def test_small_phases_with_low_bits_occur(self):
        # the entries the 64-bit window cannot round: phase below 2^-10
        # with set bits beyond the window
        rng = random.Random(128)
        mod = 1 << 128
        nums = [(run_bits(rng, 128) << j) & (mod - 1) for _ in range(800) for j in range(64)]
        assert sum(0 < x < mod >> 10 and x & ((1 << 64) - 1) != 0 for x in nums) > 100


class TestBoundCounts:
    """Rows and factors of the table in the closed forms that perfbench's
    workloads.computed_counts uses for its expsum.rows and expsum.factors
    counters."""

    @pytest.mark.parametrize(
        "big_n,h_lim,k_lim",
        [(1 << 16, 1 << 16, 1 << 16), (1 << 10, 700, 300), (1000, 1000, 37), (64, 3, 64), (2, 1, 2)],
    )
    def test_closed_forms(self, big_n, h_lim, k_lim):
        res = upper_bound_rhs(BoundParams(big_n, h_lim, k_lim), 1, theorem_alpha(1).fraction)
        log2n = big_n.bit_length() - 1
        ells = range(1, k_lim.bit_length())
        assert len(res.rows) == sum(h_lim >> ell for ell in ells)
        assert sum(log2n - r.ell for r in res.rows) == sum((h_lim >> ell) * (log2n - ell) for ell in ells)

    def test_brackets_counts(self):
        size = 1 << 16
        res = upper_bound_rhs(BoundParams(size, size, size), 1, theorem_alpha(1).fraction)
        assert len(res.rows) == 65535
        assert sum(16 - r.ell for r in res.rows) == 917506


class TestSinPiAlphaNearEnds:
    """sin(pi alpha) in the closed forms, against mpmath at alpha = 1 - 2^-40
    and 2^-40, and at 1 - 2^-40 - 2^-60 and 2^-40 + 2^-60, where a double
    alpha would drop the 2^-60 (width 128)."""

    ALPHAS = [(1 << 128) - (1 << 88), 1 << 88, (1 << 128) - (1 << 88) - (1 << 68), (1 << 88) + (1 << 68)]

    @staticmethod
    def exact_alpha(mpmath, bits):
        return mpmath.mpf(bits) / mpmath.mpf(2) ** 128

    @pytest.mark.parametrize("bits", ALPHAS)
    def test_geometric_sum(self, bits):
        mpmath = pytest.importorskip("mpmath")
        count = 1000
        with mpmath.workprec(256):
            a = self.exact_alpha(mpmath, bits)
            want = abs(mpmath.sin(count * mpmath.pi * a)) / abs(mpmath.sin(mpmath.pi * a))
        got = geometric_sum(count, UnitFraction(bits, 128)).modulus
        assert got == pytest.approx(float(want), rel=1e-13, abs=0)

    @pytest.mark.parametrize("bits", ALPHAS)
    @pytest.mark.parametrize("n,blocks", [(1, 4), (2, 3)])
    def test_product_lower_bound(self, bits, n, blocks):
        mpmath = pytest.importorskip("mpmath")
        r = n * blocks
        gamma = PerturbSpec(n).gamma(r)
        with mpmath.workprec(256):
            a = self.exact_alpha(mpmath, bits)
            prod = mpmath.mpf(1)
            for j in range(r):
                x = 2**j * mpmath.pi * a
                prod *= abs(mpmath.sin(x)) if gamma[j] else abs(mpmath.cos(x))
            corr = abs(mpmath.sin(2**r * mpmath.pi * a)) / (8 * mpmath.sin(mpmath.pi * a))
            want = 2 ** (r - 3) * prod - corr
        got = product_lower_bound(n, blocks, UnitFraction(bits, 128))
        assert got == pytest.approx(float(want), rel=1e-13, abs=0)

    @pytest.mark.parametrize("bits", ALPHAS)
    @pytest.mark.parametrize("k", [1, 3, 1000, 1 << 20])
    def test_frac_sin_abs(self, bits, k):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(256):
            want = abs(mpmath.sin(k * mpmath.pi * self.exact_alpha(mpmath, bits)))
        got = frac_sin_abs(k, UnitFraction(bits, 128))
        assert got == pytest.approx(float(want), rel=1e-13, abs=0)
