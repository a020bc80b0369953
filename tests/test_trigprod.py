import math
import random

import numpy as np
import pytest

from exact_helpers import (
    f_iterate_oracle,
    g_value,
    g_value_product,
    product_upper_bound_log,
    xi_fixed_point,
)
from halkron.numtheory import UnitFraction, to_words
from halkron.sequences import PerturbSpec
from halkron.trigprod import (
    a_exponent,
    doubled_phases,
    f_iterate,
    g_at_xi,
    gelfond_certify,
    gelfond_sweep,
    lacunary_factor,
    lacunary_factors,
    log_g_at_xi,
    log_pi_product,
    sharpness_identity,
)

SQRT3_2 = math.sqrt(3.0) / 2.0


class TestPiProduct:
    def test_empty_product(self):
        assert math.exp(log_pi_product(0, (), 1, 1 << 8)) == 1.0

    def test_single_factor_one_third(self):
        # |cos(pi/3 + pi/2)| = sin(pi/3)
        val = math.exp(log_pi_product(1, (1,), 1, 3))
        assert val == pytest.approx(SQRT3_2, abs=1e-15)

    def test_closed_form_power(self):
        # n = 1 at alpha = 1/3: each block contributes sqrt(3)/2
        for blocks in (1, 5, 40):
            gamma = PerturbSpec(1).gamma(blocks)
            val = log_pi_product(blocks, gamma, 1, 3)
            assert val == pytest.approx(blocks * math.log(SQRT3_2), abs=1e-12)

    def test_bits_and_rational_agree(self):
        # 182/256 = 546/768: the dyadic reduction (a masked shift) and the
        # non-dyadic one (mod 768) give the same phases
        gamma = PerturbSpec(2).gamma(12)
        lb = log_pi_product(12, gamma, 0b1011_0110, 256)
        lr = log_pi_product(12, gamma, 546, 768)
        if math.isinf(lb):
            assert math.isinf(lr)
        else:
            assert lb == pytest.approx(lr, abs=1e-12)

    def test_one_periodicity_in_alpha(self):
        # each factor only changes sign under alpha -> alpha + 1
        rng = random.Random(13)
        gamma = PerturbSpec(3, shift=1).gamma(24)
        for _ in range(50):
            q = rng.randint(3, 10_000)
            p = rng.randrange(q)
            a = log_pi_product(24, gamma, p, q)
            # alpha + 1 == (p + q)/q: reduce phases of (p+q) mod q by hand
            m = (p + q) % q
            b = log_pi_product(24, gamma, m, q)
            assert a == b

    def test_value_in_unit_interval(self):
        rng = random.Random(19)
        for _ in range(100):
            r = rng.randint(0, 60)
            gamma = PerturbSpec(rng.randint(1, 4)).gamma(r)
            u = UnitFraction(rng.getrandbits(128), 128)
            v = math.exp(log_pi_product(r, gamma, u.bits, u.modulus))
            assert 0.0 <= v <= 1.0

    def test_hard_zero(self):
        # alpha = 1/2: first factor is |cos(pi/2 + pi/2)| = 1... the
        # second (gamma_1 = 0 for n=2) is |cos(pi)| = 1; shift to hit
        # |sin(0)| at j=2: 2^2 * 1/2 = 2 = 0 mod 1 -> gamma_2 = 1 gives 0
        gamma = PerturbSpec(2).gamma(4)
        val = log_pi_product(4, gamma, 1, 2)
        assert math.isinf(val) and val < 0

    def test_gamma_shorter_than_r(self):
        gamma = PerturbSpec(2).gamma(3)
        with pytest.raises(ValueError, match="r <= len"):
            log_pi_product(4, gamma, 1, 3)
        with pytest.raises(ValueError, match="0 <= r"):
            log_pi_product(-1, gamma, 1, 3)


def inline_loop_factors(bits: int, width: int, gamma, r: int) -> list[float]:
    """The factor loop formerly inlined in expsum.upper_bound_rhs: shift and
    mask the fixed-point bits, sin/cos written out."""
    mod = 1 << width
    out = []
    for j in range(r):
        phase = bits / mod
        out.append(
            math.sin(math.pi * (phase if phase <= 0.5 else 1.0 - phase))
            if gamma[j]
            else math.sin(math.pi * abs(0.5 - phase))
        )
        bits = (bits << 1) & (mod - 1)
    return out


class TestDoublingFactors:
    def test_bit_identical_to_inline_loop(self):
        rng = random.Random(29)
        for _ in range(300):
            width = rng.choice((32, 64, 128))
            r = rng.randint(0, 80)
            gamma = PerturbSpec(rng.randint(1, 5), shift=rng.randint(0, 7)).gamma(r)
            bits = rng.getrandbits(width)
            got = lacunary_factors(doubled_phases(to_words([bits], width), r), gamma)[0].tolist()
            assert got == inline_loop_factors(bits, width, gamma, r)


def former_factor(p: float, sine: int) -> float:
    """The former scalar factors of trigprod: |sin(pi p)| and |cos(pi p)|
    on the reduced arguments, with math.sin."""
    if sine:
        return math.sin(math.pi * (p if p <= 0.5 else 1.0 - p))
    return math.sin(math.pi * abs(0.5 - p))


class TestLacunaryFactor:
    """``lacunary_factor`` against the former math.sin forms, with ==."""

    @staticmethod
    def phases() -> list[float]:
        rng = random.Random(37)
        ends = [0.0, 0.5, 1.0 - 2.0**-53, 2.0**-60, 0.25, 0.5 - 2.0**-54, 0.5 + 2.0**-53]
        return ends + [rng.random() for _ in range(2000)] + [
            rng.getrandbits(128) / 2.0**128 for _ in range(2000)
        ]

    @pytest.mark.parametrize("sine", [0, 1])
    def test_scalars(self, sine):
        for p in self.phases():
            assert lacunary_factor(p, sine) == former_factor(p, sine)

    @pytest.mark.parametrize("sine", [0, 1])
    def test_arrays_with_and_without_out(self, sine):
        ps = self.phases()
        want = [former_factor(p, sine) for p in ps]
        phase = np.array(ps)
        assert lacunary_factor(phase, sine).tolist() == want
        out = np.empty_like(phase)
        assert lacunary_factor(phase, sine, out=out) is out
        assert out.tolist() == want
        assert phase.tolist() == ps

    def test_cosine_in_place(self):
        ps = self.phases()
        phase = np.array(ps)
        lacunary_factor(phase, 0, out=phase)
        assert phase.tolist() == [former_factor(p, 0) for p in ps]


class TestAExponent:
    def test_a1_is_log4_3(self):
        # cot(pi/6) = sqrt(3), so a(1) = log_4 3
        assert a_exponent(1) == pytest.approx(math.log(3) / math.log(4), abs=1e-13)

    def test_a2_closed_form(self):
        # cot(pi/10) = sqrt(5 + 2 sqrt(5))
        expected = math.log(math.sqrt(5.0 + 2.0 * math.sqrt(5.0))) / math.log(4.0)
        assert a_exponent(2) == pytest.approx(expected, abs=1e-13)
        assert a_exponent(2) == pytest.approx(0.8109, abs=5e-5)

    def test_monotone_and_below_one(self):
        vals = [a_exponent(n) for n in range(1, 51)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            a_exponent(0)

    def test_range_ends_at_1022(self):
        # the former inline formulas, which hold to n = 1022
        for n in (1, 2, 50, 500, 1022):
            angle = math.pi / (2.0 * ((1 << n) + 1))
            log_cot = math.log(1.0 / math.tan(angle))
            assert a_exponent(n) == log_cot / (n * math.log(2.0))
            assert log_g_at_xi(n) == log_cot - n * math.log(2.0)
            assert xi_fixed_point(n) == math.cos(angle)
        # past it the double 2 (2^n + 1) overflows
        for n in (1023, 1024, 1100):
            for f in (a_exponent, log_g_at_xi, g_at_xi, xi_fixed_point):
                with pytest.raises(ValueError, match="1..1022"):
                    f(n)


class TestXiAndIterate:
    def test_xi1(self):
        assert xi_fixed_point(1) == pytest.approx(SQRT3_2, abs=1e-15)

    def test_xi2_closed_form(self):
        # sin(2 pi / 5) = sqrt(10 + 2 sqrt(5)) / 4
        expected = math.sqrt(10.0 + 2.0 * math.sqrt(5.0)) / 4.0
        assert xi_fixed_point(2) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fixed_point_property(self, n):
        xi = xi_fixed_point(n)
        assert abs(f_iterate(n, xi) - xi) < 1e-12

    def test_identity_iterate(self):
        assert f_iterate(0, 0.3) == 0.3

    def test_doubling_at_45_degrees(self):
        assert f_iterate(1, math.sqrt(2.0) / 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_angle_doubling_semantics(self):
        rng = random.Random(3)
        for _ in range(100):
            theta = rng.random()
            x = abs(math.sin(math.pi * theta))
            want = abs(math.sin(2.0 * math.pi * theta))
            assert f_iterate(1, x) == pytest.approx(want, abs=1e-12)

    def test_rejects_outside_unit(self):
        with pytest.raises(ValueError):
            f_iterate(1, 1.5)

    # the ends, the smallest subnormal, 1/2 and the double just below 1, then seeded points
    EDGES = [0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0]

    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 8, 16])
    def test_in_place_steps_equal_the_former_expression(self, nu):
        xs = np.concatenate([self.EDGES, np.random.default_rng(nu).random(10_000)])
        assert f_iterate(nu, xs).tobytes() == f_iterate_oracle(nu, xs).tobytes()
        for x in self.EDGES:
            assert np.asarray(f_iterate(nu, x)).tobytes() == f_iterate_oracle(nu, x).tobytes()

    def test_argument_is_never_written(self):
        xs = np.concatenate([self.EDGES, np.random.default_rng(7).random(10_000)])
        before = xs.copy()
        for nu in (0, 1, 5):
            assert f_iterate(nu, xs) is not xs
            assert xs.tobytes() == before.tobytes()
        g1, v = gelfond_sweep(5, xs, g_at_xi(5))
        assert xs.tobytes() == before.tobytes()
        assert np.isfinite(g1).all() and np.isfinite(v).all()


class TestGValue:
    def test_g1_at_xi(self):
        assert g_value(1, xi_fixed_point(1)) == pytest.approx(SQRT3_2, abs=1e-14)
        assert g_at_xi(1) == pytest.approx(SQRT3_2, abs=1e-14)

    def test_g2_at_xi_closed_form(self):
        expected = math.sqrt(5.0 + 2.0 * math.sqrt(5.0)) / 4.0
        assert g_at_xi(2) == pytest.approx(expected, abs=1e-14)
        assert g_value(2, xi_fixed_point(2)) == pytest.approx(expected, abs=1e-13)

    def test_zero(self):
        for n in (1, 2, 5):
            assert g_value(n, 0.0) == 0.0

    def test_limit_at_one(self):
        # closed form is 0/0 at x=1; the product-form limit is 1
        for n in (1, 2, 4):
            assert g_value(n, 1.0) == 1.0
            assert g_value_product(n, 1.0) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_closed_matches_product_form(self, n):
        xs = np.linspace(0.0, 1.0, 10_001)
        a = g_value(n, xs)
        b = g_value_product(n, xs)
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_telescoping_identity(self, n):
        # f_0 prod sqrt(1-f_nu^2) = f_n / (2^n sqrt(1-x^2)) off the endpoint
        xs = np.linspace(0.0, 0.9999, 10_000)
        lhs = g_value_product(n, xs)
        fn = f_iterate(n, xs)
        rhs = fn / ((1 << n) * np.sqrt((1.0 - xs) * (1.0 + xs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestGelfond:
    @pytest.mark.parametrize("n", [1, 8])
    def test_certification_passes(self, n):
        cert = gelfond_certify(n, 100_000)
        assert cert.passed
        assert cert.max_violation <= 1e-12

    def test_equality_at_xi(self):
        for n in (1, 3):
            xi = xi_fixed_point(n)
            g_xi = g_at_xi(n)
            b1 = g_value(n, xi) - g_xi
            b2 = g_value(n, xi) * g_value(n, f_iterate(n, xi)) - g_xi * g_xi
            assert abs(min(b1, b2)) < 1e-12

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            gelfond_certify(1, 100)


class TestSharpness:
    def test_n1_l1(self):
        res = sharpness_identity(1, 1)
        assert res.lhs == pytest.approx(SQRT3_2, abs=1e-14)
        assert res.rhs == pytest.approx(SQRT3_2, abs=1e-14)

    def test_n2_l1_closed_form(self):
        expected = math.sqrt(5.0 + 2.0 * math.sqrt(5.0)) / 4.0
        res = sharpness_identity(2, 1)
        assert res.lhs == pytest.approx(expected, abs=1e-13)

    def test_n3_l20_log_identity(self):
        assert sharpness_identity(3, 20).log_diff < 1e-9


class TestUpperBoundChain:
    def test_bound_holds_on_random_sample(self):
        # the proof's final display: Pi <= (G_n(xi_n))^(d-1)
        rng = random.Random(101)
        checked = 0
        for _ in range(10_000):
            n = rng.randint(1, 4)
            ell = rng.randint(0, 3 * n)
            r = rng.randint(2 * n, 200)
            log_bound, d = product_upper_bound_log(n, ell, r)
            if d < 1:
                continue
            alpha = UnitFraction(rng.getrandbits(128), 128)
            gamma = PerturbSpec(n, shift=ell).gamma(r)
            lp = log_pi_product(r, gamma, alpha.bits, alpha.modulus)
            checked += 1
            assert lp <= log_bound + 1e-9
        assert checked > 9000
