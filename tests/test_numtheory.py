import math
import random
from fractions import Fraction

import numpy as np
import pytest

from exact_helpers import continued_fraction, nearest_int_distance
from halkron.numtheory import (
    UnitFraction,
    from_words,
    make_unit_fraction,
    rational_bad,
    shallit_beta,
    theorem_alpha,
    to_words,
)


class TestMakeUnitFraction:
    def test_one_half_is_exact(self):
        u = make_unit_fraction(1, 2, 128)
        assert u.bits == 1 << 127

    def test_one_third_eight_bits(self):
        # long division of 1/3 in base 2 by hand: 0.01010101
        assert make_unit_fraction(1, 3, 8).bits == 0b01010101

    def test_zero(self):
        assert make_unit_fraction(0, 1, 128).bits == 0

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            make_unit_fraction(1, 0, 8)

    def test_rejects_improper_fraction(self):
        with pytest.raises(ValueError):
            make_unit_fraction(3, 2, 8)


class TestUnitFractionValidation:
    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            UnitFraction(256, 8)
        with pytest.raises(ValueError):
            UnitFraction(-1, 8)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            UnitFraction(0, 0)

    def test_width_mismatch_on_add(self):
        with pytest.raises(ValueError):
            UnitFraction(1, 8).add(UnitFraction(1, 16))

    def test_to_float_round_to_nearest(self):
        u = UnitFraction((1 << 128) - 1, 128)
        assert u.to_float() == 1.0  # rounds up across the top
        assert UnitFraction(1, 128).to_float() == 2.0**-128


class TestFracMulInt:
    """{k*a} by W-bit modular multiply (``UnitFraction.mul_int``)."""

    def test_three_halves_wraps(self):
        u = make_unit_fraction(1, 2, 8)
        assert u.mul_int(3).as_fraction() == Fraction(1, 2)

    def test_three_times_one_third_truncation(self):
        u = UnitFraction(85, 8)  # 8-bit truncation of 1/3
        assert u.mul_int(3).bits == 255

    def test_k_zero(self):
        u = UnitFraction(85, 8)
        assert u.mul_int(0).bits == 0

    def test_additivity_is_exact(self):
        # {(k1+k2) a} = {k1 a} (+) {k2 a} in the W-bit modular model
        rng = random.Random(7)
        for _ in range(200):
            a = UnitFraction(rng.getrandbits(128), 128)
            k1, k2 = rng.getrandbits(40), rng.getrandbits(40)
            lhs = a.mul_int(k1 + k2)
            rhs = a.mul_int(k1).add(a.mul_int(k2))
            assert lhs == rhs


class TestMultiples:
    """The Kronecker orbit {k*a}, k < count (``UnitFraction.multiples``)."""

    def test_orbit_is_mul_int(self):
        rng = random.Random(11)
        for width in (1, 8, 63, 64, 65, 127, 128, 129, 200):
            for bits in (rng.getrandbits(width), (1 << width) - 1, 1 << (width - 1)):
                a = UnitFraction(bits, width)
                for count in (0, 1, 300):
                    words = a.multiples(count)
                    assert words.dtype == np.uint64 and words.shape == (count, -(-width // 64))
                    want = [a.mul_int(k).bits for k in range(count)]
                    assert from_words(words, width) == want
                    assert (words == to_words(want, width)).all()

    def test_empty_orbit(self):
        assert UnitFraction(85, 8).multiples(0).shape == (0, 1)

    def test_carries_through_every_limb(self):
        # all ones: every limb product carries into the next limb
        a = UnitFraction((1 << 200) - 1, 200)
        ks = [1000, (1 << 16) - 2, (1 << 16) - 1]
        assert from_words(a.multiples(1 << 16)[ks], 200) == [a.mul_int(k).bits for k in ks]

    def test_count_above_2_to_32_is_an_error(self):
        with pytest.raises(ValueError):
            UnitFraction(85, 8).multiples((1 << 32) + 1)


class TestWords:
    """``to_words`` and ``from_words``: left-aligned words, most significant
    first, and back."""

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 200])
    def test_round_trip(self, width):
        rng = random.Random(width)
        nums = [0, 1, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(50)]
        words = to_words(nums, width)
        assert words.shape == (len(nums), -(-width // 64))
        assert from_words(words, width) == nums

    def test_layout(self):
        # 1/2 + 2^-128 at W = 128; 1/2 at W = 1 fills the top bit of its word
        assert to_words([(1 << 127) | 1], 128).tolist() == [[1 << 63, 1]]
        assert to_words([1], 1).tolist() == [[1 << 63]]
        assert to_words([], 65).shape == (0, 2)


class TestShallitBeta:
    def test_width_8(self):
        # ones at positions 2, 4, 8: 0.01010001
        assert shallit_beta(8).bits == 0b01010001 == 81

    def test_width_4(self):
        assert shallit_beta(4).bits == 0b0101 == 5

    def test_width_2(self):
        assert shallit_beta(2).bits == 0b01

    @pytest.mark.parametrize("width", [4, 8, 77, 128, 200])
    def test_bit_positions(self, width):
        bits = shallit_beta(width).bits
        expected = set()
        p = 2
        while p <= width:
            expected.add(width - p)
            p *= 2
        assert {i for i in range(width) if bits >> i & 1} == expected


class TestTheoremAlpha:
    def test_n1_width8(self):
        # 1/3 = 0.01010101 plus beta = 0.01010001 -> 166/256
        assert theorem_alpha(1, 8).bits == 166

    def test_n2_width8(self):
        # 2/5 = 0.01100110; (102 + 81) mod 256
        assert theorem_alpha(2, 8).bits == 183

    def test_rational_part_alone(self):
        assert rational_bad(1, 8).bits == 85
        assert rational_bad(2, 8).bits == 102

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            theorem_alpha(0)


class TestContinuedFraction:
    def test_one_half(self):
        cf = continued_fraction(make_unit_fraction(1, 2, 8), 10)
        assert cf.coefficients == (2,)
        assert cf.terminated

    def test_truncated_one_third(self):
        # Euclid on (85, 256): 256 = 3*85 + 1, 85 = 85*1; the expansion of
        # the truncation, not of 1/3
        cf = continued_fraction(UnitFraction(85, 8), 10)
        assert cf.coefficients == (3, 85)
        assert cf.terminated

    def test_golden_ratio_truncation(self):
        # (sqrt(5)-1)/2 to 128 bits; all partial quotients 1 until the
        # truncation noise takes over
        w = 128
        bits = (math.isqrt(5 << (2 * w)) - (1 << w)) // 2
        cf = continued_fraction(UnitFraction(bits, w), 60)
        assert cf.coefficients == tuple([1] * 60)
        assert not cf.terminated

    def test_reconstruction_exact(self):
        rng = random.Random(11)
        for _ in range(50):
            bits = rng.getrandbits(64) | 1
            u = UnitFraction(bits, 64)
            cf = continued_fraction(u, 200)
            assert cf.terminated
            p, q = cf.convergents[-1]
            assert Fraction(p, q) == u.as_fraction()

    def test_convergent_recurrence_and_growth(self):
        u = theorem_alpha(3)
        cf = continued_fraction(u, 25)
        hs = [1, 0]  # h_{-1}, h_0
        ks = [0, 1]
        for ai in cf.coefficients:
            hs.append(ai * hs[-1] + hs[-2])
            ks.append(ai * ks[-1] + ks[-2])
        assert [c[0] for c in cf.convergents] == hs[2:]
        assert [c[1] for c in cf.convergents] == ks[2:]
        dens = [c[1] for c in cf.convergents]
        assert all(d2 > d1 for d1, d2 in zip(dens, dens[1:]))

    def test_zero_is_error(self):
        with pytest.raises(ValueError):
            continued_fraction(UnitFraction(0, 8), 5)


class TestNearestIntDistance:
    @pytest.mark.parametrize("t,expected", [(0.25, 0.25), (2.75, 0.25), (0.5, 0.5), (0.0, 0.0)])
    def test_values(self, t, expected):
        assert nearest_int_distance(t) == pytest.approx(expected, abs=0)

    def test_symmetries(self):
        rng = random.Random(3)
        for _ in range(100):
            t = rng.uniform(-5, 5)
            d = nearest_int_distance(t)
            assert d == pytest.approx(nearest_int_distance(1.0 - t), abs=1e-12)
            assert d == pytest.approx(nearest_int_distance(t + 1.0), abs=1e-12)
            assert 0.0 <= d <= 0.5

