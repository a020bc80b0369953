import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import coordinates
from halkron import cli
from halkron.numtheory import UnitFraction, make_unit_fraction, theorem_alpha
from exact_helpers import DigitVector, mk_array
from halkron.sequences import PerturbSpec, PointSet2, generate_point_set
from scalar_point_oracle import digital_point, hybrid_point, weighted_digit_sum


def brute_weighted_digit_sum(k: int, n: int, shift: int) -> int:
    """Independent oracle: sum the digits against the written-out pattern."""
    total = 0
    i = 0
    while k >> i:
        c = 1 if (i + shift) % n == 0 else 0
        total += ((k >> i) & 1) * c
        i += 1
    return total % 2


class TestWeightedDigitSum:
    def test_spec_cases(self):
        assert weighted_digit_sum(3, PerturbSpec(1)) == 0
        assert weighted_digit_sum(5, PerturbSpec(2)) == 0
        assert weighted_digit_sum(0, PerturbSpec(3, shift=2)) == 0

    def test_shifted_pattern(self):
        # n=2, shift=1: weights sit at odd digit positions
        assert weighted_digit_sum(2, PerturbSpec(2, shift=1)) == 1
        assert weighted_digit_sum(10, PerturbSpec(2, shift=1)) == 0

    def test_against_brute_force(self):
        rng = random.Random(5)
        for _ in range(300):
            k = rng.getrandbits(rng.randint(1, 30))
            n = rng.randint(1, 5)
            shift = rng.randint(0, 7)
            assert weighted_digit_sum(k, PerturbSpec(n, shift=shift)) == \
                brute_weighted_digit_sum(k, n, shift)


class TestPattern:
    def test_digit_mask_holds_the_pattern(self):
        for period in range(1, 9):
            for shift in range(10):
                spec = PerturbSpec(period, shift=shift)
                for nbits in range(71):
                    mask = spec.digit_mask(nbits)
                    assert mask >> nbits == 0
                    assert all((mask >> p & 1) == ((p + shift) % period == 0)
                               for p in range(nbits))


class TestDigitVector:
    def test_reconstruction(self):
        for k in [0, 1, 5, 100, 2**20 + 3]:
            assert DigitVector.of(k).reconstruct() == k


class TestDigitalPoint:
    def test_spec_cases(self):
        assert digital_point(3, PerturbSpec(1)).as_fraction() == Fraction(1, 4)
        assert digital_point(4, PerturbSpec(2)).as_fraction() == Fraction(5, 8)
        assert digital_point(0, PerturbSpec(2)).bits == 0

    def test_rejects_shifted_spec(self):
        with pytest.raises(ValueError):
            digital_point(1, PerturbSpec(2, shift=1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_injective_on_prefix(self, n):
        spec = PerturbSpec(n)
        seen = {digital_point(k, spec).bits for k in range(256)}
        assert len(seen) == 256

    def test_mk_indices_are_left_half(self):
        # x_k < 1/2 iff the weighted digit sum of k is even
        for n in (1, 2, 3):
            spec = PerturbSpec(n)
            left = {k for k in range(512) if digital_point(k, spec).as_fraction() < Fraction(1, 2)}
            mks = set(mk_array(n, len(left)).tolist())
            assert left == mks


class TestHybridPoint:
    def test_spec_cases(self):
        a = make_unit_fraction(1, 2, 128)
        assert hybrid_point(0, PerturbSpec(1), a) == (UnitFraction(0, 128), UnitFraction(0, 128))
        x, y = hybrid_point(3, PerturbSpec(1), a)
        assert x.as_fraction() == Fraction(1, 4)
        assert y.as_fraction() == Fraction(1, 2)
        a8 = UnitFraction(85, 8)
        x, y = hybrid_point(4, PerturbSpec(2), a8)
        assert x.as_fraction() == Fraction(5, 8)
        assert y.bits == 84


class TestMkSequence:
    def test_evil_numbers(self):
        assert mk_array(1, 6).tolist() == [0, 3, 5, 6, 9, 10]

    def test_n2(self):
        assert mk_array(2, 5).tolist() == [0, 2, 5, 7, 8]

    def test_single(self):
        assert mk_array(4, 1).tolist() == [0]

    @pytest.mark.parametrize("n,l", [(1, 6), (2, 4), (3, 3)])
    def test_density_one_half(self, n, l):
        bound = 1 << (n * l)
        members = mk_array(n, bound)  # more than enough
        assert int((members < bound).sum()) == bound // 2

    def test_strictly_increasing(self):
        m = mk_array(3, 1000)
        assert (np.diff(m) > 0).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_filter_of_the_integers(self, n):
        # past 65536 members, the edge of the former 2^16-integer blocks
        count = 65536 + 3
        spec = PerturbSpec(n)
        evens = (k for k in itertools.count() if weighted_digit_sum(k, spec) == 0)
        assert mk_array(n, count).tolist() == list(itertools.islice(evens, count))


class TestFairness:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dyadic_interval_counts(self, n):
        # every window of N consecutive indices puts floor(N/2^m)+{0,1}
        # points of x into each dyadic interval of length 2^-m, with
        # exactly floor when 2^m | N
        spec = PerturbSpec(n)
        for m in (1, 3, 5, 8):
            cells = 1 << m
            for start, count in [(0, 64), (7, 37), (100, 256), (801, 96), (3000, 1024)]:
                hits = np.zeros(cells, dtype=int)
                for k in range(start, start + count):
                    x = digital_point(k, spec).as_fraction()
                    hits[int(x * cells)] += 1
                base = count // cells
                assert hits.min() >= base
                assert hits.max() <= base + 1
                if count % cells == 0:
                    assert (hits == base).all()


def gen_table(capsys) -> list[str]:
    """The CSV lines of the ``gen`` output on stdout, after its comment lines."""
    return [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]


class TestGeneratePointSet:
    def test_single_point(self):
        ps = generate_point_set(PerturbSpec(1), make_unit_fraction(1, 2, 128), 1)
        assert len(ps) == 1
        assert coordinates(ps) == ([0], [0])

    def test_spec_example_n1(self):
        ps = generate_point_set(PerturbSpec(1), make_unit_fraction(1, 2, 128), 4)
        q = 1 << ps.width
        pts = [(Fraction(x, q), Fraction(y, q)) for x, y in zip(*coordinates(ps))]
        assert pts == [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(3, 4), Fraction(0)),
            (Fraction(1, 4), Fraction(1, 2)),
        ]

    def test_spec_example_n2(self):
        ps = generate_point_set(PerturbSpec(2), UnitFraction(85, 8), 2)
        pts = [(Fraction(x, 256), Fraction(y, 256)) for x, y in zip(*coordinates(ps))]
        assert pts == [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(85, 256))]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_point_set(PerturbSpec(1), make_unit_fraction(1, 2, 128), 0)

    def test_matches_pointwise_construction(self):
        from halkron.numtheory import theorem_alpha

        alpha = theorem_alpha(2)
        spec = PerturbSpec(2)
        xs, ys = coordinates(generate_point_set(spec, alpha, 200))
        for k in (0, 1, 17, 100, 199):
            x, y = hybrid_point(k, spec, alpha)
            assert xs[k] == x.bits
            assert ys[k] == y.bits

    def test_word_arrays_are_frozen(self):
        # two uint64 words per coordinate at W = 128
        count = 1 << 16
        ps = generate_point_set(PerturbSpec(1), theorem_alpha(1), count)
        assert ps.x.dtype == ps.y.dtype == np.uint64
        assert ps.x.nbytes == ps.y.nbytes == 16 * count
        with pytest.raises(ValueError):
            ps.x[0, 0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            ps.y = ps.x
        with pytest.raises(ValueError):
            PointSet2(ps.x, ps.y[:-1], ps.width)
        with pytest.raises(ValueError):
            PointSet2(ps.x, ps.y.astype(np.int64), ps.width)

    def test_csv_export(self, capsys):
        ps = generate_point_set(PerturbSpec(1), make_unit_fraction(1, 2, 128), 4)
        assert cli.main(["gen", "--n", "1", "--alpha", "frac:1/2", "--count", "4"]) == 0
        lines = gen_table(capsys)
        assert lines[0] == "k,x_bits_hex,y_bits_hex,x_float,y_float"
        assert len(lines) == 5
        k, xh, yh, xf, yf = lines[2].split(",")
        assert k == "1"
        assert int(xh, 16) == coordinates(ps)[0][1]
        assert float(xf) == 0.5

    @pytest.mark.parametrize("argv, alpha", [
        (["--alpha", "theorem", "--width", "200"], theorem_alpha(2, 200)),
        (["--alpha", "bits:0x9e3779b97f:40"], UnitFraction(0x9E3779B97F, 40)),
    ], ids=["two-words", "bits"])
    def test_csv_floats_are_the_hex_numerators(self, capsys, argv, alpha):
        # every float column is the double of its exact numerator over 2^W
        assert cli.main(["gen", "--n", "2", *argv, "--count", "16"]) == 0
        rows = [line.split(",") for line in gen_table(capsys)[1:]]
        assert len(rows) == 16
        assert int(rows[1][2], 16) == alpha.bits  # y_1 = alpha
        for _, xh, yh, xf, yf in rows:
            assert xf == repr(int(xh, 16) / 2**alpha.width)
            assert yf == repr(int(yh, 16) / 2**alpha.width)
