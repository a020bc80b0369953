"""The two-pass 2D sweep against the former single blocked sweep
(``block_sweep_oracle``), which evaluates every corner, and the row bounds
of its first pass against exact row maxima."""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from block_sweep_oracle import block_sweep_discrepancy_2d
from conftest import coordinates, point_set
from test_discrepancy_properties import PROPERTY, tied_point_sets
from halkron import cli, discrepancy
from halkron.discrepancy import star_discrepancy_2d
from halkron.numtheory import rational_bad, theorem_alpha
from halkron.sequences import PerturbSpec, PointSet2, generate_point_set

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def assert_same_as_oracle(ps: PointSet2) -> None:
    got, want = star_discrepancy_2d(ps), block_sweep_discrepancy_2d(ps)
    assert (got.d_star, got.witness_box) == (want.d_star, want.witness_box), len(ps)


def exact_row_maxima(ps: PointSet2) -> list[Fraction]:
    """max over the corners of each row of N*term, in exact rationals: rows
    at the distinct x and at 1; closed corners at the distinct y of rows
    below 1, open corners also at y = 1."""
    q, n = 1 << ps.width, len(ps)
    xb, yb = coordinates(ps)
    xs, ys = sorted(set(xb)), sorted(set(yb))
    rx = {v: i for i, v in enumerate(xs)}
    ry = {v: i for i, v in enumerate(ys)}
    hist = np.zeros((len(xs) + 1, len(ys) + 1), dtype=np.int64)
    for a, b in zip(xb, yb):
        hist[rx[a] + 1, ry[b] + 1] += 1
    cum = hist.cumsum(axis=0).cumsum(axis=1)  # cum[a + 1, b + 1] = C(a, b)
    out = []
    for a, x in enumerate(xs + [q]):
        terms = []
        for b, y in enumerate(ys + [q]):
            vol = Fraction(n * x * y, q * q)
            if a < len(xs) and b < len(ys):
                terms.append(int(cum[a + 1, b + 1]) - vol)
            terms.append(vol - int(cum[a, b]))
        out.append(max(terms))
    return out


def benchmark_sets(workload: str, seed: int):
    """The point sets of one pass of a perfbench workload."""
    for argv in workloads.commands(workload, seed):
        args = cli.build_parser().parse_args(argv)
        n = int(args.n)
        alpha = cli.parse_alpha(args.alpha, n, args.width)
        sizes = [1 << (n * ell) for ell in cli.parse_range(args.L)] if argv[0] == "scan" else [args.count]
        for size in sizes:
            yield generate_point_set(PerturbSpec(n), alpha, size)


class TestBlockSweepOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("workload", ["growth", "ties"])
    def test_benchmark_sets(self, workload, seed):
        for ps in benchmark_sets(workload, seed):
            assert_same_as_oracle(ps)

    @pytest.mark.parametrize("make_alpha", [theorem_alpha, rational_bad])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generated_sets(self, n, make_alpha):
        alpha = make_alpha(n)
        counts = {1, 7, 1000, 3000} | {1 << (n * ell) for ell in range(1, 12 // n + 1)}
        for count in sorted(counts):
            assert_same_as_oracle(generate_point_set(PerturbSpec(n), alpha, count))

    def test_n1_at_2_14(self):
        assert_same_as_oracle(generate_point_set(PerturbSpec(1), theorem_alpha(1), 1 << 14))


@pytest.mark.parametrize("stride", [1, 2, 3])
@PROPERTY
@given(tied_point_sets())
def test_every_gap_shape(stride, ps):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrepancy, "_SAMPLE_STRIDE", stride)
        assert_same_as_oracle(ps)


@pytest.mark.parametrize("stride", [1, 2, 3, 8])
@PROPERTY
@given(tied_point_sets(), st.sampled_from([0.25, 0.5, 1.5]))
def test_rows_within_twice_the_margin_are_visited(stride, ps, margin):
    # the margin is in units of 1/N, far above the float error, so the
    # rows near the threshold are few and the bounds' slack shows
    rmax = exact_row_maxima(ps)
    cut = max(rmax) - 2 * Fraction(margin)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrepancy, "_SAMPLE_STRIDE", stride)
        rows = set(discrepancy._RankSweep(ps).rows_to_visit(margin).tolist())
    tol = Fraction(1, 10**9)
    assert {a for a, r in enumerate(rmax) if r >= cut + tol} <= rows
    if stride == 1:  # every row is a sample: its bound is its own maximum
        assert rows <= {a for a, r in enumerate(rmax) if r >= cut - tol}


def flat_set() -> PointSet2:
    """128 points on which every row holds the maximum N*D* = 47.

    Rows 0..63 hold one point each, at x = (a + 47)/128 and y = 3/8 + a/128;
    row 64 is a column of 64 points at x = 111/128 with y from 47/128 up
    to 1 in steps of 81/8192.  Row a < 65 reaches 47 at the open corner
    (x_a, 1), whose box holds the a points to its left, and the row at
    x = 1 at the open corner (1, 47/128) below every point."""
    width = 16
    scale = 1 << (width - 13)
    xs = [(a + 47) << (width - 7) for a in range(64)] + [111 << (width - 7)] * 64
    ys = [((3 << 10) + (a << 6)) * scale for a in range(64)]
    ys += [(47 * 64 + 81 * j) * scale for j in range(64)]
    return point_set(xs, ys, width)


def test_no_row_can_be_pruned():
    ps = flat_set()
    assert exact_row_maxima(ps) == [47] * 66
    sweep = discrepancy._RankSweep(ps)
    rows = sweep.rows_to_visit(len(ps) * discrepancy._CONFIRM_MARGIN)
    assert rows.tolist() == list(range(66))
    assert star_discrepancy_2d(ps).d_star == Fraction(47, 128)
    assert_same_as_oracle(ps)
