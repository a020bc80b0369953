"""Property tests of the exact 2D star discrepancy on small point sets with
many ties: repeated x, repeated y, duplicate points, and 128-bit values at
most 2^8 apart (distinct numerators that round to the same double)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coordinates, point_set
from corner_oracle import brute_force_discrepancy_points
from halkron import discrepancy
from halkron.discrepancy import BoxSide, star_discrepancy_2d
from halkron.sequences import PointSet2

# derandomized and without an example database, so reruns are identical
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def tied_point_sets(draw) -> PointSet2:
    width = draw(st.sampled_from([3, 8, 128]))
    top = (1 << width) - 1
    anchors = draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    near = st.builds(lambda a, d: min(top, a + d), st.sampled_from(anchors), st.integers(0, 1 << 8))
    coord = st.one_of(st.sampled_from(anchors), near, st.integers(0, top))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return point_set([x for x, _ in pts], [y for _, y in pts], width)


@PROPERTY
@given(tied_point_sets())
def test_equals_corner_enumeration(ps):
    assert star_discrepancy_2d(ps).d_star == brute_force_discrepancy_points(ps)


@PROPERTY
@given(st.data())
def test_point_order_does_not_matter(data):
    ps = data.draw(tied_point_sets())
    order = data.draw(st.permutations(range(len(ps))))
    shuffled = PointSet2(ps.x[order], ps.y[order], ps.width)
    assert star_discrepancy_2d(shuffled) == star_discrepancy_2d(ps)


@PROPERTY
@given(tied_point_sets())
def test_witness_reevaluates_to_smallest_maximizer(ps):
    # corners: closed at the point coordinates, open also at 1; the witness
    # re-evaluates to d_star and is the smallest (closed, x, y) among the
    # exact maximizers
    q, n = 1 << ps.width, len(ps)
    xb, yb = coordinates(ps)
    xs, ys = sorted(set(xb)), sorted(set(yb))
    corners = [(True, x, y) for x in xs for y in ys]
    corners += [(False, x, y) for x in xs + [q] for y in ys + [q]]

    def term(closed, x, y):
        vol = Fraction(x * y, q * q)
        if closed:
            return Fraction(sum(1 for a, b in zip(xb, yb) if a <= x and b <= y), n) - vol
        return vol - Fraction(sum(1 for a, b in zip(xb, yb) if a < x and b < y), n)

    res = star_discrepancy_2d(ps)
    sx, sy = res.witness_box
    assert sx.closed == sy.closed
    assert term(sx.closed, sx.coord * q, sy.coord * q) == res.d_star
    terms = {c: term(*c) for c in corners}
    closed, x, y = min(c for c, t in terms.items() if t == res.d_star)
    assert res.witness_box == (BoxSide(Fraction(x, q), closed), BoxSide(Fraction(y, q), closed))


@PROPERTY
@given(tied_point_sets())
def test_block_edge_on_every_row(ps):
    want = star_discrepancy_2d(ps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discrepancy, "_BLOCK_CELLS", 1)
        assert star_discrepancy_2d(ps) == want
