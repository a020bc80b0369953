"""Property tests of the fixed-point arithmetic, the shifted perturbation
pattern and chunked point generation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from halkron.numtheory import UnitFraction
from halkron.sequences import PerturbSpec, generate_point_set

# derandomized and without an example database, so reruns are identical
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def unit_fractions(draw, widths=(1, 3, 8, 53, 64, 128, 200)) -> UnitFraction:
    width = draw(st.sampled_from(widths))
    return UnitFraction(draw(st.integers(0, (1 << width) - 1)), width)


@PROPERTY
@given(unit_fractions(), st.integers(0, 1 << 70), st.integers(0, 1 << 70))
def test_mul_int_is_additive(a, j, k):
    assert a.mul_int(j + k) == a.mul_int(j).add(a.mul_int(k))


@PROPERTY
@given(st.data(), st.integers(0, 1 << 70))
def test_mul_int_distributes_over_add(data, k):
    a = data.draw(unit_fractions())
    b = data.draw(unit_fractions(widths=(a.width,)))
    assert a.add(b).mul_int(k) == a.mul_int(k).add(b.mul_int(k))


@PROPERTY
@given(unit_fractions(), st.integers(0, 300))
def test_shift_left_is_mul_by_power_of_two(a, j):
    assert a.shift_left(j) == a.mul_int(2**j)


@PROPERTY
@given(st.integers(1, 8), st.integers(0, 40), st.integers(0, 60))
def test_shifted_gamma_is_tail_of_unshifted(n, shift, r):
    assert PerturbSpec(n, shift=shift).gamma(r) == PerturbSpec(n).gamma(r + shift)[shift:]


@PROPERTY
@given(st.integers(1, 4), unit_fractions(widths=(16, 64, 128, 200)), st.integers(1, 300),
       st.integers(1, 400))
def test_point_set_does_not_depend_on_chunk_size(n, alpha, count, chunk):
    whole = generate_point_set(PerturbSpec(n), alpha, count)
    assert generate_point_set(PerturbSpec(n), alpha, count, chunk_size=chunk) == whole
