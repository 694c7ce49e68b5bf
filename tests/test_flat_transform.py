"""Property tests of the flat-coordinate transforms against a Fraction oracle."""

from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgw.eo import from_x_coords, to_x_coords
from gbgw.series import SparseTensor

PROPERTY = settings(max_examples=40)


def oracle(a, max_weight, s):
    """The to_x_coords docstring at s = 1 (s = -1 for from_x_coords):
    B^l = sum_{k+m=l} prod (-s)^(m_i)/(2^(m_i) m_i!) A^k for every l with
    sum(2l_i + 1) <= max_weight, summed directly in Fractions."""
    out = {}
    for l in product(range(max_weight // 2 + 1), repeat=a.arity):
        if sum(2 * li + 1 for li in l) > max_weight:
            continue
        total = Fraction(0)
        for k, v in a.coeffs.items():
            if all(ki <= li for ki, li in zip(k, l)):
                w = Fraction(1)
                for ki, li in zip(k, l):
                    m = li - ki
                    w *= Fraction((-s) ** m, 2 ** m * factorial(m))
                total += w * v
        if total:
            out[l] = total
    return out


@st.composite
def tensors(draw):
    """A sparse tensor of arity 1-4 with Fraction entries (possibly empty)
    and a weight bound, which may be below the arity.  Keys have |k| <= 5,
    so that most of them, and not all, lie inside the bound."""
    n = draw(st.integers(1, 4))
    keys = st.tuples(*[st.integers(0, 3)] * n).filter(lambda kk: sum(kk) <= 5)
    values = st.fractions(min_value=-8, max_value=8, max_denominator=12)
    return SparseTensor(n, draw(st.dictionaries(keys, values, max_size=5))), draw(st.integers(0, 15))


@pytest.mark.parametrize("transform, s", [(to_x_coords, 1), (from_x_coords, -1)])
@PROPERTY
@given(data=st.data())
def test_transform_matches_the_oracle(transform, s, data):
    a, max_weight = data.draw(tensors())
    expect = oracle(a, max_weight, s)
    cancelled = None
    if expect and data.draw(st.booleans()):
        # A at l enters B at l with weight 1, so moving A^l by -B^l cancels B^l
        cancelled = data.draw(st.sampled_from(sorted(expect)))
        coeffs = dict(a.coeffs)
        coeffs[cancelled] = coeffs.get(cancelled, 0) - expect[cancelled]
        a = SparseTensor(a.arity, coeffs)
        expect = oracle(a, max_weight, s)
        assert cancelled not in expect
    assert transform(a, max_weight).coeffs == expect


@PROPERTY
@given(tensors())
def test_round_trip_returns_the_entries_in_range(case):
    a, max_weight = case
    in_range = {kk: v for kk, v in a.coeffs.items() if sum(2 * k + 1 for k in kk) <= max_weight}
    assert from_x_coords(to_x_coords(a, max_weight), max_weight).coeffs == in_range
    assert to_x_coords(from_x_coords(a, max_weight), max_weight).coeffs == in_range
