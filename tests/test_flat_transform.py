"""Property tests of the integer flat-coordinate transform against a Fraction oracle."""

from fractions import Fraction
from itertools import product
from math import factorial, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from gbgw.eo import _flat_scatter
from gbgw.poly import double_factorial

PROPERTY = settings(max_examples=40)


def dfact(kk):
    return prod(double_factorial(2 * k + 1) for k in kk)


def oracle(raw, n, max_weight):
    """(2l+1)!! B^l at s = 1 from raw coefficients W^k = (2k+1)!! A^k, with
    B^l = sum_{k+m=l} prod (-1)^(m_i)/(2^(m_i) m_i!) A^k for every l with
    sum(2l_i + 1) <= max_weight, summed directly in Fractions."""
    out = {}
    for l in product(range(max_weight // 2 + 1), repeat=n):
        if sum(2 * li + 1 for li in l) > max_weight:
            continue
        total = Fraction(0)
        for k, v in raw.items():
            if all(ki <= li for ki, li in zip(k, l)):
                w = Fraction(v, dfact(k))
                for ki, li in zip(k, l):
                    m = li - ki
                    w *= Fraction((-1) ** m, 2 ** m * factorial(m))
                total += w
        if total:
            out[l] = dfact(l) * total
    return out


def scattered(raw, n, max_weight):
    t, scale = _flat_scatter(raw, n, max_weight)
    return {ll: Fraction(v, scale) for ll, v in t.items()}


@st.composite
def tables(draw):
    """An int table of arity 1-4 (possibly empty) and a weight bound, which
    may be below the arity.  Keys have |k| <= 5, so that most of them, and
    not all, lie inside the bound."""
    n = draw(st.integers(1, 4))
    keys = st.tuples(*[st.integers(0, 3)] * n).filter(lambda kk: sum(kk) <= 5)
    return n, draw(st.dictionaries(keys, st.integers(-8, 8), max_size=5)), draw(st.integers(0, 15))


@PROPERTY
@given(data=st.data())
def test_transform_matches_the_oracle(data):
    n, raw, max_weight = data.draw(tables())
    expect = oracle(raw, n, max_weight)
    if expect and data.draw(st.booleans()):
        # W at l enters (2l+1)!! B at l with weight 1, so scaling the table by
        # the denominator d of c = (2l+1)!! B^l and moving W^l by -d c cancels it
        cancelled = data.draw(st.sampled_from(sorted(expect)))
        c = expect[cancelled]
        raw = {kk: c.denominator * v for kk, v in raw.items()}
        raw[cancelled] = raw.get(cancelled, 0) - c.numerator
        expect = oracle(raw, n, max_weight)
        assert cancelled not in expect
    assert scattered(raw, n, max_weight) == expect
