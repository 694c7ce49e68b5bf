from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgw.poly import ParamPoly, ONE, S, double_factorial
from gbgw.series import BiSeries, LaurentSeries, SparseTensor

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def test_mul_trivial():
    one_plus = LaurentSeries("z", {0: Fraction(1), -1: Fraction(1)}, -5, 0)
    one_minus = LaurentSeries("z", {0: Fraction(1), -1: Fraction(-1)}, -5, 0)
    prod = one_plus * one_minus
    assert prod.coeff(0) == 1
    assert prod.coeff(-1) == 0
    assert prod.coeff(-2) == -1


def test_mul_monomials_cancel():
    z = LaurentSeries.monomial("z", 1, Fraction(1), -3)
    zinv = LaurentSeries.monomial("z", -1, Fraction(1), -3)
    assert (z * zinv).coeff(0) == 1


def test_mul_window_tightest():
    a = LaurentSeries("z", {0: Fraction(1)}, -4, 0)
    b = LaurentSeries("z", {2: Fraction(1)}, -6, 2)
    prod = a * b
    assert prod.hi == 2
    assert prod.lo == max(-4 + 2, 0 + -6)


def test_variable_mismatch():
    a = LaurentSeries.one("z", -2)
    b = LaurentSeries.one("x", -2)
    with pytest.raises(ValueError):
        a * b


def test_window_below_empty_rejected():
    LaurentSeries("z", {}, 1, 0)  # lo = hi + 1 is the empty window
    with pytest.raises(ValueError):
        LaurentSeries("z", {}, 2, 0)


def test_sparse_tensor_key_arity_checked():
    with pytest.raises(ValueError):
        SparseTensor(2, {(-1, -1, -1): Fraction(1)})


def test_inverse_geometric():
    q = Fraction(3, 7)
    a = LaurentSeries("z", {0: Fraction(1), -1: -q}, -10, 0)
    inv = a.inverse()
    for k in range(0, 9):
        assert inv.coeff(-k) == q ** k
    assert (a * inv).coeffs == {0: 1}


def test_inverse_of_one():
    inv = LaurentSeries.one("z", -6).inverse()
    assert (inv.coeffs, inv.lo, inv.hi) == ({0: 1}, -6, 0)


def test_inverse_requires_unit():
    # the leading coefficient must be a nonzero int or Fraction
    for top in (S, ONE, 0):
        with pytest.raises(ValueError):
            LaurentSeries("z", {0: top, -1: Fraction(1)}, -4, 0).inverse()


@st.composite
def units(draw):
    """A series on [lo, hi] with Fraction coefficients and a nonzero top one."""
    hi = draw(st.integers(-3, 3))
    lo = hi - draw(st.integers(0, 8))
    coeffs = {e: draw(fractions) for e in range(lo, hi)}
    coeffs[hi] = draw(fractions.filter(bool))
    return LaurentSeries("z", coeffs, lo, hi)


@PROPERTY
@given(units())
def test_inverse_round_trip(a):
    inv = a.inverse()
    assert (inv.lo, inv.hi) == (a.lo - 2 * a.hi, -a.hi)
    prod = a * inv
    assert (prod.coeffs, prod.lo, prod.hi) == ({0: 1}, a.lo - a.hi, 0)
    back = inv.inverse()
    assert (back.coeffs, back.lo, back.hi) == (a.coeffs, a.lo, a.hi)


@PROPERTY
@given(st.builds(lambda lo, c: LaurentSeries("x", {**c, 0: 1}, lo, 0), st.integers(-8, 0),
                 st.dictionaries(st.integers(-8, -1), fractions, max_size=8)))
def test_sqrt_round_trip(b):
    # b has constant term 1 on [lo, 0]; entries below lo are dropped
    r = b.sqrt()
    square = r * r
    assert (square.coeffs, square.lo, square.hi) == (b.coeffs, b.lo, 0)
    root = (b * b).sqrt()
    assert (root.coeffs, root.lo, root.hi) == (b.coeffs, b.lo, 0)


def test_sqrt_binomial_series():
    # sqrt(1 + s x^-2) has x^(-2k) coefficient C(1/2, k) s^k; the first few are
    # 1, s/2, -s^2/8, s^3/16.
    a = LaurentSeries("x", {0: ONE, -2: S}, -10, 0)
    r = a.sqrt()
    assert r.coeff(-2) == ParamPoly.monomial(Fraction(1, 2), es=1)
    assert r.coeff(-4) == ParamPoly.monomial(Fraction(-1, 8), es=2)
    assert r.coeff(-6) == ParamPoly.monomial(Fraction(1, 16), es=3)
    assert r.coeff(-3) == 0
    assert (r * r).coeffs == a.coeffs


def test_sqrt_of_one():
    root = LaurentSeries.one("x", -8).sqrt()
    assert (root.coeffs, root.lo, root.hi) == ({0: 1}, -8, 0)


def test_sqrt_rejects_bad_constant():
    with pytest.raises(ValueError):
        LaurentSeries("x", {0: Fraction(2)}, -3, 0).sqrt()


def test_one_minus_sqrt_matches_catalan_closed_form():
    # 1 - sqrt(1 + s x^-2): coefficient of x^(-2k-2) must be
    # (-1)^(k+1)/2^(2k+1) * C(2k, k)/(k+1) * s^(k+1).
    from math import comb

    depth = 18
    a = LaurentSeries("x", {0: ONE, -2: S}, -depth, 0)
    w = LaurentSeries.one("x", -depth) - a.sqrt()
    for k in range(0, (depth - 2) // 2 + 1):
        expected = Fraction((-1) ** (k + 1), 2 ** (2 * k + 1)) * Fraction(comb(2 * k, k), k + 1)
        assert w.coeff(-2 * k - 2) == ParamPoly.monomial(expected, es=k + 1)


def test_window_soundness_recompute_larger():
    # Recomputing with a larger window must reproduce every coefficient of the
    # smaller-window result.  The inverted series is 1 - W01 = sqrt(1 + s/x^2).
    def pipeline(depth):
        a = LaurentSeries("x", {0: ONE, -2: S}, -depth, 0)
        return a.sqrt().inverse()

    small = pipeline(10)
    big = pipeline(16)
    for e in range(small.lo, small.hi + 1):
        assert small.coeff(e) == big.coeff(e)


def test_inverse_of_one_minus_w01():
    # E-tilde denominator: 1/(1 - W01) = (1 + s/x^2)^(-1/2); the multiply-back
    # oracle pins every coefficient, and C(-1/2,1) = -1/2 fixes the first one.
    depth = 12
    a = LaurentSeries("x", {0: ONE, -2: S}, -depth, 0)
    one_minus_w01 = a.sqrt()
    inv = one_minus_w01.inverse()
    assert inv.coeff(-2) == ParamPoly.monomial(Fraction(-1, 2), es=1)
    assert (one_minus_w01 * inv).coeffs == {0: 1}


def test_inverse_sqrt_cubed_matches_binomial_closed_form():
    # (1 + s x^-2)^(-k-1/2) expansions drive the z -> x transform; for k = 1
    # the m-th coefficient is C(-3/2, m) s^m = (-1)^m (2m+1)!!/(2^m m!) s^m.
    depth = 12
    a = LaurentSeries("x", {0: ONE, -2: S}, -depth, 0)
    inv_sqrt = a.sqrt().inverse()  # (1+s/x^2)^(-1/2)
    p = inv_sqrt * inv_sqrt * inv_sqrt
    for m in range(0, 4):
        expect = Fraction((-1) ** m * double_factorial(2 * m + 1), 2 ** m * factorial(m))
        assert p.coeff(-2 * m) == ParamPoly.monomial(expect, es=m)
