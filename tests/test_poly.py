from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgw.poly import ParamPoly, ONE, ZERO, H, double_factorial, u_add, u_mul, u_scale

PROPERTY = settings(max_examples=40)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)

U = ParamPoly.monomial(1, eu=1)

# (c, eh, eu, es)
monomials = st.tuples(fractions, st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))

# sums of up to four monomials
polys = st.lists(monomials, max_size=4).map(
    lambda terms: sum((ParamPoly.monomial(*t) for t in terms), ZERO))


def trimmed(xs):
    """A dense int u-tuple without trailing zeros (the empty tuple is zero)."""
    while xs and not xs[-1]:
        xs = xs[:-1]
    return tuple(xs)


u_tuples = st.lists(st.integers(-20, 20), max_size=6).map(trimmed)


def test_difference_of_squares():
    assert (H + U) * (H + (-U)) == H * H + (-(U * U))


@PROPERTY
@given(polys)
def test_additive_inverse(p):
    assert p + (-p) == ZERO
    assert not (p + (-p))
    assert -(-p) == p


@PROPERTY
@given(polys, polys, polys)
def test_ring_axioms_randomized(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a and a + ZERO == a and not a * ZERO


@PROPERTY
@given(monomials, monomials)
def test_monomial_products_add_exponents(m1, m2):
    # with distributivity this pins every product
    (c1, *e1), (c2, *e2) = m1, m2
    expect = ParamPoly.monomial(c1 * c2, *(x + y for x, y in zip(e1, e2)))
    assert ParamPoly.monomial(c1, *e1) * ParamPoly.monomial(c2, *e2) == expect


@PROPERTY
@given(polys, polys, fractions)
def test_subs_u_is_a_ring_map(a, b, q):
    assert (a * b).subs_u(q) == a.subs_u(q) * b.subs_u(q)
    assert (a + b).subs_u(q) == a.subs_u(q) + b.subs_u(q)


@PROPERTY
@given(polys, polys, fractions)
def test_every_key_has_four_slots_and_the_last_is_zero(a, b, q):
    # serialized terms are read as four exponent columns (h, u, s, v)
    for p in (a * b, a + b, -a, a.subs_u(q), ParamPoly.const(q)):
        assert all(len(key) == 4 and key[3] == 0 for key in p.terms)


def test_param_poly_is_unhashable():
    # ParamPoly.const(1) == 1, so any hash would have to agree with hash(1)
    with pytest.raises(TypeError):
        hash(ParamPoly.const(1))


def from_u(a):
    return ParamPoly.from_u(a, 1)


@PROPERTY
@given(u_tuples, u_tuples)
def test_u_mul_and_u_add_match_param_poly(a, b):
    assert from_u(u_mul(a, b)) == from_u(a) * from_u(b)
    assert from_u(u_add(a, b)) == from_u(a) + from_u(b)
    assert trimmed(u_mul(a, b)) == u_mul(a, b)
    assert trimmed(u_add(a, b)) == u_add(a, b)
    # where b is the longer, its top entries cancel: the sum must be trimmed
    assert u_add(u_add(a, b), u_scale(b, -1)) == a


@PROPERTY
@given(u_tuples, st.integers(-9, 9).filter(bool), st.integers(1, 9), st.integers(0, 3))
def test_u_scale_and_from_u_match_param_poly(a, k, den, eh):
    assert from_u(u_scale(a, k)) == k * from_u(a)
    assert trimmed(u_scale(a, k)) == u_scale(a, k)
    assert ParamPoly.from_u(a, den, eh=eh) == ParamPoly.monomial(Fraction(1, den), eh=eh) * from_u(a)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
