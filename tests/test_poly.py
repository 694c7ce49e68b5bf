from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgw.poly import ParamPoly, ONE, ZERO, H, U, V, double_factorial, u_add, u_mul, u_scale

PROPERTY = settings(max_examples=40)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def monomials(max_ev):
    """(c, eh, eu, es, ev) with ev up to max_ev, so that v-powers >= 2 reduce."""
    return st.tuples(fractions, st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
                     st.integers(0, max_ev))


def polys(max_ev=4, ev_step=1):
    """Sums of up to four monomials; ev_step=2 keeps every v-power even (no v left)."""
    def build(terms):
        return sum((ParamPoly.monomial(c, eh, eu, es, ev * ev_step) for c, eh, eu, es, ev in terms),
                   ZERO)
    return st.lists(monomials(max_ev // ev_step), max_size=4).map(build)


def trimmed(xs):
    """A dense int u-tuple without trailing zeros (the empty tuple is zero)."""
    while xs and not xs[-1]:
        xs = xs[:-1]
    return tuple(xs)


u_tuples = st.lists(st.integers(-20, 20), max_size=6).map(trimmed)


def test_difference_of_squares():
    assert (H + U) * (H - U) == H * H - U * U


@PROPERTY
@given(polys())
def test_additive_inverse(p):
    assert p + (-p) == ZERO
    assert not (p - p)


@PROPERTY
@given(polys(), polys(), polys())
def test_ring_axioms_randomized(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a and a + ZERO == a and not a * ZERO
    assert a * (V * V) == a * U


@PROPERTY
@given(monomials(4), monomials(4))
def test_monomial_products_add_exponents(m1, m2):
    # with distributivity this pins every product
    (c1, *e1), (c2, *e2) = m1, m2
    expect = ParamPoly.monomial(c1 * c2, *(x + y for x, y in zip(e1, e2)))
    assert ParamPoly.monomial(c1, *e1) * ParamPoly.monomial(c2, *e2) == expect


@PROPERTY
@given(fractions.filter(bool), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
       st.integers(0, 3), st.integers(0, 1))
def test_v_powers_reduce(c, eh, eu, es, k, r):
    reduced = ParamPoly.monomial(c, eh, eu + k, es, r)
    assert ParamPoly.monomial(c, eh, eu, es, 2 * k + r) == reduced
    assert ParamPoly.monomial(c, eh, eu, es) * prod([V] * (2 * k + r), start=ONE) == reduced


def test_v_squares_to_u():
    assert V * V == U
    assert V * V * V * V * V == U * U * V
    p = (ONE - V) * (ONE + V)
    assert p == ONE - U


@PROPERTY
@given(polys(ev_step=2), polys(ev_step=2), fractions)
def test_subs_u_is_a_ring_map(a, b, q):
    assert (a * b).subs_u(q) == a.subs_u(q) * b.subs_u(q)
    assert (a + b).subs_u(q) == a.subs_u(q) + b.subs_u(q)


def test_subs_u_rejects_v():
    with pytest.raises(ValueError):
        (V + ONE).subs_u(Fraction(1, 4))


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
@given(u_tuples, st.integers(-9, 9).filter(bool), st.integers(1, 9), st.integers(0, 3),
       st.integers(0, 1))
def test_u_scale_and_from_u_match_param_poly(a, k, den, eh, ev):
    assert from_u(u_scale(a, k)) == k * from_u(a)
    assert trimmed(u_scale(a, k)) == u_scale(a, k)
    assert ParamPoly.from_u(a, den, eh=eh, ev=ev) == ParamPoly.monomial(Fraction(1, den), eh=eh, ev=ev) * from_u(a)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
