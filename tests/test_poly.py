from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgw.poly import (
    ParamPoly,
    ZERO,
    double_factorial,
    u_add,
    u_eval,
    u_mul,
    u_norm_max,
    u_pack,
    u_scale,
    u_unpack,
)

PROPERTY = settings(max_examples=40)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)

# (c, eh, eu, es)
monomials = st.tuples(fractions, st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))


def trimmed(xs):
    """A dense int u-tuple without trailing zeros (the empty tuple is zero)."""
    while xs and not xs[-1]:
        xs = xs[:-1]
    return tuple(xs)


u_tuples = st.lists(st.integers(-20, 20), max_size=6).map(trimmed)


def points(*tuples):
    """deg + 1 distinct rationals for the largest degree among ``tuples``: two
    polynomials of at most that degree that agree there are equal."""
    return [Fraction(k, 3) for k in range(-3, max(map(len, tuples)))]


def same_polynomial(a, b):
    """a == b, decided by u_eval alone, at enough points to pin both."""
    return all(u_eval(a, q) == u_eval(b, q) for q in points(a, b))


class _Bare:
    """A class with nothing of its own: what every class body defines."""

    __slots__ = ()


def test_param_poly_is_only_an_output_format():
    # ParamPoly carries no arithmetic: values are combined as int u-tuples
    # (u_add, u_mul, u_scale, u_pack) and evaluated by u_eval.  __hash__ is
    # the None that defining __eq__ implies
    own = set(vars(ParamPoly)) - set(vars(_Bare)) - {"__hash__"}
    assert own == {"__init__", "__eq__", "__bool__", "__repr__", "const", "monomial", "from_u",
                   "coeff", "sorted_terms", "terms"}
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
               "__pow__", "_promote", "subs_u"):
        assert not hasattr(ParamPoly, op), op


def test_difference_of_squares():
    # (1 + u)(1 - u) = 1 - u^2 on u-tuples
    one_plus_u, one_minus_u = (1, 1), (1, -1)
    assert u_mul(one_plus_u, one_minus_u) == (1, 0, -1)
    assert u_mul(one_plus_u, one_minus_u) == u_add(u_mul((1,), (1,)), u_scale(u_mul((0, 1), (0, 1)), -1))


@PROPERTY
@given(u_tuples)
def test_additive_inverse(a):
    assert u_add(a, u_scale(a, -1)) == ()
    assert u_scale(u_scale(a, -1), -1) == a


@PROPERTY
@given(u_tuples, u_tuples, u_tuples)
def test_ring_axioms_randomized(a, b, c):
    assert u_add(u_add(a, b), c) == u_add(a, u_add(b, c))
    assert u_add(a, b) == u_add(b, a)
    assert u_mul(a, b) == u_mul(b, a)
    assert u_mul(u_mul(a, b), c) == u_mul(a, u_mul(b, c))
    assert u_mul(a, u_add(b, c)) == u_add(u_mul(a, b), u_mul(a, c))
    assert u_mul(a, (1,)) == a and u_add(a, ()) == a and u_mul(a, ()) == ()


@PROPERTY
@given(st.integers(-9, 9).filter(bool), st.integers(0, 4), st.integers(-9, 9).filter(bool),
       st.integers(0, 4))
def test_monomial_products_add_exponents(c1, e1, c2, e2):
    # with distributivity this pins every product
    assert u_mul((0,) * e1 + (c1,), (0,) * e2 + (c2,)) == (0,) * (e1 + e2) + (c1 * c2,)


@PROPERTY
@given(u_tuples, u_tuples, fractions)
def test_u_eval_is_a_ring_map(a, b, q):
    assert u_eval(u_mul(a, b), q) == u_eval(a, q) * u_eval(b, q)
    assert u_eval(u_add(a, b), q) == u_eval(a, q) + u_eval(b, q)
    # Horner's rule on ints agrees with the sum of the powers
    assert u_eval(a, q) == sum((c * q ** e for e, c in enumerate(a)), Fraction(0))
    assert u_eval(a, 0) == (a[0] if a else 0) and u_eval((), q) == 0


@PROPERTY
@given(monomials, monomials, fractions)
def test_every_key_has_four_slots_and_the_last_is_zero(m1, m2, q):
    # serialized terms are read as four exponent columns (h, u, s, v)
    (c1, *e1), (c2, *e2) = m1, m2
    for p in (ParamPoly.monomial(c1, *e1), ParamPoly.monomial(c2, *e2), ParamPoly.const(q),
              ParamPoly.from_u((q.numerator, 0, c1.numerator), q.denominator, eh=e2[0])):
        assert all(len(key) == 4 and key[3] == 0 for key in p.terms)


def test_param_poly_equals_its_constant():
    # bench serializers and tests compare entries with 0 and with Fractions
    assert ParamPoly.const(Fraction(3, 2)) == Fraction(3, 2)
    assert ParamPoly.const(0) == 0 and ZERO == 0 and not ZERO
    assert ParamPoly.const(2) == 2 and ParamPoly.const(2) != 3
    assert ParamPoly.monomial(2, eu=1) != 2 and ParamPoly.monomial(2, eu=1) != 0
    assert (ParamPoly.const(1) == "1") is False


def test_param_poly_is_unhashable():
    # ParamPoly.const(1) == 1, so any hash would have to agree with hash(1)
    with pytest.raises(TypeError):
        hash(ParamPoly.const(1))


@PROPERTY
@given(u_tuples, u_tuples)
def test_u_mul_and_u_add_match_u_eval(a, b):
    # u_eval is a ring map, and deg + 1 distinct points pin a polynomial
    for q in points(a, b, u_mul(a, b)):
        assert u_eval(u_mul(a, b), q) == u_eval(a, q) * u_eval(b, q)
        assert u_eval(u_add(a, b), q) == u_eval(a, q) + u_eval(b, q)
    assert trimmed(u_mul(a, b)) == u_mul(a, b)
    assert trimmed(u_add(a, b)) == u_add(a, b)
    # where b is the longer, its top entries cancel: the sum must be trimmed
    assert u_add(u_add(a, b), u_scale(b, -1)) == a


@PROPERTY
@given(u_tuples, st.integers(-9, 9).filter(bool), st.integers(1, 9), st.integers(0, 3))
def test_u_scale_and_from_u_match_u_eval(a, k, den, eh):
    assert same_polynomial(u_scale(a, k), u_mul((k,), a))
    assert trimmed(u_scale(a, k)) == u_scale(a, k)
    p = ParamPoly.from_u(a, den, eh=eh)
    assert all(key[0] == eh and key[2] == 0 for key in p.terms)
    for q in points(a):
        assert sum((c * q ** key[1] for key, c in p.terms.items()), Fraction(0)) == u_eval(a, q) / den


@st.composite
def _packable(draw):
    """(int u-tuple, bits) with every |c| < 2^(bits-1), trailing zeros allowed."""
    bits = draw(st.integers(2, 80))
    bound = (1 << (bits - 1)) - 1
    return tuple(draw(st.lists(st.integers(-bound, bound), max_size=12))), bits


@settings(max_examples=300)
@given(_packable())
def test_pack_round_trip(case):
    p, bits = case
    assert u_unpack(u_pack(p, bits), bits) == trimmed(p)


def test_unpack_breaks_at_the_bound():
    # the balanced digits run over [-2^(bits-1), 2^(bits-1)): one more reads back wrong
    bits = 8
    assert u_unpack(u_pack((), bits), bits) == ()
    assert u_unpack(u_pack((3, 127, -127), bits), bits) == (3, 127, -127)
    assert u_unpack(u_pack((3, 128, -127), bits), bits) == (3, -128, -126)


def test_norm_max_is_the_largest_l1_norm():
    # every packed path proves its width from it; no tuples give 0
    assert u_norm_max([]) == 0
    assert u_norm_max(iter([(3, -4), (), (-6,)])) == 7


@pytest.mark.parametrize("x, bits", [(1, 1), (0, 1), (1, 0), (0, 0)])
def test_unpack_rejects_digits_narrower_than_two_bits(x, bits):
    # 1-bit balanced digits are -1 and 0, so x = 1 would never shrink
    with pytest.raises(ValueError, match="bits >= 2"):
        u_unpack(x, bits)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
