import random
from fractions import Fraction

import pytest

from gbgw.poly import ParamPoly, ONE, ZERO, H, U, V, half_binomial, double_factorial


def rand_poly(rng, nterms=4):
    p = ZERO
    for _ in range(rng.randint(0, nterms)):
        p = p + ParamPoly.monomial(
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            eh=rng.randint(0, 3),
            eu=rng.randint(0, 3),
            es=rng.randint(0, 2),
            ev=rng.randint(0, 1),
        )
    return p


def test_difference_of_squares():
    assert (H + U) * (H - U) == H * H - U * U


def test_substitute_s_to_h2u():
    p = ParamPoly.monomial(Fraction(-1, 2), es=1)
    assert p.subs_s_h2u() == ParamPoly.monomial(Fraction(-1, 2), eh=2, eu=1)


def test_additive_inverse():
    rng = random.Random(7)
    for _ in range(20):
        p = rand_poly(rng)
        assert p + (-p) == ZERO
        assert not (p - p)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(30):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_subs_s_h2u_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        assert (a * b).subs_s_h2u() == a.subs_s_h2u() * b.subs_s_h2u()
        assert (a + b).subs_s_h2u() == a.subs_s_h2u() + b.subs_s_h2u()


def test_v_squares_to_u():
    assert V * V == U
    assert V ** 5 == U * U * V
    p = (ONE - V) * (ONE + V)
    assert p == ONE - U


def test_eval_consistency():
    rng = random.Random(17)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        v = Fraction(rng.randint(-3, 3))
        pt = dict(h=Fraction(2, 3), u=v * v, s=Fraction(-1, 2), v=v)
        assert (a * b).eval_rational(**pt) == a.eval_rational(**pt) * b.eval_rational(**pt)


def test_subs_u_rejects_v():
    with pytest.raises(ValueError):
        (V + ONE).subs_u(Fraction(1, 4))


def test_half_binomial_values():
    assert half_binomial(0, 1) == Fraction(-1, 2)
    assert half_binomial(0, 0) == 1
    # C(-3/2, 2) = (-3/2)(-5/2)/2! = 15/8
    assert half_binomial(1, 2) == Fraction(15, 8)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
