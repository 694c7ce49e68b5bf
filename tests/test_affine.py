from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbgw.affine as affine
from gbgw.poly import ParamPoly, double_factorial, u_add, u_eval, u_mul, u_scale, u_unpack
from gbgw.schurq import strict_partitions
from gbgw.affine import (
    _antisym_quotient,
    _int_basis,
    _with_tail,
    affine_coeff,
    gen_A,
    pfaffian_expansion_sides,
    verify_pfaffian_expansion,
    verify_wronskian,
)


def test_affine_a01(affine_poly):
    # a_{0,1} = h theta(1) / 16
    assert affine_coeff(0, 1) == (Fraction(1, 16), (1, -4))
    assert affine_poly(0, 1) == ParamPoly.from_u((1, -4), 16, eh=1)


def test_affine_a12(affine_poly):
    # a_{1,2} = h^3 theta(1)^2 theta(2) / (3 2^12), theta(1)^2 theta(2) = (1 - 4u)^2 (9 - 4u)
    assert affine_coeff(1, 2) == (Fraction(1, 3 * 2 ** 12), (9, -76, 176, -64))
    assert affine_poly(1, 2) == ParamPoly.from_u((9, -76, 176, -64), 3 * 2 ** 12, eh=3)


def test_affine_bgw_specialization(affine_poly):
    # At u = 0 the first-row coordinates reduce to h^n ((2n-1)!!)^2 / (2^(3n+1) n!).
    for n in range(1, 7):
        got = affine_poly(0, n)
        assert {key[0] for key in got.terms} == {n}
        want = Fraction(double_factorial(2 * n - 1) ** 2, 2 ** (3 * n + 1) * factorial(n))
        assert got.coeff(eh=n) == want


def test_affine_antisymmetry():
    for n in range(0, 7):
        for m in range(0, 7):
            r, p = affine_coeff(n, m)
            assert (-r, p) == affine_coeff(m, n)
    assert affine_coeff(0, 0) == (0, ())


def test_affine_vanishes_at_quarter():
    for n in range(0, 6):
        for m in range(0, 6):
            r, p = affine_coeff(n, m)
            assert r * u_eval(p, Fraction(1, 4)) == 0


def test_basis_pair_leading_terms(basis_pair):
    phi1, phi2 = basis_pair(8)
    # z^-1 coefficient of phi1 is h(1-4u)/8
    assert phi1[-1] == ParamPoly.from_u((1, -4), 8, eh=1)
    assert phi1[0] == ParamPoly.const(1)
    assert phi2[1] == ParamPoly.const(1)


def test_phi1_trivial_at_quarter():
    # phi1 at z^-k is h^k p1[-k] / d1
    d1, p1, _, _, _ = _int_basis(10)
    assert u_eval(p1[0], Fraction(1, 4)) == d1
    for k in range(1, 11):
        assert u_eval(p1[-k], Fraction(1, 4)) == 0


def test_gen_a_antisymmetry():
    # A itself is antisymmetric under swapping its two slots; At differs from
    # an antisymmetric series only on the diagonal band (the -1/4 and the
    # fixed tail), so it is antisymmetric on strictly negative exponent pairs.
    a, at = gen_A("direct", -8, -8, 8)

    def negated(c):  # the terms of -c, for an entry c (a ParamPoly or 0)
        return {key: -q for key, q in c.terms.items()} if c else {}

    # the windows are [-8, 0] x [-8, 8]: the swap of (i, j) is known for i, j <= 0
    assert any(a.coeffs.get((i, j)) for i in range(-8, 1) for j in range(-8, 1))
    for i in range(-8, 1):
        for j in range(-8, 1):
            assert a.coeff(i, j) == ParamPoly(negated(a.coeff(j, i))), (i, j)
    for i in range(-8, 0):
        for j in range(-8, 0):
            assert at.coeff(i, j) == ParamPoly(negated(at.coeff(j, i)))
    assert at.coeff(0, 0) == ParamPoly.const(Fraction(-1, 4))


def test_gen_a_relation_between_a_and_at():
    a, at = gen_A("direct", -8, -8, 8)
    # At - A = -1/4 - (1/2) sum (-1)^i w^-i x^i, and A holds none of those keys
    assert a.coeff(0, 0) == 0
    assert at.coeff(0, 0) == ParamPoly.const(Fraction(-1, 4))
    for i in range(1, 8):
        expected = Fraction(1, 2) if i % 2 else Fraction(-1, 2)
        assert a.coeff(-i, i) == 0
        assert at.coeff(-i, i) == ParamPoly.const(expected)
        assert at.coeff(-i, 0) == a.coeff(-i, 0)
        assert at.coeff(0, -i) == a.coeff(0, -i)


def test_tail_key_held_by_a_is_an_error():
    # At adds its tail to A; an entry of A on the tail would be summed silently
    for key in ((0, 0), (-2, 2)):
        with pytest.raises(ArithmeticError, match="tail keys"):
            _with_tail({key: (Fraction(1), (1,))}, 3)
    assert len(_with_tail({(0, -1): (Fraction(1), (1,))}, 3)) == 5


def test_gen_a_first_column(affine_poly):
    # Each slot of the single sum carries half of a_{0,1}, with opposite
    # signs; the anti-diagonal evaluation A(-x, x), where w -> -x picks up
    # (-1)^1, reassembles the full a_{0,1} at x^-1.
    a, _ = gen_A("direct", -8, -8, 8)
    half = {key: q / 2 for key, q in affine_poly(0, 1).terms.items()}
    assert a.coeff(0, -1).terms == half
    assert a.coeff(-1, 0).terms == {key: -q for key, q in half.items()}


def test_gen_a_direct_equals_closed():
    T = 14
    ad, atd = gen_A("direct", -10, -10, 6)
    ac, atc = gen_A("closed", -10, -10, 6, T=T)
    for (i, j), c in atd.coeffs.items():
        if atc.known(i, j):
            assert atc.coeff(i, j) == c, (i, j)
    for i in range(-10, 1):
        for j in range(-10, 7):
            if atc.known(i, j) and atd.known(i, j):
                assert atc.coeff(i, j) == atd.coeff(i, j), (i, j)
                assert ac.coeff(i, j) == ad.coeff(i, j), (i, j)


def test_closed_form_rejects_a_v_part_that_does_not_cancel(monkeypatch):
    # the v-part of phi2 is proportional to phi1, so its antisymmetrized
    # quotient vanishes; off by one at z^-1 it no longer does
    import gbgw.affine as affine
    from gbgw.poly import u_add

    real = affine._int_basis

    def planted(T):
        d1, p1, d2, p2u, p2v = real(T)
        return d1, p1, d2, p2u, {**p2v, -1: u_add(p2v[-1], (1,))}

    gen_A("closed", -4, -4, 4, T=6)
    monkeypatch.setattr(affine, "_int_basis", planted)
    with pytest.raises(ArithmeticError, match="v survived the antisymmetrized quotient"):
        gen_A("closed", -4, -4, 4, T=6)


def test_wronskian_suite_small():
    report = verify_wronskian(12)
    assert report == {
        "wronskian_2z": True,
        "det_g_one": True,
        "phi1_ode": True,
        "phi2_from_phi1": True,
    }


# -- the packed quotient against the tuple long division ----------------------


def _oracle_antisym_quotient(p1, p2, T, wx=0):
    """(wx (w - x) + p1(x) p2(w) - p1(w) p2(x)) / (w + x) on int u-tuples:
    long division in w, q[i, j] = num[i+1, j] - q[i+1, j-1], descending in i."""
    num = {(1, 0): (wx,), (0, 1): (-wx,)} if wx else {}
    for j, cx in p1.items():
        for i, cw in p2.items():
            c = u_mul(cx, cw)
            num[(i, j)] = u_add(num.get((i, j), ()), c)
            num[(j, i)] = u_add(num.get((j, i), ()), u_scale(c, -1))
    q = {}
    for i in range(0, -T - 1, -1):
        for j in range(T, -T - 1, -1):
            val = u_add(num.get((i + 1, j), ()), u_scale(q.get((i + 1, j - 1), ()), -1))
            if val:
                q[(i, j)] = val
    return q


def _unpacked_quotient(p1, p2, T, wx=0):
    q, bits = _antisym_quotient(p1, p2, T, wx)
    return {key: u_unpack(c, bits) for key, c in q.items()}


@st.composite
def _quotient_inputs(draw):
    """(p1, p2, T, wx): dicts keyed in [-T, 1] of signed int u-tuples."""
    T = draw(st.integers(1, 8))
    tuples = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=5).map(tuple)
    keys = st.integers(-T, 1)
    p1, p2 = (draw(st.dictionaries(keys, tuples, max_size=T + 2)) for _ in range(2))
    wx = draw(st.sampled_from([0, draw(st.integers(-10 ** 12, 10 ** 12).filter(bool))]))
    return p1, p2, T, wx


@settings(max_examples=150)
@given(_quotient_inputs())
def test_packed_quotient_matches_tuple_oracle(case):
    assert _unpacked_quotient(*case) == _oracle_antisym_quotient(*case)


def test_packed_quotient_fails_at_too_small_a_width(monkeypatch):
    # p1 = N and p2 = (-1)^e M at every exponent: along the diagonal that
    # ends at (-T, j), j = T mod 2, all T + 1 numerator entries 2 N M (-1)^a
    # add with one sign, so the entry attains the bound (T + 1) 2 N M
    T, N, M = 6, 10 ** 6, 999_999
    p1 = {e: (N,) for e in range(-T, 2)}
    p2 = {e: (-M if e % 2 else M,) for e in range(-T, 2)}
    want = _oracle_antisym_quotient(p1, p2, T)
    assert want[(-T, T % 2)] == ((-1) ** (T + 1) * (T + 1) * 2 * N * M,)
    assert _unpacked_quotient(p1, p2, T) == want
    real = affine._quotient_bits
    monkeypatch.setattr(affine, "_quotient_bits", lambda *args: real(*args) - 1)
    assert _unpacked_quotient(p1, p2, T) != want


def test_wronskian_suite_misses_a_defect_at_too_small_a_width(monkeypatch):
    # A basis at T = 1 with phi2 = 0 and d2 = 0, so only (iii) has a nonzero
    # bound, 12 N1.  With phi1 = x + y/z, the difference of the two sides of
    # (iii) at z^0 is (1 - 4u) x - 8 y = X - u for X = 2^k: a nonzero defect
    # that the width bit_length(12 N1) = k + 1 sees, and that packs to 0 one
    # bit narrower, at u = 2^k
    X = 2 ** 10
    basis = (1, {0: (0, -1, -4), -1: (-X // 8, 0, 0, 2)}, 0, {}, {})
    monkeypatch.setattr(affine, "_int_basis", lambda T: basis)
    assert affine._wronskian_bits(1, *basis) == 11
    assert verify_wronskian(1)["phi1_ode"] is False
    real = affine._wronskian_bits
    monkeypatch.setattr(affine, "_wronskian_bits", lambda *args: real(*args) - 1)
    assert all(verify_wronskian(1).values())


def test_pfaffian_expansion_lambda_1():
    lhs, rhs = pfaffian_expansion_sides((1,))
    assert lhs == ParamPoly.from_u((1, -4), 16, eh=1)  # (h/16) theta(1)
    assert lhs == rhs


def test_pfaffian_expansion_small():
    for lam in strict_partitions(8):
        assert verify_pfaffian_expansion(lam), lam


def test_pfaffian_expansion_4341():
    assert verify_pfaffian_expansion((4, 3, 2, 1))


# -- an oracle for the closed form, from the paper's formula for a_{n,m} ------
# Scalar Fraction arithmetic at h = 1 and a rational u; a polynomial entry of
# u-degree <= d is compared at d + 1 distinct points, which pins it down.


def _a_oracle(n, m, u):
    def thetas(k):
        return prod((2 * i - 1) ** 2 - 4 * u for i in range(1, k + 1))

    if n == m:
        return Fraction(0)
    if m == 0:
        return -_a_oracle(0, n, u)
    if n == 0:
        return thetas(m) / Fraction(2 ** (3 * m + 1) * factorial(m))
    return (Fraction(m - n, m + n) * thetas(m) * thetas(n)
            / (2 ** (3 * n + 3 * m + 2) * factorial(n) * factorial(m)))


def _A_oracle(i, j, u):
    """Coefficient of w^i x^j in A, from its defining double and single sums."""
    n, m = -i, -j
    if j > 0:
        return Fraction(0)
    if n and m:
        return (-1) ** (m + n + 1) * _a_oracle(n, m, u)
    if n:
        return -Fraction((-1) ** n, 2) * _a_oracle(n, 0, u)
    return Fraction((-1) ** m, 2) * _a_oracle(m, 0, u)


def _At_oracle(i, j, u):
    """At = A - 1/4 - 1/2 sum_{k>=1} (-1)^k w^-k x^k."""
    if (i, j) == (0, 0):
        return Fraction(-1, 4)
    if j > 0 and i == -j:
        return Fraction(-(-1) ** j, 2)
    return _A_oracle(i, j, u)


def _matches_at_points(c, degree, oracle):
    """c (a ParamPoly or 0) is h^degree times a polynomial in u of degree
    <= degree that equals oracle(u) at degree + 1 points."""
    terms = c.terms if c else {}
    for (eh, eu, es, ev) in terms:
        if eh != degree or es or ev or eu > degree:
            return False
    return all(sum(q * u ** key[1] for key, q in terms.items()) == oracle(u)
               for u in (Fraction(k, 3) for k in range(degree + 1)))


def test_closed_form_matches_oracle():
    A, At = gen_A("closed", -8, -8, 8, T=10)
    known = [(i, j) for i in range(-8, 1) for j in range(-8, 9) if At.known(i, j)]
    assert len(known) == sum(1 for i in range(-8, 1) for j in range(-8, 9) if i + j >= -8)
    for i, j in known:
        d = max(-(i + j), 0)
        assert _matches_at_points(A.coeff(i, j), d, lambda u: _A_oracle(i, j, u)), (i, j)
        assert _matches_at_points(At.coeff(i, j), d, lambda u: _At_oracle(i, j, u)), (i, j)


def test_basis_phi1_matches_oracle(basis_pair):
    # phi1 at z^-k is h^k prod theta / (8^k k!) = 2 a_{0,k}
    phi1, _ = basis_pair(10)
    assert phi1[0] == 1
    for k in range(1, 11):
        assert _matches_at_points(phi1[-k], k, lambda u: 2 * _a_oracle(0, k, u)), k
