import re
from fractions import Fraction

import pytest

import gbgw.quantum as quantum_module
from gbgw.affine import _int_basis
from gbgw.poly import ParamPoly, H, u_add, u_eval, u_mul, u_scale
from gbgw.schurq import theta_u
from gbgw.quantum import (
    _basis,
    _exact_quotient,
    _q_coeff,
    annihilation_defects,
    commutator_on_monomial,
    p_monomial,
    semiclassical_identity,
    verify_ks,
)


def phiB(k, depth):
    """PhiB_k through z^-depth as {exponent: ParamPoly}: the ParamPoly view
    of the integer basis ``gbgw.quantum._basis``."""
    d, coeffs = _basis(k, depth)
    return {e: ParamPoly.from_u(c, d, eh=k - e) for e, c in coeffs.items()}


def q_monomial(k):
    """Q(z^k) = c(k) z^(k+1), with c(k) = 4 h^-2 / theta(k+1) as (numerator, denominator)."""
    return k + 1, _q_coeff(k, (1,), 1, 0)


def factored_P_on_monomial(k):
    """Independent oracle: expand the factored operator definition on z^k.

    P = h^3 ((zD + 1/2)^2 - u)(D - h/(2 z^2) ((zD - 1/2)^2 - u)); on z^m the
    Euler factors act by ((m +- 1/2)^2 - u), a quarter of the int u-tuple
    euler(m, +-1).  The inner bracket takes z^k to
    k z^(k-1) - (h/2) ((k - 1/2)^2 - u) z^(k-2), and the outer factor then
    multiplies the z^m term by h^3 ((m + 1/2)^2 - u)."""
    def euler(m, sign):  # 4 ((m + sign/2)^2 - u)
        return ((2 * m + sign) ** 2, -4)

    # z^(k-2): h^3 euler(k-2, 1)/4 * -(h/2) euler(k, -1)/4
    out = {k - 2: ParamPoly.from_u(u_scale(u_mul(euler(k - 2, 1), euler(k, -1)), -1), 32, eh=4)}
    if k:  # z^(k-1): h^3 euler(k-1, 1)/4 * k
        out[k - 1] = ParamPoly.from_u(u_scale(euler(k - 1, 1), k), 4, eh=3)
    return out


def test_p_monomial_matches_factored_definition():
    for k in range(-3, 8):
        got = {e: c for e, c in p_monomial(k) if c}
        assert got == factored_P_on_monomial(k), k


def test_p_of_z0_and_z1():
    # P(z^0) = -(h^4/32) theta(0) theta(-1) z^-2, theta(0) theta(-1) = (1 - 4u)(9 - 4u)
    got = dict(p_monomial(0))
    assert not got[-1]
    assert got[-2] == ParamPoly.from_u((-9, 40, -16), 32, eh=4)
    # P(z^1) = (h^3/4) theta(1) (1 - (h/8) theta(0) z^-1), theta(1) = theta(0) = 1 - 4u
    got = dict(p_monomial(1))
    assert got[0] == ParamPoly.from_u((1, -4), 4, eh=3)
    assert got[-1] == ParamPoly.from_u((-1, 8, -16), 32, eh=4)


def test_q_of_z0():
    e, c = q_monomial(0)
    assert e == 1
    # h^-2 / (1/4 - u): the monomial action divided by the shifted Euler value
    num, den = c
    assert (num, den) == (ParamPoly.const(4), ParamPoly.from_u((1, -4), 1, eh=2))
    assert {key: q / 4 for key, q in den.terms.items()} == {(2, 0, 0, 0): Fraction(1, 4),
                                                           (2, 1, 0, 0): -1}


def test_commutator_is_h():
    for k in range(0, 21):
        # zero entries are dropped: h z^k is the only one left
        assert dict(commutator_on_monomial(k)) == {k: H}, k


def test_phiB_leading_and_tail():
    p0 = phiB(0, 8)
    assert p0[0] == 1
    assert p0[-1] == ParamPoly.from_u((-1, 4), 8, eh=1)  # -(h/8) theta(1)
    p1 = phiB(1, 8)
    assert p1[1] == 1


def test_basis_refuses_a_coordinate_without_its_tuple(monkeypatch):
    # r_{k,i} != 0 off the diagonal for k <= 24, i <= 40; a zero would leave
    # affine_coeff(k, i) = (0, ()), and () is not the tuple a_{k,0} a_{0,i} needs
    real = quantum_module.affine_coeff
    monkeypatch.setattr(quantum_module, "affine_coeff", lambda k, i: (0, ()) if (k, i) == (2, 5) else real(k, i))
    with pytest.raises(ArithmeticError, match=re.escape("r_{2,5} = 0")):
        _basis(2, 8)


def test_phiB0_trivial_at_quarter():
    # PhiB_0 at z^e is h^-e coeffs[e] / d
    _, coeffs = _basis(0, 8)
    assert any(coeffs.get(e) for e in range(-8, 0))
    for e in range(-8, 0):
        assert u_eval(coeffs.get(e, ()), Fraction(1, 4)) == 0


def test_P_annihilates_phiB0():
    assert annihilation_defects(24) == []


def test_verify_ks_small():
    report = verify_ks(4, 16)
    assert report["p_ok"] and report["q_ok"], report["failures"]
    # the recorded leading Q-coefficient is 4 h^-2 / theta(k+1)
    for k_plus_1, c in report["q_leading"]:
        assert c == (ParamPoly.const(4), ParamPoly.from_u(theta_u(k_plus_1), 1, eh=2))


def test_phiB0_equals_phi1_mirrored():
    # observed (not assumed): the zeroth basis series coincides with the
    # first KdV basis series with z -> -z on the whole computed window
    depth = 12
    p0 = phiB(0, depth)
    d1, p1, _, _, _ = _int_basis(depth)
    rows = []
    for e in range(0, -depth - 1, -1):
        same = p0.get(e, 0) == ParamPoly.from_u(p1[e] if e % 2 == 0 else u_scale(p1[e], -1), d1, eh=-e)
        rows.append((e, same))
    print("observed relation PhiB_0(z) vs phi1(-z):", rows)
    assert all(same for _, same in rows)


def test_semiclassical_identity():
    ok, detail, checked = semiclassical_identity()
    assert ok, detail
    assert checked == 5 * 5 * 3  # z and p in 0..4, s in 0..2


def test_verify_ks_counts_compared_exponents():
    # P(PhiB_k) is compared on [-depth, k-1]; Q(PhiB_k) on [1-depth, k+1]
    # less the two exponents that fix c_{k+1} and d_k
    report = verify_ks(4, 16)
    assert report["p_checked"] == sum(k + 16 for k in range(5))
    assert report["q_checked"] == sum(k + 15 for k in range(5))
    empty = verify_ks(-1, 5)
    assert empty["p_checked"] + empty["q_checked"] == 0


def test_verify_ks_counts_are_pinned():
    # every exponent of the window is compared, at the CLI's two typical bounds
    for k_max, depth, p_count, q_count in ((6, 12, 105, 98), (10, 20, 275, 264)):
        report = verify_ks(k_max, depth)
        assert report["p_ok"] and report["q_ok"], report["failures"]
        assert (report["p_checked"], report["q_checked"]) == (p_count, q_count)


def test_exact_quotient_checks_the_remainder():
    a = (3, -1, 7)
    assert _exact_quotient(u_mul(a, theta_u(2)), theta_u(2)) == a
    assert _exact_quotient((), theta_u(2)) == ()
    # a nonzero remainder, a dividend of lower degree, a quotient not over Z
    for num in (u_add(u_mul(a, theta_u(2)), (1,)), (5,), (1, 2)):
        with pytest.raises(ArithmeticError):
            _exact_quotient(num, theta_u(1))
