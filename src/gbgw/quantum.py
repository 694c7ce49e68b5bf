"""Kac-Schwarz operators and the quantum curve for the wave-function basis.

The basis attached to the affine coordinates is

    PhiB_k(z) = z^k + sum_{i>=1} 2 (-1)^i (a_{k,i} - a_{k,0} a_{0,i}) z^-i,

and the two operators

    P = h^3 ((z d/dz + 1/2)^2 - u) (d/dz - h/(2z^2) ((z d/dz - 1/2)^2 - u)),
    Q = h^-2 ((z d/dz - 1/2)^2 - u)^(-1) z,

act on monomials by

    P(z^k) = (h^3/4) theta(k) (k z^(k-1) - (h/8) theta(k-1) z^(k-2)),
    Q(z^k) = 4 h^-2 / theta(k+1) * z^(k+1),

with theta(k) = (2k-1)^2 - 4u.  The monomial action of P is established
once against the factored definition (test suite); the Q constant is what
the inverse Euler factor actually produces, and it is the unique value for
which [P, Q] = h holds.

All of it is h-homogeneous: the coefficient of z^e in PhiB_k is h^(k-e)
times a polynomial in u, P raises the h-power by 3 at z^(k-1) and by 4 at
z^(k-2), and Q lowers it by 2.  So the checks run at h = 1 on dense int
u-tuples: PhiB_k over one integer scale, P multiplied by 32, and the Q
relation with its only denominators, the theta(e+1), cleared.  ParamPoly
appears only in the public views; a Q coefficient leaves the module as a
(numerator, denominator) pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .affine import affine_coeff, affine_scalar
from .poly import ParamPoly, u_add, u_mul, u_scale
from .schurq import theta_prod, theta_u

__all__ = [
    "p_monomial",
    "annihilation_defects",
    "commutator_on_monomial",
    "verify_ks",
    "semiclassical_identity",
]


def _basis(k, depth):
    """PhiB_k through z^-depth at h = 1, as (d, {exponent: int u-tuple}).

    The coefficient at z^e is h^(k-e) times the tuple over d.  At z^-i it
    reads the affine coordinates in their (r, tuple) form: a_{k,i} and
    a_{k,0} a_{0,i} share the tuple theta_prod(k) theta_prod(i), which for
    i != k is the memoized tuple of ``affine_coeff(k, i)``.  Only i = k,
    where ``affine_coeff`` holds (0, ()), builds its own product.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    rk0 = affine_scalar(k, 0)
    rho = {}
    for i in range(1, depth + 1):
        rki, p = (0, u_mul(theta_prod(k), theta_prod(k))) if i == k else affine_coeff(k, i)
        if not p:
            raise ArithmeticError(f"r_{{{k},{i}}} = 0 leaves a_{{{k},{i}}} without its tuple")
        r = 2 * (rki - rk0 * affine_scalar(0, i))
        rho[-i] = (-r if i % 2 else r, p)
    d = lcm(*(r.denominator for r, _ in rho.values()))
    coeffs = {k: (d,)}
    for e, (r, p) in rho.items():
        if r:
            coeffs[e] = u_scale(p, r.numerator * (d // r.denominator))
    return d, coeffs


def _p_int(k):
    """32 P(z^k) at h = 1: [(k-1, 8k theta(k)), (k-2, -theta(k) theta(k-1))].

    The two coefficients carry h^3 and h^4.
    """
    th = theta_u(k)
    return [(k - 1, u_scale(th, 8 * k) if k else ()), (k - 2, u_scale(u_mul(th, theta_u(k - 1)), -1))]


def p_monomial(k):
    """P(z^k) as [(exponent, ParamPoly coefficient), ...]."""
    (e1, c1), (e2, c2) = _p_int(k)
    return [(e1, ParamPoly.from_u(c1, 32, eh=3)), (e2, ParamPoly.from_u(c2, 32, eh=4))]


def _q_coeff(e, c, d, eh):
    """Q of (h^eh c / d) z^e is 4 h^(eh-2) c / (d theta(e+1)) z^(e+1), as a
    (numerator, denominator) pair of ParamPolys."""
    return ParamPoly.from_u(u_scale(c, 4), d, eh=eh), ParamPoly.from_u(theta_u(e + 1), 1, eh=2)


def _apply_P(coeffs, lo):
    """32 P at h = 1 on a series {exponent: int u-tuple} known from z^lo up.

    The image is known from z^(lo-1) up, and only that part is returned.
    """
    out = {}
    for e, c in coeffs.items():
        for e2, w in _p_int(e):
            if w and e2 >= lo - 1:
                out[e2] = u_add(out.get(e2, ()), u_mul(c, w))
    return out


def annihilation_defects(depth):
    """The exponents, top first, at which P(PhiB_0) through z^(-depth-1) is nonzero."""
    _, coeffs = _basis(0, depth)
    return sorted((e for e, c in _apply_P(coeffs, -depth).items() if c), reverse=True)


def _exact_quotient(num, den):
    """num / den for int u-tuples by long division from the top.

    Raises ArithmeticError unless the division is exact over the integers.
    """
    q = [0] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    for i in range(len(q) - 1, -1, -1):
        q[i], r = divmod(rem[i + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("inexact division of u-tuples")
        for j, x in enumerate(den):
            rem[i + j] -= q[i] * x
    if any(rem):
        raise ArithmeticError("nonzero remainder dividing u-tuples")
    return tuple(q)


def commutator_on_monomial(k):
    """(PQ - QP)(z^k) as [(exponent, ParamPoly), ...] with zero entries dropped.

    At h = 1 and times 32: each theta(e+1) that Q brings in is cancelled by
    exact division against the P coefficient it meets.  The coefficient at
    z^e carries h^(k-e+1).
    """
    acc = {}
    for e, c in _p_int(k + 1):  # P(Q z^k), Q z^k = 4 z^(k+1) / theta(k+1)
        acc[e] = u_add(acc.get(e, ()), u_scale(_exact_quotient(c, theta_u(k + 1)), 4))
    for e, c in _p_int(k):  # Q(P z^k)
        acc[e + 1] = u_add(acc.get(e + 1, ()), u_scale(_exact_quotient(c, theta_u(e + 1)), -4))
    return [(e, ParamPoly.from_u(c, 32, eh=k - e + 1)) for e, c in sorted(acc.items()) if c]


def verify_ks(k_max, depth):
    """Exact span checks for the operator pair on the basis prefix.

    For each k <= k_max:
      P(PhiB_k) = (h^3/4) theta(k) (k PhiB_{k-1} - (h/8) theta(k-1) PhiB_{k-2});
      Q(PhiB_k) = c_{k+1} PhiB_{k+1} + d_k PhiB_0, where c_{k+1} and d_k are
      Q's coefficients at z^(k+1) and z^0.

    Both run at h = 1, on the basis brought to one common integer scale D.
    The P relation is multiplied by 32.  The Q relation is compared with its
    denominators cleared: with b^(k)_e the coefficient of z^e in PhiB_k, at
    every exponent e of the window,
      b^(k)_{e-1} theta(k+1) theta(0)
          = theta(e) [theta(0) b^(k+1)_e + theta(k+1) b^(k)_{-1} b^(0)_e].

    Returns a report dict with pass flags, c_{k+1} as (numerator,
    denominator) pairs, and the number of exponents compared for P and for
    Q (z^(k+1) and z^0, which fix c_{k+1} and d_k, are not counted: they
    cannot fail).
    """
    bases = [_basis(k, depth) for k in range(k_max + 2)]
    D = lcm(*(d for d, _ in bases))
    b = [{e: u_scale(c, D // d) for e, c in coeffs.items()} for d, coeffs in bases]
    th0 = theta_u(0)
    report = {"p_ok": True, "q_ok": True, "q_leading": [], "failures": [],
              "p_checked": 0, "q_checked": 0}
    for k in range(k_max + 1):
        got = _apply_P(b[k], -depth)
        want = {}
        for j, (_, w) in enumerate(_p_int(k), 1):  # w PhiB_{k-j}
            if w and k >= j:
                for e, c in b[k - j].items():
                    want[e] = u_add(want.get(e, ()), u_mul(w, c))
        window = range(-depth, k)
        report["p_checked"] += len(window)
        bad = [e for e in window if got.get(e, ()) != want.get(e, ())]
        if bad:
            report["p_ok"] = False
            report["failures"].append(("P", k, bad))

        th1 = theta_u(k + 1)
        lead = u_mul(th1, th0)
        cross = u_mul(th1, b[k].get(-1, ()))
        bad = []
        for e in range(1 - depth, k + 2):
            lhs = u_scale(u_mul(b[k].get(e - 1, ()), lead), D)
            rhs = u_mul(theta_u(e), u_add(u_scale(u_mul(th0, b[k + 1].get(e, ())), D),
                                          u_mul(cross, b[0].get(e, ()))))
            if lhs != rhs:
                bad.append(e)
        report["q_checked"] += k + depth - 1
        if bad:
            report["q_ok"] = False
            report["failures"].append(("Q", k, bad))
        report["q_leading"].append((k + 1, _q_coeff(k, b[k][k], D, 0)))
    return report


def _classical_part(j):
    """The h^0 part of the z^(k-j) coefficient of P(z^k) under k = zp/h, u = s/h^2.

    That coefficient is h^w sum_b g_b(k) u^b with each g_b a polynomial in
    k, read off ``p_monomial`` at k = 0, ..., 8: nine points, more than the
    degree in k of either coefficient (4), so the differences above the
    weight are a real test rather than vacuous.  Its h^0 part is
    sum_b [k^(w-2b)] g_b K^(w-2b) s^b with K = zp, returned as (w, tuple
    indexed by b).  The k-coefficient is the (w-2b)-th forward difference at
    0 over (w-2b)!, and every higher difference must vanish: a term of
    weight above w would leave a negative power of h.  None if the
    coefficient does not have that shape.
    """
    samples = 9
    rows = [dict(p_monomial(k))[k - j] for k in range(samples)]
    keys = {key for row in rows for key in row.terms}
    if len({eh for eh, _, _, _ in keys}) != 1 or any(es or ev for _, _, es, ev in keys):
        return None
    w = next(iter(keys))[0]
    top = [0] * (w // 2 + 1)
    for eu in {eu for _, eu, _, _ in keys}:
        diff = [row.coeff(eh=w, eu=eu) for row in rows]
        for i in range(1, samples):  # diff[i] becomes the i-th difference at k = 0
            for kk in range(samples - 1, i - 1, -1):
                diff[kk] -= diff[kk - 1]
        a = w - 2 * eu
        if a < 0 or any(diff[a + 1:]):
            return None
        top[eu] = diff[a] / factorial(a)
    return w, tuple(top)


def semiclassical_identity():
    """Exact checks of the classical limit of P, derived from ``p_monomial``.

    Under k = zp/h and u = s/h^2 the h^0 part of P(z^k) / z^k is the symbol
    H(z, p).  With K = zp it should be K (K^2 - s) / z - (K^2 - s)^2 / (2z^2),
    that is 2 z^2 H = (z^2 p^2 - s)(2 z^2 p - (z^2 p^2 - s)).

    (ii) factor_product: the classical parts of the z^(k-1) and z^(k-2)
         coefficients are K (K^2 - s) and -(K^2 - s)^2 / 2.
    (i)  shift_matches_curve: under p -> p + 1 the second factor becomes
         -(z^2 p^2 - z^2 - s), so the limit of P vanishes on the curve
         x^2 y^2 = x^2 + s.  2 z^2 H is built from the derived parts and
         compared on a grid wide enough for the degrees of both sides.

    Returns (ok, detail dict, checked), checked the number of (z, p, s)
    grid points compared.
    """
    curve = (1, -1)  # K^2 - s, indexed by the power of s
    first, second = _classical_part(1), _classical_part(2)
    product_ok = (first, second) == (
        (3, curve), (4, tuple(Fraction(c, 2) for c in u_scale(u_mul(curve, curve), -1))))

    def symbol(z, p, s):  # 2 z^2 H = 2 z (z^(k-1) part) + 2 (z^(k-2) part)
        total = 0
        for zpow, (w, top) in ((1, first), (0, second)):
            total += 2 * z ** zpow * sum(c * (z * p) ** (w - 2 * b) * s ** b for b, c in enumerate(top))
        return total

    grid = []
    if first and second:
        n = max(first[0] + 1, second[0], 4)  # degree bound in z and in p, n // 2 in s
        grid = [(z, p, s) for z in range(n + 1) for p in range(n + 1) for s in range(n // 2 + 1)]
    shift_ok = bool(grid) and all(
        symbol(z, p + 1, s) == -(z * z * (p + 1) ** 2 - s) * (z * z * p * p - z * z - s) for z, p, s in grid)
    ok = shift_ok and product_ok
    return ok, {"shift_matches_curve": shift_ok, "factor_product": product_ok}, len(grid)
