"""BKP-affine coordinates of the generalized BGW tau-function.

The coordinates a_{n,m} in the ring Q[h,u] are

    a_{0,n} = -a_{n,0} = h^n / (2^(3n+1) n!) * prod_{k=1}^n theta(k),
    a_{n,m} = h^(n+m) / (2^(3n+3m+2) n! m!) * (m-n)/(m+n)
              * prod_{j=1}^m theta(j) * prod_{k=1}^n theta(k),   n, m > 0,

with theta(k) = (2k-1)^2 - 4u.  Their generating series

    A(w,x)  = sum_{n,m>0} (-1)^(m+n+1) a_{n,m} w^-n x^-m
              - sum_{n>0} (-1)^n/2 * a_{n,0} (w^-n - x^-n),
    At(w,x) = A(w,x) - 1/4 - 1/2 sum_{i>=1} (-1)^i w^-i x^i

admit the closed form At = (phi1(-x) phi2(-w) - phi1(-w) phi2(-x)) / (4(w+x))
in terms of the two basis series phi1, phi2 of the underlying KdV point.
phi2 carries the model parameter N = v to the first power; the v-parts are
proportional to phi1 and cancel in the antisymmetrized numerator, which the
closed-form construction asserts.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .pfaffian import pfaffian
from .poly import ParamPoly, ONE, ZERO, H, V
from .schurq import theta, hypergeom_coeff
from .series import LaurentSeries, BiSeries, accumulate, series_eq_on_overlap

__all__ = [
    "theta",
    "theta_prod",
    "affine_coeff",
    "basis_pair",
    "gen_A",
    "verify_wronskian",
    "verify_pfaffian_expansion",
]

_theta_prod_cache = {}
_affine_cache = {}


def theta_prod(n):
    """prod_{k=1}^n theta(k), memoized."""
    if n == 0:
        return ONE
    out = _theta_prod_cache.get(n)
    if out is None:
        out = theta_prod(n - 1) * theta(n)
        _theta_prod_cache[n] = out
    return out


def affine_coeff(n, m):
    """The affine coordinate a_{n,m} (n, m >= 0) as a polynomial in (h, u)."""
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if n == m:
        return ZERO
    key = (n, m)
    out = _affine_cache.get(key)
    if out is not None:
        return out
    if n == 0:
        scalar = Fraction(1, 2 ** (3 * m + 1) * factorial(m))
        out = ParamPoly.monomial(scalar, eh=m) * theta_prod(m)
    elif m == 0:
        out = -affine_coeff(0, n)
    else:
        scalar = Fraction(m - n, m + n) * Fraction(1, 2 ** (3 * m + 3 * n + 2) * factorial(m) * factorial(n))
        out = ParamPoly.monomial(scalar, eh=m + n) * (theta_prod(m) * theta_prod(n))
    _affine_cache[key] = out
    return out


def basis_pair(T):
    """The first two basis series of the KdV point, exact through z^-T.

    phi1(z) = 1 + sum_k (-h)^k/(8^k k!) prod_{i<=k} (4u - (2i-1)^2) z^-k
    phi2(z) = z + sum_k (-h)^k/(8^k k!) prod_{i<=k} (4(1-v)^2 - (2i-1)^2) z^(1-k)
    """
    if T < 1:
        raise ValueError("window must be at least 1")
    phi1 = {0: ONE}
    prod1 = ONE
    four_u = ParamPoly.gen("u") * 4
    for k in range(1, T + 1):
        prod1 = prod1 * (four_u - (2 * k - 1) ** 2)
        phi1[-k] = ParamPoly.monomial(Fraction((-1) ** k, 8 ** k * factorial(k)), eh=k) * prod1
    phi2 = {1: ONE}
    prod2 = ONE
    sq = (ONE - V) * (ONE - V) * 4
    for k in range(1, T + 2):
        prod2 = prod2 * (sq - (2 * k - 1) ** 2)
        phi2[1 - k] = ParamPoly.monomial(Fraction((-1) ** k, 8 ** k * factorial(k)), eh=k) * prod2
    return (
        LaurentSeries("z", phi1, -T, 0),
        LaurentSeries("z", phi2, -T, 1),
    )


def _tail_coeff(i):
    """Coefficient of w^-i x^i in At - A, i >= 1: the tail -1/2 (-1)^i."""
    return ParamPoly.const(Fraction(1, 2) if i % 2 else Fraction(-1, 2))


def gen_A(form, wlo, xlo, xhi, T=None):
    """Generating series (A, At) over the window [wlo,0] x [xlo,xhi].

    form="direct" sums the coordinate table.  form="closed" builds A as the
    exact quotient of w - x + phi1(-x)phi2(-w) - phi1(-w)phi2(-x) by
    (w + x) -- long division in w, with the zero-remainder assertion that
    no positive x-powers survive in the quotient -- and derives At from it;
    the result is sound on the triangle i + j >= 2 - T, recorded via
    ``min_total``.
    """
    if form == "direct":
        a = {}
        for n in range(1, -wlo + 1):
            for m in range(1, -xlo + 1):
                if n == m:
                    continue
                c = affine_coeff(n, m)
                if c:
                    a[(-n, -m)] = -c if (m + n) % 2 == 0 else c
        for n in range(1, -min(wlo, xlo) + 1):
            c = affine_coeff(0, n)
            half = Fraction(1, 2) if n % 2 == 0 else Fraction(-1, 2)
            if n <= -wlo:
                accumulate(a, (-n, 0), half * c)
            if n <= -xlo:
                accumulate(a, (0, -n), -half * c)
        min_total = None
    elif form == "closed":
        if T is None:
            T = max(-wlo, -xlo) + 2
        phi1, phi2 = basis_pair(T)
        p1n = phi1.sub_neg()  # phi1(-z)
        p2n = phi2.sub_neg()  # phi2(-z)
        # dividend D(w,x) = w - x + phi1(-x) phi2(-w) - phi1(-w) phi2(-x);
        # D vanishes at w = -x (the Wronskian identity), so division is exact.
        num = {(1, 0): ONE, (0, 1): -ONE}
        for j, cx in p1n.coeffs.items():
            for i, cw in p2n.coeffs.items():
                accumulate(num, (i, j), cx * cw)
        for i, cw in p1n.coeffs.items():
            for j, cx in p2n.coeffs.items():
                accumulate(num, (i, j), -(cw * cx))
        # divide by (w + x): q[i,j] = num[i+1, j] - q[i+1, j-1], descending in i
        q = {}
        jmax = T
        for i in range(0, -T - 1, -1):
            for j in range(jmax, -T - 1, -1):
                val = num.get((i + 1, j), ZERO) - q.get((i + 1, j - 1), ZERO)
                if val:
                    q[(i, j)] = val
        # Exactness of the division shows up as the absence of positive x-powers
        # in the quotient (a nonzero remainder would leak an infinite diagonal
        # tail of them).  Check it on the sound triangle.
        for (i, j), val in q.items():
            if j > 0 and i + j >= 2 - T:
                raise ArithmeticError("nonzero remainder dividing by (w + x): convention bug")
            if val.uses("v"):
                raise ArithmeticError("v survived the antisymmetrized quotient: convention bug")
        quarter = Fraction(1, 4)
        a = {k: quarter * c for k, c in q.items() if k[1] <= 0}
        min_total = 2 - T
    else:
        raise ValueError(f"unknown form {form!r}")
    A = BiSeries(("w", "x"), a, (wlo, 0), (xlo, xhi), min_total)
    at = dict(A.coeffs)
    accumulate(at, (0, 0), ParamPoly.const(Fraction(-1, 4)))
    for i in range(1, min(-wlo, xhi) + 1):
        accumulate(at, (-i, i), _tail_coeff(i))
    return A, BiSeries(("w", "x"), at, (wlo, 0), (xlo, xhi), min_total)


def verify_wronskian(T):
    """Check the four structural identities of the basis pair through order T.

    (i)   phi1(-z) phi2(z) - phi1(z) phi2(-z) = 2z
    (ii)  det G(Z) = 1 for the even/odd-part matrix G
    (iii) h z^2 phi1'' + 2 z^2 phi1' = h (u - 1/4) phi1
    (iv)  phi2 = h z phi1' + z phi1 + h (v - 1/2) phi1

    Returns a dict mapping identity name to bool.
    """
    phi1, phi2 = basis_pair(T)
    report = {}

    lhs = phi1.sub_neg() * phi2 - phi1 * phi2.sub_neg()
    rhs = LaurentSeries.monomial("z", 1, ParamPoly.const(2), lhs.lo)
    report["wronskian_2z"] = series_eq_on_overlap(lhs, rhs)

    # G is assembled from the even/odd parts a_k of phi1 and b_k of z^-1 phi2,
    # as series in a halved variable Z.
    a = {k: phi1.coeff(-k) for k in range(1, T + 1)}
    b = {k: phi2.coeff(1 - k) for k in range(1, T + 1)}
    half = T // 2
    hb = (T - 1) // 2
    g11 = LaurentSeries("Z", {0: ONE, **{-n: a[2 * n] for n in range(1, half + 1)}}, -half, 0)
    g12 = LaurentSeries("Z", {-n: b[2 * n + 1] for n in range(0, hb + 1)}, -hb, 0)
    g21 = LaurentSeries("Z", {-n: a[2 * n - 1] for n in range(1, half + 1)}, -half, 0)
    g22 = LaurentSeries("Z", {0: ONE, **{-n: b[2 * n] for n in range(1, half + 1)}}, -half, 0)
    det = g11 * g22 - g12 * g21
    report["det_g_one"] = series_eq_on_overlap(det, LaurentSeries.one("Z", det.lo))

    z2 = LaurentSeries.monomial("z", 2, ONE, -T)
    ode_lhs = z2 * (phi1.derivative().derivative().scale(H) + phi1.derivative().scale(2))
    u_quarter = ParamPoly.gen("u") - Fraction(1, 4)
    ode_rhs = phi1.scale(H * u_quarter)
    report["phi1_ode"] = series_eq_on_overlap(ode_lhs, ode_rhs)

    z1 = LaurentSeries.monomial("z", 1, ONE, -T)
    rel = z1 * phi1.derivative().scale(H) + z1 * phi1 + phi1.scale(H * (V - Fraction(1, 2)))
    report["phi2_from_phi1"] = series_eq_on_overlap(rel, phi2)

    return report


def pfaffian_expansion_sides(parts):
    """Both sides of the Pfaffian/hypergeometric-weight identity for one
    strict partition: ((-1)^ceil(l/2) Pf(a_{mu_i,mu_j}), expansion weight)."""
    from .schurq import check_strict

    parts = check_strict(parts)
    if not parts:
        return ONE, ONE
    mu = parts if len(parts) % 2 == 0 else parts + (0,)
    m = [[affine_coeff(a, b) for b in mu] for a in mu]
    sign = (-1) ** ((len(parts) + 1) // 2)
    lhs = pfaffian(m)
    if sign < 0:
        lhs = -lhs
    return lhs, hypergeom_coeff(parts)


def verify_pfaffian_expansion(parts):
    lhs, rhs = pfaffian_expansion_sides(parts)
    return lhs == rhs
