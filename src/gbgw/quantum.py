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
which [P, Q] = h holds.  Q's coefficients live in the field of fractions
of Q[h, u], confined to this module via :class:`RatFunc`.
"""

from __future__ import annotations

from fractions import Fraction

from .affine import affine_coeff
from .poly import ParamPoly, ONE, ZERO
from .schurq import theta
from .series import LaurentSeries, accumulate

__all__ = [
    "RatFunc",
    "phiB",
    "apply_P",
    "apply_Q",
    "p_monomial",
    "q_monomial",
    "commutator_on_monomial",
    "verify_ks",
    "semiclassical_identity",
]


class RatFunc:
    """Exact rational function num/den with ParamPoly parts (den nonzero).

    No gcd reduction is attempted: equality goes through cross
    multiplication, and a zero numerator normalizes the denominator to 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = num if isinstance(num, ParamPoly) else ParamPoly.const(num)
        den = den if isinstance(den, ParamPoly) else ParamPoly.const(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = ONE
        self.num = num
        self.den = den

    @staticmethod
    def _lift(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction, ParamPoly)):
            return RatFunc(x)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        if self.den == ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def phiB(k, depth):
    """The k-th basis series, exact through z^-depth."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    coeffs = {k: ONE}
    ak0 = affine_coeff(k, 0)
    for i in range(1, depth + 1):
        v = affine_coeff(k, i) - ak0 * affine_coeff(0, i)
        v = 2 * v
        if i % 2:
            v = -v
        if v:
            coeffs[-i] = v
    return LaurentSeries("z", coeffs, -depth, k)


def p_monomial(k):
    """P(z^k) as [(exponent, ParamPoly coefficient), ...]."""
    th = theta(k)
    c1 = ParamPoly.monomial(Fraction(k, 4), eh=3) * th
    c2 = ParamPoly.monomial(Fraction(-1, 32), eh=4) * (th * theta(k - 1))
    return [(k - 1, c1), (k - 2, c2)]


def q_monomial(k):
    """Q(z^k) = c(k) z^(k+1) with c(k) = 4 h^-2 / theta(k+1)."""
    den = ParamPoly.monomial(1, eh=2) * theta(k + 1)
    return k + 1, RatFunc(ParamPoly.const(4), den)


def apply_P(f):
    """Apply P termwise; sound window shrinks by one at the bottom."""
    out = {}
    for e, c in f.coeffs.items():
        for e2, w in p_monomial(e):
            if w:
                accumulate(out, e2, c * w)
    return LaurentSeries(f.var, out, f.lo - 1, f.hi - 1)


def apply_Q(f):
    """Apply Q termwise; coefficients become rational functions in (h, u)."""
    out = {}
    for e, c in f.coeffs.items():
        e2, w = q_monomial(e)
        out[e2] = w * c
    return LaurentSeries(f.var, out, f.lo + 1, f.hi + 1)


def commutator_on_monomial(k):
    """(PQ - QP)(z^k) as [(exponent, RatFunc), ...] with zero entries dropped."""
    acc = {}
    e1, c1 = q_monomial(k)
    for e2, w in p_monomial(e1):
        accumulate(acc, e2, c1 * w)
    for e2, w in p_monomial(k):
        if not w:
            continue
        e3, c3 = q_monomial(e2)
        accumulate(acc, e3, -(c3 * w))
    return sorted(acc.items())


def verify_ks(k_max, depth):
    """Exact span checks for the operator pair on the basis prefix.

    For each k <= k_max:
      P(PhiB_k) = (h^3/4) theta(k) (k PhiB_{k-1} - (h/8) theta(k-1) PhiB_{k-2});
      Q(PhiB_k) = c_{k+1} PhiB_{k+1} + d_k PhiB_0, with c_{k+1} read off the
      leading exponent and d_k from the residual constant term.

    Returns a report dict with pass flags, the recorded coefficients and
    the number of exponents compared for P and for Q (the two exponents
    that fix c_{k+1} and d_k are not counted: they cannot fail).
    """
    phis = [phiB(k, depth) for k in range(k_max + 2)]
    report = {"p_ok": True, "q_ok": True, "q_leading": [], "q_phi0": [], "failures": [],
              "p_checked": 0, "q_checked": 0}
    for k in range(k_max + 1):
        got = apply_P(phis[k])
        th = theta(k)
        want = LaurentSeries("z", {}, got.lo, got.hi)
        if k >= 1:
            want = want + phis[k - 1].scale(ParamPoly.monomial(Fraction(k, 4), eh=3) * th)
        if k >= 2:
            want = want + phis[k - 2].scale(ParamPoly.monomial(Fraction(-1, 32), eh=4) * (th * theta(k - 1)))
        diff = got - want
        lo = max(diff.lo, -depth)
        report["p_checked"] += max(diff.hi + 1 - lo, 0)
        bad = [e for e in diff.coeffs if e >= lo]
        if bad:
            report["p_ok"] = False
            report["failures"].append(("P", k, sorted(bad)))

        got_q = apply_Q(phis[k])
        c_lead = got_q.coeff(k + 1)
        resid = dict(got_q.coeffs)
        for e, c in phis[k + 1].coeffs.items():
            accumulate(resid, e, -(c_lead * c))
        d0 = resid.get(0, RatFunc(ZERO))
        for e, c in phis[0].coeffs.items():
            accumulate(resid, e, -(d0 * c))
        lo_sound = got_q.lo
        report["q_checked"] += sum(1 for e in range(lo_sound, got_q.hi + 1) if e not in (0, k + 1))
        bad = [e for e in resid if e >= lo_sound]
        if bad:
            report["q_ok"] = False
            report["failures"].append(("Q", k, sorted(bad)))
        report["q_leading"].append((k + 1, c_lead))
        report["q_phi0"].append((k, d0))
    return report


def _poly2(terms):
    """Tiny helper ring: polynomials in (x, y) with ParamPoly coefficients."""
    return {k: v for k, v in terms.items() if v}


def _poly2_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            accumulate(out, (i1 + i2, j1 + j2), c1 * c2)
    return out


def _poly2_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        accumulate(out, k, -v)
    return out


def semiclassical_identity():
    """Exact polynomial checks for the classical limit of P.

    (i)  x^2 (y-1)^2 - x^2 - s == (x^2 y^2 - s) - 2 x^2 y: the curve factor
         of the limit maps to x^2 y^2 = x^2 + s under y -> y + 1.
    (ii) the two-factor product 2 x^2 H = (x^2 y^2 - s)(2 x^2 y - (x^2 y^2 - s))
         multiplies out to the frozen expansion
         -x^4 y^4 + 2 x^4 y^3 + 2 s x^2 y^2 - 2 s x^2 y - s^2.

    Returns (ok, detail dict).
    """
    s = ParamPoly.gen("s")
    x2y2_s = _poly2({(2, 2): ONE, (0, 0): -s})
    # (i)
    lhs = _poly2_sub(_poly2_mul({(2, 0): ONE}, _poly2_mul({(0, 1): ONE, (0, 0): -ONE},
                                                          {(0, 1): ONE, (0, 0): -ONE})),
                     {(2, 0): ONE, (0, 0): s})
    rhs = _poly2_sub(x2y2_s, {(2, 1): ParamPoly.const(2)})
    shift_ok = _poly2_sub(lhs, rhs) == {}
    # (ii)
    second = _poly2_sub({(2, 1): ParamPoly.const(2)}, x2y2_s)
    product = _poly2_mul(x2y2_s, second)
    expansion = {(4, 4): -ONE, (4, 3): ParamPoly.const(2),
                 (2, 2): 2 * s, (2, 1): -(2 * s), (0, 0): -(s * s)}
    product_ok = _poly2_sub(product, expansion) == {}
    ok = shift_ok and product_ok
    return ok, {"shift_matches_curve": shift_ok, "factor_product": product_ok}
