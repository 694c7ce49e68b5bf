"""Sparse exact polynomials over the formal generators h, u, s.

Every value this package returns lies in the ring Q[h, u, s], where the
generators are read as follows:

    h -- the genus-expansion parameter (hbar),
    u -- N^2 for the model parameter N,
    s -- S^2 for the scale parameter S = hbar * N.

No value carries N to an odd power: correlators, omega entries and affine
coordinates depend on N through u alone.  The one linear appearance of N,
in the KdV basis series phi2, stays inside the integer basis of
``affine._int_basis``, and ``affine.gen_A`` checks that it cancels.

ParamPoly is the format a value takes where it leaves a module: every
recursion runs on ints or Fractions, and the tables are built as ParamPoly
only on the way out.  Keeping s distinct from h^2*u makes the two natural
normalizations of the theory coexist; npoint.bridge applies s -> h^2*u to
the correlator monomials.

A key is the exponent tuple (eh, eu, es, ev) with ev always 0: serialized
terms are read as four exponent columns (h, u, s, v), so the slot stays.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "ParamPoly",
    "ZERO",
    "ONE",
    "H",
    "S",
    "double_factorial",
    "u_mul",
    "u_add",
    "u_scale",
]

_GENS = ("h", "u", "s")


class ParamPoly:
    """Exact sparse polynomial in (h, u, s) with Fraction coefficients.

    Instances are treated as immutable; all operations return new objects.
    Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value):
        q = Fraction(value)
        if q == 0:
            return ZERO
        return cls({(0, 0, 0, 0): q})

    @classmethod
    def monomial(cls, coeff, eh=0, eu=0, es=0):
        q = Fraction(coeff)
        if q == 0:
            return ZERO
        return cls({(eh, eu, es, 0): q})

    @classmethod
    def from_u(cls, coeffs, den, eh=0):
        """h^eh sum_k coeffs[k] u^k / den, from a dense int u-tuple."""
        return cls({(eh, eu, 0, 0): Fraction(c, den) for eu, c in enumerate(coeffs) if c})

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _promote(other):
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(other)
        return None

    def __add__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if not self.terms:
            return o
        if not o.terms:
            return self
        terms = dict(self.terms)
        for k, q in o.terms.items():
            r = terms.get(k)
            if r is None:
                terms[k] = q
            else:
                r = r + q
                if r:
                    terms[k] = r
                else:
                    del terms[k]
        return ParamPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly({k: -q for k, q in self.terms.items()})

    def __mul__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return ZERO
        out = {}
        for (a0, a1, a2, _), qa in self.terms.items():
            for (b0, b1, b2, _), qb in o.terms.items():
                key = (a0 + b0, a1 + b1, a2 + b2, 0)
                q = qa * qb
                r = out.get(key)
                if r is None:
                    out[key] = q
                else:
                    r = r + q
                    if r:
                        out[key] = r
                    else:
                        del out[key]
        return ParamPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def coeff(self, eh=0, eu=0, es=0):
        return self.terms.get((eh, eu, es, 0), Fraction(0))

    # -- substitutions -----------------------------------------------------

    def subs_u(self, value):
        """Evaluate u at an exact rational."""
        q = Fraction(value)
        out = {}
        for (eh, eu, es, _), c in self.terms.items():
            key = (eh, 0, es, 0)
            c = c * q ** eu
            if not c:
                continue
            r = out.get(key)
            if r is None:
                out[key] = c
            else:
                r = r + c
                if r:
                    out[key] = r
                else:
                    del out[key]
        return ParamPoly(out)

    # -- presentation ------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        pieces = []
        for key, q in self.sorted_terms():
            factors = []
            for name, e in zip(_GENS, key):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if mono:
                if q == 1:
                    pieces.append(mono)
                elif q == -1:
                    pieces.append(f"-{mono}")
                else:
                    pieces.append(f"({q})*{mono}")
            else:
                pieces.append(str(q))
        return " + ".join(pieces).replace("+ -", "- ")


ZERO = ParamPoly({})
ONE = ParamPoly.const(1)
H = ParamPoly.monomial(1, eh=1)
S = ParamPoly.monomial(1, es=1)


def u_mul(a, b):
    """Product of two dense int u-coefficient tuples (index = power of u).

    The empty tuple is zero.  Over the integers the leading coefficient of
    a product of nonzero factors is nonzero, so no trimming is needed.
    """
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def u_add(a, b):
    """Sum of two dense int u-coefficient tuples, trailing zeros trimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, y in enumerate(b):
        out[k] += y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def u_scale(a, k):
    """A dense int u-coefficient tuple times a nonzero integer k."""
    return tuple(k * x for x in a)


def double_factorial(n):
    """(2k+1)!! style double factorial; (-1)!! = 1 by convention."""
    if n < -1:
        raise ValueError("double factorial needs n >= -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result

