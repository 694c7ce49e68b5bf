"""Sparse exact polynomials over the formal generators h, u, s, v.

All coefficient arithmetic in this package happens in the ring

    Q[h, u, s, v] / (v^2 - u)

where the generators are read as follows:

    h -- the genus-expansion parameter (hbar),
    u -- N^2 for the model parameter N,
    s -- S^2 for the scale parameter S = hbar * N,
    v -- N itself, a square root of u used only by the few identities
         that involve N to the first power.

Keeping s distinct from h^2*u makes the two natural normalizations of the
theory coexist; the bridge is the explicit ring map s -> h^2*u provided by
:meth:`ParamPoly.subs_s_h2u`.  Powers of v reduce automatically via
v^2 = u, so every element has a canonical form with v-exponent 0 or 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

__all__ = [
    "ParamPoly",
    "ZERO",
    "ONE",
    "H",
    "U",
    "S",
    "V",
    "half_binomial",
    "double_factorial",
    "u_mul",
    "u_add",
    "u_scale",
]

_GENS = ("h", "u", "s", "v")
_GEN_INDEX = {g: i for i, g in enumerate(_GENS)}


def _reduce_key(key):
    """Push even v-powers into u: (eh, eu, es, ev) with ev >= 2 -> eu += ev//2."""
    ev = key[3]
    if ev < 2:
        return key
    return (key[0], key[1] + ev // 2, key[2], ev % 2)


class ParamPoly:
    """Exact sparse polynomial in (h, u, s, v) with Fraction coefficients.

    Instances are treated as immutable; all operations return new objects.
    Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    GENS = _GENS

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO_P

    @classmethod
    def const(cls, value):
        q = Fraction(value)
        if q == 0:
            return _ZERO_P
        return cls({(0, 0, 0, 0): q})

    @classmethod
    def gen(cls, name, exp=1):
        if name not in _GEN_INDEX:
            raise ValueError(f"unknown generator {name!r}")
        key = [0, 0, 0, 0]
        key[_GEN_INDEX[name]] = exp
        return cls({_reduce_key(tuple(key)): Fraction(1)})

    @classmethod
    def monomial(cls, coeff, eh=0, eu=0, es=0, ev=0):
        q = Fraction(coeff)
        if q == 0:
            return _ZERO_P
        return cls({_reduce_key((eh, eu, es, ev)): q})

    @classmethod
    def from_u(cls, coeffs, den, eh=0, ev=0):
        """h^eh v^ev sum_k coeffs[k] u^k / den, from a dense int u-tuple."""
        return cls({(eh, eu, 0, ev): Fraction(c, den) for eu, c in enumerate(coeffs) if c})

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

    def __sub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return _ZERO_P
        out = {}
        for (a0, a1, a2, a3), qa in self.terms.items():
            for (b0, b1, b2, b3), qb in o.terms.items():
                ev = a3 + b3
                if ev >= 2:
                    key = (a0 + b0, a1 + b1 + ev // 2, a2 + b2, ev % 2)
                else:
                    key = (a0 + b0, a1 + b1, a2 + b2, ev)
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

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------

    def coeff(self, eh=0, eu=0, es=0, ev=0):
        return self.terms.get(_reduce_key((eh, eu, es, ev)), Fraction(0))

    def const_value(self):
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {(0, 0, 0, 0)}:
            raise ValueError(f"not a constant: {self}")
        return self.terms[(0, 0, 0, 0)]

    def degree(self, name):
        """Largest exponent of the named generator (-1 for the zero polynomial)."""
        i = _GEN_INDEX[name]
        if not self.terms:
            return -1
        return max(k[i] for k in self.terms)

    def uses(self, name):
        i = _GEN_INDEX[name]
        return any(k[i] for k in self.terms)

    # -- substitutions -----------------------------------------------------

    def subs_s_h2u(self):
        """Apply the ring homomorphism s -> h^2*u (the bridge S^2 = hbar^2 N^2)."""
        out = {}
        for (eh, eu, es, ev), q in self.terms.items():
            key = (eh + 2 * es, eu + es, 0, ev)
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

    def subs_u(self, value):
        """Evaluate u at an exact rational; requires no stray v (sign ambiguity)."""
        if self.uses("v"):
            raise ValueError("cannot substitute u with v present (sign of v undetermined)")
        q = Fraction(value)
        out = {}
        for (eh, eu, es, ev), c in self.terms.items():
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

    def subs_s(self, value):
        q = Fraction(value)
        out = {}
        for (eh, eu, es, ev), c in self.terms.items():
            key = (eh, eu, 0, ev)
            c = c * q ** es
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

    def eval_rational(self, h=0, u=0, s=0, v=None):
        """Evaluate at rational points.  If v is None it is taken consistent only
        when no v appears; callers substituting v must supply v with v*v == u."""
        hq, uq, sq = Fraction(h), Fraction(u), Fraction(s)
        if v is None:
            if self.uses("v"):
                raise ValueError("value for v required")
            vq = Fraction(0)
        else:
            vq = Fraction(v)
            if vq * vq != uq:
                raise ValueError("inconsistent evaluation: v*v != u")
        total = Fraction(0)
        for (eh, eu, es, ev), q in self.terms.items():
            total += q * hq ** eh * uq ** eu * sq ** es * vq ** ev
        return total

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


_ZERO_P = ParamPoly({})

ZERO = _ZERO_P
ONE = ParamPoly.const(1)
H = ParamPoly.gen("h")
U = ParamPoly.gen("u")
S = ParamPoly.gen("s")
V = ParamPoly.gen("v")


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


def half_binomial(k, m):
    """Exact generalized binomial coefficient C(-k - 1/2, m).

    These appear when re-expanding z^(-2k) dz in the flat coordinate x of
    the curve x^2 y^2 = x^2 + S^2:   z^(-2k) dz = sum_m C(-k-1/2, m) S^(2m)
    x^(-2m-2k) dx.
    """
    if k < 0 or m < 0:
        raise ValueError("k and m must be nonnegative")
    top = Fraction(-2 * k - 1, 2)
    num = Fraction(1)
    for j in range(m):
        num *= top - j
    return num / factorial(m)


def double_factorial(n):
    """(2k+1)!! style double factorial; (-1)!! = 1 by convention."""
    if n < -1:
        raise ValueError("double factorial needs n >= -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result

