"""Exact polynomials over the formal generators h, u, s: one output format
and one arithmetic.

Every value this package returns lies in the ring Q[h, u, s], where the
generators are read as follows:

    h -- the genus-expansion parameter (hbar),
    u -- N^2 for the model parameter N,
    s -- S^2 for the scale parameter S = hbar * N.

No value carries N to an odd power: correlators, omega entries and affine
coordinates depend on N through u alone.  The one linear appearance of N,
in the KdV basis series phi2, stays inside the integer basis of
``affine._int_basis``, and ``affine.gen_A`` checks that it cancels.

Each value has a fixed shape: an affine coordinate is h^(n+m) times a
rational times a polynomial in u, and a correlator or omega entry is one
monomial c s^e.  So the arithmetic runs on that shape alone: a polynomial
in u is a dense int tuple (index = power of u) combined by ``u_add``,
``u_mul`` and ``u_scale``, and ``u_eval`` evaluates it at a rational u.
Where a sum of products is long, each tuple is packed once into the int
p(2^bits) by ``u_pack``, the work runs on ints, and only the values kept
are read back by ``u_unpack``: the Pfaffian of ``affine``, the cycle sum
of ``npoint``, and the closed generating series and Wronskian suite of
``affine``.  Each path proves its width from ``u_norm_max``, the largest
L1 norm of its inputs.  ParamPoly is the output format,
with no arithmetic: a value is built as a ParamPoly once, where it leaves
a module, and is then only compared, read and printed.  Keeping s distinct
from h^2*u makes the two natural normalizations of the theory coexist;
npoint.bridge applies s -> h^2*u to the correlator monomials.  Values are
computed with u symbolic; a finished ParamPoly meets a rational u only in
``at_u``, where it leaves.

A key is the exponent tuple (eh, eu, es, ev) with ev always 0: serialized
terms are read as four exponent columns (h, u, s, v), so the slot stays.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "ParamPoly",
    "ZERO",
    "H",
    "S",
    "double_factorial",
    "u_mul",
    "u_add",
    "u_scale",
    "u_eval",
    "at_u",
    "u_pack",
    "u_unpack",
    "u_norm_max",
]

_GENS = ("h", "u", "s")


class ParamPoly:
    """Exact sparse polynomial in (h, u, s) with Fraction coefficients: the
    output format, which is built, compared, read and printed, never
    combined.  Zero coefficients are never stored.  A ParamPoly equals an
    int or a Fraction when it is that constant.
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

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(0, 0, 0, 0): other} if other else {})
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def coeff(self, eh=0, eu=0, es=0):
        return self.terms.get((eh, eu, es, 0), Fraction(0))

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


def u_eval(p, q):
    """The dense int u-tuple p at the exact rational u = q (an int or a
    Fraction), as a Fraction.  Horner's rule runs on ints: with q = a/b, the
    numerator of p(a/b) accumulates over the denominator b^len(p)."""
    a, b = q.numerator, q.denominator
    num, den = 0, 1
    for c in reversed(p):
        num, den = num * a + c * den * b, den * b
    return Fraction(num, den)


def at_u(value, q):
    """The ParamPoly ``value`` at the exact rational u = q: terms that differ
    only in their power of u are summed, zeros dropped, ZERO if all vanish."""
    q, terms = Fraction(q), {}
    for (eh, eu, es, ev), c in value.terms.items():
        terms[eh, 0, es, ev] = terms.get((eh, 0, es, ev), 0) + c * q ** eu
    return ParamPoly({key: c for key, c in terms.items() if c}) or ZERO


def u_pack(p, bits):
    """The int u-tuple p as the single int p(2^bits); signed coefficients.
    Packing is a ring map Z[u] -> Z, so sums and products of packed tuples
    are int sums and products.  Horner's rule, with no call per digit."""
    x = 0
    for c in reversed(p):
        x = (x << bits) + c
    return x


def u_unpack(x, bits):
    """The int u-tuple whose value at u = 2^bits is x, read in balanced
    base-2^bits digits (bits >= 2): the inverse of ``u_pack`` on tuples
    whose coefficients c satisfy |c| < 2^(bits-1), trailing zeros trimmed.
    Narrower digits have no balanced form: at bits = 1 the digits are -1
    and 0, and the loop would never end."""
    if bits < 2:
        raise ValueError("u_unpack needs bits >= 2")
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    while x:
        d = ((x + half) & mask) - half
        out.append(d)
        x = (x - d) >> bits
    return tuple(out)


def u_norm_max(tuples):
    """The largest L1 norm (sum of |coefficient|) of the int u-tuples, 0 for
    none: the one input of every packing width, since a coefficient of a
    product of tuples is at most the product of their L1 norms."""
    return max([sum(map(abs, p)) for p in tuples], default=0)


def double_factorial(n):
    """(2k+1)!! style double factorial; (-1)!! = 1 by convention."""
    if n < -1:
        raise ValueError("double factorial needs n >= -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result

