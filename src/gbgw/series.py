"""Truncated Laurent series, two-variable series, and sparse coefficient tensors.

The window convention for :class:`LaurentSeries` is one-sided: a series
knows its coefficients exactly for exponents in [lo, hi], every exponent
above hi is structurally zero (hi is the honest top degree), and exponents
below lo are unknown (lost to truncation).  Products therefore carry the
tightest sound window

    [max(a.lo + b.hi, a.hi + b.lo),  a.hi + b.hi],

which is exactly the range of coefficients determined by the two inputs.

Coefficients are duck-typed: anything with +, *, unary -, == and a falsy
zero works (Fraction, ParamPoly).  Absent coefficients are reported as the
integer 0.  The one exception is the leading coefficient of
:meth:`LaurentSeries.inverse`, which must be a nonzero int or Fraction.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["LaurentSeries", "BiSeries", "SparseTensor", "accumulate"]


def accumulate(coeffs, key, value):
    """coeffs[key] += value in a sparse dict, dropping the key when the sum is zero."""
    r = coeffs.get(key)
    r = value if r is None else r + value
    if r:
        coeffs[key] = r
    else:
        coeffs.pop(key, None)


class WindowError(ValueError):
    """A coefficient outside the sound window was requested."""


class LaurentSeries:
    __slots__ = ("var", "coeffs", "lo", "hi")

    def __init__(self, var, coeffs, lo, hi):
        if lo > hi + 1:
            raise ValueError(f"window lo={lo} exceeds hi + 1 = {hi + 1}")
        self.var = var
        self.coeffs = {e: c for e, c in coeffs.items() if c and lo <= e <= hi}
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, var, exponent, coeff, lo):
        return cls(var, {exponent: coeff}, lo, exponent)

    @classmethod
    def one(cls, var, lo):
        return cls.monomial(var, 0, Fraction(1), lo)

    # -- access ------------------------------------------------------------

    def coeff(self, e):
        if e < self.lo:
            raise WindowError(f"exponent {e} below window lo={self.lo} of series in {self.var}")
        return self.coeffs.get(e, 0)

    def is_zero(self):
        return not self.coeffs

    def _check_var(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    # -- linear operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check_var(other)
        lo = max(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            r = out.get(e)
            out[e] = c if r is None else r + c
        return LaurentSeries(self.var, out, lo, hi)

    def __neg__(self):
        return LaurentSeries(self.var, {e: -c for e, c in self.coeffs.items()}, self.lo, self.hi)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    # -- multiplicative structure -------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check_var(other)
        lo = max(self.lo + other.hi, self.hi + other.lo)
        hi = self.hi + other.hi
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                e = i + j
                if e < lo:
                    continue
                p = a * b
                r = out.get(e)
                out[e] = p if r is None else r + p
        return LaurentSeries(self.var, out, lo, hi)

    def inverse(self):
        """Multiplicative inverse of a series with rational-unit leading term.

        If self is known on [lo, hi] with top coefficient a nonzero int or
        Fraction, the inverse is exact on [lo - 2*hi, -hi].
        """
        top = self.coeffs.get(self.hi, 0)
        if not isinstance(top, (int, Fraction)) or not top:
            raise ValueError("leading term is not an invertible rational constant")
        h = self.hi
        depth = h - self.lo
        inv_top = Fraction(1) / top
        out = {-h: inv_top}
        for d in range(1, depth + 1):
            # coefficient of var^(-h-d) from (self * out) = 1
            acc = 0
            for j in range(1, d + 1):
                a = self.coeffs.get(h - j)
                b = out.get(-h - (d - j))
                if a is None or b is None or not a or not b:
                    continue
                acc = acc + a * b
            if acc:
                out[-h - d] = -inv_top * acc
        return LaurentSeries(self.var, out, self.lo - 2 * h, -h)

    def sqrt(self):
        """Square root of a series with constant term 1, branch sqrt(1) = +1."""
        if self.hi != 0 or self.coeffs.get(0, 0) != 1:
            raise ValueError("sqrt requires constant term 1 (top exponent 0)")
        out = {0: Fraction(1)}
        half = Fraction(1, 2)
        for e in range(-1, self.lo - 1, -1):
            acc = self.coeffs.get(e, 0)
            for j in range(e + 1, 0):
                a = out.get(j)
                b = out.get(e - j)
                if a is None or b is None:
                    continue
                acc = acc - a * b
            acc = half * acc
            if acc:
                out[e] = acc
        return LaurentSeries(self.var, out, self.lo, 0)

    def __repr__(self):
        if not self.coeffs:
            return f"<0 on [{self.lo},{self.hi}] in {self.var}>"
        bits = []
        for e in sorted(self.coeffs, reverse=True):
            bits.append(f"({self.coeffs[e]!r})*{self.var}^{e}")
        return " + ".join(bits) + f"  [window {self.lo}..{self.hi}]"


class BiSeries:
    """Truncated two-variable series with a rectangular window.

    Entries live at integer exponent pairs (i, j) for the two named
    variables.  When ``min_total`` is set, entries with i + j < min_total
    are additionally declared unknown (used by the anti-diagonal division
    of the closed-form generating series, whose sound region is a
    triangle).
    """

    __slots__ = ("vars", "coeffs", "window1", "window2", "min_total")

    def __init__(self, vars, coeffs, window1, window2, min_total=None):
        self.vars = vars
        self.window1 = window1
        self.window2 = window2
        self.min_total = min_total
        lo1, hi1 = window1
        lo2, hi2 = window2
        self.coeffs = {
            (i, j): c
            for (i, j), c in coeffs.items()
            if c and lo1 <= i <= hi1 and lo2 <= j <= hi2
            and (min_total is None or i + j >= min_total)
        }

    def known(self, i, j):
        lo1, hi1 = self.window1
        lo2, hi2 = self.window2
        if not (lo1 <= i <= hi1 and lo2 <= j <= hi2):
            return False
        return self.min_total is None or i + j >= self.min_total

    def coeff(self, i, j):
        if not self.known(i, j):
            raise WindowError(f"({i},{j}) outside window of BiSeries in {self.vars}")
        return self.coeffs.get((i, j), 0)


class SparseTensor:
    """Arity-n sparse array of exact coefficients keyed by exponent tuples."""

    __slots__ = ("arity", "coeffs")

    def __init__(self, arity, coeffs=None):
        self.arity = arity
        self.coeffs = {}
        if coeffs:
            for k, c in coeffs.items():
                if c:
                    if len(k) != arity:
                        raise ValueError(f"key {k} does not have arity {arity}")
                    self.coeffs[k] = c

    def get(self, key):
        return self.coeffs.get(tuple(key), 0)

    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        return self.arity == other.arity and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        items = ", ".join(f"{k}: {c!r}" for k, c in sorted(self.coeffs.items()))
        return f"SparseTensor({self.arity}, {{{items}}})"
