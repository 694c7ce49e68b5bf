"""Sparse coefficient containers: a windowed two-variable series and an
arity-n tensor.

Coefficients are exact values (int, Fraction, or a ParamPoly on its way
out of a module) kept in dicts keyed by exponents; the containers store,
read and compare them and do no arithmetic.  Absent keys are zero and
zero values are never stored.
A :class:`BiSeries` also records the window where its coefficients are
known, and reading outside it raises :class:`WindowError`.
"""

from __future__ import annotations

__all__ = ["BiSeries", "SparseTensor"]


class WindowError(ValueError):
    """A coefficient outside the sound window was requested."""


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
