"""Strict partitions, Schur Q-values, and hypergeometric expansion weights.

The tau-function of the generalized BGW model expands over strict
partitions as

    tau(t) = sum_lambda (h/16)^|lambda| * 2^(-l) * theta_lambda
             * Q_lambda(delta_{k,1}) * Q_lambda(t),

with theta_lambda = prod_j prod_{k=1}^{lambda_j} theta(k) and
theta(k) = (2k-1)^2 - 4u.  This module supplies every ingredient of that
weight, plus two independent routes to Q_lambda at the delta point: the
Pfaffian construction from one- and two-row values, and the closed product
formula 2^|lambda| / prod(lambda_i!) * prod_{i<j} (l_i - l_j)/(l_i + l_j).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .pfaffian import pfaffian
from .poly import ParamPoly, u_mul, u_scale

__all__ = [
    "check_strict",
    "strict_partitions",
    "q_series",
    "q_two_row",
    "Q_lambda",
    "Q_delta_closed",
    "theta_u",
    "theta_prod",
    "theta_lambda",
    "hypergeom_coeff",
]

_theta_prod_cache = {}


def check_strict(parts):
    parts = tuple(parts)
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(parts[i] <= parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be strictly decreasing: {parts}")
    return parts


def strict_partitions(max_weight):
    """All strict partitions of weight <= max_weight, in a deterministic order
    (by weight, then lexicographically)."""
    out = [()]

    def extend(prefix, remaining, cap):
        for p in range(min(remaining, cap), 0, -1):
            part = prefix + (p,)
            out.append(part)
            extend(part, remaining - p, p - 1)

    extend((), max_weight, max_weight)
    out.sort(key=lambda lam: (sum(lam), lam))
    return out


def q_series(couplings, max_order):
    """Coefficients q_0..q_max of exp(2 * sum_{k odd} t_k z^k).

    ``couplings`` maps odd k to an exact value (Fraction, or any ring
    element); values at even k are rejected.  Uses the derivative
    recurrence r*q_r = sum_k 2k t_k q_{r-k}.
    """
    for k in couplings:
        if k <= 0 or k % 2 == 0:
            raise ValueError(f"couplings must be indexed by odd positive k, got {k}")
    q = [Fraction(1)] + [None] * max_order
    for r in range(1, max_order + 1):
        acc = 0
        for k, t in couplings.items():
            if k > r or not t:
                continue
            acc = acc + (2 * k) * t * q[r - k]
        q[r] = acc * Fraction(1, r) if acc else Fraction(0)
    return q


def q_two_row(m, n, q):
    """Two-row value Q_(m,n) from one-row data q (valid for all m, n >= 0).

    Q_(m,n) = q_m q_n + 2 * sum_{i=1}^{n} (-1)^i q_{m+i} q_{n-i}.

    The same formula extended to arbitrary order of arguments is
    antisymmetric whenever the couplings are supported on odd k, which is
    what makes it usable as the entry of a Pfaffian matrix.
    """
    if min(m, n) < 0 or m + n >= len(q):
        raise ValueError("two-row value needs 0 <= m, n and m + n < len(q)")
    if m == 0 and n == 0:
        return Fraction(0)
    acc = q[m] * q[n]
    for i in range(1, n + 1):
        term = 2 * q[m + i] * q[n - i]
        acc = acc - term if i % 2 else acc + term
    return acc


def Q_lambda(parts, couplings):
    """Schur Q-value of a strict partition at the given odd couplings.

    Even length: Pfaffian of the two-row matrix.  Odd length: the matrix is
    padded with a trailing zero part, whose two-row values degenerate to
    one-row values q_{lambda_i}.
    """
    parts = check_strict(parts)
    if not parts:
        return Fraction(1)
    q = q_series(couplings, sum(parts))
    mu = parts if len(parts) % 2 == 0 else parts + (0,)
    m = [[q_two_row(a, b, q) if i != j else Fraction(0) for j, b in enumerate(mu)] for i, a in enumerate(mu)]
    return pfaffian(m)


def Q_delta_closed(parts):
    """Closed form for Q_lambda(delta_{k,1}):
    2^|lambda| / prod(lambda_i!) * prod_{i<j} (l_i - l_j)/(l_i + l_j)."""
    parts = check_strict(parts)
    value = Fraction(2) ** sum(parts)
    for p in parts:
        value /= factorial(p)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            value *= Fraction(parts[i] - parts[j], parts[i] + parts[j])
    return value


def theta_u(k):
    """theta(k) = (2k-1)^2 - 4u as a dense int u-tuple."""
    return ((2 * k - 1) ** 2, -4)


def theta_prod(n):
    """prod_{k=1}^n theta(k) as a dense int u-tuple, memoized."""
    if n == 0:
        return (1,)
    out = _theta_prod_cache.get(n)
    if out is None:
        out = u_mul(theta_prod(n - 1), theta_u(n))
        _theta_prod_cache[n] = out
    return out


def theta_lambda(parts):
    """prod_j prod_{k=1}^{lambda_j} theta(k) as a dense int u-tuple."""
    out = (1,)
    for p in check_strict(parts):
        out = u_mul(out, theta_prod(p))
    return out


def hypergeom_coeff(parts):
    """Weight of Q_lambda(t) in the tau-function expansion:
    (h/16)^|lambda| * 2^(-length) * theta_lambda * Q_lambda(delta)."""
    parts = check_strict(parts)
    w = sum(parts)
    scalar = Fraction(1, 16 ** w) * Fraction(1, 2 ** len(parts)) * Q_delta_closed(parts)
    return ParamPoly.from_u(u_scale(theta_lambda(parts), scalar.numerator), scalar.denominator, eh=w)
