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
from math import factorial, lcm

from .pfaffian import pfaffian
from .poly import ParamPoly, double_factorial, u_add, u_mul, u_norm_max, u_pack, u_scale, u_unpack
from .schurq import check_strict, hypergeom_coeff, theta_prod, theta_u
from .series import BiSeries

__all__ = [
    "affine_scalar",
    "affine_coeff",
    "gen_A",
    "verify_wronskian",
    "verify_pfaffian_expansion",
]

_affine_cache = {}


def affine_scalar(n, m):
    """The rational r_{n,m} with a_{n,m} = h^(n+m) r_{n,m} theta_prod(n) theta_prod(m)."""
    if n == m:
        return Fraction(0)
    if m == 0:
        return -affine_scalar(0, n)
    if n == 0:
        return Fraction(1, 2 ** (3 * m + 1) * factorial(m))
    return Fraction(m - n, (m + n) * 2 ** (3 * m + 3 * n + 2) * factorial(m) * factorial(n))


def affine_coeff(n, m):
    """The affine coordinate a_{n,m} (n, m >= 0) as its pair (r, P), memoized:
    a_{n,m} = h^(n+m) r P(u), with r = r_{n,m} of ``affine_scalar`` and the
    int u-tuple P = theta_prod(n) theta_prod(m), or () where r = 0."""
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    out = _affine_cache.get((n, m))
    if out is None:
        r = affine_scalar(n, m)
        out = _affine_cache[(n, m)] = (r, u_mul(theta_prod(n), theta_prod(m)) if r else ())
    return out


def _int_basis(T):
    """The first two basis series of the KdV point through z^-T,

    phi1(z) = 1 + sum_k (-h)^k/(8^k k!) prod_{i<=k} (4u - (2i-1)^2) z^-k
    phi2(z) = z + sum_k (-h)^k/(8^k k!) prod_{i<=k} (4(1-v)^2 - (2i-1)^2) z^(1-k),

    at h = 1, on dense int u-tuples.  Returns (d1, p1, d2, p2u, p2v) with
    d1 = 8^T T! and d2 = 8^(T+1) (T+1)!, which clear every denominator:
    phi1 at z^-k is h^k p1[-k] / d1, and phi2 at z^(1-k) is
    h^k (p2u[1-k] + v p2v[1-k]) / d2.
    """
    if T < 1:
        raise ValueError("window must be at least 1")
    d1 = 8 ** T * factorial(T)
    d2 = 8 * (T + 1) * d1
    # (-1)^k prod (4u - (2i-1)^2) = theta_prod(k), and for phi2
    # (-1)^k prod (4(1-v)^2 - (2i-1)^2) = prod (theta(i) - 4 + 8v)
    p1 = {-k: u_scale(theta_prod(k), d1 // (8 ** k * factorial(k))) for k in range(T + 1)}
    p2u, p2v = {1: (d2,)}, {1: ()}
    prod2u, prod2v = (1,), ()
    for k in range(1, T + 2):
        # (a + v b)(f + 8v) = a f + 8u b + v (8a + b f), with v^2 = u
        f = u_add(theta_u(k), (-4,))
        prod2u, prod2v = (
            u_add(u_mul(prod2u, f), (0,) + u_scale(prod2v, 8) if prod2v else ()),
            u_add(u_scale(prod2u, 8), u_mul(prod2v, f)),
        )
        scale = d2 // (8 ** k * factorial(k))
        p2u[1 - k], p2v[1 - k] = u_scale(prod2u, scale), u_scale(prod2v, scale)
    return d1, p1, d2, p2u, p2v


def _direct_a(keys):
    """Entries of the direct A at ``keys``, pairs (i, j) with i, j <= 0.

    Each entry is a pair (r, P) of a Fraction and an int u-tuple, standing
    for h^-(i+j) r P(u), read from the pairs of ``affine_coeff``.  The sign
    and half-weight rules of the coordinate double sum: (-1)^(n+m+1) a_{n,m}
    at (-n, -m), and (-1)^n/2 a_{0,n} at (-n, 0) and minus that at (0, -n).
    """
    a = {}
    for i, j in keys:
        n, m = -i, -j
        if n and m:
            r, p = affine_coeff(n, m)
            if r:
                a[(i, j)] = (-r if (m + n) % 2 == 0 else r, p)
        elif n or m:
            r, p = affine_coeff(0, n + m)
            r /= 2 if (n + m) % 2 == 0 else -2
            a[(i, j)] = (r if n else -r, p)
    return a


def _with_tail(a, tail_hi):
    """Entries of At = A - 1/4 - 1/2 sum_{i=1}^{tail_hi} (-1)^i w^-i x^i,
    as (r, P) pairs like those of ``_direct_a``.  A tail key held by A is an error."""
    tail = {(0, 0): (Fraction(-1, 4), (1,))}
    tail.update(((-i, i), (Fraction(1 if i % 2 else -1, 2), (1,))) for i in range(1, tail_hi + 1))
    clash = tail.keys() & a.keys()
    if clash:
        raise ArithmeticError(f"A holds the tail keys {sorted(clash)} of At: convention bug")
    return {**a, **tail}


def _entry_poly(key, entry):
    """The (r, P) entry at ``key`` as the ParamPoly h^-(sum key) r P(u)."""
    r, p = entry
    return ParamPoly.from_u(u_scale(p, r.numerator), r.denominator, eh=-sum(key))


def _quotient_bits(p1, p2, T, wx):
    """A digit width that holds every coefficient of ``_antisym_quotient``.

    With N1 and N2 the largest L1 norms of the entries of p1 and p2, each
    coefficient of the numerator p1(x) p2(w) - p1(w) p2(x) + wx (w - x) is
    at most 2 N1 N2 + |wx|, and each quotient entry is an alternating sum
    of at most T + 1 numerator entries, so every coefficient is below
    (T + 1)(2 N1 N2 + |wx|) < 2^(bits-1).  The bound is taken as at least
    1, so that bits >= 2 (``u_unpack``).
    """
    norm = 2 * u_norm_max(p1.values()) * u_norm_max(p2.values()) + abs(wx)
    return ((T + 1) * norm or 1).bit_length() + 1


def _antisym_quotient(p1, p2, T, wx=0):
    """(wx (w - x) + p1(x) p2(w) - p1(w) p2(x)) / (w + x) for dicts
    {exponent: int u-tuple} with exponents in [-T, 1], on packed ints.

    Every tuple is packed into one int (``u_pack``) at the width of
    ``_quotient_bits``, so each product and sum is one int operation.  Long
    division in w: q[i, j] = num[i+1, j] - q[i+1, j-1], descending in i from
    0 to -T.  Returns (q, bits): q maps each (i, j) to its nonzero packed
    entry, which ``u_unpack(q[i, j], bits)`` reads back.  A packed entry is
    0 exactly when its tuple is, since the width holds every coefficient.
    """
    bits = _quotient_bits(p1, p2, T, wx)
    p2 = {e: u_pack(c, bits) for e, c in p2.items()}
    num = {(1, 0): wx, (0, 1): -wx} if wx else {}
    for j, cx in p1.items():
        cx = u_pack(cx, bits)
        for i, cw in p2.items():
            c = cx * cw
            num[(i, j)] = num.get((i, j), 0) + c
            num[(j, i)] = num.get((j, i), 0) - c
    q = {}
    for i in range(0, -T - 1, -1):
        for j in range(T, -T - 1, -1):
            val = num.get((i + 1, j), 0) - q.get((i + 1, j - 1), 0)
            if val:
                q[(i, j)] = val
    return q, bits


def gen_A(form, wlo, xlo, xhi, T=None):
    """Generating series (A, At) over the window [wlo,0] x [xlo,xhi].

    form="direct" sums the coordinate table.  form="closed" builds A as the
    exact quotient of w - x + phi1(-x)phi2(-w) - phi1(-w)phi2(-x) by
    (w + x) -- long division in w, with the zero-remainder check that no
    positive x-powers survive in the quotient, and the check that its v-part
    vanishes -- and derives At from it; the result is sound on the triangle
    i + j >= 2 - T, recorded via ``min_total``.  The closed form runs at
    h = 1 on the integer basis of ``_int_basis``: the quotient at (i, j) is
    h^-(i+j) times an int u-tuple over 4 d1 d2.  Both quotients stay packed
    (``_antisym_quotient``): the remainder and v-part checks test packed
    ints for zero, and only the entries in the window are unpacked.  Both
    forms hold their entries as the (r, P) pairs of ``_direct_a``; each
    entry of At becomes a ParamPoly once, on the way out, and A reuses
    those values.
    """
    if form == "direct":
        a = _direct_a((-n, -m) for n in range(-wlo + 1) for m in range(-xlo + 1))
        min_total = None
    elif form == "closed":
        if T is None:
            T = max(-wlo, -xlo) + 2
        d1, p1, d2, p2u, p2v = _int_basis(T)

        def at_minus_z(p):  # phi(-z): the coefficient at z^e picks up (-1)^e
            return {e: u_scale(c, -1) if e % 2 else c for e, c in p.items()}

        p1 = at_minus_z(p1)
        # the dividend vanishes at w = -x (the Wronskian identity), so the
        # division is exact, which shows up as the absence of positive x-powers
        # in the quotient (a nonzero remainder would leak an infinite diagonal
        # tail of them); check it on the sound triangle
        q, bits = _antisym_quotient(p1, at_minus_z(p2u), T, wx=d1 * d2)
        for i, j in q:
            if j > 0 and i + j >= 2 - T:
                raise ArithmeticError("nonzero remainder dividing by (w + x): convention bug")
        if _antisym_quotient(p1, at_minus_z(p2v), T)[0]:
            raise ArithmeticError("v survived the antisymmetrized quotient: convention bug")
        min_total = 2 - T
        r = Fraction(1, 4 * d1 * d2)
        a = {
            (i, j): (r, u_unpack(c, bits))
            for (i, j), c in q.items()
            if wlo <= i and xlo <= j <= 0 and i + j >= min_total
        }
    else:
        raise ValueError(f"unknown form {form!r}")
    at = {key: _entry_poly(key, e) for key, e in _with_tail(a, min(-wlo, xhi)).items()}
    return (BiSeries(("w", "x"), {key: at[key] for key in a}, (wlo, 0), (xlo, xhi), min_total),
            BiSeries(("w", "x"), at, (wlo, 0), (xlo, xhi), min_total))


def verify_wronskian(T):
    """Check the four structural identities of the basis pair through order T.

    (i)   phi1(-z) phi2(z) - phi1(z) phi2(-z) = 2z
    (ii)  det G(Z) = 1 for the even/odd-part matrix G
    (iii) h z^2 phi1'' + 2 z^2 phi1' = h (u - 1/4) phi1
    (iv)  phi2 = h z phi1' + z phi1 + h (v - 1/2) phi1

    Each identity is h-homogeneous coefficient by coefficient, so it is
    checked at h = 1 on the int tuples of ``_int_basis``, with the
    denominators d1 and d2 cleared and the v-part of phi2 compared on its
    own (phi1 has none, so no v^2 arises).  Every tuple is packed into one
    int (``u_pack``) at the width of ``_wronskian_bits``, so each side of
    each identity is a sum of int products and the two sides are compared
    as ints.  The exponents compared are those the truncation at z^-T
    determines.  Returns a dict mapping identity name to bool.
    """
    d1, p1, d2, p2u, p2v = _int_basis(T)
    s = d2 // d1
    bits = _wronskian_bits(T, d1, p1, d2, p2u, p2v)
    p1, p2u, p2v = ({e: u_pack(c, bits) for e, c in p.items()} for p in (p1, p2u, p2v))
    report = {}

    def pair_sum(terms):  # [u-part, v-part] of sum sign p1[i] phi2[j] over (i, j, sign)
        u = v = 0
        for i, j, sign in terms:
            a = sign * p1.get(i, 0)
            u += a * p2u.get(j, 0)
            v += a * p2v.get(j, 0)
        return [u, v]

    # (i) at z^n, times d1 d2: sum_{i+j=n} p1[i] p2[j] ((-1)^i - (-1)^j)
    report["wronskian_2z"] = all(
        pair_sum((i, n - i, 2 if i % 2 == 0 else -2) for i in range(n - 1, 1) if (n - i) % 2 != i % 2)
        == [2 * d1 * d2 if n == 1 else 0, 0]
        for n in range(1 - T, 2))

    # (ii) G is assembled from the even/odd parts a_k of phi1 and b_k of
    # z^-1 phi2; at Z^-n, det G d1 d2 = sum_{p+q=n} a_2p b_2q - b_(2p+1) a_(2q-1)
    report["det_g_one"] = all(
        pair_sum([(-2 * p, 1 - 2 * (n - p), 1) for p in range(n + 1)]
                 + [(1 - 2 * (n - p), -2 * p, -1) for p in range(n)])
        == [d1 * d2 if n == 0 else 0, 0]
        for n in range((T - 1) // 2 + 1))

    # (iii) at z^n, times 4 d1: 4n(n-1) a_n + 8(n-1) a_(n-1) = (4u - 1) a_n,
    # where 4u - 1 packs to 4 2^bits - 1
    four_u_minus_one = (4 << bits) - 1
    report["phi1_ode"] = all(
        4 * n * (n - 1) * p1.get(n, 0) + 8 * (n - 1) * p1[n - 1]
        == four_u_minus_one * p1.get(n, 0)
        for n in range(1 - T, 2))

    # (iv) at z^n, times 2 d2, with s = d2 / d1: the u-part is
    # s ((2n - 1) a_n + 2 a_(n-1)) = 2 b_n and the v-part s a_n = b_n
    report["phi2_from_phi1"] = all(
        s * ((2 * n - 1) * p1.get(n, 0) + 2 * p1[n - 1]) == 2 * p2u.get(n, 0)
        and s * p1.get(n, 0) == p2v.get(n, 0)
        for n in range(1 - T, 2))

    return report


def _wronskian_bits(T, d1, p1, d2, p2u, p2v):
    """A digit width at which ``verify_wronskian`` compares packed ints exactly.

    Packing is a ring map, so equal tuples pack to equal ints at any width.
    The converse holds when every coefficient c of the difference D of the
    two sides has |c| < 2^bits: the lowest nonzero c would have to be a
    multiple of 2^bits for D(2^bits) to vanish.  With N1 and N2 the largest
    L1 norms of the entries of p1 and of p2u, p2v, and s = d2 // d1, the
    coefficients of D are at most
      (i), (ii)  2 (T + 1) N1 N2 + 2 d1 d2: at most T + 1 products, each
                 times 2, against 2 d1 d2 (and (ii) is a sum of at most T);
      (iii)      4 (T^2 + T + 1) N1: |n (n - 1)| <= T (T - 1) and
                 |n - 1| <= T for 1 - T <= n <= 1, and 4u - 1 adds 4 N1;
      (iv)       s (2T + 1) N1 + 2 N2, since |2n - 1| <= 2T - 1.
    bits is the bit length of the largest, at least 1, with no sign bit
    added as the unpacking widths have, since nothing is unpacked.
    """
    n1, n2 = u_norm_max(p1.values()), u_norm_max([*p2u.values(), *p2v.values()])
    bound = max(2 * (T + 1) * n1 * n2 + 2 * d1 * d2,
                4 * (T * T + T + 1) * n1,
                d2 // d1 * (2 * T + 1) * n1 + 2 * n2)
    return (bound or 1).bit_length()


def _pfaffian_bits(entries):
    """A digit width that holds every coefficient of the Pfaffian of ``entries``.

    With 2m the order and N the largest L1 norm of an entry, the Pfaffian
    sums (2m-1)!! products of m entries, each with coefficients bounded by
    N^m, so every coefficient is below (2m-1)!! N^m < 2^(bits-1).  N is
    taken as at least 1, so that bits >= 2 (``u_unpack``) for a zero matrix.
    """
    m = len(entries) // 2
    norm = u_norm_max([p for row in entries for p in row]) or 1
    return (double_factorial(2 * m - 1) * norm ** m).bit_length() + 1


def _packed_pfaffian(entries):
    """The Pfaffian of an antisymmetric matrix of int u-tuples, as an int
    u-tuple: each entry is packed into one int (``u_pack``) at the width of
    ``_pfaffian_bits``, the Pfaffian runs on the ints, and its value is
    unpacked once."""
    bits = _pfaffian_bits(entries)
    return u_unpack(pfaffian([[u_pack(p, bits) for p in row] for row in entries]), bits)


def pfaffian_expansion_sides(parts):
    """Both sides of the Pfaffian/hypergeometric-weight identity for one
    strict partition: ((-1)^ceil(l/2) Pf(a_{mu_i,mu_j}), expansion weight).

    Each term of a Pfaffian of order 2m multiplies m entries
    a_{mu_i,mu_j} = h^(mu_i+mu_j) r P(u) whose indices cover mu once, so
    every term carries h^|lambda|.  The Pfaffian therefore runs at h = 1 on
    the int u-tuples r L P, with L the lcm of the denominators of the r
    (``_packed_pfaffian``), and leaves as h^|lambda| tuple / L^m.
    """
    parts = check_strict(parts)
    mu = parts if len(parts) % 2 == 0 else parts + (0,)
    pairs = [[affine_coeff(a, b) for b in mu] for a in mu]
    scale = lcm(*(r.denominator for row in pairs for r, _ in row))
    pf = _packed_pfaffian([[u_scale(p, r.numerator * scale // r.denominator) for r, p in row]
                           for row in pairs])
    sign = (-1) ** ((len(parts) + 1) // 2)
    return (ParamPoly.from_u(u_scale(pf, sign), scale ** (len(mu) // 2), eh=sum(parts)),
            hypergeom_coeff(parts))


def verify_pfaffian_expansion(parts):
    lhs, rhs = pfaffian_expansion_sides(parts)
    return lhs == rhs
