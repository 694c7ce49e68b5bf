"""Topological recursion on the curve x^2 y^2 = x^2 + S^2.

With the parametrization x = sqrt(z^2 - S^2), y = z/sqrt(z^2 - S^2) the
branch point sits at z = 0, the involution is z -> -z, and the recursion
kernel expands as

    K(z0, z) = (z^2 - s) / (2 z (z0^2 - z^2)) dz0/dz
             = -1/2 sum_{m>=0} (s z^(2m-1) - z^(2m+1)) / z0^(2m+2).

Stable invariants are finite:  omega_{g,n} = sum W[k] prod z_i^(-2k_i-2)
(times dz's) with finitely many nonzero W[k] in Q[s].  The recursion is
evaluated in coefficient space: for the bracket

    c(z) = omega_{g-1,n+2}(z,-z,·) + sum' omega(z,·) omega(-z,·)

(raw coefficient substitution; the sign of d(-z) and the -1/2 of the
kernel cancel), the new entry at z0^(-2m-2) is (1/2)(s c_{-2m} - c_{-2m-2}).
The bracket is built in index space, as one row per orbit of the external
indices (k_1 >= ... >= k_{n-1}, |k| <= bound), with row[j] the coefficient
at z^(-2j) prod z_i^(-2k_i-2).  Only the positions the kernel step reads
are built: 0 <= j <= bound + 4, where bound = omega_support_bound(g, n)
(entries up to m = bound + 3 are formed, so that the pole-bound guard sees
the slots just past the support).  Each table is stored one entry per
orbit, index 0 free, as the recursion singles out index 0 only; on the way
out, one value per orbit (_with_s) is placed at every ordering (_orderings).
Both recursions read a stored table in one layout, grouped by its externals:
{(k_1..k_{n-1}): [(k_0 + shift, value), ...]} (_grouped), with shift 1 in the
residue route, where k_0 sits at the power z^(-2k_0-2) of the bracket (_factor).

One recursion serves the standard and the type-B Bergman kernel, by
induction on 2g-2+n.  The (1,1) entry is seeded, since the type-B bracket
is singular on the diagonal.  The recursion kernel is shared, since the
integral of B from -z to z, 2z dz0/(z0^2 - z^2), is also that of its
z -> -z symmetrization.  The omega_{0,2} factor of the bracket is the
stream (m+1) (+-z)^m z_i^(-m-2), symmetrized to (m+1) (1 + (-1)^m)/2 for
type B; the two differ only at odd m, where z_i sits at an odd power that
no index reaches, so the parity rule makes them equal (compare_kernels).

The recursion tables are stored at s = 1, and s^e is attached only where a
table leaves the module.  This is exact because the recursion is graded:
with s of weight 2 and z, z_i of weight 1, the kernel, omega_{0,2} and the
seeds are homogeneous, so the entry of omega_{g,n} at k is the single
monomial c * s^(|k|+1-g).  The residue route stores D = 2^(3(2g-2+n)) * c:
each bracket term is a product of tables whose 2g-2+n add up to one less,
so (1/2)(s c_{-2m} - c_{-2m-2}) becomes 4 (c_{-2m} - c_{-2m-2}) on integers
and an entry's denominator divides 2^(3(2g-2+n)).  The coefficient route
stores the same D: in that scale its triangular solve is a division-free
integer recurrence (omega_closed_step), and the division by
2^(3(2g-2+n)) prod (2k_i+1)!! happens once, where the table leaves the
module.  It stores one entry per orbit of the externals as well, and
solves one orbit at a time.  The flat-coordinate
transform is graded too: each shift m_i of an index multiplies by s^(m_i),
so the B-entry at l sits at s^(|l|+1-g) as well: the transform runs on the
s = 1 tables, and x_tensor attaches s^e at the same boundary, handing out
(-1)^n (2l+1)!! B^l, the W coefficient of the equivalence theorem.

The transform runs on integers as well.  Its weight (-1/2)^m / m! for a
shift m of one index has a denominator dividing Z = 2^lmax lmax!, where
lmax = (max_weight - n) // 2 bounds |l|, so Z times it is the integer
(-1)^m 2^(lmax-m) lmax!/m!.  Applied to the residue table D, with the
integer (2k+2m+1)!!/(2k+1)!! folded into each weight, it gives
T = 8^(2g-2+n) Z^n (2l+1)!! B^l, and the division happens once, where a
value leaves the module; verify_equivalence_theorem cross-multiplies T with
the correlator and never divides.  The weight of a shift vector is a
product over the indices, so the n-fold sum is applied one index at a time.
That order is exact because every shift raises |l|: a partial sum already
past lmax reaches no target, and dropping it loses nothing.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod
from operator import mul

from .correlators import _insert, _splits, correlator_monomial
from .poly import ParamPoly, double_factorial
from .series import SparseTensor

__all__ = [
    "omega",
    "omega_closed_step",
    "omega_support_bound",
    "verify_equivalence_theorem",
    "compare_kernels",
]

_omega_cache = {}  # (g, n) -> {k: 2^(3(2g-2+n)) * coefficient at s = 1, an int}, k_1 >= ... >= k_{n-1}
_closed_cache = {}  # (g, n) -> {k: 8^(2g-2+n) * raw coefficient at s = 1, an int}, k_1 >= ... >= k_{n-1}


def _check_stable(g, n):
    if 2 * g - 2 + n <= 0 or g < 0 or n < 1:
        raise ValueError(f"({g},{n}) is not stable")


def omega_support_bound(g, n):
    """Upper bound for the z-pole order of a stable entry: poles have order
    at most 6g - 4 + 2n, i.e. indices k <= 3g - 3 + n."""
    return 3 * g - 3 + n


def _with_s(g, n, table):
    """The public tensor of a table stored at s = 1: entry k gets s^(|k|+1-g).
    A (nonzero) entry at a negative exponent breaks the grading."""
    t = SparseTensor(n)
    for kk, v in table.items():
        e = sum(kk) + 1 - g
        if e < 0:
            raise ArithmeticError(f"omega_({g},{n}) entry {kk} = {v} at negative s-exponent {e}")
        t.coeffs[kk] = ParamPoly.monomial(v, es=e)
    return t


def omega(g, n):
    """Raw coefficient tensor of omega_{g,n}: value at (k_1..k_n) multiplies
    prod z_i^(-2 k_i - 2)."""
    _check_stable(g, n)
    den = 8 ** (2 * g - 2 + n)  # the residue table's scale, divided out once per orbit
    t = _with_s(g, n, {k: Fraction(v, den) for k, v in _omega(g, n).items()})
    t.coeffs = _orderings(t.coeffs)  # each orbit's value, the same object at every ordering
    return t


def _omega(g, n):
    key = (g, n)
    out = _omega_cache.get(key)
    if out is not None:
        return out
    if (g, n) == (1, 1):
        # the standard bracket is omega_{0,2}(z,-z) = 1/(4 z^2), so c_{-2} = 1/4;
        # both kernels take this seed: -1/8 and 1/8, times 2^3
        out = {(0,): -1, (1,): 1}
    else:
        out = _recurse(g, n)
    _omega_cache[key] = out
    return out


def _bracket(g, next_n):
    """Rows of the recursion bracket for the entry (g, next_n), at scale
    2^(3(2g-2+next_n) - 3) (module docstring), in index space.

    Returns {ext: row}, one row per orbit ext of _orbits(next_n - 1, bound,
    bound), bound = omega_support_bound(g, next_n): row[j] is the coefficient
    of z^(-2j) prod z_i^(-2k_i-2), for j = 0..bound+4.  _recurse reads row[m]
    and row[m + 1] for m <= bound + 3 only, so nothing past bound + 4 is
    built, and nothing at a positive power of z.  (1, 1) is seeded, so the
    (g-1, n+2) term is stable.  Each factor is a sub-table in the grouped
    layout (_factor): the (g-1, n+2) term reads (a, b, ext) at (a, ext with
    b inserted in its place), and each split half reads a subsequence of ext.
    """
    n = next_n - 1
    bound = omega_support_bound(g, next_n)
    top = bound + 4
    # 1. the (g-1, n+2) term at (z, -z, externals): z^(-2a-2) (-z)^(-2b-2) sits at
    #    j = a + b + 2, so it scatters as a factor whose externals include b
    upper = _factor(g - 1, n + 1, top) if g >= 1 else {}
    # 2. splittings by position; each factor is omega_{0,2} with one external
    #    variable, or a stable entry; omega_{0,1} factors are excluded.
    #    Split h of ext is _splits(ext)[h], with halves of the sizes of halves[h];
    #    every factor but omega_{g,n+1} itself pairs with one that is not omega_{0,1}.
    halves = _splits(range(n))
    factors = {(gf, nf): _factor(gf, nf, top) for gf in range(g + 1) for nf in range(n + 1)
               if (gf or nf) and (gf < g or nf < n)}
    splits = [(h, factors[g1, len(I)], factors[g - g1, len(J)])
              for g1 in range(g + 1) for h, (I, J) in enumerate(halves) if (g1 or I) and (g1 < g or J)]
    rows = {}
    for ext in _orbits(n, bound, bound):
        row = [0] * (top + 1)
        for b in range(top - 1) if upper else ():
            for j, v in upper.get(_insert(ext, b), ()):
                if j + b < top:
                    row[j + b + 1] += v
        keys = _splits(ext)
        for h, left, right in splits:
            lkey, rkey = keys[h]
            terms2 = right.get(rkey)
            if terms2:
                for j1, v1 in left.get(lkey, ()):
                    for j2, v2 in terms2:
                        if 0 <= j1 + j2 <= top:
                            row[j1 + j2] += v1 * v2
        rows[ext] = row
    return rows


def _factor(gf, nf, top):
    """omega_{gf, nf+1}(+-z, z_1..z_nf) in index space, in the grouped layout
    {(k_1..k_nf): [(j, value), ...]}, each term at z^(-2j) prod z_i^(-2k_i-2).
    The caller excludes omega_{0,1}.

    A stable entry at (k_0, k_1..k_nf), stored with k_1 >= ... >= k_nf, sits
    at j = k_0 + 1; its power of z is even, so the sign of z drops out.
    omega_{0,2} is the stream of the module docstring after the parity rule:
    its term m = 2k sits at j = -k, k_1 = k, with value 2k + 1, for k <= top.
    """
    if gf == 0 and nf == 1:
        return {(k,): [(-k, 2 * k + 1)] for k in range(top + 1)}
    return _grouped(_omega(gf, nf + 1), 1)


def _grouped(table, shift=0):
    """A stored table grouped by its externals: {kk[1:]: [(kk[0] + shift, value), ...]}."""
    out = defaultdict(list)
    for kk, v in table.items():
        out[kk[1:]].append((kk[0] + shift, v))
    return out


def _recurse(g, next_n):
    """The entry (g, next_n) from its bracket rows: 4 (row[m] - row[m+1]) at
    (m, k_1..k_{next_n-1}) for m <= bound + 3."""
    bound = omega_support_bound(g, next_n)
    t = {}
    for ext, row in _bracket(g, next_n).items():
        for m in range(bound + 4):
            if row[m] != row[m + 1]:
                t[(m,) + ext] = 4 * (row[m] - row[m + 1])
    # finiteness: the slots just past the expected support must be empty
    for kk in t:
        if kk[0] > bound:
            raise ArithmeticError(f"omega_({g},{next_n}) support exceeds pole bound at {kk}")
    return t


def omega_closed_step(g, n):
    """The same tables through the simplified coefficient recursion.

    For fixed external indices the unknowns A^{m, kvec} satisfy the
    lower-triangular system (m = 0, 1, 2, ...)

      sum_{k0<=m} C(m,k0) (-s/2)^(m-k0) (2k0+1)!!/2^(k0+1) A^{k0,kvec}
        = - sum_i sum_{k0} C(m+1,k0) (-s/2)^(m+1-k0)
              (2k_i+2k0-1)!!/(2^k0 (2k_i-1)!!) A_{g,n-1}^{k_i+k0-1, rest}
          - 1/2 sum_{a+b<=m-1} C(m+1,a+b+2) (2a+1)!!(2b+1)!!/2^(a+b+2)
              (-s/2)^(m-1-a-b) [ A_{g-1,n+1}^{a,b,kvec} + splittings ],

    where the splittings exclude one- and two-point factors.  The display
    assumes every referenced sub-entry is stable; the two entries with an
    unstable bracket, (1,1) and (0,3), are evaluated from their explicit
    residue instances instead.

    The tables store D = 8^(2g-2+n) W at s = 1, with W = A * prod (2k_i+1)!!
    the raw coefficient (m included), as the residue route does.  Multiplying
    row m by 2^(m+1) * 8^(2g-2+n) * prod(2k_i+1)!! cancels every double
    factorial and power of -1/2: with sigma(m, k) = C(m, k) (-1)^(m-k),

      D^{m,kvec} = -[ 8 sum_i sum_{k0<=m+1} sigma(m+1,k0) (2k_i+1) D_{g,n-1}^{k_i+k0-1,rest}
                      + 4 sum_{a+b<=m-1} sigma(m+1,a+b+2) (D_{g-1,n+1}^{a,b,kvec} + splittings)
                      + sum_{k0<m} sigma(m,k0) D^{k0,kvec} ],

    a division-free recurrence on integers.  The division by
    8^(2g-2+n) prod (2k_i+1)!! happens once per orbit, here, where the table
    leaves the module; verify compares the stored D with the residue route's.

    Only nonincreasing kvec are solved, one per orbit, and each orbit's value is
    placed at every ordering.  Each sub-table is read grouped (_grouped): a split half
    and (g, n-1) read subsequences of kvec, (g-1, n+1) reads (a, b, kvec) at
    (a, kvec with b inserted in its place); only products with a + b < mmax count.
    """
    _check_stable(g, n)
    den = 8 ** (2 * g - 2 + n)
    t = _with_s(g, n, {k: Fraction(v, den * _dfact(k)) for k, v in _closed(g, n).items()})
    t.coeffs = _orderings(t.coeffs)
    return t


def _closed(g, n):
    key = (g, n)
    out = _closed_cache.get(key)
    if out is not None:
        return out
    if (g, n) == (1, 1):
        # Res K(z0,z) * omega_{0,2}(z,-z) with bracket the constant 1/(4z^2):
        # A^0 = -1/8, A^1 = (s/8)/3!!, so W = -1/8 and 1/8, times 8^1
        out = {(0,): -1, (1,): 1}
    elif (g, n) == (0, 3):
        # Res K(z0,z) (omega02(z,z1) omega02(-z,z2) + omega02(z,z2) omega02(-z,z1))
        # = s/(z0^2 z1^2 z2^2): W = 1, times 8^1
        out = {(0, 0, 0): 8}
    else:
        out = _closed_solve(g, n)
    _closed_cache[key] = out
    return out


def _closed_solve(g, n):
    ext_n = n - 1
    bound = omega_support_bound(g, n)
    mmax = bound + 3
    sigma = [[comb(m, k) * (-1) ** (m - k) for k in range(m + 1)] for m in range(mmax + 2)]
    # every sub-table read is stable: off the seeds (1, 1) and (0, 3), (g-1, n+1)
    # at g >= 1 and (g, n-1) at n >= 2 have 2g'-2+n' = 2g-3+n >= 1, and a split
    # half (g1, |I|+1) has 2g1-1+|I| >= 1, as |I| >= 2 when g1 = 0
    upper = _grouped(_closed(g - 1, n + 1)) if g >= 1 else {}
    lower = _grouped(_closed(g, n - 1)) if ext_n else {}
    halves = _splits(range(ext_n))
    # the splittings exclude one- and two-point factors; each names its half by
    # index, and each factor table is grouped once per solve
    pairs = [(h, (g1, len(I) + 1), (g - g1, len(J) + 1))
             for g1 in range(g + 1) for h, (I, J) in enumerate(halves)
             if (g1 or len(I) > 1) and (g1 < g or len(J) > 1)]
    tables = {key: _grouped(_closed(*key)) for key in {key for _, *keys in pairs for key in keys}}
    splits = [(h, tables[left], tables[right]) for h, left, right in pairs]
    t = {}
    # one external tuple per orbit, its total index bounded by the pole order
    # of (g, n); the residue route shares _orbits, so the Virasoro equivalence
    # guards this, not the entrywise comparison of the two routes
    for kvec in _orbits(ext_n, bound, bound):
        # the bracket depends on a + b only; (a, b, kvec) is stored at (a, _insert(kvec, b))
        inner = [0] * mmax
        for b in range(mmax) if upper else ():
            for a, v in upper.get(_insert(kvec, b), ()):
                if a + b < mmax:
                    inner[a + b] += v
        # the (left, right) keys of each half, shared by its g + 1 splits: subsequences of kvec
        keys = _splits(kvec) if splits else ()
        for h, left, right in splits:
            lkey, rkey = keys[h]
            rights = right.get(rkey)
            if rights:
                for a, lv in left.get(lkey, ()):
                    for b, rv in rights:
                        if a + b < mmax:
                            inner[a + b] += lv * rv
        # (2k_i + 1) times the (g, n-1) entries at (k_i + k0 - 1, rest), 0 <= k0.
        # k0 <= bound needs no test: the (g, n-1) table obeys its pole bound (it
        # is seeded, or its own guard raises), so idx <= bound - 1 and
        # k0 = idx - k_i + 1 <= bound < len(sub)
        sub = [0] * (mmax + 2)
        for pos, ki in enumerate(kvec):
            for idx, v in lower.get(kvec[:pos] + kvec[pos + 1:], ()):
                k0 = idx - ki + 1
                if k0 >= 0:
                    sub[k0] += (2 * ki + 1) * v
        # row m; each map stops at the shorter list: k0 <= m+1, a+b <= m-1, k0 < m
        solved = []
        for m in range(mmax + 1):
            row = sigma[m + 1]
            solved.append(-(8 * sum(map(mul, row, sub)) + 4 * sum(map(mul, row[2:], inner))
                            + sum(map(mul, sigma[m], solved))))
        for m, v in enumerate(solved):
            if v:
                if m > bound:
                    raise ArithmeticError(f"closed-step support exceeds pole bound for ({g},{n})")
                t[(m,) + kvec] = v
    return t


def _orbits(length, total, top):
    """Nonincreasing ``length``-tuples in [0, top], sum <= total, in lexicographic order: one per orbit."""
    if not length:
        return [()]
    return [(k,) + rest for k in range(min(top, total) + 1) for rest in _orbits(length - 1, total - k, k)]


def _orderings(table):
    """A table stored one entry per orbit, with its externals in every order."""
    return {(kk[0],) + ext: v for kk, v in table.items() for ext in set(permutations(kk[1:]))}


def _dfact(kk):
    """prod (2k_i + 1)!! over an index tuple."""
    return prod(double_factorial(2 * k + 1) for k in kk)


def normalized(tensor):
    """The A-normalization: raw coefficients over prod (2k_i + 1)!!.  Called by bench/checks.py and tests."""
    return SparseTensor(tensor.arity, {kk: ParamPoly({e: q / _dfact(kk) for e, q in v.terms.items()})
                                       for kk, v in tensor.coeffs.items()})


def _flat_scatter(raw, n, max_weight):
    """The z -> x transform on integers (module docstring), from raw
    coefficients W^k = (2k+1)!! A^k at s = 1: returns (T, Z^n) with
    T[l] / Z^n = (2l+1)!! B^l for every l with |l| <= lmax, where
    B^l = sum_{k+m=l} prod (-s)^(m_i)/(2^(m_i) m_i!) A^k.  Empty when
    max_weight < n."""
    lmax = (max_weight - n) // 2
    if lmax < 0:
        return {}, 1
    rows = _flat_weights(lmax)
    for i in range(n):
        out = {}
        for kk, v in raw.items():
            budget = lmax - sum(kk)
            if budget < 0:
                continue
            k = kk[i]
            head, tail, row = kk[:i], kk[i + 1:], rows[k]
            for m in range(budget + 1):
                ll = head + (k + m,) + tail
                out[ll] = out.get(ll, 0) + row[m] * v
        raw = out
    return {ll: v for ll, v in raw.items() if v}, (2 ** lmax * factorial(lmax)) ** n


def _flat_weights(lmax):
    """rows[k][m] = (-1)^m 2^(lmax-m) lmax!/m! (2k+2m+1)!!/(2k+1)!!, k + m <= lmax."""
    return [[(-1) ** m * 2 ** (lmax - m) * (factorial(lmax) // factorial(m))
             * (double_factorial(2 * (k + m) + 1) // double_factorial(2 * k + 1))
             for m in range(lmax - k + 1)] for k in range(lmax + 1)]


def _b01(k):
    """B^k_{0,1} at s = 1: -(-1)^(k+1) / (2^(k+1) (k+1)! (2k+1)), at s^(k+1)."""
    return -Fraction((-1) ** (k + 1), 2 ** (k + 1) * factorial(k + 1) * (2 * k + 1))


def _b02(k1, k2):
    """B^{k1,k2}_{0,2} at s = 1: (-1)^w / (2^w k1! k2! w), w = k1+k2+1, at s^w."""
    w = k1 + k2 + 1
    return Fraction((-1) ** w, 2 ** w * factorial(k1) * factorial(k2) * w)


def x_tensor(g, n, max_weight):
    """The W coefficients of omega_{g,n} in the flat coordinate:
    (-1)^n (2l+1)!! B^l at l, which by the equivalence theorem is the
    correlator <p_{2l_1+1} ... p_{2l_n+1}>_g."""
    t, scale = _x_table(g, n, max_weight)
    scale *= (-1) ** n
    return _with_s(g, n, {ll: Fraction(v, scale) for ll, v in t.items()})


def _x_table(g, n, max_weight):
    """(T, scale) with (2l+1)!! B^l = T[l] / scale at s = 1: integers from the
    residue table, or the (0,1) and (0,2) closed forms with scale 1."""
    if (g, n) == (0, 1):
        return {(k,): _dfact((k,)) * _b01(k) for k in range((max_weight - 1) // 2 + 1)}, 1
    if (g, n) == (0, 2):
        kmax = (max_weight - 2) // 2
        return {(k1, k2): _dfact((k1, k2)) * _b02(k1, k2)
                for k1 in range(kmax + 1) for k2 in range(kmax - k1 + 1)}, 1
    _check_stable(g, n)
    # the residue table holds 8^(2g-2+n) W at s = 1, the raw coefficients
    t, scale = _flat_scatter(_orderings(_omega(g, n)), n, max_weight)
    return t, 8 ** (2 * g - 2 + n) * scale


def verify_equivalence_theorem(g, n, max_weight):
    """Check B^k prod(2k_i+1)!! = (-1)^n <p_{2k_1+1} ... p_{2k_n+1}>_g
    for every k with sum (2k_i + 1) <= max_weight.  Both sides are compared
    at s = 1: they sit at the same s-exponent |k|+1-g by the grading.  The
    comparison cross-multiplies the integer T[k] of _x_table with the
    coefficient of correlator_monomial.

    Returns (ok, mismatches, checked).
    """
    t, scale = _x_table(g, n, max_weight)
    sign = (-1) ** n
    mismatches = []
    checked = 0
    kmax = (max_weight - n) // 2
    for kvec in product(range(kmax + 1), repeat=n):
        if sum(kvec) > kmax:  # sum (2k_i + 1) > max_weight
            continue
        c = correlator_monomial(g, tuple(sorted((2 * k + 1 for k in kvec), reverse=True)))[1]
        lhs = t.get(kvec, 0)
        checked += 1
        if lhs * c.denominator != sign * c.numerator * scale:
            mismatches.append((kvec, Fraction(lhs, scale) if lhs else 0, sign * c))
    return not mismatches, mismatches, checked


def _omega02_streams(top):
    """omega_{0,2}(sigma z, z_1) near z = 0 as {kernel: [(m, coefficient of z^m z_1^(-m-2))]},
    m <= 2*top: (m+1) sigma^m at sigma = +-1, and (m+1) (1 + (-1)^m)/2 for type B."""
    return {"standard, sigma=+1": [(m, m + 1) for m in range(2 * top + 1)],
            "standard, sigma=-1": [(m, (m + 1) * (-1) ** m) for m in range(2 * top + 1)],
            "typeB": [(m, (m + 1) * (1 + (-1) ** m) // 2) for m in range(2 * top + 1)]}


def compare_kernels(pairs):
    """Each stream of _omega02_streams, after the parity rule, must equal the
    omega_{0,2} factor of each pair's bracket.  (1,1) is seeded and skipped.
    Returns (ok, [(g, n, kernel)], compared), compared counting the other pairs."""
    compared = [(g, n) for (g, n) in pairs if (g, n) != (1, 1)]
    mismatches = []
    for (g, n) in compared:
        _check_stable(g, n)
        top = omega_support_bound(g, n) + 4
        factor = _factor(0, 1, top)
        mismatches += [(g, n, kernel) for kernel, stream in _omega02_streams(top).items()
                       if {(m // 2,): [(-(m // 2), v)] for m, v in stream if m % 2 == 0} != factor]
    return not mismatches, mismatches, len(compared)
