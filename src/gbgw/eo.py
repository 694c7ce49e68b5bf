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
Both recursions read each sub-table once per distinct key of an orbit.  A
split half reads its table grouped by the externals: {(k_1..k_{n-1}):
[(k_0 + shift, value), ...]} (_grouped), with shift 1, where k_0 sits at the
power z^(-2k_0-2) of the bracket (_factor).  The term one genus down reads
(a, b, ext) through the contracted view (_contracted): each entry is filed
under its externals with one distinct b removed, at k_0 + b + 2, so an orbit
reads every b in one lookup.  An orbit walks its distinct splits I|J once
(_split_classes, doubling over the runs of tied externals), and scales each
left value by the number of splits by position that give the same pair of
keys.  The coefficient route reads its (g, n-1) term off the same classes:
a class with |I| = 1 removes one k_i, weighted by the count of k_i.

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

from .correlators import correlator_monomial
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
    (g-1, n+2) term is stable.  That term reads its table through the
    contracted view (_contracted), one lookup per orbit for every b.  Each
    split half reads a factor in the grouped layout (_factor), once per
    distinct split of ext (_split_classes), its left values scaled by the
    number of splits by position that give the same pair of keys.
    """
    n = next_n - 1
    bound = omega_support_bound(g, next_n)
    top = bound + 4
    # 1. the (g-1, n+2) term at (z, -z, externals): z^(-2a-2) (-z)^(-2b-2) sits at
    #    j = a + b + 2
    upper = _contracted(_omega(g - 1, n + 2)) if g >= 1 else {}
    # 2. splittings; each factor is omega_{0,2} with one external variable, or a
    #    stable entry; omega_{0,1} factors are excluded.  by_size[|I|] lists the
    #    factor pairs of a split whose left half has |I| externals; every factor
    #    but omega_{g,n+1} itself pairs with one that is not omega_{0,1}.
    factors = {(gf, nf): _factor(gf, nf, top) for gf in range(g + 1) for nf in range(n + 1)
               if (gf or nf) and (gf < g or nf < n)}
    by_size = [[(factors[g1, size], factors[g - g1, n - size]) for g1 in range(g + 1)
                if (g1 or size) and (g1 < g or size < n)] for size in range(n + 1)]
    rows = {}
    for ext in _orbits(n, bound, bound):
        row = [0] * (top + 1)
        for j, v in upper.get(ext, ()):
            if j <= top:
                row[j] += v
        for size, lkey, rkey, mult in _split_classes(ext):
            for left, right in by_size[size]:
                terms2 = right.get(rkey)
                if terms2:
                    for j1, v1 in left.get(lkey, ()):
                        v1 *= mult
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


def _contracted(table):
    """A stored table as the term one genus down reads it, with one external b
    folded into k_0: {ext without b: [(k_0 + b + 2, value), ...]}, one term
    per distinct value b of ext.  An orbit kvec reads, in one lookup, the
    entry at (a, kvec with b inserted in its place) for every b, at a + b + 2:
    the bracket position of z^(-2a-2) (-z)^(-2b-2) in the residue route, and
    the binomial index sigma(m+1, a+b+2) in the coefficient route."""
    out = defaultdict(list)
    for kk, v in table.items():
        ext = kk[1:]
        for i, b in enumerate(ext):
            if not i or b != ext[i - 1]:  # a tied b removes to the same key
                out[ext[:i] + ext[i + 1:]].append((kk[0] + b + 2, v))
    return out


def _split_classes(kvec):
    """The distinct splits I|J of a nonincreasing tuple into two
    subsequences, as (len(I), I, J, mult): mult counts the splits by
    position that give the pair, the product of C(c, t) over the runs of c
    equal values of which t go to I.  Built by doubling over the runs."""
    classes = [(0, (), (), 1)]
    n = len(kvec)
    start = 0
    while start < n:
        end = start + 1
        while end < n and kvec[end] == kvec[start]:
            end += 1
        c = end - start
        binomials = [1] * (c + 1)
        for t in range(1, c):
            binomials[t] = binomials[t - 1] * (c - t + 1) // t
        classes = [(size + t, I + kvec[start:start + t], J + kvec[start + t:end], mult * w)
                   for size, I, J, mult in classes for t, w in enumerate(binomials)]
        start = end
    return classes


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
    placed at every ordering.  A split half and (g, n-1) read subsequences of
    kvec in the grouped layout (_grouped), once per distinct split or removal
    (_split_classes), weighted by its multiplicity; (g-1, n+1) reads (a, b, kvec)
    at (a, kvec with b inserted in its place), for every b in one lookup of the
    contracted view (_contracted).  Only products with a + b < mmax count.

    The first two sums are dotted with the same row sigma(m+1, .), so they are
    accumulated into one right-hand side, a quarter of it:
    rhs[k] = 2 sub[k] + inner[k-2], with 8 sub the (g, n-1) sum and inner the
    bracket.  Each row then makes two sums.  The system is still solved row by
    row: its closed inverse, 4 (rhs[m] - rhs[m+1]), is the residue route's
    kernel step, and would make the comparison of the two routes compare that
    step with itself.
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
    # half (g1, |I|+1) has 2g1-1+|I| >= 1, as |I| >= 2 when g1 = 0.  The bracket
    # terms land at rhs[a + b + 2]: the contracted view puts them there, and
    # the split halves are grouped at shift 1
    upper = _contracted(_closed(g - 1, n + 1)) if g >= 1 else {}
    lower = _grouped(_closed(g, n - 1)) if ext_n else {}
    # the splittings exclude one- and two-point factors; by_size[|I|] lists the
    # factor pairs of a split whose left half has |I| externals, and each
    # factor table is grouped once per solve
    pairs = [[((g1, size + 1), (g - g1, ext_n - size + 1)) for g1 in range(g + 1)
              if (g1 or size > 1) and (g1 < g or ext_n - size > 1)] for size in range(ext_n + 1)]
    tables = {key: _grouped(_closed(*key), 1) for key in {key for row in pairs for pair in row for key in pair}}
    by_size = [[(tables[left], tables[right]) for left, right in row] for row in pairs]
    t = {}
    # one external tuple per orbit, its total index bounded by the pole order
    # of (g, n); the residue route shares _orbits, so the Virasoro equivalence
    # guards this, not the entrywise comparison of the two routes
    for kvec in _orbits(ext_n, bound, bound):
        # a quarter of the right-hand side: rhs[k] = 2 sub[k] + inner[k - 2], where
        # inner[a + b] is the bracket, read for a + b <= mmax - 1 only
        rhs = [0] * (mmax + 2)
        for j, v in upper.get(kvec, ()):
            if j <= mmax + 1:
                rhs[j] += v
        # each distinct split once, weighted by mult.  A split with |I| = 1 is
        # also a distinct removal of one k_i for the (g, n-1) term: sub[k0] is
        # (2k_i + 1) times the (g, n-1) entries at (k_i + k0 - 1, rest), 0 <= k0,
        # weighted by the count of k_i.  k0 <= bound needs no test: the
        # (g, n-1) table obeys its pole bound (it is seeded, or its own guard
        # raises), so idx <= bound - 1 and k0 = idx - k_i + 1 <= bound
        for size, lkey, rkey, mult in _split_classes(kvec):
            if size == 1:
                ki = lkey[0]
                weight = 2 * (2 * ki + 1) * mult
                for idx, v in lower.get(rkey, ()):
                    k0 = idx - ki + 1
                    if k0 >= 0:
                        rhs[k0] += weight * v
            for left, right in by_size[size]:
                rights = right.get(rkey)
                if rights:
                    for a, lv in left.get(lkey, ()):
                        lv *= mult
                        for b, rv in rights:
                            if a + b <= mmax + 1:
                                rhs[a + b] += lv * rv
        # row m; each map stops at the shorter list: k <= m+1 and k0 <= m, where
        # solved[m] is still 0
        solved = [0] * (mmax + 1)
        for m in range(mmax + 1):
            solved[m] = -(4 * sum(map(mul, sigma[m + 1], rhs)) + sum(map(mul, sigma[m], solved)))
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
