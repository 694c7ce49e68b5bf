"""Connected correlators of the generalized BGW model from the Virasoro recursion.

With the largest part 2k+1 distinguished, the recursion reads

    <p_{2k+1} p_mu>_g = 1/2 sum_{a+b=2k, a,b odd>0} ( <p_a p_b p_mu>_{g-1}
                          + sum_{g1+g2=g, I|J=mu} <p_a p_I>_{g1} <p_b p_J>_{g2} )
                        + sum_i mu_i <p_{mu_i+2k} p_{mu minus i}>_g,

seeded by <p_1>_0 = -s/2, <p_1>_1 = 1/8, <p_1>_g = 0 for g >= 2, with
genus -1 correlators zero.  Every right-hand key has strictly smaller
weight by construction: a + b = 2k is one less than the distinguished
part 2k+1, and a merged part mu_i + 2k replaces both mu_i and 2k+1.
Values are monomials c * s^e with e = (|mu| - n + 2 - 2g)/2 (zero when
that exponent would be negative).

The table holds the integers C(g, mu) = 2^(|mu|+2g) * c at s = 1.  On them
the recursion is C = 4 sum C_{g-1} + sum C_left C_right + 2 sum mu_i C_g,
seeded by C(0,(1)) = -1 and C(1,(1)) = 1: it never divides, so the
denominator of c divides 2^(|mu|+2g).  Evaluating at s = 1 is exact because
the recursion is graded: every term on the right has the same
|mu| - n + 2 - 2g as the left side, and the seeds are monomials with that
exponent halved.  So each correlator is the single monomial c * s^e with e
known from its key; C is divided and s^e attached where a value leaves.

The sum is symmetric under a <-> b: the split term (a, g1, I) equals the
term (b, g2, J), and the upper term is the same for (a, b) and (b, a).  So
a step sums over a <= b only, with weight 2 when a != b and weight 1 when
a = b.  Every sub-key of a step (the upper keys, the split pairs over the
subsets of the remaining parts, the merged keys) is formed once per
(parts, pick) and shared by every genus; each key is formed by inserting a
part into its place, or by doubling over a descending tuple, rather than by
sorting.  The table holds one dict per genus, so a read is one lookup on the
parts alone.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, lcm, prod

from .poly import ParamPoly, ZERO
from .series import SparseTensor

__all__ = [
    "check_odd_partition",
    "correlator",
    "correlator_monomial",
    "one_point_closed",
    "wgn",
    "w02_closed",
    "verify_special_deformation",
    "odd_partitions",
]

_cache = defaultdict(dict)  # g -> {parts: the int 2^(|parts|+2g) * coefficient at s = 1}
# (parts, pick) -> ([(weight, upper key, [(I + a, J + b)] over the splits I|J of rest)]
#                   per a <= b, [(mu_i, merged key)]), every key descending
_step_cache = {}
_SEEDS = {0: -1, 1: 1}  # <p_1>_0 = -s/2 and <p_1>_1 = 1/8, scaled


def check_odd_partition(parts):
    parts = tuple(sorted(parts, reverse=True))
    for p in parts:
        if p <= 0:
            raise ValueError(f"parts must be positive: {parts}")
        if p % 2 == 0:
            raise ValueError(f"parts must be odd: {parts}")
    return parts


def correlator(g, parts):
    """<p_{mu_1} ... p_{mu_n}>_g as an exact polynomial (monomial) in s."""
    e, c = correlator_monomial(g, parts)
    return ZERO if e is None else ParamPoly.monomial(c, es=e)


def correlator_monomial(g, parts):
    """(exponent, coefficient) of the single s-monomial, or (None, 0) if zero."""
    parts = check_odd_partition(parts)
    if g < 0:
        return None, Fraction(0)
    if not parts:
        raise ValueError("empty correlator is not defined")
    return _graded(g, parts, _corr(g, parts))


def _graded(g, parts, scaled):
    """(e, c) for the scaled table value C = 2^(|parts|+2g) * c of <p_parts>_g,
    or (None, 0) if it is zero.  A nonzero c at a negative e breaks the grading."""
    if not scaled:
        return None, Fraction(0)
    c = Fraction(scaled, 2 ** (sum(parts) + 2 * g))
    e = (sum(parts) - len(parts) + 2 - 2 * g) // 2
    if e < 0:
        raise ArithmeticError(f"<p_{parts}>_{g} = {c} at negative s-exponent {e}")
    return e, c


def _corr(g, parts):
    """C(g, parts), computed and stored on a miss: the one place that fills the
    table.  Callers that hold a genus table read it inline and call this only
    on a miss."""
    table = _cache[g]
    out = table.get(parts)
    if out is None:
        out = table[parts] = _SEEDS.get(g, 0) if parts == (1,) else _expand(g, parts, 0)
    return out


def _insert(parts, p):
    """The descending tuple ``parts`` with the part ``p`` added in its place."""
    for i, q in enumerate(parts):
        if q <= p:
            return parts[:i] + (p,) + parts[i:]
    return parts + (p,)


def _expand(g, parts, pick):
    """One recursion step distinguishing the part at position ``pick`` of the
    descending-sorted tuple, on the scaled table.  Every sub-key drops in weight
    by one or more (see the module docstring)."""
    splits, merges = _step_cache.get((parts, pick)) or _step_keys(parts, pick)
    upper = pairs = total = 0

    lower = _cache[g - 1] if g >= 1 else None
    for weight, up, keys in splits:
        if lower is not None:
            c = lower.get(up)
            if c is None:
                c = _corr(g - 1, up)
            upper += weight * c
        step = 0
        for g1 in range(g + 1):
            g2 = g - g1
            t1, t2 = _cache[g1], _cache[g2]
            for left, right in keys:
                cl = t1.get(left)
                if cl is None:
                    cl = _corr(g1, left)
                if cl:
                    cr = t2.get(right)
                    if cr is None:
                        cr = _corr(g2, right)
                    if cr:
                        step += cl * cr
        pairs += weight * step
    same = _cache[g]
    for m, key in merges:
        c = same.get(key)
        if c is None:
            c = _corr(g, key)
        if c:
            total += m * c
    return 4 * upper + pairs + 2 * total


def _splits(parts, left=-1, right=-1):
    """The splits I|J of the tuple ``parts``, as pairs of subsequences,
    built by doubling over ``parts``: a descending tuple splits into
    descending halves.  All 2^n splits, or the 2^(n-2) that put parts[left]
    in I and parts[right] in J."""
    splits = [((), ())]
    for at, p in enumerate(parts):
        splits = (([(I + (p,), J) for I, J in splits] if at != right else [])
                  + ([(I, J + (p,)) for I, J in splits] if at != left else []))
    return splits


def _step_keys(parts, pick):
    """The sub-keys of one step distinguishing ``parts[pick]``, memoized per
    (parts, pick): per a <= b with a + b = parts[pick] - 1, the weight, the
    upper key rest + a + b and the 2^n key pairs (I + a, J + b) over the
    splits I|J of rest, read off the upper key with a pinned to I and b to
    J; and per remaining part mu_i, the merged key."""
    rest = parts[:pick] + parts[pick + 1:]
    k = (parts[pick] - 1) // 2
    splits = []
    for a in range(1, k + 1, 2):
        b = 2 * k - a
        up = _insert(_insert(rest, a), b)
        j = up.index(b)  # b >= a comes first; a tied with b sits just after it
        splits.append((1 if a == b else 2, up, _splits(up, j + 1 if a == b else up.index(a), j)))
    merges = [(m, _insert(rest[:i] + rest[i + 1:], m + 2 * k)) for i, m in enumerate(rest)]
    out = _step_cache[(parts, pick)] = (splits, merges)
    return out


def correlator_expand_distinguishing(g, parts):
    """Recompute a correlator distinguishing its smallest part, not the
    largest (for the distinguished-part-independence check); sub-calls hit
    the main memo."""
    parts = check_odd_partition(parts)
    if parts == (1,):
        return correlator(g, parts)
    e, c = _graded(g, parts, _expand(g, parts, len(parts) - 1))
    return ZERO if e is None else ParamPoly.monomial(c, es=e)


def one_point_closed(n):
    """Closed form <p_{2n+1}>_0 = (-1)^(n+1)/2^(2n+1) * C(2n,n)/(n+1) * s^(n+1)."""
    c = Fraction((-1) ** (n + 1), 2 ** (2 * n + 1)) * Fraction(comb(2 * n, n), n + 1)
    return ParamPoly.monomial(c, es=n + 1)


def odd_partitions(max_weight, max_len):
    """Descending tuples of odd positive parts with the given bounds."""
    out = []

    def extend(prefix, remaining, cap):
        if prefix:
            out.append(prefix)
        if len(prefix) == max_len:
            return
        top = min(remaining, cap)
        if top % 2 == 0:
            top -= 1
        for p in range(top, 0, -2):
            extend(prefix + (p,), remaining - p, p)

    extend((), max_weight, max_weight)
    out.sort(key=lambda mu: (sum(mu), len(mu), mu))
    return out


def wgn(g, n, max_weight):
    """n-point coefficient tensor: value at (-mu_1-1, ..., -mu_n-1) is
    <p_mu>_g, for all odd mu with |mu| <= max_weight (all orderings)."""
    t = SparseTensor(n)
    for mu in odd_partitions(max_weight, n):
        if len(mu) != n:
            continue
        value = correlator(g, mu)
        if not value:
            continue
        for perm in set(permutations(mu)):
            t.coeffs[tuple(-m - 1 for m in perm)] = value
    return t


def _inv_sqrt_coeffs(m_max):
    """4^m_max (1 + x^-2)^(-1/2) at x^(-2m), m = 0..m_max, as ints:
    C(-1/2, m) = (-1)^m C(2m, m) / 4^m."""
    return [(-1) ** m * comb(2 * m, m) * 4 ** (m_max - m) for m in range(m_max + 1)]


def w02_closed(depth):
    """W_{0,2} from its closed form, as a 2-variable coefficient dict.

    numerator = (x^2 + y^2 + 2 s)/sqrt((1+s/x^2)(1+s/y^2)) - x^2 - y^2 is
    divided by (x^2 - y^2)^2 by long division in x, with an explicit
    no-remainder check: the quotient must have no term at y^0 or y^2.
    Returns {(ex, ey): coeff} with entries down to exponent -depth in each
    slot.  The quotient at (i, j) reads the numerator down to y^(i+j+2),
    so the division runs down to y^(-2 depth).

    The division runs at s = 1, and s^((-i-j-2)/2) is attached at (i, j)
    where the dict is returned.  This is exact by the grading: with s of
    weight 2, (1+s x^-2)^(-1/2) is homogeneous, so the numerator at (i, j)
    is a single monomial in s^((2-i-j)/2), and dividing by (x^2-y^2)^2
    keeps that degree.  Each factor (1+x^-2)^(-1/2) is scaled by 4^m_max,
    so the numerator and the quotient are integers over 4^(2 m_max).
    """
    d = 2 * depth
    m_max = depth + 1  # (1+x^-2)^(-1/2) through x^(-d-2)
    scale = 4 ** (2 * m_max)
    inv_sqrt = _inv_sqrt_coeffs(m_max)
    num = {}
    for m1, cx in enumerate(inv_sqrt):
        for m2, cy in enumerate(inv_sqrt):
            c, i, j = cx * cy, -2 * m1, -2 * m2
            num[(i + 2, j)] = num.get((i + 2, j), 0) + c
            num[(i, j + 2)] = num.get((i, j + 2), 0) + c
            num[(i, j)] = num.get((i, j), 0) + 2 * c
    num[(2, 0)] = num.get((2, 0), 0) - scale
    num[(0, 2)] = num.get((0, 2), 0) - scale
    # divide by x^4 - 2 x^2 y^2 + y^4:  q[i,j] = n[i+4,j] + 2 q[i+2,j-2] - q[i+4,j-4]
    q = {}
    for i in range(-2, -depth - 1, -2):
        for j in range(2, -d - 1, -2):
            val = num.get((i + 4, j), 0) + 2 * q.get((i + 2, j - 2), 0) - q.get((i + 4, j - 4), 0)
            if val:
                q[(i, j)] = val
    # no term at y^0 or y^2 leaves none at any y^j, j >= 0: the numerator has no y^4
    if any(j >= 0 for _, j in q):
        raise ArithmeticError("nonzero remainder dividing by (x^2-y^2)^2")
    return {(i, j): ParamPoly.monomial(Fraction(v, scale), es=(-i - j - 2) // 2)
            for (i, j), v in q.items() if j >= -depth}


def _aut(mu):
    """prod_j m_j!, for the multiplicities m_j of the parts of mu."""
    return prod(factorial(mu.count(p)) for p in set(mu))


def _dF0_series(nu, xlo):
    """d F_0 / d t : the series sum_n <p_{2n+1} p_nu>_0 / aut(nu) x^{-2n-2},
    for one t-monomial nu, down to exponent xlo, at s = 1, as {exponent: Fraction}."""
    aut = _aut(nu)
    out = {}
    for e in range(-2, xlo - 1, -2):
        c = correlator_monomial(0, nu + (-e - 1,))[1]
        if c:
            out[e] = c / aut
    return out


def verify_special_deformation(degree=4, min_order=-20, part_cap=13):
    """Check that all strictly negative x-powers of y^2 equal s * x^-2.

    y = sum_n (2n+1)(t_{2n+1} - delta_{n,0}) x^{2n}
        + sum_n dF0/dt_{2n+1} x^{-2n-2},
    assembled per t-monomial with parts <= part_cap; F0 enters through
    correlators with at most ``degree`` points, and the identity is checked
    for every monomial of total degree <= degree - 1 down to x^min_order.

    The check runs at s = 1, which is exact by the grading: the coefficient
    of t^nu x^e in y, and so in y^2, is a single monomial at
    s^((|nu| - len(nu) - e)/2), so it vanishes iff its value at s = 1 does,
    and the target s x^-2 is the value 1 at nu = (), e = -2.  Every series
    of y is put over one integer scale, the lcm of its denominators, so y^2
    holds integers over scale^2 and the target is scale^2.

    y is summed down to x^xlo, xlo = min_order - part_cap - 1.  Its top
    exponent is at most max(part_cap - 1, 0) (the t_p x^(p-1) terms and
    the -1 at x^0), so a product with a factor below x^xlo lands below
    x^min_order: the truncation cannot reach a compared exponent.  Only
    the term pairs that land in [min_order, -1] are multiplied.

    Returns (ok, failures, checked) where failures lists (monomial,
    exponent, value), the value a Fraction or the int 0, and checked counts
    the (monomial, exponent) pairs compared.
    """
    xlo = min_order - part_cap - 1
    y = {(): {0: -1}}
    for p in range(1, part_cap + 1, 2):
        y[(p,)] = {p - 1: p}
    monomials = [()] + [mu for mu in odd_partitions((degree - 1) * part_cap, degree - 1)
                        if all(p <= part_cap for p in mu)]
    for nu in monomials:
        series = _dF0_series(nu, xlo)
        if series:  # its exponents are negative, those of the t_p terms not
            y.setdefault(nu, {}).update(series)
    scale = lcm(*(c.denominator for series in y.values() for c in series.values()))
    y = [(nu, [(e, c.numerator * (scale // c.denominator)) for e, c in series.items()])
         for nu, series in y.items()]

    y2 = {}
    for idx, (nu1, s1) in enumerate(y):
        for nu2, s2 in y[idx:]:
            nu = tuple(sorted(nu1 + nu2, reverse=True))
            if len(nu) > degree - 1:
                continue
            weight = 1 if nu1 == nu2 else 2
            row = y2.setdefault(nu, {})
            for i, a in s1:
                for j, b in s2:
                    if min_order <= i + j < 0:
                        row[i + j] = row.get(i + j, 0) + weight * a * b

    failures = []
    target = scale * scale
    exponents = range(-1, min_order - 1, -1)
    for nu, row in sorted(y2.items()):
        for e in exponents:
            got = row.get(e, 0)
            if got != (target if (nu == () and e == -2) else 0):
                failures.append((nu, e, Fraction(got, target) if got else 0))
    return not failures, failures, len(y2) * len(exponents)
