"""Connected n-point functions from the affine-coordinate cycle-sum formula.

For n >= 1 the correlators of log tau(t/2) are generated by

    sum <...> x_1^{-i_1} ... x_n^{-i_n}
        = -delta_{n,2} * sum_{m odd} (m/2) x_1^-m x_2^m
          - 2^(n-1) * [ sum_{cycles} prod_i xi(x_{c(i)}, -x_{c(i+1)}) ]_odd,

with xi drawn from the generating series A (1-point case) or At (the
tail-corrected series), sign-twisted by which slot of At carries which
variable.  The positive powers entering through the tail of At cancel in
the total; truncation windows make this an approximation whose soundness
is established by the recompute-at-a-larger-window stability protocol.
The entries of At arrive as the (r, P) pairs of ``affine._direct_a``
(h^-(i+j) times a rational times an int u-tuple), so the sum runs at h = 1
under one integer scale and builds a ParamPoly only for its output.  Each
scaled u-tuple P enters the cycle sum packed as the single int P(2^bits)
(``u_pack``), so a product or sum of u-polynomials is one int operation;
packing is a ring map Z[u] -> Z, and each output value is unpacked once,
which is exact while its coefficients stay below 2^(bits-1).  With L the
largest L1 norm of a scaled entry, every output coefficient is a sum over
at most (n-1)! cycles and |At|^n paths of terms bounded by L^n, so
bits = bit_length((n-1)! (|At| L)^n) + 1 suffices (``_pack_bits``).

The same correlators are reachable through the Virasoro pipeline; the
exact bridge for an odd partition mu with n parts is

    2^-n * h^n * sum_g h^(2g-2) <p_mu>_g |_{s -> h^2 u},

a finite sum by homogeneity, with total h-degree |mu|.  All of it is in
(h, u); a rational u is substituted once, where a value leaves (``poly.at_u``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, lcm

from .affine import _direct_a, _entry_poly, _with_tail, affine_coeff
from .correlators import check_odd_partition, correlator_monomial, odd_partitions
from .poly import ParamPoly, u_add, u_norm_max, u_pack, u_scale, u_unpack
from .series import SparseTensor

__all__ = [
    "AFFINE_ARITY_MAX",
    "correction_term",
    "cycles",
    "one_point_affine",
    "npoint_affine",
    "bridge",
    "crosscheck_affine_vs_virasoro",
    "WindowInstabilityError",
]


# the largest n for which the tail window of ``_tail_hi`` has passed the
# positive-exponent guard of ``npoint_affine``; the CLI rejects larger n
AFFINE_ARITY_MAX = 4


class WindowInstabilityError(ArithmeticError):
    """Recomputing with a larger window changed a target coefficient."""


def correction_term(max_order):
    """The n=2 correction sum_{m odd} (m/2) x1^-m x2^m as a sparse tensor of Fractions."""
    return SparseTensor(2, {(-m, m): Fraction(m, 2) for m in range(1, max_order + 1, 2)})


def cycles(n):
    """The (n-1)! cyclic orders on {1..n}, each starting at 1, deterministic."""
    return [(1,) + rest for rest in permutations(range(2, n + 1))]


def one_point_affine(max_weight):
    """One-point series A(-x, x) from the direct double sum.

    At x^-mu (mu odd) it is a_{0,mu} + sum_{n+m=mu} (-1)^(m+1) a_{n,m}, the
    odd projection -[A(x,-x)]_odd: for odd mu the sign (-1)^(m+1) is (-1)^n.
    Every a_{n,m} = h^mu r_{n,m} P_n P_m with n + m = mu shares the power of
    h, so the sum runs on the memoized (r, P) pairs of ``affine_coeff``, on
    int u-tuples over L, the lcm of the denominators of the r_{n,m}, and
    leaves as one ParamPoly h^mu tuple / L.
    Returns {exponent: value} for odd exponents.
    """
    out = {}
    for mu in range(1, max_weight + 1, 2):
        pairs = [affine_coeff(n, mu - n) for n in range(mu)]  # n != mu - n: every r is nonzero
        scale = lcm(*(r.denominator for r, _ in pairs))
        total = ()
        for n, (r, p) in enumerate(pairs):
            total = u_add(total, u_scale(p, (-1) ** n * r.numerator * scale // r.denominator))
        if total:
            out[-mu] = _entry_poly((-mu,), (Fraction(1, scale), total))
    return out


def _pack_bits(n, at):
    """A digit width that holds every coefficient of an n-point cycle sum.

    With L the largest L1 norm of an entry of ``at``, a coefficient of the
    total at one key sums at most (n-1)! cycles times |at|^n paths, each
    term bounded by L^n, so it is below (n-1)! (|at| L)^n < 2^(bits-1).
    For n >= 3, ``_npoint_once`` sums only (n-1)!/2 cycles and applies the
    factor 2 after unpacking, so the bound covers them with a bit to spare.
    It stays at (n-1)!: one bit is nothing against a width of over a
    hundred, and the bound then also holds for the sum over every cycle.
    """
    norm = u_norm_max(at.values())
    return (factorial(n - 1) * (len(at) * norm) ** n).bit_length() + 1


def _xi_factor(p, q, at):
    """Entries of xi(x_p, -x_q) as {(e_p, e_q): packed int}.

    p < q: At(x_p, -x_q); p > q: -At(-x_q, x_p) with the slots swapped.
    """
    if p < q:
        return {(i, j): -c if j % 2 else c for (i, j), c in at.items()}
    return {(j, i): -c if i % 2 == 0 else c for (i, j), c in at.items()}  # -(-1)^i c


def _xi_rows(p, q, at):
    """The entries of ``_xi_factor(p, q, at)`` as rows keyed by the first slot.

    Returns (even, odd): for each parity of i, the pairs (i, row) with i
    ascending, each row [(j, packed int), ...] with j descending.
    """
    rows = {}
    for (i, j), d in _xi_factor(p, q, at).items():
        rows.setdefault(i, []).append((j, d))
    split = ([], [])
    for i in sorted(rows):
        split[i % 2].append((i, sorted(rows[i], reverse=True)))
    return split


def _contract_cycle(order, at, budget):
    """Multiply the xi factors along one cycle under an exact weight budget.

    ``at`` holds the entries of At at h = 1, each a scaled int u-tuple
    packed into one int (``u_pack``), so the products and sums along the
    cycle are plain int arithmetic; the caller unpacks the totals.  The
    entry at (i, j) stands for h^-(i+j) times its tuple, with
    0 <= -(i + j) <= budget, so the degree of a partial product is minus
    the sum of its exponents and can only grow as further factors are
    multiplied in.
    Partial states whose degree exceeds ``budget`` can therefore never
    reach an output key of degree <= budget and are dropped exactly.

    A state is keyed (e_first, e_open, finals...): the open exponents of
    order[0] and of the current variable, then the finalized exponents of
    order[1..t-1].  Step t (t = 1..n-1) multiplies in factor t, finalizes
    order[t] and opens order[t+1]; the last step instead closes the cycle
    on order[0].  Finalized exponents keep only odd values within
    [-budget, budget] (the odd projection commutes with summation, and
    tail-artifact cancellation at a key is complete once the window covers
    max |e_i|, which the caller guarantees for that band).  Open exponents
    are slots of ``at`` entries and need no check.

    Both filters are loop bounds, so only the factor entries they keep are
    visited.  Factor t is read as rows by its first slot i (``_xi_rows``).
    A state with open exponent e finalizes e + i, which is odd and within
    [-budget, budget] exactly when i has the parity opposite to e and lies
    in [-budget - e, budget - e]: only rows of that parity are read, and
    the walk over them stops past the upper end.  Within a row, the degree
    -(sum(key) + i + j) stays within budget exactly while j >= -budget -
    sum(key) - i, so the walk down the row stops at the first j below that
    floor.  The last step also tests e_first entry by entry.
    Returns {tuple of exponents indexed by cycle position: packed int}.
    """
    n = len(order)
    state = _xi_factor(order[0], order[1], at)
    for t in range(1, n):
        last = t == n - 1
        rows = _xi_rows(order[t], order[(t + 1) % n], at)
        nxt = {}
        for key, c in state.items():
            first, e = key[0], key[1]
            lo, hi = -budget - e, budget - e
            floor = -budget - sum(key)
            for i, row in rows[(e + 1) % 2]:
                if i < lo:
                    continue
                if i > hi:
                    break
                jmin = floor - i
                fin = key[2:] + (e + i,)
                for j, d in row:
                    if j < jmin:
                        break
                    if last:
                        efirst = first + j
                        if efirst % 2 == 0 or not -budget <= efirst <= budget:
                            continue
                        newkey = (efirst,) + fin
                    else:
                        newkey = (first, j) + fin
                    nxt[newkey] = nxt.get(newkey, 0) + c * d
        state = nxt
    return state


def _packed_at(n, max_weight, tail_hi):
    """The entries of At an n-point pass reads, packed: (at, L, bits).

    They are the triangle n + m <= max_weight (with the boundary entries
    (-n, 0) and (0, -m)), the constant (0, 0), and the tail (-i, i) for
    i <= tail_hi.  Each entry is the (r, P) pair of ``_direct_a``,
    h^-(i+j) r P(u).  It is held as the int u-tuple r L P, with L the lcm
    of the denominators of the r, packed into one int at the width
    ``_pack_bits`` gives.
    """
    keys = ((-i, -j) for i in range(max_weight + 1) for j in range(max_weight + 1 - i))
    at = _with_tail(_direct_a(keys), tail_hi)
    scale = lcm(*(r.denominator for r, _ in at.values()))
    at = {k: u_scale(p, r.numerator * scale // r.denominator) for k, (r, p) in at.items()}
    bits = _pack_bits(n, at)
    return {k: u_pack(p, bits) for k, p in at.items()}, scale, bits


def _npoint_once(n, max_weight, tail_hi):
    """One cycle-sum pass (n >= 2) with the tail of At through tail_hi.

    The contraction runs on the packed entries of ``_packed_at``, with L
    its integer scale; every output key is a product of exactly n entries,
    so it is unpacked once and leaves as h^(-sum key) * -2^(n-1) * tuple / L^n.

    For n >= 3 only one cycle of each reversed pair is contracted, the one
    with order[1] < order[-1], and the factor 2 joins the output scale.
    By ``_xi_factor``, xi(x_q, -x_p) = -xi(x_p, -x_q) at x -> -x, so the
    reversed cycle is (-1)^n times the forward one at -x; at a key of n
    odd exponents, -x gives a further (-1)^n, and the two totals agree
    key by key.  The budget pruning reads only the exponents, so it drops
    the same paths from both.  At n = 2 the one cycle is its own reverse.
    """
    at, scale, bits = _packed_at(n, max_weight, tail_hi)
    total = {}
    for order in cycles(n):
        if order[1] > order[-1]:  # the reverse of a cycle already summed (never at n = 2)
            continue
        where = [order.index(v) for v in range(1, n + 1)]
        for key, c in _contract_cycle(order, at, max_weight).items():
            k = tuple(key[p] for p in where)
            total[k] = total.get(k, 0) + c
    factor = Fraction(-(2 ** (n - 1)) * (1 if n == 2 else 2), scale ** n)
    total = {key: u_unpack(c, bits) for key, c in total.items() if c}
    if n == 2:
        # off-diagonal tail artifacts self-cancel within the window; the
        # diagonal band (-m, +m) survives and is exactly the correction term
        # (the positive slot always carries the larger variable index, x_2).
        # It is subtracted as the integer c / factor = -c L^2 / 2, an integer
        # because 4 | L: the -1/4 tail entry is among the r of the scale
        for key, c in correction_term(max_weight).coeffs.items():
            shift = c / factor
            if shift.denominator != 1:
                raise ArithmeticError(f"correction at {key} is not an integer multiple of the scale")
            total[key] = u_add(total.get(key, ()), (-shift.numerator,))
    return SparseTensor(n, {key: _entry_poly(key, (factor, p)) for key, p in total.items() if p})


def _tail_hi(n, max_weight):
    """The last tail index i, at (-i, i) of At, that an n-point pass reads.

    Every target coefficient (all exponents negative) is exact from this
    window.  A factor of a cycle is an entry of A (both slots <= 0, weight
    -(i+j) <= W = max_weight) or a tail entry (slots +i and -i, weight 0).
    At a target key the exponents e_v lie in [-W, -1] and sum to minus the
    total weight D <= W of the A factors, so sum |e_v| = D.  Some factor F
    is from A, or the exponents would sum to 0.  Walk from F, with slot s,
    along the tail factors t_1, t_2, ... that follow it.  The variable that
    F and t_1 share gives i_1 <= max(|e_v|, |s|).  The variable that t_j
    and t_(j+1) share gives i_(j+1) <= i_j + |e_v|, since +i_j and
    +i_(j+1) would sum to at least 2.  So every tail index on a path to a
    target is at most |s| + sum |e_v| <= 2W.  At n = 2 the one tail factor
    sits between the two slots of one A factor, so i <= W - 1.

    The positive-exponent guard of ``npoint_affine`` has no such bound:
    keys with a positive exponent are reached by chains of tail factors
    that may climb by W per step.  2W + 1 has passed it for n = 3 and 4.
    At n = 5 and W = 7 it fails, so n <= AFFINE_ARITY_MAX is certified.
    """
    return max_weight if n <= 2 else 2 * max_weight + 1


def npoint_affine(n, max_weight):
    """Cycle-sum n-point tensor with negative odd exponents up to |mu| <= max_weight.

    n = 1 is the direct one-point sum.  For n >= 2 the window protocol
    recomputes at tail_hi + 4 and demands identical target coefficients
    (and that every positive-exponent artifact has cancelled);
    WindowInstabilityError reports violations.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return SparseTensor(1, {(e,): c for e, c in one_point_affine(max_weight).items()})
    tail_hi = _tail_hi(n, max_weight)
    runs = [_npoint_once(n, max_weight, t) for t in (tail_hi, tail_hi + 4)]

    def targets(t):
        return SparseTensor(n, {k: c for k, c in t.coeffs.items() if all(e <= -1 for e in k)})

    cleaned = [targets(t) for t in runs]
    if cleaned[0] != cleaned[1]:
        raise WindowInstabilityError("target coefficients changed when widening the window")
    # tail artifacts with a positive exponent must have cancelled; the weight
    # pruning already confines all surviving keys to the trusted band
    for key, c in runs[1].coeffs.items():
        if any(e >= 1 for e in key):
            raise WindowInstabilityError(f"uncancelled positive exponent at {key}: {c!r}")
    return cleaned[0]


def bridge(mu):
    """Exact Virasoro-side value of the cycle-sum coefficient for mu."""
    mu = check_odd_partition(mu)
    n = len(mu)
    w = sum(mu)
    # each g gives its own power of u: e = (|mu| - n + 2 - 2g)/2, so the
    # h-degree n + 2g - 2 + 2e is |mu|
    terms = {}
    for g in range(0, (w - n + 2) // 2 + 1):
        e, c = correlator_monomial(g, mu)
        if e is not None:
            terms[(w, e, 0, 0)] = c / 2 ** n
    return ParamPoly(terms)


def crosscheck_affine_vs_virasoro(n_max, weight_max, one_point_weight=None):
    """Compare cycle-sum coefficients against bridged correlators.

    Every ordering of the exponents of mu is read: the bridge is symmetric,
    and a defect of the coordinate table may show in one ordering only.
    Returns (ok, mismatches, checked) where checked counts partitions and
    mismatches lists (mu, affine value, bridge value) at the first ordering
    that differs.
    """
    mismatches = []
    checked = 0
    for n in range(1, n_max + 1):
        w = weight_max if (n > 1 or one_point_weight is None) else one_point_weight
        tensor = npoint_affine(n, w)
        for mu in odd_partitions(w, n):
            if len(mu) != n:
                continue
            want = bridge(mu)
            checked += 1
            for key in sorted(set(permutations(tuple(-m for m in mu)))):
                got = tensor.get(key)
                if got != want:
                    mismatches.append((mu, got, want))
                    break
    return not mismatches, mismatches, checked
