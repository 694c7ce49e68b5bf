import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gbgw.affine as affine
from gbgw.pfaffian import pfaffian
from gbgw.poly import u_add, u_mul, u_scale


def determinant(m):
    """Exact determinant by first-column minor expansion with subset
    memoization (the oracle for Pf(M)^2 = det M)."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    memo = {}

    def det(rows, cols):
        if not rows:
            return 1
        cached = memo.get((rows, cols))
        if cached is not None:
            return cached
        r0 = rows[0]
        rest = rows[1:]
        total = 0
        sign = 1
        for t, c in enumerate(cols):
            entry = m[r0][c]
            if entry:
                term = entry * det(rest, cols[:t] + cols[t + 1:])
                total = total + (term if sign > 0 else -term)
            sign = -sign
        memo[(rows, cols)] = total
        return total

    idx = tuple(range(n))
    return det(idx, idx)


def matching_oracle(m):
    """Pfaffian by signed perfect-matching enumeration (independent route)."""
    n = len(m)
    idx = list(range(n))
    total = Fraction(0)
    seen = set()
    for perm in permutations(idx):
        pairs = tuple(sorted((min(perm[2 * i], perm[2 * i + 1]), max(perm[2 * i], perm[2 * i + 1]))
                             for i in range(n // 2)))
        if pairs in seen:
            continue
        seen.add(pairs)
        # sign of the permutation sending (1,2,...,n) to the pair order
        flat = [x for p in pairs for x in p]
        sign = 1
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                if flat[i] > flat[j]:
                    sign = -sign
        term = Fraction(1)
        for a, b in pairs:
            term *= m[a][b]
        total += sign * term
    return total


def rand_antisym(rng, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            m[i][j] = q
            m[j][i] = -q
    return m


def test_pf_2x2():
    a = Fraction(5, 3)
    assert pfaffian([[Fraction(0), a], [-a, Fraction(0)]]) == a


def test_pf_4x4_matches_matching_oracle():
    rng = random.Random(23)
    for _ in range(10):
        m = rand_antisym(rng, 4)
        assert pfaffian(m) == matching_oracle(m)
        # explicit textbook expansion
        assert pfaffian(m) == m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]


def test_pf_6x6_matches_matching_oracle():
    rng = random.Random(29)
    for _ in range(4):
        m = rand_antisym(rng, 6)
        assert pfaffian(m) == matching_oracle(m)


def test_pf_squared_is_det():
    rng = random.Random(31)
    for n in (2, 4, 6):
        for _ in range(4):
            m = rand_antisym(rng, n)
            assert pfaffian(m) ** 2 == determinant(m)


def test_pf_odd_dimension_rejected():
    with pytest.raises(ValueError):
        pfaffian([[Fraction(0)]])


def test_pf_asymmetric_rejected():
    m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    with pytest.raises(ValueError):
        pfaffian(m)


def test_determinant_known():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert determinant(m) == -2


# -- the packed Pfaffian of the affine coordinates ---------------------------


def _matchings(idx):
    """Every perfect matching of the tuple ``idx``, as a list of pairs."""
    if not idx:
        yield []
        return
    for t in range(1, len(idx)):
        for rest in _matchings(idx[1:t] + idx[t + 1:]):
            yield [(idx[0], idx[t])] + rest


def tuple_matching_oracle(m):
    """Pf of an antisymmetric matrix of int u-tuples as the signed sum over
    perfect matchings, each sign (-1)^(number of crossing pairs), on tuples."""
    total = ()
    for pairs in _matchings(tuple(range(len(m)))):
        crossings = sum(1 for (a, b), (c, d) in combinations(pairs, 2) if a < c < b < d or c < a < d < b)
        term = (1,)
        for a, b in pairs:
            term = u_mul(term, m[a][b])
        total = u_add(total, u_scale(term, (-1) ** crossings))
    return total


def test_tuple_matching_oracle_matches_pfaffian():
    # on constant tuples the oracle is the Pfaffian of the ints
    rng = random.Random(37)
    for n in (2, 4, 6):
        ints = [[int(12 * q) for q in row] for row in rand_antisym(rng, n)]
        pf = pfaffian(ints)
        tuples = [[(c,) if c else () for c in row] for row in ints]
        assert tuple_matching_oracle(tuples) == ((pf,) if pf else ())


def _from_upper(n, upper):
    """The antisymmetric n x n matrix of int u-tuples with ``upper`` above the diagonal."""
    m = [[()] * n for _ in range(n)]
    for (i, j), p in upper.items():
        m[i][j], m[j][i] = p, u_scale(p, -1)
    return m


@st.composite
def _antisymmetric_u_matrices(draw):
    """Antisymmetric matrices of int u-tuples of even order <= 8."""
    n = 2 * draw(st.integers(0, 4))
    coeffs = st.integers(-10 ** 6, 10 ** 6)
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            p = tuple(draw(st.lists(coeffs, max_size=4)))
            while p and not p[-1]:
                p = p[:-1]
            upper[(i, j)] = p
    return _from_upper(n, upper)


# the width bound is attained: at order 4 with every entry of norm N,
# a01 a23 - a02 a13 + a03 a12 = 3 N^2 = (2m - 1)!! N^m
_N = 2 ** 20
_ATTAINED = _from_upper(4, {(0, 1): (_N,), (2, 3): (_N,), (0, 2): (-_N,), (1, 3): (_N,),
                            (0, 3): (_N,), (1, 2): (_N,)})


@settings(max_examples=60)
@given(_antisymmetric_u_matrices())
@example(_ATTAINED)
def test_packed_pfaffian_matches_the_matching_sum(m):
    assert affine._packed_pfaffian(m) == tuple_matching_oracle(m)


def test_pfaffian_expansion_fails_at_too_small_a_width(monkeypatch):
    # the bound gives 67 bits for lambda = (4, 3, 2, 1); at 8 the digits overlap
    lam = (4, 3, 2, 1)
    assert affine.verify_pfaffian_expansion(lam)
    monkeypatch.setattr(affine, "_pfaffian_bits", lambda entries: 8)
    assert not affine.verify_pfaffian_expansion(lam)
