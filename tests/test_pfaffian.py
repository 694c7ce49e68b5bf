import random
from fractions import Fraction
from itertools import permutations

import pytest

from gbgw.pfaffian import pfaffian


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
