"""Pfaffians of small exact antisymmetric matrices.

Entries are exact ring elements: Fractions for the Schur Q-values, and
ints for the affine coordinates, each a u-polynomial packed into one int
(``affine._packed_pfaffian``).  The matrices that occur here never exceed
12x12, so recursive expansion wins on clarity and is plenty fast.
"""

from __future__ import annotations

__all__ = ["pfaffian"]


def _check_antisymmetric(m):
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        if m[i][i]:
            raise ValueError("nonzero diagonal entry in antisymmetric matrix")
        for j in range(i + 1, n):
            if m[i][j] != -m[j][i]:
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not antisymmetric")


def pfaffian(m):
    """Pfaffian of an even-dimensional antisymmetric matrix.

    Uses the first-row Laplace-type expansion
        Pf(M) = sum_{t} (-1)^(t-1) * M[i0][i_t] * Pf(M with rows/cols i0, i_t removed).
    """
    _check_antisymmetric(m)
    n = len(m)
    if n % 2:
        raise ValueError("Pfaffian requires even dimension")
    memo = {}

    def pf(indices):
        if not indices:
            return 1
        cached = memo.get(indices)
        if cached is not None:
            return cached
        i0 = indices[0]
        rest = indices[1:]
        total = 0
        sign = 1
        for t, j in enumerate(rest):
            entry = m[i0][j]
            if entry:
                sub = rest[:t] + rest[t + 1:]
                term = entry * pf(sub)
                total = total + (term if sign > 0 else -term)
            sign = -sign
        memo[indices] = total
        return total

    return pf(tuple(range(n)))

