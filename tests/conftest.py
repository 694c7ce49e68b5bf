import pytest


def _transposition_defects(coeffs):
    """[(key, (i, j))] for each stored key whose value changes when index 0 is
    swapped with an external index i, or the adjacent externals i, i + 1.
    Those transpositions generate every permutation, so an empty list means
    the table is symmetric; the swaps with index 0 stay meaningful where the
    externals are symmetric by construction."""
    defects = []
    for key, value in coeffs.items():
        n = len(key)
        for i, j in [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)]:
            other = list(key)
            other[i], other[j] = key[j], key[i]
            if coeffs.get(tuple(other), 0) != value:
                defects.append((key, (i, j)))
    return defects


@pytest.fixture
def transposition_defects():
    return _transposition_defects
