import pytest
from hypothesis import settings

import gbgw
from gbgw.affine import _entry_poly, _int_basis, affine_coeff
from gbgw.poly import ParamPoly

# one profile for every property test: the same examples on every run, no
# example database, no per-example deadline; each test sets only max_examples
settings.register_profile("gbgw", derandomize=True, database=None, deadline=None)
settings.load_profile("gbgw")


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


def _basis_pair(T):
    """phi1 and the u-part of phi2 through z^-T as {exponent: ParamPoly}: the
    ParamPoly view of the integer basis ``gbgw.affine._int_basis``.  The
    v-part of phi2 is checked on the integers, by ``verify_wronskian`` (iv)."""
    d1, p1, d2, p2u, _ = _int_basis(T)
    phi1 = {e: ParamPoly.from_u(c, d1, eh=-e) for e, c in p1.items()}
    phi2 = {e: ParamPoly.from_u(c, d2, eh=1 - e) for e, c in p2u.items()}
    return phi1, phi2


@pytest.fixture
def basis_pair():
    return _basis_pair


def _affine_poly(n, m):
    """a_{n,m} as the ParamPoly h^(n+m) r P(u): the ParamPoly view of the
    (r, P) pair of ``gbgw.affine.affine_coeff``."""
    return _entry_poly((-n, -m), affine_coeff(n, m))


@pytest.fixture
def affine_poly():
    return _affine_poly


@pytest.fixture
def fresh_caches():
    """Every module memo empty when the test starts and again when it ends:
    a test sees which memos its route fills, and no table built under a
    planted defect outlives it."""
    gbgw.reset_caches()
    yield
    gbgw.reset_caches()
