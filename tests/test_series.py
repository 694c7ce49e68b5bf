from fractions import Fraction

import pytest

from gbgw.affine import gen_A
from gbgw.series import SparseTensor, WindowError


def test_sparse_tensor_key_arity_checked():
    with pytest.raises(ValueError):
        SparseTensor(2, {(-1, -1, -1): Fraction(1)})


def test_sparse_tensor_eq_defers_to_a_non_tensor():
    # Python then falls back to identity, so a tensor equals no dict
    t = SparseTensor(1, {(0,): Fraction(1)})
    assert t.__eq__({(0,): Fraction(1)}) is NotImplemented
    assert t != {(0,): Fraction(1)}


def test_sparse_tensor_repr_sorts_its_keys():
    t = SparseTensor(2, {(1, 0): Fraction(1, 2), (0, 0): Fraction(-3), (0, 1): Fraction(0)})
    assert repr(t) == "SparseTensor(2, {(0, 0): Fraction(-3, 1), (1, 0): Fraction(1, 2)})"
    assert repr(SparseTensor(1)) == "SparseTensor(1, {})"


def test_coeff_outside_the_sound_region_raises():
    # the closed form of A is sound on [-4, 0] x [-4, 4] with i + j >= -4
    a = gen_A("closed", -4, -4, 4, T=6)[0]
    assert a.min_total == -4
    for i, j in [(-4, -1), (1, 0), (0, 5)]:
        with pytest.raises(WindowError):
            a.coeff(i, j)
    # a known key with no entry reads 0
    assert (-1, -1) not in a.coeffs
    assert a.coeff(-1, -1) == 0
