from fractions import Fraction

import pytest

from gbgw.series import SparseTensor


def test_sparse_tensor_key_arity_checked():
    with pytest.raises(ValueError):
        SparseTensor(2, {(-1, -1, -1): Fraction(1)})
