from fractions import Fraction
from math import factorial

import pytest

from gbgw.poly import ParamPoly, u_eval
from gbgw.schurq import (
    Q_delta_closed,
    Q_lambda,
    check_strict,
    hypergeom_coeff,
    q_series,
    q_two_row,
    strict_partitions,
    theta_lambda,
    theta_prod,
    theta_u,
)

DELTA = {1: Fraction(1)}


def test_q_series_delta():
    q = q_series(DELTA, 8)
    for n in range(9):
        assert q[n] == Fraction(2 ** n, factorial(n))


def test_q_series_zero_couplings():
    q = q_series({}, 5)
    assert q[0] == 1
    assert all(q[r] == 0 for r in range(1, 6))


def test_q_series_rejects_even_coupling():
    with pytest.raises(ValueError):
        q_series({2: Fraction(1)}, 3)


def test_q3_at_delta():
    assert q_series(DELTA, 3)[3] == Fraction(4, 3)


def test_two_row_antisymmetric_for_odd_couplings():
    coup = {1: Fraction(2, 3), 3: Fraction(-1, 5), 5: Fraction(1, 7)}
    q = q_series(coup, 14)
    for m in range(0, 6):
        for n in range(0, 6):
            assert q_two_row(m, n, q) == -q_two_row(n, m, q)


def test_two_row_rejects_indices_outside_the_series():
    # a negative index would wrap around q; m + n must stay inside it
    q = q_series(DELTA, 6)
    for m, n in [(-1, 2), (2, -1), (len(q), 0)]:
        with pytest.raises(ValueError):
            q_two_row(m, n, q)
    assert q_two_row(len(q) - 1, 0, q) == q[-1] * q[0]


def test_single_row_is_q():
    coup = {1: Fraction(1), 3: Fraction(2)}
    q = q_series(coup, 6)
    for n in range(1, 6):
        assert Q_lambda((n,), coup) == q[n]


def test_q21_two_routes():
    # Pfaffian route q2*q1 - 2*q3 and the closed product both give 4/3.
    assert Q_lambda((2, 1), DELTA) == Fraction(4, 3)
    assert Q_delta_closed((2, 1)) == Fraction(4, 3)


def test_q_delta_closed_values():
    assert Q_delta_closed((1,)) == 2
    assert Q_delta_closed((3, 2, 1)) == Fraction(8, 45)


def test_pfaffian_vs_closed_all_small():
    for lam in strict_partitions(12):
        if lam:
            assert Q_lambda(lam, DELTA) == Q_delta_closed(lam)


def test_q_lambda_zero_couplings():
    for lam in strict_partitions(6):
        if lam:
            assert Q_lambda(lam, {}) == 0


def test_theta_values():
    # theta(k) = (2k - 1)^2 - 4u
    assert theta_u(1) == (1, -4)
    assert theta_u(0) == (1, -4)
    assert theta_u(2) == (9, -4)
    assert theta_prod(0) == (1,)
    assert theta_prod(2) == (9, -40, 16)  # (1 - 4u)(9 - 4u)


def test_theta_lambda():
    assert theta_lambda((1,)) == theta_u(1)
    assert theta_lambda((2,)) == (9, -40, 16)
    assert theta_lambda((2, 1)) == (9, -76, 176, -64)  # (1 - 4u)^2 (9 - 4u)
    # u = 1/4 kills theta(1), hence every nonempty partition
    for lam in strict_partitions(5):
        if lam:
            assert u_eval(theta_lambda(lam), Fraction(1, 4)) == 0
    # one factor 1 - 4u, 9 - 4u, ... per box: the top power is (-4u)^4
    top = theta_lambda((3, 1))
    assert top[4] == 256 and len(top) == 5


def test_hypergeom_coeff():
    assert hypergeom_coeff((1,)) == ParamPoly.from_u((1, -4), 16, eh=1)  # (h/16) theta(1)
    assert hypergeom_coeff(()) == ParamPoly.const(1)
    # (h/16)^|lambda| 2^(-length) Q_lambda(delta) theta_lambda, whose u-part
    # vanishes at u = 1/4 (test_theta_lambda)
    for lam in strict_partitions(5):
        w = sum(lam)
        scalar = Fraction(1, 16 ** w * 2 ** len(lam)) * Q_delta_closed(lam)
        want = {(w, e, 0, 0): scalar * c for e, c in enumerate(theta_lambda(lam)) if c}
        assert hypergeom_coeff(lam).terms == want, lam


def test_check_strict_rejects():
    with pytest.raises(ValueError):
        check_strict((2, 2))
    with pytest.raises(ValueError):
        check_strict((3, -1))


def test_strict_partition_enumeration():
    parts = strict_partitions(6)
    assert parts[0] == ()
    assert (3, 2, 1) in parts
    assert (2, 2) not in parts
    assert len(parts) == len(set(parts))
    # counts of strict partitions of n = 0..6: 1,1,1,2,2,3,4
    for n, expected in enumerate([1, 1, 1, 2, 2, 3, 4]):
        assert sum(1 for lam in parts if sum(lam) == n) == expected
