from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbgw.npoint as npoint_module
from gbgw.affine import _direct_a, _entry_poly, _with_tail
from gbgw.correlators import odd_partitions
from gbgw.poly import ZERO, ParamPoly, at_u, u_add, u_mul, u_pack, u_scale
from gbgw.npoint import (
    WindowInstabilityError,
    bridge,
    correction_term,
    crosscheck_affine_vs_virasoro,
    cycles,
    npoint_affine,
    one_point_affine,
)


def test_correction_term_values():
    t = correction_term(9)
    assert t.get((-1, 1)) == Fraction(1, 2)
    assert t.get((-2, 2)) == 0
    assert t.get((-3, 3)) == Fraction(3, 2)


def test_cycles_deterministic():
    assert cycles(1) == [(1,)]
    assert cycles(2) == [(1, 2)]
    assert cycles(3) == [(1, 2, 3), (1, 3, 2)]
    assert len(cycles(4)) == 6


def test_bridge_mu1():
    assert bridge((1,)) == ParamPoly.from_u((1, -4), 16, eh=1)  # (h/16) theta(1)


def test_bridge_mu_1_1():
    # (h^2/4) (1/8 - u/2) = h^2 (1 - 4u)/32
    assert bridge((1, 1)) == ParamPoly.from_u((1, -4), 32, eh=2)


def test_bridge_h_degree_is_weight():
    for mu in [(1,), (3,), (5, 1), (3, 3, 1), (7, 5, 3)]:
        b = bridge(mu)
        degs = {k[0] for k in b.terms}
        assert degs == {sum(mu)}, mu


def test_one_point_matches_bridge():
    series = one_point_affine(9)
    for m in range(1, 10, 2):
        assert series.get(-m, 0) == bridge((m,)), m


def test_one_point_vanishes_at_quarter():
    series = one_point_affine(9)
    assert len(series) == 5
    assert all(at_u(v, Fraction(1, 4)) is ZERO for v in series.values())


def test_npoint_needs_at_least_one_point():
    with pytest.raises(ValueError, match="n must be >= 1"):
        npoint_affine(0, 5)


def test_two_point_small_matches_bridge():
    t = npoint_affine(2, 6)
    assert t.get((-1, -1)) == bridge((1, 1))
    assert t.get((-1, -3)) == bridge((3, 1))
    assert t.get((-3, -3)) == bridge((3, 3))
    assert t.get((-5, -1)) == bridge((5, 1))


def test_two_point_tensor_odd_and_negative_only():
    t = npoint_affine(2, 6)
    for key in t.coeffs:
        assert all(e < 0 and e % 2 for e in key)


def test_two_point_symmetric(transposition_defects):
    t = npoint_affine(2, 7)
    assert t.coeffs and transposition_defects(t.coeffs) == []


def test_two_point_trivial_at_quarter():
    t = npoint_affine(2, 7)
    assert t.coeffs and all(at_u(c, Fraction(1, 4)) is ZERO for c in t.coeffs.values())


def test_three_point_small_matches_bridge():
    ok, mismatches, checked = crosscheck_affine_vs_virasoro(3, 5)
    assert ok, mismatches
    assert checked > 0


def test_four_point_matches_bridge():
    # the only cycle sums with two middle factors in the contraction loop
    t = npoint_affine(4, 6)
    want = {}
    for mu in odd_partitions(6, 4):
        if len(mu) == 4:
            want.update(dict.fromkeys(permutations(tuple(-m for m in mu)), bridge(mu)))
    assert len(want) == 5
    assert t.coeffs == want


def test_crosscheck_small_range():
    ok, mismatches, checked = crosscheck_affine_vs_virasoro(2, 8, one_point_weight=11)
    assert ok, mismatches[:3]


def test_one_point_deep_genus():
    # weight 21 pulls correlators up to genus 11 through the bridge
    series = one_point_affine(21)
    for m in range(1, 22, 2):
        assert series.get(-m, 0) == bridge((m,)), m


def test_cycle_sum_reads_the_planted_scalar(monkeypatch):
    # r at (-1, -2) off by a factor breaks antisymmetry of A; the cycle sum
    # carries it through, and it survives substituting a rational u on output
    real = npoint_module._direct_a

    def planted(keys):
        a = real(keys)
        r, p = a[(-1, -2)]
        a[(-1, -2)] = (3 * r, p)
        return a

    monkeypatch.setattr(npoint_module, "_direct_a", planted)
    ok, mismatches, _ = crosscheck_affine_vs_virasoro(2, 5)
    assert not ok
    assert all(len(mu) == 2 for mu, _, _ in mismatches)
    u = Fraction(3, 7)
    assert all(at_u(got, u) != at_u(want, u) for _, got, want in mismatches)


def test_one_point_reads_a_broken_coordinate(monkeypatch):
    # a_{1,2} off by h^3 P_1 P_2 / 7 (antisymmetry broken) moves the one-point value at x^-3
    real = npoint_module.affine_coeff

    def broken(n, m):
        r, p = real(n, m)
        return (r + Fraction(1, 7), p) if (n, m) == (1, 2) else (r, p)

    monkeypatch.setattr(npoint_module, "affine_coeff", broken)
    series = one_point_affine(9)
    assert series[-3] != bridge((3,))
    assert series[-1] == bridge((1,))


def test_cycle_sums_read_no_other_table(fresh_caches):
    # the affine route is an independent pipeline: its cycle sums build no
    # Virasoro table and no EO table
    import gbgw.correlators as correlators
    import gbgw.eo as eo
    import gbgw.schurq as schurq

    for n in (1, 2, 3):
        npoint_affine(n, 15 if n == 1 else 11)
    assert schurq._theta_prod_cache
    assert (correlators._cache, correlators._step_cache, eo._omega_cache, eo._closed_cache) == (
        {}, {}, {}, {})


def _oracle_xi_factor(p, q, at):
    out = {}
    if p < q:
        for (i, j), c in at.items():
            out[(i, j)] = u_scale(c, -1) if j % 2 else c
    else:
        for (i, j), c in at.items():
            out[(j, i)] = u_scale(c, -1) if i % 2 == 0 else c  # -(-1)^i c
    return out


def _oracle_contract_cycle(order, at, budget):
    """The cycle contraction on int u-tuples through u_mul / u_add."""
    n = len(order)
    state = _oracle_xi_factor(order[0], order[1], at)
    for t in range(1, n):
        last = t == n - 1
        fac = _oracle_xi_factor(order[t], order[(t + 1) % n], at)
        nxt = {}
        for key, c in state.items():
            base = sum(key)
            for (i, j), d in fac.items():
                if -(base + i + j) > budget:
                    continue
                efin = key[1] + i
                if efin % 2 == 0 or not -budget <= efin <= budget:
                    continue
                if last:
                    efirst = key[0] + j
                    if efirst % 2 == 0 or not -budget <= efirst <= budget:
                        continue
                    newkey = (efirst,) + key[2:] + (efin,)
                else:
                    newkey = (key[0], j) + key[2:] + (efin,)
                r = nxt.get(newkey)
                nxt[newkey] = u_mul(c, d) if r is None else u_add(r, u_mul(c, d))
        state = nxt
    return state


def _oracle_npoint(n, max_weight, u_value=None):
    """Target coefficients of npoint_affine from one unpacked cycle-sum pass."""
    tail_hi = max_weight if n <= 2 else 2 * max_weight + 1
    keys = ((-i, -j) for i in range(max_weight + 1) for j in range(max_weight + 1 - i))
    at = _with_tail(_direct_a(keys), tail_hi)
    if u_value is not None:
        at = {k: (r * sum(c * u_value ** e for e, c in enumerate(p)), (1,)) for k, (r, p) in at.items()}
        at = {k: entry for k, entry in at.items() if entry[0]}
    scale = lcm(*(r.denominator for r, _ in at.values()))
    at = {k: u_scale(p, r.numerator * scale // r.denominator) for k, (r, p) in at.items()}
    total = {}
    for order in cycles(n):
        where = [order.index(v) for v in range(1, n + 1)]
        for key, c in _oracle_contract_cycle(order, at, max_weight).items():
            k = tuple(key[p] for p in where)
            total[k] = u_add(total.get(k, ()), c)
    factor = Fraction(-(2 ** (n - 1)), scale ** n)
    # the n = 2 correction sits at (-m, m), outside the targets
    out = {k: _entry_poly(k, (factor, c)) for k, c in total.items() if all(e <= -1 for e in k)}
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("u_value", [None, Fraction(1, 4), Fraction(3, 7)])
@pytest.mark.parametrize("n, max_weight", [(2, 9), (3, 7), (4, 5)])
def test_packed_cycle_sum_matches_tuple_oracle(n, max_weight, u_value):
    # the oracle evaluates At at a rational u before it contracts, and the
    # cycle sum is substituted after: the two orders agree
    want = _oracle_npoint(n, max_weight, u_value)
    assert want or u_value == Fraction(1, 4)  # every cycle sum vanishes at u = 1/4
    got = npoint_affine(n, max_weight).coeffs
    if u_value is not None:
        got = {k: v for k, c in got.items() if (v := at_u(c, u_value))}
    assert got == want


def test_packed_cycle_sum_fails_at_too_small_a_width(monkeypatch):
    want = _oracle_npoint(3, 7)
    # the bound gives 132 bits here; at 16 the digits overlap, and both
    # windows read back the same wrong values, so nothing else catches it
    monkeypatch.setattr(npoint_module, "_pack_bits", lambda n, at: 16)
    assert npoint_affine(3, 7).coeffs != want


@settings(max_examples=80)
@given(st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                       st.integers(-9, 9).filter(bool), min_size=6, max_size=24),
       st.integers(1, 7), st.integers(2, 4))
def test_indexed_contraction_matches_the_unindexed_oracle(at, budget, n):
    # keys of both parities and positive slots, as the tail has; packed
    # entries c are the length-1 tuples (c,), so both sides compare directly
    tuples = {k: (c,) for k, c in at.items()}
    for order in cycles(n):
        want = {k: u_pack(c, 2) for k, c in _oracle_contract_cycle(order, tuples, budget).items()}
        assert npoint_module._contract_cycle(order, at, budget) == want, order


def _contracted(order, at, budget):
    """One cycle's contraction with its keys in variable order, as _npoint_once maps them."""
    where = [order.index(v) for v in range(1, len(order) + 1)]
    return {tuple(key[p] for p in where): c
            for key, c in npoint_module._contract_cycle(order, at, budget).items()}


@pytest.mark.parametrize("n, max_weight", [(3, 7), (4, 5)])
def test_each_cycle_sums_to_its_reverse(n, max_weight):
    # the identity that lets _npoint_once contract one cycle of each reversed pair
    at, _, _ = npoint_module._packed_at(n, max_weight, npoint_module._tail_hi(n, max_weight))
    for order in cycles(n):
        forward = _contracted(order, at, max_weight)
        assert forward and forward == _contracted(order[:1] + order[:0:-1], at, max_weight), order


def test_a_defect_in_one_edge_direction_is_seen(monkeypatch):
    # every cycle kept has an edge p > q (the one closing on x_1), so a sign
    # flipped only in that branch of _xi_factor reaches the output; the
    # oracle sums every cycle with its own factors.  Each such flip of an
    # entry the sum reads also leaves a positive-exponent artifact, which
    # npoint_affine rejects, so the targets are compared on one pass
    real = npoint_module._xi_factor

    def planted(p, q, at):
        out = real(p, q, at)
        if p > q:
            out[(-2, -1)] = -out[(-2, -1)]
        return out

    monkeypatch.setattr(npoint_module, "_xi_factor", planted)
    assert _targets(3, 7, npoint_module._tail_hi(3, 7)) != _oracle_npoint(3, 7)
    with pytest.raises(WindowInstabilityError, match="uncancelled positive exponent"):
        npoint_affine(3, 7)


def _targets(n, max_weight, tail_hi):
    out = npoint_module._npoint_once(n, max_weight, tail_hi)
    return {k: c for k, c in out.coeffs.items() if all(e <= -1 for e in k)}


@pytest.mark.parametrize("n, max_weight", [(2, 7), (3, 7), (4, 5)])
def test_targets_are_exact_from_the_proven_tail(n, max_weight):
    # the bound of _tail_hi's docstring: W - 1 at n = 2, 2W above
    proven = max_weight - 1 if n == 2 else 2 * max_weight
    assert npoint_module._tail_hi(n, max_weight) >= proven
    assert _targets(n, max_weight, proven) == _targets(n, max_weight, 3 * max_weight)


def test_a_short_tail_window_is_caught(monkeypatch):
    # at n = 3, W = 7 the targets at tail 5 differ from those at tail 9
    monkeypatch.setattr(npoint_module, "_tail_hi", lambda n, max_weight: 5)
    with pytest.raises(WindowInstabilityError, match="target coefficients changed"):
        npoint_affine(3, 7)


def test_a_correction_off_the_scale_is_caught(monkeypatch):
    # the n = 2 correction is subtracted as an integer multiple of the output
    # scale 2 / L^2; a term whose denominator L does not clear must raise
    monkeypatch.setattr(npoint_module, "correction_term",
                        lambda max_order: npoint_module.SparseTensor(2, {(-1, 1): Fraction(1, 10007)}))
    with pytest.raises(ArithmeticError, match="not an integer multiple of the scale"):
        npoint_module._npoint_once(2, 3, 3)
