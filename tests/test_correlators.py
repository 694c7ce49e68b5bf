from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbgw.poly import ParamPoly
from gbgw.correlators import (
    _aut,
    correlator,
    correlator_expand_distinguishing,
    correlator_monomial,
    odd_partitions,
    one_point_closed,
    verify_special_deformation,
    w02_closed,
    wgn,
)


def mono(c, e):
    return ParamPoly.monomial(Fraction(c), es=e)


def test_initial_values():
    assert correlator(0, (1,)) == mono(Fraction(-1, 2), 1)
    assert correlator(1, (1,)) == ParamPoly.const(Fraction(1, 8))
    assert correlator(2, (1,)) == 0
    assert correlator(5, (1,)) == 0


def test_golden_small_correlators():
    assert correlator(0, (3,)) == mono(Fraction(1, 8), 2)
    assert correlator(0, (3, 1)) == mono(Fraction(3, 8), 2)
    assert correlator(1, (3,)) == mono(Fraction(-5, 16), 1)
    assert correlator(0, (1, 1, 1)) == mono(-1, 1)


def test_rejects_even_parts():
    with pytest.raises(ValueError):
        correlator(0, (2,))
    with pytest.raises(ValueError):
        correlator(0, (3, 0))
    with pytest.raises(ValueError):
        correlator_monomial(0, ())


def test_seed_and_negative_genus_paths(fresh_caches):
    # a recomputation of <p_1>_g returns the seed; genus -1 is zero and, like
    # every step of the table, opens no table at a negative genus
    import gbgw.correlators as corr

    for g in range(4):
        assert correlator_expand_distinguishing(g, (1,)) == correlator(g, (1,))
    assert correlator_expand_distinguishing(1, (1,)) == ParamPoly.const(Fraction(1, 8))
    assert correlator_monomial(-1, (3, 1)) == (None, 0)
    assert correlator(-1, (1,)) == 0
    for mu in odd_partitions(15, 4):
        for g in range(4):
            correlator(g, mu)
            correlator_expand_distinguishing(g, mu)
    assert sorted(corr._cache) == [0, 1, 2, 3]


def test_one_point_closed_form():
    for n in range(0, 9):
        assert correlator(0, (2 * n + 1,)) == one_point_closed(n)


def test_w02_golden_values():
    cases = {
        (-2, -2): mono(Fraction(-1, 2), 1),
        (-2, -4): mono(Fraction(3, 8), 2),
        (-4, -2): mono(Fraction(3, 8), 2),
        (-2, -6): mono(Fraction(-5, 16), 3),
        (-4, -4): mono(Fraction(-3, 8), 3),
        (-6, -2): mono(Fraction(-5, 16), 3),
    }
    t = wgn(0, 2, 8)
    for key, val in cases.items():
        assert t.get(key) == val, key


def test_w12_and_w04_golden():
    assert wgn(1, 2, 6).get((-4, -4)) == mono(Fraction(93, 32), 2)
    assert wgn(0, 4, 4).get((-2, -2, -2, -2)) == mono(-3, 1)


def test_w03_expansion_golden():
    t = wgn(0, 3, 7)
    assert t.get((-2, -2, -2)) == mono(-1, 1)
    assert t.get((-4, -2, -2)) == mono(Fraction(3, 2), 2)
    assert t.get((-6, -2, -2)) == mono(Fraction(-15, 8), 3)
    assert t.get((-4, -4, -2)) == mono(Fraction(-9, 4), 3)


def test_w11_expansion():
    # 1/(8x^2) - 5 s/(16 x^4) + 35 s^2/(64 x^6) - 105 s^3/(128 x^8)
    t = wgn(1, 1, 7)
    assert t.get((-2,)) == ParamPoly.const(Fraction(1, 8))
    assert t.get((-4,)) == mono(Fraction(-5, 16), 1)
    assert t.get((-6,)) == mono(Fraction(35, 64), 2)
    assert t.get((-8,)) == mono(Fraction(-105, 128), 3)


def test_monomial_structure_and_homogeneity():
    for g in range(0, 3):
        for mu in odd_partitions(11, 4):
            e, c = correlator_monomial(g, mu)
            if e is None:
                continue
            expected = Fraction(sum(mu) - len(mu) + 2 - 2 * g, 2)
            assert e == expected
            assert expected >= 0


def test_vanishing_below_homogeneity_floor():
    # when (|mu| - n + 2 - 2g)/2 < 0 the correlator must vanish
    for g in range(0, 4):
        for mu in odd_partitions(9, 4):
            if sum(mu) - len(mu) + 2 - 2 * g < 0:
                assert correlator(g, mu) == 0, (g, mu)


def test_distinguished_part_independence():
    for g in range(0, 3):
        for mu in odd_partitions(11, 11):
            if len(mu) < 2 or mu[0] == mu[-1]:
                continue
            assert correlator(g, mu) == correlator_expand_distinguishing(g, mu), (g, mu)


@st.composite
def _odd_partition(draw):
    """2 to 4 odd parts of sum at most 21, descending: the Virasoro range."""
    n, parts = draw(st.integers(2, 4)), []
    for i in range(n):
        room = 21 - sum(parts) - (n - 1 - i)  # one left for each part still to draw
        parts.append(2 * draw(st.integers(0, (room - 1) // 2)) + 1)
    return tuple(sorted(parts, reverse=True))


@settings(max_examples=60)
@given(st.integers(0, 4), _odd_partition())
def test_distinguished_part_independence_on_random_partitions(g, mu):
    assert correlator(g, mu) == correlator_expand_distinguishing(g, mu)


def test_genus_cancellation_at_quarter():
    # sum_g h^(2g-2+n) <p_mu>_g |_{ s -> h^2 u, u -> 1/4 } = 0.  The genus-g
    # term c s^e becomes c h^(2g-2+n+2e) u^e, and every g lands on h^|mu|,
    # so the sum is h^|mu| sum_g c (1/4)^e
    for mu in odd_partitions(9, 3):
        n = len(mu)
        terms = []
        for g in range((sum(mu) - n + 2) // 2 + 1):
            e, c = correlator_monomial(g, mu)
            if e is not None:
                assert 2 * g - 2 + n + 2 * e == sum(mu), (g, mu)
                terms.append(c * Fraction(1, 4) ** e)
        assert len(terms) >= 2 and sum(terms) == 0, mu


def test_w01_closed_vs_correlators():
    # W_{0,1} = 1 - sqrt(1 + s/x^2), expanded by sympy in t = 1/x through t^18:
    # its only terms are <p_{2n+1}>_0 = c s^e at t^(2n+2)
    import sympy as sp

    s, t = sp.symbols("s t")
    w01 = sp.Poly(sp.series(1 - sp.sqrt(1 + s * t ** 2), t, 0, 19).removeO(), t, s)
    got = {key: Fraction(int(c.p), int(c.q)) for key, c in w01.terms()}
    want = {(2 * n + 2, e): c for n in range(9) for e, c in [correlator_monomial(0, (2 * n + 1,))]}
    assert got == want and got[(2, 1)] == Fraction(-1, 2)


def test_w02_closed_form_vs_sympy():
    # W_{0,2} = X^2 Y^2 [(X^2 + Y^2 + 2 s X^2 Y^2) a(X) a(Y) - X^2 - Y^2] / (X^2 - Y^2)^2
    # with X = 1/x, Y = 1/y and a(X) = (1 + s X^2)^(-1/2).  Put X = t p, Y = t q:
    # the bracket is t^2 G, and the t^m part of G divides exactly by (p^2 - q^2)^2
    # into the part of W_{0,2} at total degree m + 2 in X, Y
    import sympy as sp

    p, q, s, t, z = sp.symbols("p q s t z")
    depth = 8  # entries down to x^-8 and y^-8, so total degree <= 16
    a = sp.series((1 + z) ** sp.Rational(-1, 2), z, 0, depth).removeO()
    g = sp.Poly(sp.expand((p ** 2 + q ** 2 + 2 * s * t ** 2 * p ** 2 * q ** 2)
                          * a.subs(z, s * t ** 2 * p ** 2) * a.subs(z, s * t ** 2 * q ** 2)
                          - p ** 2 - q ** 2), t)
    got = {}
    for m in range(0, 2 * depth - 1):
        quotient, remainder = sp.div(sp.Poly(g.coeff_monomial(t ** m), p, q, s),
                                     sp.Poly((p ** 2 - q ** 2) ** 2, p, q, s))
        assert remainder.is_zero, m
        for (i, j, e), c in quotient.terms():
            if c and max(i, j) + 2 <= depth:  # the zero polynomial has the one term 0
                got[(-i - 2, -j - 2)] = mono(Fraction(int(c.p), int(c.q)), e)
    want = {k: v for k, v in wgn(0, 2, 2 * depth).coeffs.items() if min(k) >= -depth}
    assert got == want and len(want) == (depth // 2) ** 2


def test_w02_closed_vs_recursion():
    q = w02_closed(12)
    t = wgn(0, 2, 12)
    for mu1 in range(1, 12, 2):
        for mu2 in range(1, 12, 2):
            if mu1 + mu2 <= 12:
                assert q.get((-mu1 - 1, -mu2 - 1), 0) == t.get((-mu1 - 1, -mu2 - 1)), (mu1, mu2)
    # and nothing extra at even/odd mixed slots
    for (i, j), c in q.items():
        assert i % 2 == 0 and j % 2 == 0 and i <= -2 and j <= -2


@pytest.mark.parametrize("depth", [14, 17])
def test_w02_closed_is_exact_through_its_depth(depth):
    # every entry down to -depth in each slot, where mu_1 + mu_2 reaches 2 depth - 2
    want = {k: v for k, v in wgn(0, 2, 2 * depth).coeffs.items() if min(k) >= -depth}
    assert w02_closed(depth) == want


def test_w02_remainder_check_sees_a_wrong_series(monkeypatch):
    # (1 + x^-2)^(-1/2) off by one at x^-4: the numerator is no longer divisible
    import gbgw.correlators as corr

    real = corr._inv_sqrt_coeffs

    def planted(m_max):
        out = real(m_max)
        out[2] += 1
        return out

    monkeypatch.setattr(corr, "_inv_sqrt_coeffs", planted)
    with pytest.raises(ArithmeticError, match="nonzero remainder"):
        w02_closed(9)


def test_wgn_symmetry(transposition_defects):
    for (g, n) in [(0, 3), (1, 2), (0, 4)]:
        t = wgn(g, n, 8)
        assert t.coeffs and transposition_defects(t.coeffs) == [], (g, n)


def free_energy(g, degree, max_weight):
    """Truncated genus-g free energy: {mu: coefficient of prod t_{mu_i}}.

    The coefficient of the monomial for a partition mu with part
    multiplicities m_j is <p_mu>_g / prod_j m_j!.
    """
    return {mu: mono(c / _aut(mu), e) for mu in odd_partitions(max_weight, degree)
            for e, c in [correlator_monomial(g, mu)] if e is not None}


def test_free_energy_coefficients():
    f0 = free_energy(0, 3, 5)
    assert f0[(1,)] == mono(Fraction(-1, 2), 1)
    f1 = free_energy(1, 3, 5)
    assert f1[(1,)] == ParamPoly.const(Fraction(1, 8))
    f2 = free_energy(2, 3, 5)
    assert (1,) not in f2
    # aut factor: coefficient of t_1^2 is <p_1 p_1>_0 / 2!
    assert f0[(1, 1)] == mono(Fraction(-1, 4), 1)


def test_special_deformation_small():
    ok, failures, checked = verify_special_deformation(degree=3, min_order=-10, part_cap=7)
    assert ok, failures[:5]
    assert checked > 0


def test_special_deformation_names_a_wrong_genus_zero_value(monkeypatch):
    # <p_3 p_1>_0 enters y at t_1 x^-4; the first pass fills every memo entry
    # the check reads, so only the planted value changes
    import gbgw.correlators as corr

    assert verify_special_deformation(degree=3, min_order=-10, part_cap=7)[0]
    monkeypatch.setitem(corr._cache[0], (3, 1), corr._cache[0][(3, 1)] + 1)
    ok, failures, _ = verify_special_deformation(degree=3, min_order=-10, part_cap=7)
    assert not ok
    assert failures[0][:2] == ((1,), -4)


def test_negative_s_exponent_raises(monkeypatch):
    # <p_1>_2 sits at s-exponent -1, so a nonzero table value there is an error
    import gbgw.correlators as corr

    monkeypatch.setitem(corr._cache[2], (1,), Fraction(1, 8))
    with pytest.raises(ArithmeticError):
        correlator(2, (1,))
    with pytest.raises(ArithmeticError):
        correlator_monomial(2, (1,))


def test_correlator_denominators_divide_their_power_of_two():
    # the table holds C = 2^(|mu|+2g) c, built by a division-free recursion
    import gbgw.correlators as corr

    for mu in odd_partitions(17, 4):
        for g in range(5):
            _, c = correlator_monomial(g, mu)
            assert (c * 2 ** (sum(mu) + 2 * g)).denominator == 1, (g, mu)
    assert corr._cache and all(type(v) is int for table in corr._cache.values() for v in table.values())


def test_scaled_one_point_is_signed_catalan():
    for n in range(13):
        _, c = correlator_monomial(0, (2 * n + 1,))
        assert c * 2 ** (2 * n + 1) == (-1) ** (n + 1) * (comb(2 * n, n) // (n + 1)), n


@pytest.mark.parametrize("g, mu", [(1, (5, 3)), (2, (7, 3, 1))])
def test_distinguished_part_recomputation_bypasses_its_own_memo(monkeypatch, g, mu):
    # the independence check can fail: a wrong memo value at the key itself
    # is not read back by the recomputation through another part
    import gbgw.correlators as corr

    assert correlator(g, mu) == correlator_expand_distinguishing(g, mu)
    monkeypatch.setitem(corr._cache[g], mu, corr._cache[g][mu] + 1)
    assert correlator(g, mu) != correlator_expand_distinguishing(g, mu)


def _add(acc, poly, weight):
    for e, c in poly.items():
        v = acc.get(e, 0) + weight * c
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)


def _oracle(g, parts, memo):
    """<p_parts>_g as {s-exponent: Fraction}, by the recursion exactly as the
    correlators module docstring states it: the largest part distinguished,
    every ordered (a, b), every subset I of the other parts, sorted keys."""
    if g < 0:
        return {}
    key = (g, parts)
    if key in memo:
        return memo[key]
    if parts == (1,):
        out = {0: {1: Fraction(-1, 2)}, 1: {0: Fraction(1, 8)}}.get(g, {})
    else:
        big, rest = parts[0], parts[1:]
        k = (big - 1) // 2
        out = {}
        for a in range(1, 2 * k, 2):
            b = 2 * k - a
            _add(out, _oracle(g - 1, tuple(sorted(rest + (a, b), reverse=True)), memo), Fraction(1, 2))
            for g1 in range(g + 1):
                for r in range(len(rest) + 1):
                    for I in combinations(range(len(rest)), r):
                        left = tuple(sorted((a,) + tuple(rest[i] for i in I), reverse=True))
                        right = tuple(sorted((b,) + tuple(rest[i] for i in range(len(rest)) if i not in I),
                                             reverse=True))
                        product = {}
                        for e1, c1 in _oracle(g1, left, memo).items():
                            _add(product, {e1 + e2: c2 for e2, c2 in _oracle(g - g1, right, memo).items()}, c1)
                        _add(out, product, Fraction(1, 2))
        for i, m in enumerate(rest):
            merged = tuple(sorted(rest[:i] + (m + 2 * k,) + rest[i + 1:], reverse=True))
            _add(out, _oracle(g, merged, memo), m)
    memo[key] = out
    return out


def test_table_matches_the_recursion_as_stated():
    # an independent transcription of the docstring recursion on Fraction
    # s-polynomials: no scale, no a <-> b symmetry, no shared split lists
    memo = {}
    checked = nonzero = 0
    for mu in odd_partitions(13, 4):
        for g in range(4):
            want = _oracle(g, mu, memo)
            e, c = correlator_monomial(g, mu)
            assert want == ({} if e is None else {e: c}), (g, mu)
            checked += 1
            nonzero += e is not None
    assert checked == 4 * len(odd_partitions(13, 4)) and nonzero > checked // 2


def test_virasoro_table_reads_no_other_table(fresh_caches):
    # the Virasoro route is an independent pipeline: its table builds no EO
    # table and no affine coordinate
    import gbgw.affine as affine
    import gbgw.correlators as corr
    import gbgw.eo as eo
    import gbgw.schurq as schurq

    assert (corr._cache, corr._step_cache) == ({}, {})
    for mu in odd_partitions(21, 4):
        for g in range(5):
            correlator(g, mu)
    assert corr._cache and corr._step_cache
    assert (eo._omega_cache, eo._closed_cache, affine._affine_cache, schurq._theta_prod_cache) == (
        {}, {}, {}, {})


def _descending(parts):
    return tuple(sorted(parts, reverse=True))


@st.composite
def _step_case(draw):
    """(parts, pick): a descending tuple of 1 to 6 odd parts, and pick 0 or
    len - 1 (the two parts the recursion distinguishes)."""
    parts = _descending(2 * p + 1 for p in draw(st.lists(st.integers(0, 6), min_size=1, max_size=6)))
    return parts, draw(st.sampled_from((0, len(parts) - 1)))


@settings(max_examples=200)
@given(_step_case())
def test_split_keys_are_the_per_mask_enumeration(case):
    # the memoized step keys of (parts, pick) equal the oracles built by
    # sorting: per a <= b, the weight, the upper key and the per-mask
    # enumeration of the splits I|J of rest as a multiset of 2^n pairs
    # (I + a, J + b); per remaining part, the merged key
    from gbgw.correlators import _step_cache, _step_keys

    parts, pick = case
    rest = parts[:pick] + parts[pick + 1:]
    n, k = len(rest), (parts[pick] - 1) // 2
    splits, merges = keys = _step_keys(parts, pick)
    assert [(w, up) for w, up, _ in splits] == [
        (1 if a == 2 * k - a else 2, _descending(rest + (a, 2 * k - a))) for a in range(1, k + 1, 2)]
    for (_, _, pairs), a in zip(splits, range(1, k + 1, 2)):
        b = 2 * k - a
        want = Counter((_descending([rest[i] for i in range(n) if mask >> i & 1] + [a]),
                        _descending([rest[i] for i in range(n) if not mask >> i & 1] + [b]))
                       for mask in range(1 << n))
        assert len(pairs) == 1 << n
        assert Counter(pairs) == want
        assert all(list(side) == sorted(side, reverse=True) for pair in pairs for side in pair)
    assert merges == [(m, _descending(rest[:i] + rest[i + 1:] + (m + 2 * k,))) for i, m in enumerate(rest)]
    assert _step_cache.get((parts, pick)) is keys


@settings(max_examples=200)
@example((), 3)
@example((5, 3, 3, 1), 3)
@example((5, 3, 3, 1), 7)
@example((5, 3, 3, 1), 0)
@given(st.lists(st.integers(-3, 12), max_size=6).map(_descending), st.integers(-4, 13))
def test_insert_places_a_part_as_sorting_would(parts, p):
    # ties, the empty tuple and p above or below every part; both EO routes
    # form their keys through _insert as well
    from gbgw.correlators import _insert

    assert _insert(parts, p) == _descending(parts + (p,))
