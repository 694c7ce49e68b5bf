from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgw.poly import ParamPoly, double_factorial
from gbgw.correlators import correlator
from gbgw.eo import (
    _flat_scatter,
    compare_kernels,
    normalized,
    omega,
    omega_closed_step,
    verify_equivalence_theorem,
    x_tensor,
)


def mono(c, e=0):
    return ParamPoly.monomial(Fraction(c), es=e)


def test_omega_11():
    t = omega(1, 1)
    assert t.coeffs == {(0,): mono(Fraction(-1, 8)), (1,): mono(Fraction(1, 8), 1)}


def test_omega_03():
    t = omega(0, 3)
    assert t.coeffs == {(0, 0, 0): mono(1, 1)}


def test_omega_04():
    # 3 s^2 sum_i 1/z_i^2 - 3 s, over prod z_i^2
    t = omega(0, 4)
    expect = {}
    expect[(0, 0, 0, 0)] = mono(-3, 1)
    for i in range(4):
        key = [0, 0, 0, 0]
        key[i] = 1
        expect[tuple(key)] = mono(3, 2)
    assert t.coeffs == expect


def test_omega_12():
    # (z0^4 z1^4 - 6s(z0^4 z1^2 + z0^2 z1^4) + 3 s^2 z0^2 z1^2 + 5 s^2 (z0^4 + z1^4)) / (8 z0^6 z1^6)
    t = omega(1, 2)
    expect = {
        (0, 0): mono(Fraction(1, 8)),
        (1, 0): mono(Fraction(-6, 8), 1),
        (0, 1): mono(Fraction(-6, 8), 1),
        (1, 1): mono(Fraction(3, 8), 2),
        (2, 0): mono(Fraction(5, 8), 2),
        (0, 2): mono(Fraction(5, 8), 2),
    }
    assert t.coeffs == expect


STABLE_PAIRS = [(g, n) for g in range(4) for n in range(1, 5) if 2 * g - 2 + n > 0]


def test_omega_symmetry(transposition_defects):
    # the bracket places each factor's external indices in their own slots;
    # a slot mix-up shows first where there are three or more externals.
    # Index 0 is the one each recursion singles out, so it is compared with
    # every external index (the Eynard-Orantin symmetry theorem)
    for (g, n) in STABLE_PAIRS:
        assert transposition_defects(omega(g, n).coeffs) == [], (g, n)


def test_omega_symmetry_check_sees_index_zero(monkeypatch, transposition_defects):
    # a planted value at (1, 0, 0, 0) keeps the externals symmetric, so only
    # the comparisons with index 0 can see it
    import gbgw.eo as eo

    table = eo._omega(0, 4)
    planted = {**table, (1, 0, 0, 0): table.get((1, 0, 0, 0), 0) + 1}
    monkeypatch.setitem(eo._omega_cache, (0, 4), planted)
    defects = transposition_defects(omega(0, 4).coeffs)
    assert defects and all(swap[0] == 0 for _, swap in defects), defects


def test_omega_closed_step_matches_residue_route():
    for (g, n) in [(1, 1), (0, 3), (0, 4), (1, 2), (2, 1), (1, 3), (2, 2)]:
        a = omega_closed_step(g, n)
        b = normalized(omega(g, n))
        assert a == b, (g, n)


def test_omega_closed_step_full_range():
    # the two computation routes agree entrywise on the whole computed range
    pairs = [(g, n) for g in range(0, 4) for n in range(1, 5) if 2 * g - 2 + n > 0]
    for (g, n) in pairs:
        assert omega_closed_step(g, n) == normalized(omega(g, n)), (g, n)


# The Eynard-Orantin recursion (math-ph/0702045), run by sympy from the curve
# alone: it reads neither route's tables, seeds or kernel expansion.  The
# pairs go by 2g - 2 + n, so each reads only the pairs before it
ORACLE_PAIRS = [(1, 1), (0, 3), (1, 2), (2, 1)]


@cache
def _curve_oracle():
    """{(g, n): {k: ParamPoly}} on ORACLE_PAIRS, keyed as omega is.

    From x = sqrt(z^2 - s), y = z/x and B(z1, z2) = dz1 dz2/(z1 - z2)^2: the
    branch point is the zero of dx, the involution sigma fixes x, and
    K(z0, z) = (1/2) int_{sigma(z)}^{z} B(z0, .) / ((y(z) - y(sigma(z))) dx(z)).
    W_{g,n}(z0, J) is the residue at the branch point of K(z0, z) times
    W_{g-1,n+1}(z, sigma(z), J) + sum' W(z, I) W(sigma(z), J - I), times
    d sigma(z)/dz from the second differential.  omega_{0,1} is left out,
    omega_{0,2} is B, and (1,1) is recursed, not seeded."""
    import sympy as sp

    s, z, w = sp.symbols("s z w")
    zs = sp.symbols("z0:3")
    x = sp.sqrt(z ** 2 - s)
    y = z / x
    (branch,) = sp.roots(sp.numer(sp.together(sp.diff(x, z))), z)
    sigma = -z
    assert branch == 0 and x.subs(z, sigma) == x

    def bergman(a, b):
        return 1 / (a - b) ** 2

    primitive = sp.integrate(bergman(zs[0], w), w)
    kernel = sp.cancel((primitive.subs(w, z) - primitive.subs(w, sigma))
                       / (2 * (y - y.subs(z, sigma)) * sp.diff(x, z))) * sp.diff(sigma, z)

    def residue(factors):
        # the z^-1 coefficient of the product of the factors' Laurent series
        # at z = 0, each the Taylor series of its regular part z^order f over
        # z^order; terms past z^(total - order - 1) cannot reach z^-1
        parts = []
        for f in map(sp.cancel, factors):
            order = sp.Poly(sp.denom(f), z).monoms()[-1][0]
            parts.append((sp.cancel(f * z ** order), order))
        total = sum(order for _, order in parts)
        series = {0: 1}
        for f, order in parts:
            terms = {}
            for p in range(total):
                terms[p - order] = f.subs(z, branch) / factorial(p)
                f = sp.diff(f, z)
            convolved = {}
            for a, c in series.items():
                for b, d in terms.items():
                    convolved[a + b] = convolved.get(a + b, 0) + c * d
            series = convolved
        return series.get(-1, 0)

    forms = {}

    def form(g, n, points):
        return bergman(*points) if (g, n) == (0, 2) else forms[g, n].xreplace(dict(zip(zs, points)))

    out = {}
    for g, n in ORACLE_PAIRS:
        rest = zs[1:n]
        brackets = [[form(g - 1, n + 1, (z, sigma, *rest))]] if g else []
        for g1 in range(g + 1):
            for size in range(n):
                for part in combinations(rest, size):
                    other = tuple(v for v in rest if v not in part)
                    if (g1 or part) and (g - g1 or other):
                        brackets.append([form(g1, size + 1, (z, *part)),
                                         form(g - g1, len(other) + 1, (sigma, *other))])
        forms[g, n] = sp.cancel(sum(residue([kernel, *bracket]) for bracket in brackets))
        # W_{g,n} = sum_k W[k] s^e prod z_i^(-2k_i-2), read off at z_i = 1/t_i
        ts = sp.symbols(f"t0:{n}")
        raw = forms[g, n].xreplace({v: 1 / t for v, t in zip(zs, ts)}) / prod(t ** 2 for t in ts)
        table = {}
        for (*powers, e), q in sp.Poly(sp.cancel(raw), *ts, s).terms():
            assert all(p % 2 == 0 for p in powers), (g, n, powers)
            table.setdefault(tuple(p // 2 for p in powers), {})[(0, 0, e, 0)] = Fraction(int(q.p), int(q.q))
        out[g, n] = {k: ParamPoly(terms) for k, terms in table.items()}
    return out


def _oracle_mismatches():
    """The ORACLE_PAIRS where omega, and where omega_closed_step (the
    A-normalization, W^k / prod (2k_i + 1)!!), differ from the oracle."""
    def dfact(k):  # prod (2k_i + 1)!!, with (2i + 1)!! = (2i + 1)! / (2^i i!)
        return prod(factorial(2 * i + 1) // (2 ** i * factorial(i)) for i in k)

    raw = _curve_oracle()
    normalized_ = {gn: {k: ParamPoly({e: q / dfact(k) for e, q in v.terms.items()}) for k, v in table.items()}
                   for gn, table in raw.items()}
    return ([gn for gn, want in raw.items() if omega(*gn).coeffs != want],
            [gn for gn, want in normalized_.items() if omega_closed_step(*gn).coeffs != want])


def test_both_routes_match_the_curve_oracle():
    # entry by entry, s-exponents included, on ORACLE_PAIRS
    assert _oracle_mismatches() == ([], [])


def test_curve_oracle_sees_a_planted_seed(fresh_caches, monkeypatch):
    # the residue route's omega_{1,1} off at k = 1, and every pair that reads it
    import gbgw.eo as eo

    monkeypatch.setitem(eo._omega_cache, (1, 1), {(0,): -1, (1,): 2})
    assert _oracle_mismatches() == ([(1, 1), (1, 2), (2, 1)], [])


def test_b01_b02_instances():
    # the (0,1) and (0,2) flat-coordinate tensors come from the closed forms
    # B^k_{0,1} = -(-s)^(k+1) / (2^(k+1) (k+1)! (2k+1)) and
    # B^{k1,k2}_{0,2} = (-s)^w / (2^w k1! k2! w), w = k1 + k2 + 1;
    # x_tensor hands out the W coefficients (-1)^n (2l+1)!! B^l
    assert x_tensor(0, 1, 1).coeffs == {(0,): mono(Fraction(-1, 2), 1)}
    assert x_tensor(0, 1, 3).get((1,)) == mono(Fraction(1, 8), 2)
    assert x_tensor(0, 2, 2).coeffs == {(0, 0): mono(Fraction(-1, 2), 1)}
    assert x_tensor(0, 2, 4).get((1, 0)) == mono(Fraction(3, 8), 2)


def test_b01_b02_match_correlators():
    # W_{0,1}^k = -(2k+1)!! B_{0,1}^k = <p_{2k+1}>_0 and W_{0,2} pairs likewise,
    # with an entry at every index of the weight range
    b01 = x_tensor(0, 1, 11).coeffs
    assert set(b01) == {(k,) for k in range(6)}
    for k in range(6):
        assert b01[(k,)] == correlator(0, (2 * k + 1,)), k
    b02 = x_tensor(0, 2, 14).coeffs
    assert set(b02) == {(k1, k2) for k1 in range(7) for k2 in range(7 - k1)}
    for (k1, k2) in b02:
        mu = tuple(sorted((2 * k1 + 1, 2 * k2 + 1), reverse=True))
        assert b02[(k1, k2)] == correlator(0, mu), (k1, k2)


def test_s_zero_specialization_is_original_model():
    # at s = 0 the W coefficients reproduce the original-model correlators
    for (g, n) in [(1, 1), (1, 2), (2, 1)]:
        w = x_tensor(g, n, 9)
        assert w.coeffs, (g, n)
        for kk, v in w.coeffs.items():
            mu = tuple(sorted((2 * k + 1 for k in kk), reverse=True))
            assert v.coeff(es=0) == correlator(g, mu).coeff(es=0), (g, n, kk)


def test_x_tensor_entries_are_the_correlators():
    # omega_{g,n} = (-1)^n W_{g,n} dx_1...dx_n: the entry at l is
    # <p_{2l_1+1} ... p_{2l_n+1}>_g, s-exponent included, and zero where no key is
    w = 13
    for (g, n) in [(0, 1), (0, 2)] + [(g, n) for (g, n) in STABLE_PAIRS if g <= 2 and n <= 3]:
        lmax = (w - n) // 2
        ls = [ll for ll in product(range(lmax + 1), repeat=n) if sum(ll) <= lmax]
        t = x_tensor(g, n, w)
        assert t.coeffs.keys() <= set(ls), (g, n)
        for ll in ls:
            mu = tuple(sorted((2 * k + 1 for k in ll), reverse=True))
            assert t.get(ll) == correlator(g, mu), (g, n, ll)


def test_transform_consistency_with_binomial_closed_form():
    # z^(-2k-2) dz = sum_m C(-k-3/2, m) s^m x^(-2m-2k-2) dx: the transform of
    # a unit A-entry at k (raw coefficient (2k+1)!!), in normalized
    # B-coefficients, at s = 1, is (2k+1)!! C(-k-3/2, m)/(2k+2m+1)!! = (-1)^m/(2^m m!)
    for k in range(0, 5):
        t, scale = _flat_scatter({(k,): double_factorial(2 * k + 1)}, 1, 2 * (k + 4) + 1)
        b = {ll: Fraction(v, scale * double_factorial(2 * ll[0] + 1)) for ll, v in t.items()}
        expect = {(k + m,): Fraction((-1) ** m, 2 ** m * factorial(m)) for m in range(0, 5)}
        assert b == expect, k


def test_equivalence_theorem_small():
    for (g, n) in [(1, 1), (0, 3), (0, 4), (1, 2), (2, 1)]:
        ok, mismatches, checked = verify_equivalence_theorem(g, n, 9)
        assert ok, (g, n, mismatches[:3])
        assert checked > 0


def test_w11_x_expansion():
    # W_{1,1} = 1/(8x^2) - 5s/(16x^4) + 35s^2/(64x^6) - ...
    b = x_tensor(1, 1, 9)
    assert b.get((0,)) == mono(Fraction(1, 8))
    assert b.get((1,)) == mono(Fraction(-5, 16), 1)
    assert b.get((2,)) == mono(Fraction(35, 64), 2)


def test_kernel_equivalence_small():
    ok, mismatches, compared = compare_kernels([(1, 1), (0, 3), (1, 2), (0, 4), (2, 1), (2, 2), (1, 3)])
    assert ok, mismatches
    assert compared == 6


def test_kernel_comparison_needs_a_recursed_pair(tmp_path):
    # both kernels share the (1,1) seed, which reads no omega_{0,2} factor,
    # so (1,1) alone compares nothing, and verify fails a check that
    # compares nothing
    import json
    from gbgw.cli import main

    assert compare_kernels([(1, 1)])[2] == 0
    assert compare_kernels([])[2] == 0
    out = tmp_path / "eo.json"
    assert main(["verify", "--suite", "eo", "--genus-max", "1", "--arity-max", "1",
                 "--out", str(out)]) == 1
    checks = {c["identity"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["eo/kernel-comparison"]["detail"] == "no instance checked"


def test_equivalence_beyond_acceptance_range():
    # deeper genus exercises the recursion closure through many-point entries
    ok, mismatches, checked = verify_equivalence_theorem(4, 1, 15)
    assert ok and checked == 8, mismatches[:2]
    ok, mismatches, checked = verify_equivalence_theorem(4, 2, 13)
    assert ok and checked > 0, mismatches[:2]


def test_unstable_instability_rejected():
    with pytest.raises(ValueError):
        omega(0, 2)
    with pytest.raises(ValueError):
        omega(0, 1)


def test_negative_s_exponent_raises(monkeypatch):
    # the entry k = (0,) of omega_{2,1} sits at s-exponent -1
    import gbgw.eo as eo

    monkeypatch.setitem(eo._omega_cache, (2, 1), {(0,): Fraction(1)})
    monkeypatch.setitem(eo._closed_cache, (2, 1), {(0,): Fraction(1)})
    with pytest.raises(ArithmeticError):
        omega(2, 1)
    with pytest.raises(ArithmeticError):
        omega_closed_step(2, 1)


def test_closed_step_reads_no_residue_table(fresh_caches):
    # the coefficient route is an independent pipeline: it builds no omega table
    import gbgw.eo as eo

    omega_closed_step(3, 3)
    assert eo._omega_cache == {}


def test_residue_route_reads_no_other_table(fresh_caches):
    # the residue route is an independent pipeline: it builds no Virasoro
    # table and no coefficient-route table
    from gbgw import correlators
    import gbgw.eo as eo

    for (g, n) in STABLE_PAIRS:
        omega(g, n)
    assert eo._omega_cache
    assert (correlators._cache, correlators._split_cache) == ({}, {})
    assert eo._closed_cache == {}


def test_flat_transform_reads_no_other_table(fresh_caches):
    # x_tensor reads the residue table only: no Virasoro table and no
    # coefficient-route table is built on the way
    from gbgw import correlators
    import gbgw.eo as eo

    for (g, n) in STABLE_PAIRS:
        assert x_tensor(g, n, 13).coeffs, (g, n)
    assert (correlators._cache, correlators._split_cache) == ({}, {})
    assert eo._closed_cache == {}


def test_flat_transform_empty_weight_range():
    # max_weight < n admits no index: every result is empty, nothing raises
    for n in range(1, 5):
        raw = {(0,) * n: 1, (1,) * n: -3}
        for w in range(n):
            assert _flat_scatter(raw, n, w) == ({}, 1)
    for (g, n) in STABLE_PAIRS + [(0, 1), (0, 2)]:
        for w in range(n):
            assert x_tensor(g, n, w).coeffs == {}, (g, n, w)
            assert verify_equivalence_theorem(g, n, w) == (True, [], 0), (g, n, w)


def test_residue_pole_bound_guard(monkeypatch):
    # one planted (1,2) entry beyond its pole bound pushes (1,3) past its own
    import gbgw.eo as eo

    planted = {**eo._omega(1, 2), (4, 0): 1}
    monkeypatch.setitem(eo._omega_cache, (1, 2), planted)
    monkeypatch.delitem(eo._omega_cache, (1, 3), raising=False)
    with pytest.raises(ArithmeticError, match="exceeds pole bound"):
        omega(1, 3)


def test_closed_step_pole_bound_guard(monkeypatch):
    # one planted (1,2) entry beyond its pole bound pushes (1,3) past its own
    import gbgw.eo as eo

    planted = {**eo._closed(1, 2), (4, 0): 1}
    monkeypatch.setitem(eo._closed_cache, (1, 2), planted)
    monkeypatch.delitem(eo._closed_cache, (1, 3), raising=False)
    with pytest.raises(ArithmeticError):
        omega_closed_step(1, 3)


def test_closed_tables_store_one_entry_per_orbit(fresh_caches):
    # every stored key has nonincreasing externals, and each table holds one
    # entry per orbit: full storage, or a lost orbit, changes a stored count
    import gbgw.eo as eo

    omega_closed_step(3, 3)
    for (g, n), table in eo._closed_cache.items():
        for kk in table:
            assert list(kk[1:]) == sorted(kk[1:], reverse=True), (g, n, kk)
    counts = {(3, 3): (122, 216), (2, 4): (94, 329), (1, 5): (44, 252), (0, 6): (14, 84)}
    for (g, n), (stored, expanded) in counts.items():
        assert len(eo._closed_cache[(g, n)]) == stored, (g, n)
        assert len(omega_closed_step(g, n).coeffs) == expanded, (g, n)


def test_residue_tables_store_one_entry_per_orbit(fresh_caches):
    # the residue route stores the coefficient route's shape: nonincreasing
    # externals, one entry per orbit, and the same integers at every key
    import gbgw.eo as eo

    omega(3, 3)
    for (g, n), table in eo._omega_cache.items():
        for kk in table:
            assert list(kk[1:]) == sorted(kk[1:], reverse=True), (g, n, kk)
    counts = {(3, 3): (122, 216), (2, 4): (94, 329), (1, 5): (44, 252), (0, 6): (14, 84)}
    for (g, n), (stored, expanded) in counts.items():
        assert len(eo._omega_cache[(g, n)]) == stored, (g, n)
        assert len(omega(g, n).coeffs) == expanded, (g, n)
    omega_closed_step(3, 3)
    assert eo._omega_cache == eo._closed_cache


def test_closed_step_expands_a_planted_orbit_to_every_ordering(monkeypatch):
    # one stored (1,3) entry off by one: both orderings of its externals change,
    # and nothing else does
    import gbgw.eo as eo

    planted = dict(eo._closed(1, 3))
    planted[(0, 1, 0)] += 1
    monkeypatch.setitem(eo._closed_cache, (1, 3), planted)
    got = omega_closed_step(1, 3).coeffs
    want = normalized(omega(1, 3)).coeffs
    assert {kk for kk in got.keys() | want.keys() if got.get(kk) != want.get(kk)} == {(0, 1, 0), (0, 0, 1)}


def test_public_values_are_built_once_per_orbit():
    # (0,1,0) and (0,0,1) are one orbit of the externals: both routes build
    # its public value once and place the same object at both orderings
    for route in (omega, omega_closed_step):
        coeffs = route(1, 3).coeffs
        assert coeffs[(0, 1, 0)] is coeffs[(0, 0, 1)], route.__name__


@settings(max_examples=100)
@given(st.integers(0, 5), st.integers(0, 9), st.integers(0, 9))
def test_orbits_are_the_nonincreasing_tuples_of_the_product(length, total, top):
    from gbgw.eo import _orbits

    want = [kk for kk in product(range(top + 1), repeat=length)
            if sum(kk) <= total and list(kk) == sorted(kk, reverse=True)]
    assert _orbits(length, total, top) == want


@settings(max_examples=100)
@given(st.integers(0, 9), st.lists(st.integers(0, 4), max_size=6))
def test_orderings_expand_an_orbit_to_its_distinct_permutations(k0, ext):
    from gbgw.eo import _orderings

    ext = tuple(sorted(ext, reverse=True))
    expanded = _orderings({(k0,) + ext: 7})
    assert set(expanded.values()) == {7}
    assert all(kk[0] == k0 and tuple(sorted(kk[1:], reverse=True)) == ext for kk in expanded)
    assert len(expanded) == factorial(len(ext)) // prod(factorial(m) for m in Counter(ext).values())


def test_reset_caches_empties_every_memo():
    import gbgw
    from gbgw import affine, correlators, eo, schurq

    memos = (correlators._cache, correlators._split_cache, eo._omega_cache, eo._closed_cache,
             affine._affine_cache, schurq._theta_prod_cache)
    correlator(1, (3,))
    omega(1, 2)
    affine.affine_coeff(2, 1)
    before = omega_closed_step(2, 2)
    assert all(memos)
    gbgw.reset_caches()
    assert all(memo == {} for memo in memos)
    assert omega_closed_step(2, 2) == before


def test_omega_denominators_divide_their_power_of_two():
    # the residue table holds D = 2^(3(2g-2+n)) W, built without division
    import gbgw.eo as eo

    for g in range(4):
        for n in range(1, 5):
            if 2 * g - 2 + n <= 0:
                continue
            scale = 2 ** (3 * (2 * g - 2 + n))
            for kk, value in omega(g, n).coeffs.items():
                (_, c), = value.sorted_terms()
                assert (c * scale).denominator == 1, (g, n, kk)
    assert all(type(v) is int for table in eo._omega_cache.values() for v in table.values())


def test_closed_table_holds_integers():
    # the coefficient table holds D = 8^(2g-2+n) W as ints, built without division
    import gbgw.eo as eo

    for g in range(4):
        for n in range(1, 5):
            if 2 * g - 2 + n <= 0:
                continue
            scale = 8 ** (2 * g - 2 + n)
            for kk, value in omega_closed_step(g, n).coeffs.items():
                (_, c), = value.sorted_terms()
                dfact = 1
                for k in kk:
                    dfact *= double_factorial(2 * k + 1)
                assert (c * scale * dfact).denominator == 1, (g, n, kk)
    assert eo._closed_cache
    assert all(type(v) is int for table in eo._closed_cache.values() for v in table.values())
