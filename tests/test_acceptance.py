"""Acceptance suite: every criterion at its stated bounds, exact arithmetic.

Each test prints one line 'criterion NN ...: PASS (t s)'; failures raise
with full detail.  All comparisons are exact (Fraction/polynomial
equality); the stated runtimes are generous desk-scale targets.
"""

import time
from fractions import Fraction

import pytest

from gbgw.poly import ParamPoly, H, at_u, double_factorial, u_eval
from gbgw import affine, correlators as corr, eo, npoint, quantum, schurq


def _report(num, label, t0):
    print(f"[acceptance] criterion {num:02d} {label}: PASS ({time.time() - t0:.2f}s)")


def mono(c, e=0):
    return ParamPoly.monomial(Fraction(c), es=e)


def test_criterion_01_genus_zero_one_point_closed_form():
    t0 = time.time()
    for n in range(0, 9):
        got = corr.correlator(0, (2 * n + 1,))
        want = corr.one_point_closed(n)
        assert got == want, (n, got, want)
    _report(1, "genus-zero one-point closed form, n <= 8", t0)


def test_criterion_02_w02_golden_values():
    t0 = time.time()
    golden = {
        (-2, -2): mono(Fraction(-1, 2), 1),
        (-2, -4): mono(Fraction(3, 8), 2),
        (-4, -2): mono(Fraction(3, 8), 2),
        (-2, -6): mono(Fraction(-5, 16), 3),
        (-4, -4): mono(Fraction(-3, 8), 3),
        (-6, -2): mono(Fraction(-5, 16), 3),
    }
    table = corr.wgn(0, 2, 8)
    for key, want in golden.items():
        assert table.get(key) == want, key
    _report(2, "two-point golden coefficients", t0)


def test_criterion_03_eo_closed_forms():
    t0 = time.time()
    assert eo.omega(1, 1).coeffs == {(0,): mono(Fraction(-1, 8)), (1,): mono(Fraction(1, 8), 1)}
    assert eo.omega(0, 3).coeffs == {(0, 0, 0): mono(1, 1)}
    expect04 = {(0, 0, 0, 0): mono(-3, 1)}
    for i in range(4):
        key = [0, 0, 0, 0]
        key[i] = 1
        expect04[tuple(key)] = mono(3, 2)
    assert eo.omega(0, 4).coeffs == expect04
    expect12 = {
        (0, 0): mono(Fraction(1, 8)),
        (1, 0): mono(Fraction(-3, 4), 1),
        (0, 1): mono(Fraction(-3, 4), 1),
        (1, 1): mono(Fraction(3, 8), 2),
        (2, 0): mono(Fraction(5, 8), 2),
        (0, 2): mono(Fraction(5, 8), 2),
    }
    assert eo.omega(1, 2).coeffs == expect12
    _report(3, "spectral-curve invariants match closed forms", t0)


PAIRS = [(g, n) for g in range(0, 4) for n in range(1, 5) if 2 * g - 2 + n > 0]


def test_criterion_04_equivalence_theorem():
    t0 = time.time()
    total = 0
    for (g, n) in PAIRS:
        ok, mismatches, checked = eo.verify_equivalence_theorem(g, n, 13)
        assert ok, (g, n, mismatches[:3])
        total += checked
    assert total >= 500
    _report(4, f"x-converted invariants equal signed correlators ({total} checks, g<=3, n<=4, |mu|<=13)", t0)


def test_criterion_05_kernel_equivalence():
    t0 = time.time()
    ok, mismatches, compared = eo.compare_kernels(PAIRS)
    assert ok, mismatches
    assert compared == len(PAIRS) - 1
    _report(5, "type-B kernel gives the standard omega_{0,2} factor", t0)


def test_criterion_06_affine_vs_virasoro_bridge():
    t0 = time.time()
    ok, mismatches, checked = npoint.crosscheck_affine_vs_virasoro(3, 11, one_point_weight=15)
    assert ok, mismatches[:3]
    one = npoint.one_point_affine(1)
    assert one[-1] == ParamPoly.from_u((1, -4), 16, eh=1)  # (h/16) theta(1)
    _report(6, f"cycle sums equal bridged correlators ({checked} partitions, n<=3 w<=11, n=1 w<=15)", t0)


def test_criterion_07_pfaffian_hypergeometric_consistency():
    t0 = time.time()
    count = 0
    for lam in schurq.strict_partitions(10):
        assert affine.verify_pfaffian_expansion(lam), lam
        count += 1
    _report(7, f"signed Pfaffians equal expansion weights ({count} strict partitions, |lambda|<=10)", t0)


def test_criterion_08_schur_q_identity():
    t0 = time.time()
    delta = {1: Fraction(1)}
    count = 0
    for lam in schurq.strict_partitions(12):
        if lam:
            assert schurq.Q_lambda(lam, delta) == schurq.Q_delta_closed(lam), lam
            count += 1
    _report(8, f"Pfaffian-route Q at delta equals product formula ({count} partitions, |lambda|<=12)", t0)


def test_criterion_09_wronskian_suite():
    t0 = time.time()
    report = affine.verify_wronskian(20)
    assert report == {
        "wronskian_2z": True,
        "det_g_one": True,
        "phi1_ode": True,
        "phi2_from_phi1": True,
    }, report
    _report(9, "Wronskian, det G = 1, and basis ODE through order 20", t0)


def test_criterion_10_quantum_curve():
    t0 = time.time()
    bad = quantum.annihilation_defects(24)
    assert not bad, bad
    for k in range(0, 21):
        assert dict(quantum.commutator_on_monomial(k)) == {k: H}, k
    report = quantum.verify_ks(8, 20)
    assert report["p_ok"] and report["q_ok"], report["failures"]
    for k_plus_1, c in report["q_leading"]:
        expected = (ParamPoly.const(4), ParamPoly.from_u(schurq.theta_u(k_plus_1), 1, eh=2))
        assert c == expected, k_plus_1
    ok, detail, _ = quantum.semiclassical_identity()
    assert ok, detail
    _report(10, "annihilation, [P,Q] = h, span stability, semiclassical factor", t0)


def test_criterion_11_special_deformation():
    t0 = time.time()
    ok, failures, checked = corr.verify_special_deformation(degree=4, min_order=-20, part_cap=13)
    assert ok, failures[:5]
    assert checked > 0
    _report(11, "negative part of y^2 is s x^-2 at t-degree <= 3, orders to -20", t0)


def test_criterion_12_trivialization_at_quarter():
    t0 = time.time()
    quarter = Fraction(1, 4)
    for n in range(0, 13):
        for m in range(0, 13):
            r, p = affine.affine_coeff(n, m)
            assert r * u_eval(p, quarter) == 0, (n, m)
    # computed in (h, u), each value substituted once at u = 1/4
    for mu in corr.odd_partitions(11, 3):
        assert at_u(npoint.bridge(mu), quarter) == 0, mu
    values = [*npoint.one_point_affine(15).values(), *npoint.npoint_affine(2, 11).coeffs.values(),
              *npoint.npoint_affine(3, 11).coeffs.values()]
    assert values and not any(at_u(v, quarter) for v in values)
    _report(12, "affine table, bridged sums, and cycle sums all vanish at u = 1/4", t0)
