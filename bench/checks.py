"""Correctness checks on one pass's outputs, made apart from the timed pass.

Each check reads the JSON outputs a pass wrote and returns
``(instances, failures)``: how many values it inspected and a list of
messages.  A check passes only when it inspected at least one value and
found no failure (``run_check``).  The checks compare against computations
made here with ``sympy`` or plain ``Fraction`` arithmetic, against exact
method properties (monomial shape, support band, symmetry, vanishing at
u = 1/4), or against another route of the program that the pass did not
time (the residue tables for eo-coefficient).  None of them compares with a
stored copy of an earlier output.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from fractions import Fraction
from math import factorial

import workloads as wl


def poly(rows):
    """{(eh, eu, es, ev): Fraction} from serialized rows."""
    return {tuple(r[:4]): Fraction(r[4]) for r in rows}


def tensor(rows):
    return {tuple(k): poly(v) for k, v in rows}


def is_dyadic(q):
    d = q.denominator
    return d & (d - 1) == 0


def _monomial_failures(label, value, es):
    """The value must be exactly c * s^es with a nonzero dyadic c."""
    if list(value) != [(0, 0, es, 0)]:
        return [f"{label}: expected one term c*s^{es}, got {value}"]
    c = value[(0, 0, es, 0)]
    if not c or not is_dyadic(c):
        return [f"{label}: coefficient {c} is not a nonzero dyadic rational"]
    return []


class Reference:
    """Independent values, computed once per run on first use."""

    def __init__(self, root):
        self.root = root
        self._memo = {}

    def get(self, name):
        if name not in self._memo:
            self._memo[name] = getattr(self, "_" + name.replace("-", "_"))()
        return self._memo[name]

    def _one_point(self):
        """{m: coefficient c of s^((m+1)/2)} for <p_m>_0 from 1 - sqrt(1 + s/x^2)."""
        import sympy as sp

        s, y = sp.symbols("s y")  # y = 1/x
        ser = sp.series(1 - sp.sqrt(1 + s * y ** 2), y, 0, wl.TABLE_WEIGHT + 3).removeO()
        out = {}
        for m in range(1, wl.TABLE_WEIGHT + 1, 2):
            c = sp.expand(ser).coeff(y, m + 1).coeff(s, (m + 1) // 2)
            out[m] = Fraction(int(c.p), int(c.q))
        return out

    def _two_point(self):
        """{(a, b): c} with <p_a p_b>_0 = c s^((a+b)/2), a >= b, from the closed form

        W02 = X^2 Y^2 [(X^2 + Y^2 + 2 s X^2 Y^2) (1+sX^2)^(-1/2) (1+sY^2)^(-1/2)
                       - X^2 - Y^2] / (X^2 - Y^2)^2,   X = 1/x, Y = 1/y,

        expanded by total degree (X = t p, Y = t q) with exact division.
        """
        import sympy as sp

        p, q, s, t, z = sp.symbols("p q s t z")
        top = wl.TABLE_WEIGHT - 1  # a + b <= TABLE_WEIGHT with a + b even
        kmax = top // 2 + 1
        inv_sqrt = sp.series((1 + z) ** sp.Rational(-1, 2), z, 0, kmax + 1).removeO()
        ax = sp.expand(inv_sqrt.subs(z, s * t ** 2 * p ** 2))
        ay = sp.expand(inv_sqrt.subs(z, s * t ** 2 * q ** 2))
        g = sp.Poly(sp.expand((p ** 2 + q ** 2 + 2 * s * t ** 2 * p ** 2 * q ** 2) * ax * ay
                              - p ** 2 - q ** 2), t)
        den = sp.Poly((p ** 2 - q ** 2) ** 2, p, q, s)
        out = {}
        for m in range(2, top + 1, 2):
            gm = sp.Poly(g.coeff_monomial(t ** m), p, q, s)
            quo, rem = sp.div(gm, den)
            if not rem.is_zero:
                raise ArithmeticError(f"W02 numerator not divisible at degree {m}")
            for (i, j, k), c in quo.terms():
                a, b = i + 1, j + 1  # X^(a+1) Y^(b+1) <- p^2 q^2 * p^i q^j
                if a >= b:
                    if k != (a + b) // 2:
                        raise ArithmeticError("W02 closed form is not homogeneous in s")
                    out[(a, b)] = Fraction(int(c.p), int(c.q))
        return out

    def _affine_table(self):
        """gen_A(direct) entries of A from the closed form of a_{n,m}:
        (-n,-m) -> (-1)^(m+n+1) a_{n,m}, (-n,0) -> (-1)^n/2 a_{0,n},
        (0,-n) -> -(-1)^n/2 a_{0,n}, over the window [AFFINE_LO, 0]^2."""
        top = -wl.AFFINE_LO
        want = {}
        for n in range(1, top + 1):
            for m in range(1, top + 1):
                if n != m:
                    sign = -1 if (m + n) % 2 == 0 else 1
                    want[(-n, -m)] = {k: sign * c for k, c in affine_coordinate(n, m).items()}
            half = Fraction((-1) ** n, 2)
            a0n = affine_coordinate(0, n)
            want[(-n, 0)] = {k: half * c for k, c in a0n.items()}
            want[(0, -n)] = {k: -half * c for k, c in a0n.items()}
        return want

    def _residue(self):
        """Normalized residue-route tables eo.normalized(eo.omega(g, n)) for CLOSED_PAIRS."""
        sys.path.insert(0, os.path.join(self.root, "src"))
        from gbgw import eo

        return {(g, n): tensor(wl.tensor_rows(eo.normalized(eo.omega(g, n)).coeffs))
                for g, n in wl.CLOSED_PAIRS}


def affine_coordinate(n, m):
    """a_{n,m} from its closed form, as {(eh, eu, es, ev): Fraction}, independently of gbgw."""

    def theta_prod(k):
        out = {0: Fraction(1)}  # polynomial in u
        for j in range(1, k + 1):
            c0 = (2 * j - 1) ** 2
            nxt = {}
            for e, c in out.items():
                nxt[e] = nxt.get(e, 0) + c * c0
                nxt[e + 1] = nxt.get(e + 1, 0) - 4 * c
            out = nxt
        return out

    def times(a, b):
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                out[i + j] = out.get(i + j, 0) + x * y
        return out

    if n == m:
        return {}
    if n == 0 or m == 0:
        k = max(n, m)
        scalar = Fraction(1, 2 ** (3 * k + 1) * factorial(k)) * (1 if n == 0 else -1)
        u_poly, eh = theta_prod(k), k
    else:
        scalar = Fraction(m - n, m + n) / (2 ** (3 * m + 3 * n + 2) * factorial(m) * factorial(n))
        u_poly, eh = times(theta_prod(m), theta_prod(n)), m + n
    return {(eh, e, 0, 0): scalar * c for e, c in u_poly.items() if c}


def at_quarter(value):
    """Substitute u = 1/4; returns {(eh, es, ev): Fraction} without zeros."""
    out = {}
    for (eh, eu, es, ev), c in value.items():
        key = (eh, es, ev)
        out[key] = out.get(key, 0) + c * Fraction(1, 4) ** eu
    return {k: c for k, c in out.items() if c}


def _omega_shape(tables, expected_pairs, shape):
    """Support band, symmetry and monomial shape of EO tables.

    For stable (g, n) the nonzero entries sit exactly at index vectors k with
    g - 1 <= |k| <= 3g - 3 + n (so every k_i respects the pole bound), are
    symmetric in the slots, and equal c * s^(|k| + 1 - g); ``shape`` checks
    that last property.
    """
    instances, failures = 0, []
    got = {(g, n): t for g, n, t in tables}
    if sorted(got) != sorted(expected_pairs):
        failures.append(f"tables present for {sorted(got)}, expected {sorted(expected_pairs)}")
    for (g, n), rows in got.items():
        t = tensor(rows)
        bound = 3 * g - 3 + n
        band = {k for k in itertools.product(range(bound + 1), repeat=n) if g - 1 <= sum(k) <= bound}
        if set(t) != band:
            failures.append(f"({g},{n}): support {len(t)} keys differs from the band of {len(band)}; "
                            f"extra {sorted(set(t) - band)[:3]}, missing {sorted(band - set(t))[:3]}")
        for k, v in t.items():
            instances += 1
            if any(ki > bound for ki in k):
                failures.append(f"({g},{n}) {k}: index above the pole bound {bound}")
            for perm in set(itertools.permutations(k)):
                if t.get(perm) != v:
                    failures.append(f"({g},{n}): entry {k} differs from its permutation {perm}")
                    break
            failures += shape(f"({g},{n}) {k}", v, sum(k) + 1 - g)
    return instances, failures


def _single_term_failures(label, value, es):
    """The value must be exactly c * s^es with c nonzero (any denominator)."""
    if list(value) != [(0, 0, es, 0)] or not value[(0, 0, es, 0)]:
        return [f"{label}: expected one term c*s^{es}, got {value}"]
    return []


# -- virasoro-eo -----------------------------------------------------------------


def check_table_shape(out, ref, peer):
    """Every correlator is c * s^e, e = (|mu| - n + 2 - 2g)/2, dyadic c; zero iff e < 0."""
    rows = out.get("table", [])
    failures = []
    keys = [(g, tuple(mu)) for g, mu, _ in rows]
    if keys != wl.table_keys():
        failures.append(f"table has {len(keys)} entries, expected {len(wl.table_keys())} in input order")
    for g, mu, v in rows:
        e2 = sum(mu) - len(mu) + 2 - 2 * g
        value = poly(v)
        if e2 < 0:
            if value:
                failures.append(f"<{mu}>_{g} should vanish, got {value}")
        else:
            failures += _monomial_failures(f"<{mu}>_{g}", value, e2 // 2)
    return len(rows), failures


def check_one_point_sympy(out, ref, peer):
    want = ref.get("one-point")
    failures, instances = [], 0
    for g, mu, v in out.get("table", []):
        if g == 0 and len(mu) == 1:
            instances += 1
            m = mu[0]
            if poly(v) != {(0, 0, (m + 1) // 2, 0): want[m]}:
                failures.append(f"<p_{m}>_0 = {poly(v)}, sympy gives {want[m]} s^{(m + 1) // 2}")
    if instances != len(want):
        failures.append(f"compared {instances} one-point values, sympy has {len(want)}")
    return instances, failures


def check_two_point_sympy(out, ref, peer):
    want = ref.get("two-point")
    failures, instances = [], 0
    for g, mu, v in out.get("table", []):
        if g == 0 and len(mu) == 2:
            instances += 1
            a, b = mu
            expect = {(0, 0, (a + b) // 2, 0): want[(a, b)]} if want.get((a, b)) else {}
            if poly(v) != expect:
                failures.append(f"<p_{a} p_{b}>_0 = {poly(v)}, sympy gives {expect}")
    if instances != len(want):
        failures.append(f"compared {instances} two-point values, sympy has {len(want)}")
    return instances, failures


def check_omega_shape(out, ref, peer):
    return _omega_shape(out.get("omega", []), wl.OMEGA_PAIRS, _monomial_failures)


def check_equivalence(out, ref, peer):
    """verify_equivalence_theorem passed on every pair and inspected entries."""
    rows = out.get("equivalence", [])
    failures = []
    if [(g, n) for g, n, *_ in rows] != wl.OMEGA_PAIRS:
        failures.append(f"equivalence results for {len(rows)} pairs, expected {len(wl.OMEGA_PAIRS)}")
    instances = 0
    for g, n, ok, mismatches, checked in rows:
        instances += checked
        if not ok or mismatches or checked <= 0:
            failures.append(f"({g},{n}): ok={ok}, {mismatches} mismatches of {checked}")
    return instances, failures


# -- eo-coefficient --------------------------------------------------------------


def check_closed_vs_residue(out, ref, peer):
    want = ref.get("residue")
    got = {(g, n): tensor(rows) for g, n, rows in out.get("closed", [])}
    failures, instances = [], 0
    if sorted(got) != sorted(want):
        failures.append(f"closed tables for {sorted(got)}, expected {sorted(want)}")
    for pair, t in got.items():
        w = want.get(pair, {})
        for k in sorted(set(t) | set(w)):
            instances += 1
            if t.get(k) != w.get(k):
                failures.append(f"{pair} {k}: closed {t.get(k)} != residue {w.get(k)}")
    return instances, failures


def check_closed_shape(out, ref, peer):
    # normalized A-values carry the odd factor 1/prod (2k_i+1)!!, so their
    # denominators are not dyadic
    return _omega_shape(out.get("closed", []), wl.CLOSED_PAIRS, _single_term_failures)


# -- affine-bridge ---------------------------------------------------------------


def _expected_cycle_keys(n):
    w = wl.cycle_sum_weight(n)
    keys = set()
    for mu in wl.odd_partitions(w, n):
        if len(mu) == n:
            keys.update(tuple(-m for m in p) for p in itertools.permutations(mu))
    return keys


def check_cycle_vs_bridge(out, ref, peer):
    """Cycle sums equal bridged correlators on every partition; each cycle-sum
    tensor is symmetric with exactly the expected support; and every value
    for mu is an (h, u)-polynomial of pure h-degree |mu|, u-degree at most that."""
    sums = {n: tensor(rows) for n, rows in out.get("cycle_sums", [])}
    bridge = {tuple(mu): poly(v) for mu, v in out.get("bridge", [])}
    failures, instances = [], 0
    if sorted(sums) != list(range(1, wl.AFFINE_ARITY + 1)):
        failures.append(f"cycle sums for n in {sorted(sums)}")
    if sorted(bridge) != sorted(wl.bridge_partitions()):
        failures.append(f"bridge values for {len(bridge)} partitions, expected {len(wl.bridge_partitions())}")
    for n, t in sums.items():
        if set(t) != _expected_cycle_keys(n):
            failures.append(f"n={n}: cycle-sum support differs from all orderings of odd partitions")
        for key, v in t.items():
            if t.get(tuple(sorted(key))) != v:
                failures.append(f"n={n}: entry {key} differs from its sorted ordering")
            failures += _h_degree_failures(tuple(-e for e in key), v)
    for mu, want in bridge.items():
        instances += 1
        failures += _h_degree_failures(mu, want)
        got = sums.get(len(mu), {}).get(tuple(-m for m in mu), {})
        if got != want or not want:
            failures.append(f"{mu}: cycle sum {got} != bridge {want}")
    return instances, failures


def _h_degree_failures(mu, value):
    w = sum(mu)
    for (eh, eu, es, ev) in value:
        if eh != w or es or ev or eu > eh:
            return [f"{mu}: term h^{eh} u^{eu} s^{es} v^{ev} breaks h-degree {w}"]
    return []


def check_vanish_at_quarter(out, ref, peer):
    """Every affine coordinate (the entries of A from gen_A direct) and every
    cycle sum vanishes at u = 1/4; both tables have their full support."""
    failures, instances = [], 0
    groups = [(f"cycle sum n={n}", rows, _expected_cycle_keys(n)) for n, rows in out.get("cycle_sums", [])]
    if "gen_A_direct" in out:
        groups.append(("gen_A direct A", out["gen_A_direct"]["A"], set(ref.get("affine-table"))))
    if len(groups) != wl.AFFINE_ARITY + 1:
        failures.append(f"{len(groups)} tables to inspect, expected {wl.AFFINE_ARITY + 1}")
    for label, rows, keys in groups:
        if {tuple(k) for k, _ in rows} != keys:
            failures.append(f"{label}: support differs from the expected {len(keys)} keys")
        for k, v in rows:
            instances += 1
            left = at_quarter(poly(v))
            if left:
                failures.append(f"{label} {k}: {left} at u = 1/4")
    return instances, failures


def check_affine_closed_form(out, ref, peer):
    """gen_A(direct) entries of A against a_{n,m} from their closed form."""
    if "gen_A_direct" not in out:
        return 0, ["gen_A(direct) output missing"]
    got = tensor(out["gen_A_direct"]["A"])
    want = ref.get("affine-table")
    failures = [f"A{k}: {got.get(k)} != closed form {want.get(k)}"
                for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]
    return len(want), failures


def check_gen_A_forms(out, ref, peer):
    """The closed form (basis-series quotient) equals the direct double sum on
    the closed form's sound region, for A and At."""
    if "gen_A_closed" not in out or "gen_A_direct" not in out:
        return 0, ["gen_A output missing"]
    failures, instances = [], 0
    mt = out["gen_A_closed"]["min_total"]
    for which in ("A", "At"):
        closed = tensor(out["gen_A_closed"][which])
        direct = tensor(out["gen_A_direct"][which])
        keys = {k for k in set(closed) | set(direct) if mt is None or sum(k) >= mt}
        for k in sorted(keys):
            instances += 1
            if closed.get(k) != direct.get(k):
                failures.append(f"{which}{k}: closed {closed.get(k)} != direct {direct.get(k)}")
    return instances, failures


def check_wronskian(out, ref, peer):
    rep = out.get("wronskian", {})
    expected = {"wronskian_2z", "det_g_one", "phi1_ode", "phi2_from_phi1"}
    failures = [] if set(rep) == expected else [f"identities reported: {sorted(rep)}"]
    failures += [f"{name} failed" for name, ok in sorted(rep.items()) if ok is not True]
    return len(rep), failures


# -- verify-all ------------------------------------------------------------------


def check_exit_code(out, ref, peer):
    if "exit_code" not in out:
        return 0, ["no exit code recorded"]
    return 1, [] if out["exit_code"] == 0 else [f"exit code {out['exit_code']}"]


def check_cli_report(out, ref, peer):
    """Every check in the --out report passed, every suite ran checks, and the
    report lists exactly the checks the CLI announced on stderr."""
    try:
        doc = json.loads(out.get("out_text", ""))
    except ValueError as exc:
        return 0, [f"--out is not JSON: {exc}"]
    checks = doc.get("checks", [])
    failures = [f"{c.get('identity')}: {c.get('status')} {c.get('detail')}"
                for c in checks if c.get("status") != "pass"]
    if doc.get("all_passed") is not True:
        failures.append("all_passed is not true")
    suites = {c.get("identity", "").split("/")[0] for c in checks}
    want = {"schur-q" if s == "schurq" else s for s in wl.VERIFY_SUITES}
    if suites != want:
        failures.append(f"suites with checks: {sorted(suites)}, expected {sorted(want)}")
    announced = [line.split("] ", 1)[1].rsplit(" (", 1)[0]
                 for line in out.get("stderr", "").splitlines() if line.startswith("  [")]
    if announced != [c.get("identity") for c in checks]:
        failures.append(f"--out lists {len(checks)} checks, stderr announced {len(announced)}")
    return len(checks), failures


def check_out_identical(out, ref, peer):
    """--out bytes equal those of another pass of the same run."""
    if peer is None or "out_text" not in out or "out_text" not in peer:
        return 0, ["no second pass output to compare"]
    same = out["out_text"] == peer["out_text"]
    return 1, [] if same else ["--out differs between passes"]


CHECKS = {
    "virasoro-eo": [
        ("correlator-monomial-shape", check_table_shape),
        ("one-point-vs-sympy", check_one_point_sympy),
        ("two-point-vs-sympy", check_two_point_sympy),
        ("omega-support-symmetry-shape", check_omega_shape),
        ("equivalence-theorem", check_equivalence),
    ],
    "eo-coefficient": [
        ("closed-step-vs-residue", check_closed_vs_residue),
        ("closed-step-support-symmetry-shape", check_closed_shape),
    ],
    "affine-bridge": [
        ("cycle-sum-vs-bridge", check_cycle_vs_bridge),
        ("vanish-at-quarter", check_vanish_at_quarter),
        ("affine-closed-form", check_affine_closed_form),
        ("gen-A-closed-vs-direct", check_gen_A_forms),
        ("wronskian-identities", check_wronskian),
    ],
    "verify-all": [
        ("exit-code-zero", check_exit_code),
        ("cli-report-all-pass", check_cli_report),
        ("out-bytes-identical", check_out_identical),
    ],
}


def run_check(fn, out, ref, peer):
    """(passed, instances, first failures).  Zero instances is a failure, and
    an exception inside a check fails that check without stopping the run."""
    try:
        instances, failures = fn(out, ref, peer)
    except Exception as exc:
        return False, 0, [f"{type(exc).__name__}: {exc}"]
    if instances <= 0:
        failures = failures + ["inspected zero instances"]
    return not failures, instances, failures[:3]
