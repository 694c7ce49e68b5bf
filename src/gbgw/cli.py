"""Command-line interface: compute tables, run verification suites, emit JSON/CSV.

Exit codes: 0 all requested work passed, 1 a verification or computation
failed, 2 usage errors.  Output written with --out (or to stdout) is
byte-deterministic for a fixed configuration; timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .poly import ParamPoly, double_factorial
from . import correlators as corr
from . import schurq
from . import affine
from . import npoint
from . import eo
from . import quantum

__all__ = ["main", "build_parser"]


def _frac_str(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else f"{q.numerator}"


def _poly_s(value):
    """Serialize an s-polynomial as [[s_exponent, "num/den"], ...]."""
    out = []
    for (eh, eu, es, ev), q in value.sorted_terms():
        if eh or eu or ev:
            raise ValueError("value is not a polynomial in s alone")
        out.append([es, _frac_str(q)])
    return out


def _poly_hu(value):
    """Serialize an (h, u)-polynomial as [[h_exp, u_exp, "num/den"], ...]."""
    out = []
    for (eh, eu, es, ev), q in value.sorted_terms():
        if es or ev:
            raise ValueError("value is not a polynomial in (h, u)")
        out.append([eh, eu, _frac_str(q)])
    return out


def _emit(doc, cfg):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(rows, header, cfg):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_u(text):
    if text == "symbolic":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"--u expects 'symbolic' or an exact rational, got {text!r}")


def cmd_correlators(cfg):
    records = []
    for mu in corr.odd_partitions(cfg.weight_max, cfg.arity_max):
        for g in range(cfg.genus_max + 1):
            value = corr.correlator(g, mu)
            records.append({"g": g, "mu": list(mu), "value": _poly_s(value)})
    records.sort(key=lambda r: (sum(r["mu"]), len(r["mu"]), r["mu"], r["g"]))
    if cfg.format == "csv":
        rows = []
        for r in records:
            for es, q in r["value"]:
                rows.append([r["g"], ";".join(str(p) for p in r["mu"]), es, q])
        _emit_csv(rows, ["g", "mu", "s_exponent", "value"], cfg)
    else:
        _emit({"command": "correlators", "genus_max": cfg.genus_max,
               "weight_max": cfg.weight_max, "arity_max": cfg.arity_max,
               "records": records}, cfg)
    return 0


def _check(checks, name, fn):
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # present failures, do not hide them
        ok, detail = False, f"exception: {exc}"
    dt = time.perf_counter() - t0
    print(f"  [{'pass' if ok else 'FAIL'}] {name} ({dt:.6f}s)", file=sys.stderr)
    if ok:
        detail = ""
    elif not isinstance(detail, str):
        detail = repr(detail)
    checks.append({"identity": name, "status": "pass" if ok else "fail", "detail": detail})
    return ok


def _suite_schurq(cfg):
    checks = []
    w = min(cfg.weight_max, 12)

    def q_routes():
        for lam in schurq.strict_partitions(w):
            if lam and schurq.Q_lambda(lam, {1: Fraction(1)}) != schurq.Q_delta_closed(lam):
                return False, f"mismatch at {lam}"
        return True, ""

    _check(checks, f"schur-q/pfaffian-vs-closed-weight<={w}", q_routes)
    return checks


def _suite_affine(cfg):
    checks = []
    T = cfg.window

    def wronskian():
        rep = affine.verify_wronskian(T)
        return all(rep.values()), rep

    _check(checks, f"affine/wronskian-suite-order-{T}", wronskian)

    def pfexp():
        for lam in schurq.strict_partitions(min(cfg.weight_max, 10)):
            if not affine.verify_pfaffian_expansion(lam):
                return False, f"mismatch at {lam}"
        return True, ""

    _check(checks, "affine/pfaffian-vs-expansion-weights", pfexp)

    def closed_vs_direct():
        lo = -min(T - 2, 10)
        ad, atd = affine.gen_A("direct", lo, lo, -lo)
        ac, atc = affine.gen_A("closed", lo, lo, -lo, T=T)
        compared = 0  # nonzero entries of A at positions both forms know
        for name, direct, closed in (("At", atd, atc), ("A", ad, ac)):
            for i, j in sorted(direct.coeffs.keys() | closed.coeffs.keys()):
                if direct.known(i, j) and closed.known(i, j):
                    if direct.coeff(i, j) != closed.coeff(i, j):
                        return False, f"{name} mismatch at {(i, j)}"
                    if name == "A":
                        compared += 1
        if not compared:
            return False, "no entry compared"
        return True, ""

    _check(checks, "affine/generating-series-closed-vs-direct", closed_vs_direct)

    def bridge_check():
        ok, mism, checked = npoint.crosscheck_affine_vs_virasoro(
            min(cfg.arity_max, 3), cfg.weight_max,
            one_point_weight=cfg.weight_max + 4, u_value=cfg.u)
        return ok, f"{len(mism)} mismatches of {checked}" if mism else ""

    _check(checks, f"affine/cycle-sum-vs-virasoro-bridge-weight<={cfg.weight_max}", bridge_check)

    if cfg.u == Fraction(1, 4):
        def trivial():
            for n in range(0, 9):
                for m in range(0, 9):
                    if affine.affine_coeff(n, m).subs_u(cfg.u):
                        return False, f"a[{n},{m}] nonzero"
            t = npoint.npoint_affine(2, 7, u_value=cfg.u)
            if t.coeffs:
                return False, "2-point cycle sum did not vanish"
            one = npoint.one_point_affine(9, u_value=cfg.u)
            if one:
                return False, "1-point did not vanish"
            return True, ""

        _check(checks, "affine/trivialization-at-u=1/4", trivial)
    return checks


def _suite_virasoro(cfg):
    checks = []

    def closed_form():
        for n in range(0, min(cfg.weight_max, 17) // 2 + 1):
            if corr.correlator(0, (2 * n + 1,)) != corr.one_point_closed(n):
                return False, f"n={n}"
        return True, ""

    _check(checks, "virasoro/one-point-closed-form", closed_form)

    def w02():
        w = min(cfg.weight_max, 12)
        q, t = corr.w02_closed(w), corr.wgn(0, 2, w).coeffs
        keys = t.keys() | {key for key in q if -key[0] - key[1] - 2 <= w}  # mu_1 + mu_2 <= w
        for key in sorted(keys):
            if q.get(key, 0) != t.get(key, 0):
                return False, f"mismatch at {key}"
        return (True, "") if keys else (False, "no instance checked")

    _check(checks, "virasoro/two-point-closed-form", w02)

    def independence():
        keys = [(g, mu) for g in range(3) for mu in corr.odd_partitions(min(cfg.weight_max, 11), 4)
                if len(mu) >= 2]
        for g, mu in keys:
            if corr.correlator(g, mu) != corr.correlator_expand_distinguishing(g, mu, "smallest"):
                return False, f"(g={g}, mu={mu})"
        return (True, "") if keys else (False, "no instance checked")

    _check(checks, "virasoro/distinguished-part-independence", independence)

    def special_def():
        ok, failures = corr.verify_special_deformation(
            degree=4, min_order=-cfg.window, part_cap=min(cfg.weight_max, 13))
        return ok, failures[:3]

    _check(checks, "virasoro/special-deformation", special_def)
    return checks


def _suite_eo(cfg):
    checks = []
    pairs = [(g, n) for g in range(cfg.genus_max + 1) for n in range(1, cfg.arity_max + 1)
             if 2 * g - 2 + n > 0]

    def goldens():
        t = eo.omega(1, 1, cfg.kernel)
        if t.get((0,)) != ParamPoly.const(Fraction(-1, 8)):
            return False, "omega_{1,1}"
        if eo.omega(0, 3, cfg.kernel).get((0, 0, 0)) != ParamPoly.gen("s"):
            return False, "omega_{0,3}"
        return True, ""

    _check(checks, "eo/closed-form-invariants", goldens)

    def equivalence():
        total = 0
        for (g, n) in pairs:
            ok, mism, checked = eo.verify_equivalence_theorem(g, n, cfg.weight_max, cfg.kernel)
            if not ok:
                return False, f"({g},{n}): {mism[:2]}"
            total += checked
        return (True, "") if total else (False, "no instance checked")

    _check(checks, f"eo/equivalence-with-virasoro-weight<={cfg.weight_max}", equivalence)

    def closed_step():
        if not pairs:
            return False, "no stable pair"
        for (g, n) in pairs:
            if eo.omega_closed_step(g, n) != eo.normalized(eo.omega(g, n, cfg.kernel)):
                return False, f"({g},{n})"
        return True, ""

    _check(checks, "eo/residue-vs-coefficient-recursion", closed_step)

    def kernels():
        ok, mism = eo.compare_kernels(pairs)
        return ok, mism or "no pair besides (1,1) to compare"

    _check(checks, "eo/kernel-comparison", kernels)
    return checks


def _suite_qsc(cfg):
    checks = []

    def annihilation():
        bad = quantum.annihilation_defects(cfg.window)
        return not bad, bad[:5]

    _check(checks, f"qsc/annihilation-through-{cfg.window}", annihilation)

    def commutator():
        h = ParamPoly.gen("h")
        for k in range(0, 21):
            terms = dict(quantum.commutator_on_monomial(k))
            if k not in terms:  # zero entries are dropped, so h z^k must be there
                return False, f"k={k}: no z^k entry"
            if terms.pop(k) != h:
                return False, f"k={k}"
            if terms:
                return False, f"k={k}, stray exponent {min(terms)}"
        return True, ""

    _check(checks, "qsc/canonical-commutator", commutator)

    def span():
        k_max = min(10, cfg.window // 2)
        if not k_max:  # k = 0 alone compares P(PhiB_0) at z^-1, where both sides are 0
            return False, "no span relation checked"
        rep = quantum.verify_ks(k_max, cfg.window)
        if not rep["p_checked"] + rep["q_checked"]:
            return False, "no coefficient checked"
        return rep["p_ok"] and rep["q_ok"], rep["failures"]

    _check(checks, "qsc/span-stability", span)

    def semiclassical():
        return quantum.semiclassical_identity()

    _check(checks, "qsc/semiclassical-factorization", semiclassical)
    return checks


SUITES = {
    "schurq": _suite_schurq,
    "affine": _suite_affine,
    "virasoro": _suite_virasoro,
    "eo": _suite_eo,
    "qsc": _suite_qsc,
}


def cmd_verify(cfg):
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    all_checks = []
    for name in names:
        print(f"suite {name}:", file=sys.stderr)
        all_checks.extend(SUITES[name](cfg))
    ok = all(c["status"] == "pass" for c in all_checks)
    doc = {
        "command": "verify",
        "suite": cfg.suite,
        "bounds": {"genus_max": cfg.genus_max, "arity_max": cfg.arity_max,
                   "weight_max": cfg.weight_max, "window": cfg.window,
                   "kernel": cfg.kernel,
                   "u": "symbolic" if cfg.u is None else _frac_str(cfg.u)},
        "checks": all_checks,
        "all_passed": ok,
    }
    _emit(doc, cfg)
    return 0 if ok else 1


def cmd_npoint(cfg):
    n = cfg.arity_max
    entries = []
    if cfg.pipeline == "affine":
        tensor = npoint.npoint_affine(n, cfg.weight_max, u_value=cfg.u)
        for key in sorted(tensor.coeffs):
            entries.append({"mu": [-e for e in key], "value": _poly_hu(tensor.coeffs[key])})
        meta = {"normalization": "d^n log tau(t/2) in (h, u)"}
    elif cfg.pipeline == "virasoro":
        tensor = corr.wgn(cfg.genus_max, n, cfg.weight_max)
        for key in sorted(tensor.coeffs):
            entries.append({"mu": [-e - 1 for e in key], "value": _poly_s(tensor.coeffs[key])})
        meta = {"normalization": "W_{g,n} coefficients in s", "g": cfg.genus_max}
    elif cfg.pipeline == "eo":
        b = eo.x_tensor(cfg.genus_max, n, cfg.weight_max, cfg.kernel)
        sign = (-1) ** n
        for key in sorted(b.coeffs):
            d = 1
            for k in key:
                d *= double_factorial(2 * k + 1)
            value = (sign * d) * b.coeffs[key]
            entries.append({"mu": [2 * k + 1 for k in key], "value": _poly_s(value)})
        meta = {"normalization": "W_{g,n} coefficients in s (flat coordinate)",
                "g": cfg.genus_max, "kernel": cfg.kernel}
    else:
        raise AssertionError
    if cfg.format == "csv":
        if cfg.pipeline == "affine":
            print("error: csv output is defined for s-polynomial pipelines only", file=sys.stderr)
            return 2
        rows = []
        g = cfg.genus_max
        for r in entries:
            for es, q in r["value"]:
                rows.append([g, ";".join(str(p) for p in r["mu"]), es, q])
        _emit_csv(rows, ["g", "mu", "s_exponent", "value"], cfg)
    else:
        doc = {"command": "npoint", "pipeline": cfg.pipeline, "n": n,
               "weight_max": cfg.weight_max, "meta": meta, "entries": entries}
        _emit(doc, cfg)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="gbgw",
        description="Exact correlators of the generalized BGW model via three independent pipelines.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, defaults):
        sp.add_argument("--genus-max", type=int, default=defaults.get("g", 2))
        sp.add_argument("--arity-max", type=int, default=defaults.get("n", 3))
        sp.add_argument("--weight-max", type=int, default=defaults.get("w", 9))
        sp.add_argument("--window", type=int, default=defaults.get("window", 20))
        sp.add_argument("--kernel", choices=("standard", "typeB"), default="standard")
        sp.add_argument("--u", type=_parse_u, default=None,
                        help="'symbolic' (default) or an exact rational like 1/4")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, help="output path (stdout if omitted)")

    sp = sub.add_parser("correlators", help="emit connected correlators")
    common(sp, {"g": 2, "n": 3, "w": 9})
    sp.set_defaults(func=cmd_correlators)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp, {"g": 2, "n": 3, "w": 9, "window": 20})
    sp.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("npoint", help="emit n-point tensors from a chosen pipeline")
    common(sp, {"g": 1, "n": 2, "w": 9})
    sp.add_argument("--pipeline", choices=("affine", "virasoro", "eo"), required=True)
    sp.set_defaults(func=cmd_npoint)
    return p


def main(argv=None):
    parser = build_parser()
    cfg = parser.parse_args(argv)
    for bound in ("genus_max", "arity_max", "weight_max"):
        if getattr(cfg, bound) < 0:
            parser.error(f"--{bound.replace('_', '-')} must be nonnegative")
    if cfg.window < 1:
        parser.error("--window must be positive")
    if cfg.command == "npoint" and cfg.arity_max < 1:
        parser.error("--arity-max must be positive for npoint")
    try:
        return cfg.func(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RecursionError, MemoryError) as exc:  # a computation failed
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
