"""Command-line interface: compute tables, run verification suites, emit JSON/CSV.

``verify`` runs the checks declared once each in ``CHECKS``: a suite, an
identity name built from the bounds, and a function of the bounds that
returns ``(ok, detail, checked)``, where ``checked`` counts the instances
compared.  One rule, in ``_check``, covers vacuity: a check that compares
nothing fails with the detail "no instance checked".  Each check prints
``  [pass, <checked> checked] <identity> (<seconds>s)`` (``FAIL`` on
failure) to stderr.

``main`` validates every option before it dispatches: a bad bound, an
``--out`` that names a directory or lies in no existing directory,
``npoint --pipeline affine --format csv``, and an option the command never
reads exit 2 before any computation.  A subcommand accepts only the options
it reads (``correlators`` takes no ``--window`` or ``--u``, ``verify`` no
``--format``, ``npoint`` no ``--window``); ``npoint`` reads ``--u`` only
with ``--pipeline affine``, and ``--genus-max`` with the other pipelines.
Exit codes: 0 all requested work passed, 1 a verification or computation
failed, 2 usage errors, including an ``--out`` that cannot be written
(reported as ``error: ...``, never as a traceback).  Output written with
--out (or to stdout) is byte-deterministic for a fixed configuration;
counts and timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import partial

from .poly import ParamPoly, H, S, at_u, u_eval
from . import correlators as corr
from . import schurq
from . import affine
from . import npoint
from . import eo
from . import quantum

__all__ = ["main", "build_parser"]


def _poly(value, slots):
    """Serialize a ParamPoly as [[exponent at each slot..., "num/den"], ...]; ``slots``
    names the generators kept ("s" or "hu"), from "husv", the order of a key (h, u, s, v)."""
    keep = ["husv".index(name) for name in slots]
    out = []
    for key, q in value.sorted_terms():
        if any(e for i, e in enumerate(key) if i not in keep):
            raise ValueError(f"value is not a polynomial in {slots!r} alone")
        out.append([key[i] for i in keep] + [str(q)])
    return out


def _json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv(records):
    """The g,mu,s_exponent,value table: one row per s-term of each record."""
    rows = [f"{r['g']},{';'.join(map(str, r['mu']))},{es},{q}"
            for r in records for es, q in r["value"]]
    return "\n".join(["g,mu,s_exponent,value", *rows]) + "\n"


def _write(text, cfg):
    """Write the output to --out, or to stdout without it."""
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
    # odd_partitions is ordered by (|mu|, len(mu), mu), and g ascends within each mu
    records = [{"g": g, "mu": list(mu), "value": _poly(corr.correlator(g, mu), "s")}
               for mu in corr.odd_partitions(cfg.weight_max, cfg.arity_max)
               for g in range(cfg.genus_max + 1)]
    _write(_csv(records) if cfg.format == "csv" else
           _json({"command": "correlators", "genus_max": cfg.genus_max,
                  "weight_max": cfg.weight_max, "arity_max": cfg.arity_max,
                  "records": records}), cfg)
    return 0


def _check(checks, name, fn):
    t0 = time.perf_counter()
    try:
        ok, detail, checked = fn()
    except Exception as exc:  # present failures, do not hide them
        ok, detail, checked = False, f"exception: {exc}", 0
    if ok and not checked:  # the one vacuity rule: a pass that compared nothing is a failure
        ok, detail = False, "no instance checked"
    dt = time.perf_counter() - t0
    print(f"  [{'pass' if ok else 'FAIL'}, {checked} checked] {name} ({dt:.6f}s)", file=sys.stderr)
    if ok:
        detail = ""
    elif not isinstance(detail, str):
        detail = repr(detail)
    checks.append({"identity": name, "status": "pass" if ok else "fail", "detail": detail})


def _q_routes(cfg):
    lams = [lam for lam in schurq.strict_partitions(min(cfg.weight_max, 12)) if lam]
    bad = [lam for lam in lams if schurq.Q_lambda(lam, {1: Fraction(1)}) != schurq.Q_delta_closed(lam)]
    return not bad, f"mismatch at {bad[0]}" if bad else "", len(lams)


def _wronskian(cfg):
    rep = affine.verify_wronskian(cfg.window)
    return all(rep.values()), rep, len(rep)


def _pfaffian_expansion(cfg):
    lams = [lam for lam in schurq.strict_partitions(min(cfg.weight_max, 10)) if lam]
    bad = [lam for lam in lams if not affine.verify_pfaffian_expansion(lam)]
    return not bad, f"mismatch at {bad[0]}" if bad else "", len(lams)


def _closed_vs_direct(cfg):
    T = cfg.window
    lo = -min(T - 2, 10)
    ad = affine.gen_A("direct", lo, lo, -lo)[0]
    ac = affine.gen_A("closed", lo, lo, -lo, T=T)[0]
    compared = 0  # entries of A at positions both forms know
    for i, j in sorted(ad.coeffs.keys() | ac.coeffs.keys()):
        if ad.known(i, j) and ac.known(i, j):
            if ad.coeff(i, j) != ac.coeff(i, j):
                return False, f"A mismatch at {(i, j)}", compared
            compared += 1
    return True, "", compared


def _bridge(cfg):
    ok, mism, checked = npoint.crosscheck_affine_vs_virasoro(
        min(cfg.arity_max, 3), cfg.weight_max, one_point_weight=cfg.weight_max + 4)
    return ok, f"{len(mism)} mismatches of {checked}", checked


def _trivialization(cfg):
    size = 9 * 9 + 2  # a[n, m] for n, m <= 8, the 2-point cycle sum and the 1-point series
    for n in range(0, 9):
        for m in range(0, 9):
            r, p = affine.affine_coeff(n, m)
            if r and u_eval(p, cfg.u):
                return False, f"a[{n},{m}] nonzero", size
    if any(at_u(c, cfg.u) for c in npoint.npoint_affine(2, 7).coeffs.values()):
        return False, "2-point cycle sum did not vanish", size
    if any(at_u(c, cfg.u) for c in npoint.one_point_affine(9).values()):
        return False, "1-point did not vanish", size
    return True, "", size


def _one_point(cfg):
    ns = range(0, min(cfg.weight_max, 17) // 2 + 1)
    bad = [n for n in ns if corr.correlator(0, (2 * n + 1,)) != corr.one_point_closed(n)]
    return not bad, f"n={bad[0]}" if bad else "", len(ns)


def _two_point(cfg):
    w = min(cfg.weight_max, 12)
    q, t = corr.w02_closed(w), corr.wgn(0, 2, w).coeffs
    keys = sorted(t.keys() | {key for key in q if -key[0] - key[1] - 2 <= w})  # mu_1 + mu_2 <= w
    bad = [key for key in keys if q.get(key, 0) != t.get(key, 0)]
    return not bad, f"mismatch at {bad[0]}" if bad else "", len(keys)


def _independence(cfg):
    keys = [(g, mu) for g in range(3) for mu in corr.odd_partitions(min(cfg.weight_max, 11), 4)
            if len(mu) >= 2]
    bad = [(g, mu) for g, mu in keys
           if corr.correlator(g, mu) != corr.correlator_expand_distinguishing(g, mu)]
    return not bad, "(g={}, mu={})".format(*bad[0]) if bad else "", len(keys)


def _special_deformation(cfg):
    ok, failures, checked = corr.verify_special_deformation(
        degree=4, min_order=-cfg.window, part_cap=min(cfg.weight_max, 13))
    return ok, failures[:3], checked


def _stable_pairs(cfg):
    return [(g, n) for g in range(cfg.genus_max + 1) for n in range(1, cfg.arity_max + 1)
            if 2 * g - 2 + n > 0]


def _goldens(cfg):
    if eo.omega(1, 1).get((0,)) != ParamPoly.const(Fraction(-1, 8)):
        return False, "omega_{1,1}", 2
    if eo.omega(0, 3).get((0, 0, 0)) != S:
        return False, "omega_{0,3}", 2
    return True, "", 2


def _equivalence(cfg):
    total = 0
    for (g, n) in _stable_pairs(cfg):
        ok, mism, checked = eo.verify_equivalence_theorem(g, n, cfg.weight_max)
        total += checked
        if not ok:
            return False, f"({g},{n}): {mism[:2]}", total
    return True, "", total


def _closed_step(cfg):
    pairs = _stable_pairs(cfg)
    for (g, n) in pairs:
        if eo._closed(g, n) != eo._omega(g, n):
            return False, f"({g},{n})", len(pairs)
    return True, "", len(pairs)


def _kernels(cfg):
    return eo.compare_kernels(_stable_pairs(cfg))


def _annihilation(cfg):
    bad = quantum.annihilation_defects(cfg.window)
    return not bad, bad[:5], cfg.window + 1  # P(PhiB_0) at z^-1 .. z^(-window-1)


def _commutator(cfg):
    for k in range(0, 21):
        terms = dict(quantum.commutator_on_monomial(k))
        if k not in terms:  # zero entries are dropped, so h z^k must be there
            return False, f"k={k}: no z^k entry", 21
        if terms.pop(k) != H:
            return False, f"k={k}", 21
        if terms:
            return False, f"k={k}, stray exponent {min(terms)}", 21
    return True, "", 21


def _span(cfg):
    k_max = min(10, cfg.window // 2)
    rep = quantum.verify_ks(k_max, cfg.window)
    # k = 0 alone compares P(PhiB_0) at z^-1, where both sides are 0
    checked = rep["p_checked"] + rep["q_checked"] if k_max else 0
    return rep["p_ok"] and rep["q_ok"], rep["failures"], checked


def _semiclassical(cfg):
    return quantum.semiclassical_identity()


# Every check of ``verify``, in output order: (suite, identity, run).
# identity(cfg) is the check's name, or None where it does not apply;
# run(cfg) returns (ok, detail, checked).
CHECKS = (
    ("schurq", lambda cfg: f"schur-q/pfaffian-vs-closed-weight<={min(cfg.weight_max, 12)}", _q_routes),
    ("affine", lambda cfg: f"affine/wronskian-suite-order-{cfg.window}", _wronskian),
    ("affine", lambda cfg: "affine/pfaffian-vs-expansion-weights", _pfaffian_expansion),
    ("affine", lambda cfg: "affine/generating-series-closed-vs-direct", _closed_vs_direct),
    ("affine", lambda cfg: f"affine/cycle-sum-vs-virasoro-bridge-weight<={cfg.weight_max}", _bridge),
    ("affine", lambda cfg: "affine/trivialization-at-u=1/4" if cfg.u == Fraction(1, 4) else None,
     _trivialization),
    ("virasoro", lambda cfg: "virasoro/one-point-closed-form", _one_point),
    ("virasoro", lambda cfg: "virasoro/two-point-closed-form", _two_point),
    ("virasoro", lambda cfg: "virasoro/distinguished-part-independence", _independence),
    ("virasoro", lambda cfg: "virasoro/special-deformation", _special_deformation),
    ("eo", lambda cfg: "eo/closed-form-invariants", _goldens),
    ("eo", lambda cfg: f"eo/equivalence-with-virasoro-weight<={cfg.weight_max}", _equivalence),
    ("eo", lambda cfg: "eo/residue-vs-coefficient-recursion", _closed_step),
    ("eo", lambda cfg: "eo/kernel-comparison", _kernels),
    ("qsc", lambda cfg: f"qsc/annihilation-through-{cfg.window}", _annihilation),
    ("qsc", lambda cfg: "qsc/canonical-commutator", _commutator),
    ("qsc", lambda cfg: "qsc/span-stability", _span),
    ("qsc", lambda cfg: "qsc/semiclassical-factorization", _semiclassical),
)
SUITES = tuple(dict.fromkeys(suite for suite, _, _ in CHECKS))


def cmd_verify(cfg):
    all_checks = []
    for suite in SUITES if cfg.suite == "all" else (cfg.suite,):
        print(f"suite {suite}:", file=sys.stderr)
        for entry_suite, identity, run in CHECKS:
            name = identity(cfg)
            if entry_suite == suite and name is not None:
                _check(all_checks, name, partial(run, cfg))
    ok = all(c["status"] == "pass" for c in all_checks)
    doc = {
        "command": "verify",
        "suite": cfg.suite,
        "bounds": {"genus_max": cfg.genus_max, "arity_max": cfg.arity_max,
                   "weight_max": cfg.weight_max, "window": cfg.window,
                   "u": "symbolic" if cfg.u is None else str(cfg.u)},
        "checks": all_checks,
        "all_passed": ok,
    }
    _write(_json(doc), cfg)
    return 0 if ok else 1


def cmd_npoint(cfg):
    n, g = cfg.arity_max, cfg.genus_max
    if cfg.pipeline == "affine":
        t = npoint.npoint_affine(n, cfg.weight_max).coeffs
        if cfg.u is not None:  # a rational u is substituted once, on output
            t = {key: v for key, c in t.items() if (v := at_u(c, cfg.u))}
        entries = [{"mu": [-e for e in key], "value": _poly(t[key], "hu")} for key in sorted(t)]
        meta = {"normalization": "d^n log tau(t/2) in (h, u)"}
    elif cfg.pipeline == "virasoro":
        t = corr.wgn(g, n, cfg.weight_max).coeffs
        entries = [{"mu": [-e - 1 for e in key], "value": _poly(t[key], "s")} for key in sorted(t)]
        meta = {"normalization": "W_{g,n} coefficients in s", "g": g}
    else:  # eo: the W coefficients (-1)^n (2l+1)!! B^l of the flat-coordinate tensor
        t = eo.x_tensor(g, n, cfg.weight_max).coeffs
        entries = [{"mu": [2 * k + 1 for k in key], "value": _poly(t[key], "s")} for key in sorted(t)]
        meta = {"normalization": "W_{g,n} coefficients in s (flat coordinate)", "g": g}
    _write(_csv({"g": g, **e} for e in entries) if cfg.format == "csv" else
           _json({"command": "npoint", "pipeline": cfg.pipeline, "n": n,
                  "weight_max": cfg.weight_max, "meta": meta, "entries": entries}), cfg)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="gbgw",
        description="Exact correlators of the generalized BGW model via three independent pipelines.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, defaults, omit=()):
        """Add the shared options, less those in ``omit``, which ``sp`` never reads."""
        def add(flag, **kwargs):
            if flag not in omit:
                sp.add_argument(flag, **kwargs)

        add("--genus-max", type=int, default=defaults.get("g", 2))
        add("--arity-max", type=int, default=defaults.get("n", 3))
        add("--weight-max", type=int, default=defaults.get("w", 9))
        add("--window", type=int, default=defaults.get("window", 20))
        add("--u", type=_parse_u, default=defaults.get("u"),
            help="'symbolic' (default) or an exact rational like 1/4")
        add("--format", choices=("json", "csv"), default="json")
        add("--out", default=None, help="output path (stdout if omitted)")

    sp = sub.add_parser("correlators", help="emit connected correlators")
    common(sp, {}, omit=("--window", "--u"))
    sp.set_defaults(func=cmd_correlators)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp, {}, omit=("--format",))
    sp.add_argument("--suite", choices=SUITES + ("all",), default="all")
    sp.set_defaults(func=cmd_verify)

    # the options one pipeline reads stay out of the namespace unless given;
    # main rejects them for the other pipelines and then fills NPOINT_DEFAULTS
    sp = sub.add_parser("npoint", help="emit n-point tensors from a chosen pipeline")
    common(sp, {"g": argparse.SUPPRESS, "n": 2, "w": 9, "u": argparse.SUPPRESS}, omit=("--window",))
    sp.add_argument("--pipeline", choices=("affine", "virasoro", "eo"), required=True)
    sp.set_defaults(func=cmd_npoint)
    return p


# npoint options read by some pipelines only: (name, default, pipelines that read it)
NPOINT_DEFAULTS = (("genus_max", 1, ("virasoro", "eo")),
                   ("u", None, ("affine",)))


def main(argv=None):
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if cfg.command == "npoint":
        for name, default, readers in NPOINT_DEFAULTS:
            if name in cfg and cfg.pipeline not in readers:
                parser.error(f"--{name.replace('_', '-')} is not read by npoint --pipeline {cfg.pipeline}")
            vars(cfg).setdefault(name, default)
    for bound in ("genus_max", "arity_max", "weight_max"):
        if getattr(cfg, bound) < 0:
            parser.error(f"--{bound.replace('_', '-')} must be nonnegative")
    if "window" in cfg and cfg.window < 1:
        parser.error("--window must be positive")
    if cfg.command == "npoint" and cfg.arity_max < 1:
        parser.error("--arity-max must be positive for npoint")
    if cfg.command == "npoint" and cfg.pipeline == "affine" and cfg.arity_max > npoint.AFFINE_ARITY_MAX:
        parser.error(f"--arity-max of npoint --pipeline affine is certified up to "
                     f"{npoint.AFFINE_ARITY_MAX} only")
    if cfg.command == "npoint" and cfg.pipeline == "affine" and cfg.format == "csv":
        parser.error("csv output is defined for s-polynomial pipelines only")
    if cfg.out and os.path.isdir(cfg.out):
        parser.error(f"--out {cfg.out} is a directory")
    if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
        parser.error(f"--out {cfg.out}: no such directory")
    try:
        return cfg.func(cfg)
    except (ValueError, OSError) as exc:  # a bad value, or an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RecursionError, MemoryError) as exc:  # a computation failed
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
