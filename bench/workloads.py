"""The four workloads: their inputs, the calls one pass makes, and their outputs.

This module is imported by the pass process (bench/child.py), which hands it
the gbgw modules, and by the parent (bench/run.py, bench/checks.py), which
only reads the bounds and the operation names.  It imports nothing from
gbgw itself, so the parent can plan a run without loading the package.

Every input is a fixed mathematical range.  The inputs are built by this
module (not by gbgw helpers such as ``odd_partitions``), before the first
call into gbgw, so they count as set-up.
"""

from __future__ import annotations

import contextlib
import io
import os

# -- bounds -------------------------------------------------------------------

# The bounds are smaller than the ROADMAP baseline ranges so that one pass
# takes 1-2 s: a run needs many cold passes to get a steady median on a
# machine whose speed drifts by 1.6x within seconds (README, "Sizes").
#
# virasoro-eo: residue omega on every stable (g, n) with g <= 3, n <= 4 and
# 2g - 2 + n <= 6, i.e. without (3, 3) and (3, 4).
OMEGA_PAIRS = [(g, n) for g in range(4) for n in range(1, 5) if 0 < 2 * g - 2 + n <= 6]
TABLE_GENUS = 4
TABLE_ARITY = 4
TABLE_WEIGHT = 17
EQUIVALENCE_WEIGHT = 13
# eo-coefficient: omega_closed_step on every stable (g, n) with g <= 3, n <= 3.
CLOSED_PAIRS = [(g, n) for g in range(4) for n in range(1, 4) if 2 * g - 2 + n > 0]

AFFINE_ARITY = 3
AFFINE_WEIGHT = 7
AFFINE_ONE_POINT_WEIGHT = 11
AFFINE_ORDER = 12  # gen_A closed-form window T and the Wronskian order
AFFINE_LO = -10  # gen_A window [AFFINE_LO, 0] x [AFFINE_LO, -AFFINE_LO], as the CLI uses

VERIFY_ARGS = ["verify", "--suite", "all", "--weight-max", "5", "--window", "12"]
VERIFY_SUITES = ("schurq", "affine", "virasoro", "eo", "qsc")


def odd_partitions(max_weight, max_len):
    """Descending tuples of odd positive parts, |mu| <= max_weight, 1..max_len parts."""
    out = []

    def extend(prefix, remaining, cap):
        if prefix:
            out.append(prefix)
        if len(prefix) == max_len:
            return
        for p in range(min(remaining, cap), 0, -1):
            if p % 2:
                extend(prefix + (p,), remaining - p, p)

    extend((), max_weight, max_weight)
    out.sort(key=lambda mu: (sum(mu), len(mu), mu))
    return out


def table_keys():
    return [(g, mu) for mu in odd_partitions(TABLE_WEIGHT, TABLE_ARITY)
            for g in range(TABLE_GENUS + 1)]


def bridge_partitions():
    """Partitions the cycle sums are compared on, as crosscheck_affine_vs_virasoro
    chooses them: n parts, |mu| <= AFFINE_WEIGHT (AFFINE_ONE_POINT_WEIGHT for n = 1)."""
    out = []
    for n in range(1, AFFINE_ARITY + 1):
        w = AFFINE_ONE_POINT_WEIGHT if n == 1 else AFFINE_WEIGHT
        out.extend(mu for mu in odd_partitions(w, n) if len(mu) == n)
    return out


def cycle_sum_weight(n):
    return AFFINE_ONE_POINT_WEIGHT if n == 1 else AFFINE_WEIGHT


# -- operations ----------------------------------------------------------------
#
# An operation is one table (or one CLI command).  Each workload lists its
# operations as (name, span, callable); the pass runs them in order and an
# exception fails only that operation.


def op_names(workload):
    """Operation names of one pass, known without running it."""
    return [name for name, _span, _fn in _ops(workload, None, None)]


def span_names():
    """Every span a traced pass of any workload can record."""
    names = {span for w in WORKLOADS for _name, span, _fn in _ops(w, None, None) if span}
    return sorted(names | {name for name, _mod, _attr in CLI_SPANS})


def _ops(workload, gb, tmpdir):
    if workload == "virasoro-eo":
        return _virasoro_eo(gb)
    if workload == "eo-coefficient":
        return _eo_coefficient(gb)
    if workload == "affine-bridge":
        return _affine_bridge(gb)
    if workload == "verify-all":
        return _verify_all(gb, tmpdir)
    raise KeyError(workload)


def _virasoro_eo(gb):
    corr = gb and gb.correlators
    eo = gb and gb.eo
    keys = table_keys()
    ops = [("correlators.table", "correlators.table_s",
            lambda: [corr.correlator(g, mu) for g, mu in keys])]
    for g, n in OMEGA_PAIRS:
        ops.append((f"eo.omega{(g, n)}", "eo.omega_s",
                    lambda g=g, n=n: eo.omega(g, n)))
    for g, n in OMEGA_PAIRS:
        ops.append((f"eo.equivalence{(g, n)}", "eo.equivalence_s",
                    lambda g=g, n=n: eo.verify_equivalence_theorem(g, n, EQUIVALENCE_WEIGHT)))
    return ops


def _eo_coefficient(gb):
    eo = gb and gb.eo
    return [(f"eo.closed_step{(g, n)}", "eo.closed_step_s",
             lambda g=g, n=n: eo.omega_closed_step(g, n)) for g, n in CLOSED_PAIRS]


def _affine_bridge(gb):
    npoint = gb and gb.npoint
    affine = gb and gb.affine
    ops = []
    # the loop of npoint.crosscheck_affine_vs_virasoro, made of its two public
    # halves so that both can be timed and their outputs checked
    for n in range(1, AFFINE_ARITY + 1):
        ops.append((f"npoint.npoint_affine({n})", "npoint.cycle_sum_s",
                    lambda n=n: npoint.npoint_affine(n, cycle_sum_weight(n))))
    mus = bridge_partitions()
    ops.append(("npoint.bridge", "npoint.bridge_s", lambda: [npoint.bridge(mu) for mu in mus]))
    lo = AFFINE_LO
    ops.append(("affine.gen_A(closed)", "affine.gen_A_closed_s",
                lambda: affine.gen_A("closed", lo, lo, -lo, T=AFFINE_ORDER)))
    ops.append(("affine.gen_A(direct)", "affine.gen_A_direct_s",
                lambda: affine.gen_A("direct", lo, lo, -lo)))
    ops.append(("affine.verify_wronskian", "affine.wronskian_s",
                lambda: affine.verify_wronskian(AFFINE_ORDER)))
    return ops


def _verify_all(gb, tmpdir):
    out_path = None if tmpdir is None else os.path.join(tmpdir, "verify.json")

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = gb.cli.main(VERIFY_ARGS + ["--out", out_path])
        with open(out_path, "rb") as fh:
            data = fh.read()
        return code, data, err.getvalue()

    return [("cli.main(verify --suite all)", None, run)]


# Functions the CLI calls through module attributes; the traced pass wraps
# them to time the verification suites from outside (span name, module, attr).
CLI_SPANS = [
    ("quantum.verify_ks_s", "quantum", "verify_ks"),
    ("schurq.q_routes_s", "schurq", "Q_lambda"),
    ("schurq.q_routes_s", "schurq", "Q_delta_closed"),
    ("pfaffian.expansion_s", "affine", "verify_pfaffian_expansion"),
]


# -- outputs -------------------------------------------------------------------
#
# Results are written as plain JSON: a polynomial is a sorted list of
# [eh, eu, es, ev, "num/den"] rows, a tensor a sorted list of [key, poly].


def _frac(q):
    return f"{q.numerator}/{q.denominator}"


def poly_rows(p):
    if p == 0:  # gbgw returns the int 0 for some absent entries
        return []
    return [list(k) + [_frac(q)] for k, q in sorted(p.terms.items())]


def tensor_rows(coeffs):
    return [[list(k), poly_rows(v)] for k, v in sorted(coeffs.items())]


def serialize(workload, results):
    """JSON-ready outputs from {op name: return value} (failed ops are absent)."""
    out = {}
    if workload == "virasoro-eo":
        table = results.get("correlators.table")
        if table is not None:
            out["table"] = [[g, list(mu), poly_rows(v)] for (g, mu), v in zip(table_keys(), table)]
        out["omega"] = [[g, n, tensor_rows(results[f"eo.omega{(g, n)}"].coeffs)]
                        for g, n in OMEGA_PAIRS if f"eo.omega{(g, n)}" in results]
        out["equivalence"] = []
        for g, n in OMEGA_PAIRS:
            r = results.get(f"eo.equivalence{(g, n)}")
            if r is not None:
                ok, mismatches, checked = r
                out["equivalence"].append([g, n, bool(ok), len(mismatches), checked])
    elif workload == "eo-coefficient":
        out["closed"] = [[g, n, tensor_rows(results[f"eo.closed_step{(g, n)}"].coeffs)]
                         for g, n in CLOSED_PAIRS if f"eo.closed_step{(g, n)}" in results]
    elif workload == "affine-bridge":
        out["cycle_sums"] = [[n, tensor_rows(results[f"npoint.npoint_affine({n})"].coeffs)]
                             for n in range(1, AFFINE_ARITY + 1)
                             if f"npoint.npoint_affine({n})" in results]
        if "npoint.bridge" in results:
            out["bridge"] = [[list(mu), poly_rows(v)]
                             for mu, v in zip(bridge_partitions(), results["npoint.bridge"])]
        for form in ("closed", "direct"):
            r = results.get(f"affine.gen_A({form})")
            if r is not None:
                A, At = r
                out[f"gen_A_{form}"] = {"A": tensor_rows(A.coeffs), "At": tensor_rows(At.coeffs),
                                        "min_total": A.min_total}
        if "affine.verify_wronskian" in results:
            out["wronskian"] = results["affine.verify_wronskian"]
    elif workload == "verify-all":
        r = results.get("cli.main(verify --suite all)")
        if r is not None:
            code, data, err = r
            out["exit_code"] = code
            out["out_text"] = data.decode("utf-8", "replace")
            out["stderr"] = err
    return out


def run_ops(workload, gb, tmpdir, tracer):
    """Build the operations (set-up), then return a callable that runs them."""
    ops = _ops(workload, gb, tmpdir)

    def execute():
        results, failures = {}, {}
        for name, span, fn in ops:
            try:
                results[name] = tracer.call(span, fn) if span else fn()
            except Exception as exc:  # an operation that raises fails alone
                failures[name] = f"{type(exc).__name__}: {exc}"
        return results, failures

    return execute


WORKLOADS = ("virasoro-eo", "eo-coefficient", "affine-bridge", "verify-all")
