"""Self-test of the benchmark's checks: each must be able to fail.

    python3 bench/selftest.py [WORKLOAD ...]

Run from the repository root.  For each workload it runs two untraced
passes, then confirms that

  * every check passes on the real outputs;
  * every check fails on empty outputs (zero instances inspected);
  * every check fails when one coefficient of its input is changed, and
    when one entry of its input is dropped.

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile
import time
from fractions import Fraction

import checks
import run
import workloads as wl


def _bump(rows):
    """Change the first coefficient of a serialized polynomial by 1/3 (which
    also makes a dyadic coefficient non-dyadic)."""
    rows[0][4] = str(Fraction(rows[0][4]) + Fraction(1, 3))


def _asymmetric(rows):
    """Index of the first tensor entry whose key is not constant, else 0."""
    return next((i for i, (k, _v) in enumerate(rows) if len(set(k)) > 1), 0)


def _table_entry(pred):
    def change(out):
        _bump(next(v for g, mu, v in out["table"] if pred(g, mu) and v))

    def drop(out):
        out["table"].remove(next(r for r in out["table"] if pred(r[0], r[1])))

    return change, drop


def _eo_table(field):
    """Mutations on the largest EO table, at an entry with distinct indices."""

    def largest(out):
        return max(out[field], key=lambda t: (t[1], len(t[2])))[2]

    def change(out):
        rows = largest(out)
        _bump(rows[_asymmetric(rows)][1])

    def drop(out):
        rows = largest(out)
        del rows[_asymmetric(rows)]

    return change, drop


def _cycle_sum(n):
    def rows(out):
        return next(r for m, r in out["cycle_sums"] if m == n)

    def change(out):
        _bump(next(v for k, v in rows(out) if list(k) == sorted(k)))

    def drop(out):
        del rows(out)[-1]

    return change, drop


def _gen_A(form, which="A"):
    def change(out):
        _bump(out[f"gen_A_{form}"][which][0][1])

    def drop(out):
        del out[f"gen_A_{form}"][which][0]

    return change, drop


def _set(path, value):
    def mutate(out):
        target = out
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _delete(path):
    def mutate(out):
        target = out
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]

    return mutate


def _cli_doc(edit):
    def mutate(out):
        doc = json.loads(out["out_text"])
        edit(doc)
        out["out_text"] = json.dumps(doc, indent=2, sort_keys=True) + "\n"

    return mutate


# check name -> (change one coefficient, drop one entry)
MUTATIONS = {
    "correlator-monomial-shape": _table_entry(lambda g, mu: g == 1 and len(mu) == 3),
    "one-point-vs-sympy": _table_entry(lambda g, mu: g == 0 and mu == [5]),
    "two-point-vs-sympy": _table_entry(lambda g, mu: g == 0 and mu == [5, 3]),
    "omega-support-symmetry-shape": _eo_table("omega"),
    "equivalence-theorem": (_set(["equivalence", 3, 3], 1), _delete(["equivalence", 3])),
    "closed-step-vs-residue": _eo_table("closed"),
    "closed-step-support-symmetry-shape": _eo_table("closed"),
    "cycle-sum-vs-bridge": _cycle_sum(3),
    "vanish-at-quarter": _cycle_sum(2),
    "affine-closed-form": _gen_A("direct"),
    "gen-A-closed-vs-direct": _gen_A("closed", "At"),
    "wronskian-identities": (_set(["wronskian", "det_g_one"], False), _delete(["wronskian", "phi1_ode"])),
    "exit-code-zero": (_set(["exit_code"], 1), _delete(["exit_code"])),
    "cli-report-all-pass": (_cli_doc(lambda d: d["checks"][2].update(status="fail")),
                            _cli_doc(lambda d: d["checks"].pop(4))),
    "out-bytes-identical": (lambda out: out.update(out_text=out["out_text"].replace("pass", "fail", 1)),
                            _delete(["out_text"])),
}


def selftest(root, workload, ref):
    problems = []
    tmp = tempfile.mkdtemp(prefix=".bench-selftest-", dir=root)
    try:
        deadline = time.perf_counter() + run.RUN_BUDGET_S
        passes = [run.run_pass(root, tmp, workload, "plain", 0, i, deadline) for i in range(2)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for doc in passes:
        if "crashed" in doc or doc["failures"]:
            return [f"{workload}: pass failed: {doc.get('crashed') or doc['failures']}"]
    out, peer = passes[0]["outputs"], passes[1]["outputs"]
    for name, fn in checks.CHECKS[workload]:
        found = []
        ok, instances, details = checks.run_check(fn, out, ref, peer)
        if not ok:
            found.append(f"{workload}/{name}: fails on real outputs: {details}")
        if checks.run_check(fn, {}, ref, {})[0]:
            found.append(f"{workload}/{name}: passes on empty outputs")
        for label, mutate in zip(("changed coefficient", "dropped entry"), MUTATIONS[name]):
            bad = copy.deepcopy(out)
            mutate(bad)
            if checks.run_check(fn, bad, ref, peer)[0]:
                found.append(f"{workload}/{name}: accepts a {label}")
        print(f"{workload}/{name}: {instances} instances, {'FAILED' if found else 'ok'}", file=sys.stderr)
        problems += found
    return problems


def main(argv):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gbgw", "__init__.py")):
        print("bench/selftest.py: run from the repository root", file=sys.stderr)
        return 2
    ref = checks.Reference(root)
    problems = []
    for workload in argv or wl.WORKLOADS:
        problems += selftest(root, workload, ref)
    for line in problems:
        print(line)
    print("selftest:", "FAILED" if problems else "all checks can fail")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
