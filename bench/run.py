"""Repository benchmark for gbgw: cold single-process passes, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the directory holding ``src/gbgw`` and
``BENCHMARK.json``).  Each pass runs one workload in a fresh interpreter, so
every module memo starts empty, as it does for a user of the CLI.  Passes
repeat until S seconds have gone and at least MIN_PASSES have run; one
more pass then runs with cProfile attached, for exact call counts.

With --trace 0 the last line of standard output reports the end-to-end
metrics of BENCHMARK.json: medians over the untraced passes, plus
``py_calls`` from the profiled pass.  With --trace 1 the passes also time
spans around the calls into gbgw, and the last line reports the per-layer
metrics.  A line before it records the environment and every pass.

Every pass's outputs are checked (bench/checks.py) after it has ended.
``attempted`` counts, per pass, each operation of the workload (one table
or one CLI command) and each check; ``failed`` counts those that raised or
did not pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
# a run must end within 180 s; passes still running at this point are killed
# and count as crashed
RUN_BUDGET_S = 150
# set-up alone is about 0.1 s and noisy, so each run adds this many passes
# that stop before the first call, and setup_s is the median over all passes
SETUP_PASSES = 8


def hash_seed(seed, index):
    """PYTHONHASHSEED of one pass: a function of the run seed and pass index."""
    return (seed * 1_000_003 + index * 7919) % 4_294_967_296


def environment(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                             text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_revision": revision,
        "loadavg": list(os.getloadavg()),
    }


def run_pass(root, tmp, workload, mode, seed, index, deadline):
    """Start one pass and wait for it, killing it at ``deadline``; returns its
    result document."""
    pass_dir = os.path.join(tmp, f"pass{index}")
    os.mkdir(pass_dir)
    result_path = os.path.join(pass_dir, "result.json")
    src = os.path.join(root, "src")
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""),
               PYTHONHASHSEED=str(hash_seed(seed, index)))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, mode, pass_dir, result_path]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(deadline - t_spawn, 1.0))
        error = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        error = "killed at the run's time budget"
    doc = None
    if error is None:
        try:
            with open(result_path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            error = f"no result: {exc}"
    if doc is None:
        doc = {"crashed": error, "outputs": {}}
    doc["mode"] = mode
    doc["t_spawn"] = t_spawn
    return doc


def score(workload, passes, ref):
    """Count operations and checks over every pass.

    Returns (attempted, failed, failed checks, problem lines)."""
    op_names = wl.op_names(workload)
    attempted = failed = failed_checks = 0
    problems = []
    for i, doc in enumerate(passes):
        attempted += len(op_names)
        if "crashed" in doc:
            failed += len(op_names)
            problems.append(f"pass {i} crashed: {doc['crashed']}")
        else:
            failed += len(doc["failures"])
            problems += [f"pass {i} op {name}: {err}" for name, err in doc["failures"].items()]
        peer = passes[(i + 1) % len(passes)]["outputs"] if len(passes) > 1 else None
        for name, fn in checks.CHECKS[workload]:
            attempted += 1
            ok, instances, details = checks.run_check(fn, doc["outputs"], ref, peer)
            doc.setdefault("checks", {})[name] = instances if ok else details
            if not ok:
                failed += 1
                failed_checks += 1
                problems.append(f"pass {i} check {name}: {details}")
    return attempted, failed, failed_checks, problems


def _wall(doc):
    return doc["t_last"] - doc["t_first"]


def _cli_suite_seconds(stderr):
    """Per-suite sums of the CLI's own per-check timings ('  [pass] name (0.50s)')."""
    sums, suite = {}, None
    for line in stderr.splitlines():
        if line.startswith("suite ") and line.endswith(":"):
            suite = line[len("suite "):-1]
            sums[suite] = 0.0
        elif suite and line.rstrip().endswith("s)") and "(" in line:
            sums[suite] += float(line.rsplit("(", 1)[1][:-2])
    return sums


def end_to_end(timed, profiled, setups):
    return {
        "wall_s": statistics.median(_wall(d) for d in timed),
        "setup_s": statistics.median(d["t_first"] - d["t_spawn"] for d in setups + timed),
        "peak_rss_mb": statistics.median(d["rss_kb"] / 1024 for d in timed),
        "py_calls": profiled["profile"]["total_calls"],
    }


def per_layer(timed, profiled):
    prof = profiled["profile"]
    modules, functions = prof["modules"], prof["functions"]
    out = {}
    for mod in ("fractions", "poly", "series", "eo"):
        calls, self_s = modules.get(mod, (0, 0.0))
        out[f"{mod}.calls"] = calls
        out[f"{mod}.self_s"] = self_s
    expansions = functions.get("correlators._expand", 0)
    lookups = functions.get("correlators._corr", 0)
    out["correlators.expansions"] = expansions
    out["correlators.memo_hit_ratio"] = 1 - expansions / lookups if lookups else 0.0
    out["eo.sub_lookups"] = functions.get("eo._sub_lookup", 0)
    for name in wl.span_names():
        out[name] = statistics.median(d["spans"].get(name, 0.0) for d in timed)
    cli = [_cli_suite_seconds(d["outputs"].get("stderr", "")) for d in timed]
    for suite in wl.VERIFY_SUITES:
        out[f"cli.{suite}_s"] = statistics.median(c.get(suite, 0.0) for c in cli)
    out["cli.out_bytes"] = len(timed[0]["outputs"].get("out_text", "").encode())
    out["trace.overhead_s"] = _wall(profiled) - statistics.median(_wall(d) for d in timed)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "gbgw", "__init__.py")) or not os.path.isfile(spec_path):
        print("bench/run.py: run from the repository root (src/gbgw and BENCHMARK.json not found)",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    info = {"env": environment(root), "workload": args.workload, "seed": args.seed}
    # compile once, so that no timed pass pays for writing bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src", "gbgw")],
                   check=True, capture_output=True)
    tmp = tempfile.mkdtemp(prefix=".bench-run-", dir=root)
    try:
        t0 = time.perf_counter()
        deadline = t0 + RUN_BUDGET_S
        setups = [run_pass(root, tmp, args.workload, "setup", args.seed, i, deadline)
                  for i in range(SETUP_PASSES)]
        t1 = time.perf_counter()
        mode = "spans" if args.trace else "plain"
        timed = []
        while len(timed) < MIN_PASSES or time.perf_counter() - t1 < args.seconds:
            timed.append(run_pass(root, tmp, args.workload, mode, args.seed, SETUP_PASSES + len(timed),
                                  deadline))
        t2 = time.perf_counter()
        profiled = run_pass(root, tmp, args.workload, "profile", args.seed, SETUP_PASSES + len(timed),
                            deadline)
        t3 = time.perf_counter()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, failed_checks, problems = score(args.workload, timed + [profiled], checks.Reference(root))
    phases = {"setup_passes": t1 - t0, "timed_passes": t2 - t1, "profiled_pass": t3 - t2,
              "checks": time.perf_counter() - t3}
    for line in problems[:20]:
        print(line, file=sys.stderr)
    good = [d for d in timed if "crashed" not in d]
    values = {}
    if good and "crashed" not in profiled:
        values = per_layer(good, profiled) if args.trace else \
            end_to_end(good, profiled, [d for d in setups if "crashed" not in d])
    info["phase_s"] = phases
    info["passes"] = [{"mode": d["mode"], "crashed": d.get("crashed"),
                       "wall_s": None if "crashed" in d else _wall(d),
                       "setup_s": None if "crashed" in d else d["t_first"] - d["t_spawn"],
                       "rss_kb": d.get("rss_kb"), "checks": d.get("checks")} for d in timed + [profiled]]
    print(json.dumps(info))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed_checks == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
