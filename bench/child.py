"""One pass of one workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD MODE TMPDIR RESULT_JSON

MODE is ``plain`` (nothing attached), ``spans`` (timed spans around the
calls into gbgw), ``profile`` (cProfile attached for exact call counts) or
``setup`` (stop right before the first call into gbgw).
The parent starts this process with PYTHONPATH pointing at the checkout's
``src`` and reads RESULT_JSON when it exits.  The pass times itself from
the first call into gbgw to the last result; everything before that
(interpreter start, imports, input build) is set-up.
"""

import json
import resource
import sys
import time

import workloads

import gbgw
import gbgw.cli  # noqa: F401  (imports every module the workloads call)


class Tracer:
    """Span totals keyed by name; a disabled tracer calls straight through."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.totals = {}
        self._depth = {}

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            if depth == 0:  # nested calls of the same span count once
                self.totals[name] = self.totals.get(name, 0.0) + time.perf_counter() - t0
            self._depth[name] = depth

    def wrap(self, name, module, attr):
        inner = getattr(module, attr)

        def wrapped(*args, **kwargs):
            return self.call(name, lambda: inner(*args, **kwargs))

        setattr(module, attr, wrapped)


def peak_rss_kb():
    """Peak resident set of this process image, in KiB.

    VmHWM belongs to the address space exec created.  ru_maxrss is not used
    where VmHWM exists: Linux carries it across exec, so a pass started by
    vfork would report the parent's peak when that is higher.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _profile_summary(prof):
    """Total calls; calls and self time per module; calls per gbgw function."""
    import pstats

    stats = pstats.Stats(prof).stats
    modules, functions = {}, {}
    total = 0
    for (filename, _line, func), (_cc, nc, tt, _ct, _callers) in stats.items():
        total += nc
        if filename.endswith("fractions.py"):
            mod = "fractions"
        elif "/gbgw/" in filename.replace("\\", "/"):
            mod = filename.replace("\\", "/").rsplit("/", 1)[1][:-3]
            functions[f"{mod}.{func}"] = functions.get(f"{mod}.{func}", 0) + nc
        else:
            continue
        calls, self_s = modules.get(mod, (0, 0.0))
        modules[mod] = (calls + nc, self_s + tt)
    return {"total_calls": total, "modules": modules, "functions": functions}


def main(argv):
    workload, mode, tmpdir, result_path = argv
    tracer = Tracer(mode == "spans")
    if mode == "spans" and workload == "verify-all":
        for name, mod, attr in workloads.CLI_SPANS:
            tracer.wrap(name, getattr(gbgw, mod), attr)
    execute = workloads.run_ops(workload, gbgw, tmpdir, tracer)
    if mode == "setup":  # set-up only: stop where the first call would be
        with open(result_path, "w") as fh:
            json.dump({"t_first": time.perf_counter()}, fh)
        return
    prof = None
    if mode == "profile":
        import cProfile

        prof = cProfile.Profile(subcalls=False)
        prof.enable()
    t_first = time.perf_counter()
    results, failures = execute()
    t_last = time.perf_counter()
    if prof is not None:
        prof.disable()
    rss_kb = peak_rss_kb()
    doc = {
        "t_first": t_first,
        "t_last": t_last,
        "rss_kb": rss_kb,
        "spans": tracer.totals,
        "failures": failures,
        "outputs": workloads.serialize(workload, results),
    }
    if prof is not None:
        doc["profile"] = _profile_summary(prof)
    with open(result_path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
