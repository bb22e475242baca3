"""Run one benchmark workload against the library in ../src.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one closed-loop caller: each op starts when the
previous one has returned.  Ops run in passes (see workloads.py) until the
time spent inside ops reaches --seconds, always finishing the current
pass.  Every op has a time budget enforced by an in-process interval
timer; an op that runs past it, raises, or fails its correctness check
(run outside the timed region) counts as failed.

The last line of standard output is the result object; the line before it
is the run record.  With --trace 0 the metrics are the end-to-end ones.
With --trace 1 the workload runs once untraced and once with the
per-layer tracer (layers.py) installed, and the metrics are the per-layer
ones, per op of the traced run.  Reported times are divided by the host
slowdown measured in the same run (see PROBE_REFERENCE_S).
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from layers import LAYER_METRICS, Tracer, install_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# setup runs at least SETUP_REPEATS times, and more while it has taken
# less than SETUP_MIN_S in all, up to SETUP_MAX_REPEATS
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 20
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# The speed of pure-Python code on a shared host drifts by up to 40% over
# minutes.  A run therefore times a fixed probe (see make_probe) after
# every PROBE_EVERY_S of op time and divides every time it reports by the
# host slowdown: the probe's median over PROBE_REFERENCE_S (its median on
# a quiet 2-vCPU x86-64 container with Python 3.11), raised to
# PROBE_EXPONENT.  Library code slows less than the probe; of the
# exponents 0, 0.25, 0.5, 0.75 and 1, 0.75 gave the least run-to-run
# spread over four ten-run sets of every workload.
PROBE_EVERY_S = 0.5
PROBE_REFERENCE_S = 0.015
PROBE_EXPONENT = 0.75


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def import_package():
    """A fresh import of the package from this checkout's src/."""
    for name in [m for m in sys.modules if m == "ngons" or m.startswith("ngons.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    ngons = importlib.import_module("ngons")
    if not os.path.abspath(ngons.__file__).startswith(SRC + os.sep):
        raise ImportError("ngons was imported from %s, not from %s"
                          % (ngons.__file__, SRC))
    return ngons


def set_up(workload, seed):
    """Import the package and build the inputs several times; returns the
    last (package, state) and the median setup time."""
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S
                                          and len(times) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        ngons = import_package()
        state = workload.setup(ngons, seed)
        times.append(time.perf_counter() - start)
    return ngons, state, statistics.median(times)


def make_probe():
    """A fixed pure-Python job shaped like the library's hot loops:
    depth-first enumeration of simple paths with tuple paths and
    frozenset visited sets, on a fixed 3-regular circulant graph."""
    adj = {v: set() for v in range(60)}
    for v in range(60):
        for step in (1, 7, 23):
            adj[v].add((v + step) % 60)
            adj[(v + step) % 60].add(v)

    def probe():
        start = time.perf_counter()
        for root in range(0, 60, 12):
            stack = [((root,), frozenset((root,)))]
            while stack:
                path, seen = stack.pop()
                if len(path) == 6:
                    continue
                for w in sorted(adj[path[-1]], reverse=True):
                    if w not in seen:
                        stack.append((path + (w,), seen | {w}))
        return time.perf_counter() - start

    return probe


def run_op(workload, state, op, tracer=None):
    """Run one op under its time budget; returns (outcome, seconds) with
    outcome "ok", "wrong", "timeout" or "error"."""
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, workload.budget_s)
            result = workload.run(state, op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.active = False
    except OpTimeout:
        return "timeout", time.perf_counter() - start
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return "error", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    try:
        correct = workload.check(state, op, result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        correct = False
    return ("ok" if correct else "wrong"), elapsed


def measure(workload, state, seconds, tracer=None, probe=None):
    """Run whole passes until the time inside ops reaches `seconds`,
    timing the probe (if given) between ops."""
    samples = []
    outcomes = {"ok": 0, "wrong": 0, "timeout": 0, "error": 0}
    busy = 0.0
    pass_sizes = []
    probes = []
    since_probe = PROBE_EVERY_S
    for ops in workload.passes(state):
        for op in ops:
            if probe is not None and since_probe >= PROBE_EVERY_S:
                probes.append(probe())
                since_probe = 0.0
            outcome, elapsed = run_op(workload, state, op, tracer)
            since_probe += elapsed
            outcomes[outcome] += 1
            samples.append(elapsed)
            busy += elapsed
        pass_sizes.append(len(ops))
        if busy >= seconds:
            break
    return {"samples": samples, "outcomes": outcomes, "busy_s": busy,
            "passes": len(pass_sizes), "pass_ops": min(pass_sizes),
            "probes": probes}


def tail_percentile(pass_ops):
    """The highest percentile with at least 10 samples above it in one
    pass; fixed per workload because every run has at least one pass."""
    for p in TAIL_PERCENTILES:
        if pass_ops - math.ceil(p / 100 * pass_ops) >= 10:
            return p
    return TAIL_PERCENTILES[-1]


def percentile(samples, p):
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def median_band(samples):
    """The median, estimated as the mean of the samples between p40 and
    p60.  Op costs form clusters, and the plain median of a fixed pool can
    sit on the edge between two of them; the band mean moves by one
    sample's share when timing noise reorders the ops at its edges."""
    ordered = sorted(samples)
    low = math.floor(0.4 * len(ordered))
    high = max(low + 1, math.ceil(0.6 * len(ordered)))
    return statistics.fmean(ordered[low:high])


def ops_per_s(run):
    return run["outcomes"]["ok"] / run["busy_s"]


def host_slowdown(run):
    return (statistics.median(run["probes"]) / PROBE_REFERENCE_S) ** PROBE_EXPONENT


def git_revision():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    try:
        ngons, state, setup_s = set_up(workload, args.seed)
    except ImportError as exc:
        print("cannot import the library: %s" % exc, file=sys.stderr)
        return 2
    run = measure(workload, state, args.seconds, probe=make_probe())
    p = tail_percentile(run["pass_ops"])
    runs = [run]
    slowdown = host_slowdown(run)
    raw = {
        "ops_per_s": ops_per_s(run),
        "op_p50_s": median_band(run["samples"]),
        "op_tail_s": percentile(run["samples"], p),
        "setup_s": setup_s,
    }
    if args.trace:
        tracer = Tracer()
        install_layers(tracer, ngons)
        try:
            traced = measure(workload, workload.setup(ngons, args.seed),
                             args.seconds, tracer, make_probe())
        finally:
            tracer.uninstall()
        runs.append(traced)
        per_op = len(traced["samples"])
        per_op_s = per_op * host_slowdown(traced)
        metrics = {name: {"value": tracer.totals.get(name, 0)
                          / (per_op_s if unit == "s" else per_op), "unit": unit}
                   for name, unit in LAYER_METRICS}
        metrics["trace.overhead_ratio"]["value"] = (
            ops_per_s(traced) * host_slowdown(traced) / (ops_per_s(run) * slowdown))
    else:
        metrics = {
            "ops_per_s": {"value": raw["ops_per_s"] * slowdown, "unit": "op/s"},
            "op_p50_s": {"value": raw["op_p50_s"] / slowdown, "unit": "s"},
            "op_tail_s": {"value": raw["op_tail_s"] / slowdown, "unit": "s"},
            "setup_s": {"value": setup_s / slowdown, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    attempted = sum(len(r["samples"]) for r in runs)
    failed = sum(n for r in runs for k, n in r["outcomes"].items() if k != "ok")
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops": len(run["samples"]),
        "passes": run["passes"],
        "ops_per_pass": run["pass_ops"],
        "op_p50_s_estimator": "mean of the samples between p40 and p60",
        "op_tail_s_percentile": "p%d" % p,
        "op_tail_s_samples": len(run["samples"]),
        "outcomes": run["outcomes"],
        "error_rate": 1 - run["outcomes"]["ok"] / len(run["samples"]),
        "measured_s": run["busy_s"],
        "host_slowdown": slowdown,
        "unscaled": raw,
    }
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": all(r["outcomes"]["wrong"] == r["outcomes"]["error"] == 0
                       for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
