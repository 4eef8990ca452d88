"""One workload in one fresh process: set up, warm up, then timed passes.

Started by run.py; prints one JSON object on its last stdout line.  Set-up
imports tssos (with numpy and scipy) from the checkout's src/, writes the
instance files, runs the forced-failure check and one untimed warm-up pass.
Each timed pass runs every instance of the workload once, in an order
shuffled by the workload seed, through ``tssos.cli.main``; a pass ends when
the deliverable is in hand (the parsed JSON result, or the SDPA file read
back).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

import suite


def import_tssos():
    sys.path.insert(0, suite.SRC)
    import tssos
    import tssos.cli

    if not os.path.abspath(tssos.__file__).startswith(suite.SRC + os.sep):
        raise SystemExit(f"tssos was imported from outside {suite.SRC}")
    return tssos


def environment() -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


class Runner:
    def __init__(self, names, tssos, refs):
        self.cli = tssos.cli
        self.names = names
        self.refs = refs
        self.tracer = None  # set during traced passes

    def run(self, name: str, extra=None) -> dict:
        """One operation: the CLI on one instance file, up to its deliverable."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open("main", "cli") if self.tracer else None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(suite.argv_for(name, extra))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an escaped exception is a failed operation
                rc = f"exception {type(exc).__name__}: {exc}"
            finally:
                if span is not None:
                    self.tracer.close(span)
        return suite.outcome(name, rc, out.getvalue())

    def check(self, name: str, got: dict, tally: dict):
        ref = self.refs[name]
        reasons = suite.judge(got, ref)
        tally["attempted"] += 1
        if reasons:
            tally["failed"] += 1
        if not suite.matches_reference(got, ref):
            tally["correct"] = False
            tally["problems"].append(f"{name}: " + "; ".join(reasons))
        elif "iters" in ref and got.get("iters") != ref["iters"]:
            tally["iters_drift"].append(f"{name}: {got.get('iters')} (recorded {ref['iters']})")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent when it started this process")
    args = ap.parse_args()

    tssos = import_tssos()
    runner = Runner(suite.WORKLOADS[args.workload], tssos, suite.load_reference())
    forced_name, forced_flags = suite.FORCED_FAILURE
    suite.write_instances(sorted(set(runner.names) | {forced_name}))
    forced = runner.run(forced_name, forced_flags)
    forced_counted = bool(suite.judge(forced, runner.refs[forced_name]))
    for name in runner.names:  # warm-up pass: untimed, outcomes not counted
        runner.run(name)
    setup_s = time.monotonic() - args.started
    result = {"setup_s": setup_s, "forced_failure_counted": forced_counted}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tally = {"attempted": 0, "failed": 0, "correct": forced_counted, "problems": [],
             "iters_drift": []}
    if not forced_counted:
        tally["problems"].append(f"--max-iters 2 on {forced_name} was not counted as failed: {forced}")
    rng = random.Random(args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    times = {False: [], True: []}
    traced = False
    t0 = time.perf_counter()
    npass = 0
    while True:
        order = rng.sample(runner.names, len(runner.names))
        if traced:
            tracer.install()
            runner.tracer = tracer
        got = []
        start = time.perf_counter()
        for name in order:
            if traced:
                tracer.op = (npass, name)
            got.append(runner.run(name))
        times[traced].append(time.perf_counter() - start)
        if traced:
            tracer.remove()
            runner.tracer = None
        for name, g in zip(order, got):
            runner.check(name, g, tally)
        npass += 1
        done = time.perf_counter() - t0 >= args.seconds
        if args.trace:
            if done and times[True] and times[False]:
                break
            traced = not traced
        elif done:
            break

    result.update(tally)
    result["pass_s"] = times[False]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    if tracer is not None:
        result["traced_pass_s"] = times[True]
        result["layers"] = layer_medians(tracer)
        tracer.dump(os.path.join(suite.OUT, f"spans_{args.workload}_{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


def layer_medians(tracer) -> dict:
    """Median over traced passes of each per-pass layer figure."""
    from spans import COUNTS, LAYERS, MAXIMA

    per_pass: dict = {}
    for (npass, _name), figures in tracer.per_op().items():
        acc = per_pass.setdefault(npass, {})
        for metric, value in figures.items():
            if metric in MAXIMA:
                acc[metric] = max(acc.get(metric, 0), value)
            else:
                acc[metric] = acc.get(metric, 0.0) + value
    metrics = [f"{layer}.self_s" for layer in LAYERS] + ["assembly.canonical_s"] + list(COUNTS)
    extra = sorted({m for acc in per_pass.values() for m in acc} - set(metrics))
    return {m: statistics.median(acc.get(m, 0.0) for acc in per_pass.values())
            for m in metrics + extra}


if __name__ == "__main__":
    sys.exit(main())
