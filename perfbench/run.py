"""Benchmark of the tssos command line, one workload per run.

    python3 perfbench/run.py --workload sparse_solve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout holding src/tssos.  Each workload runs in a
fresh child process (child.py), one at a time, with BLAS limited to one
thread.  With --trace 0 the run reports the end-to-end metrics: the median
pass time, the median set-up time over SETUP_RUNS fresh processes, and the
child's peak RSS.  With --trace 1 it reports per-layer self times and counts
from a run that alternates traced and untraced passes.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it say the same for a reader, with sample counts, the
failure rate and the environment.  Workloads and their predictions are in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import suite  # noqa: E402

SETUP_RUNS = 3  # set-up is timed in this many fresh processes; the median is reported
DEADLINE_S = 170.0  # every child is killed after this long in total
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def per_layer_units() -> dict:
    from spans import COUNTS, LAYERS

    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units["assembly.canonical_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units["solver.s_per_iter"] = "s"
    units["solver.stack_mb_computed"] = units["solver.schur_mb_computed"] = "MiB"
    units["sdpa.bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    units["trace.pass_s"] = "s"
    return units


def run_child(args, deadline: float, setup_only: bool) -> dict:
    started = time.monotonic()
    cmd = [sys.executable, os.path.join(suite.HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--started", repr(started)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **BLAS_ENV)
    proc = subprocess.run(cmd, cwd=suite.ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values) -> str:
    if len(values) < 2:
        return "n=%d" % len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.4f}, q3={q3:.4f}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(suite.SRC, "tssos", "cli.py")):
        sys.stderr.write(f"no tssos sources under {suite.SRC}; run from a tssos checkout\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_child(args, deadline, setup_only=True)["setup_s"])
    res = run_child(args, deadline, setup_only=False)
    setups.append(res["setup_s"])

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}: environment {json.dumps(res['env'])}")
    print(f"operations: {attempted} attempted, {failed} failed, "
          f"fail_rate {failed / attempted:.4f}; correct {res['correct']}")
    for problem in res["problems"][:10]:
        print(f"  wrong output: {problem}")
    for drift in sorted(set(res["iters_drift"])):
        print(f"  iterations moved: {drift}")

    if not args.trace:
        metrics = {
            "pass_s": statistics.median(res["pass_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        samples = {"pass_s": res["pass_s"], "setup_s": setups, "peak_rss_mb": [res["peak_rss_mb"]]}
        units = dict(END_TO_END)
    else:
        layers = res["layers"]
        untraced = statistics.median(res["pass_s"])
        traced = statistics.median(res["traced_pass_s"])
        iters = layers["solver.iters"]
        layers["solver.s_per_iter"] = layers["solver.self_s"] / iters if iters else 0.0
        layers["trace.pass_s"] = traced
        layers["trace.overhead_s"] = traced - untraced
        units = per_layer_units()
        metrics = {name: layers[name] for name in units}
        samples = {"trace.pass_s": res["traced_pass_s"]}
        for name in sorted(set(layers) - set(units)):
            print(f"  unlisted layer figure {name}: {layers[name]}")

    for name, value in metrics.items():
        extra = f" ({quartiles(samples[name])})" if name in samples else ""
        print(f"{name}: {value:.6g} {units[name]}{extra}")
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
