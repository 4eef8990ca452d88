"""Record the reference outcome of every benchmark instance.

    python3 perfbench/record.py

Runs each instance twice through ``tssos.cli.main`` (the second run must
repeat the first exactly), adds the minimum each bound is checked against
and any known defect, and writes ``perfbench/reference.json``.  Run it at
the commit whose behaviour the benchmark should hold later commits to.
"""

from __future__ import annotations

import json
import os
import sys

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import child  # noqa: E402
import suite  # noqa: E402


def main() -> int:
    tssos = child.import_tssos()
    from tssos import bench

    names = sorted(suite.INSTANCES)
    suite.write_instances(names)
    runner = child.Runner(names, tssos, {})
    instances = {}
    for name in names:
        spec = suite.INSTANCES[name]
        got = runner.run(name)
        again = runner.run(name)
        if again != got:
            raise SystemExit(f"{name}: outcome did not repeat: {got} then {again}")
        if "minimum" in spec:
            got["minimum"] = spec["minimum"]
            if spec["minimum"] == "sampled":
                got["minimum"] = bench.sample_minimum(suite.generate(name))
                got["minimum_source"] = "bench.sample_minimum (10000 points, seed 0)"
        if "known_defect" in spec:
            got["known_defect"] = spec["known_defect"]
        instances[name] = got
        print(name, json.dumps(got), flush=True)
    with open(suite.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"environment": child.environment(), "instances": instances}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
