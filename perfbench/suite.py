"""Workloads, instance files and the outcome checks of the benchmark.

Every instance is a fixed benchmark-family problem written to a .pop file
during set-up and run through ``tssos.cli.main`` exactly as a user would run
the ``tssos`` command.  Its expected outcome is recorded in
``reference.json`` (regenerate it with ``python3 perfbench/record.py``).

This module imports nothing from ``tssos`` at import time, so the parent
process (``run.py``) stays free of numpy and scipy.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
REFERENCE = os.path.join(HERE, "reference.json")

# ROADMAP's bound tolerance: |bound - ref| <= 1e-7 * (1 + |ref|).
BOUND_TOL = 1e-7

SOLVE = ["--json"]
EXPORT = ["--sparse-order", "2", "--solver", "external", "--export-sdpa", "{sdpa}"]

# Each instance: a benchmark family from tssos.bench with its arguments, the
# CLI flags that follow the file name, and the minimum a valid bound may not
# exceed ("sampled" means bench.sample_minimum, taken when recording).
INSTANCES: Dict[str, dict] = {
    "gen_rosenbrock_14": dict(family="gen_rosenbrock", n=14, argv=SOLVE, minimum=1.0),
    "broyden_tridiagonal_14": dict(family="broyden_tridiagonal", n=14, argv=SOLVE, minimum=0.0),
    "randpoly1_8_seed3": dict(
        family="randpoly1", n=8, kwargs=dict(deg=8, terms=30, prob=0.1, seed=3),
        argv=["--basis", "reduced", "--json"], minimum="sampled",
        known_defect="the README example of randpoly1 is SOS by construction, yet the "
                     "embedded solver stops with status numerical (exit 2); kept in the "
                     "suite and counted as a failed operation until the solver is fixed"),
    "broyden_banded_5_dense": dict(family="broyden_banded", n=5, argv=["--dense", "--json"],
                                   minimum=0.0),
    "broyden_tridiagonal_24_export": dict(family="broyden_tridiagonal", n=24, argv=EXPORT),
    "gen_rosenbrock_28_cube_export": dict(family="gen_rosenbrock", n=28, constraint="unit_hypercube",
                                          argv=["--order", "2"] + EXPORT),
}

WORKLOADS: Dict[str, List[str]] = {
    "sparse_solve": ["gen_rosenbrock_14", "broyden_tridiagonal_14", "randpoly1_8_seed3"],
    "dense_block": ["broyden_banded_5_dense"],
    "graph_export": ["broyden_tridiagonal_24_export", "gen_rosenbrock_28_cube_export"],
}

# Run with --max-iters 2 by every workload's set-up; the checks must count
# it as failed, which shows that the harness can see a failure at all.
FORCED_FAILURE = ("gen_rosenbrock_14", ["--max-iters", "2"])


def pop_path(name: str) -> str:
    return os.path.join(OUT, name + ".pop")


def sdpa_path(name: str) -> str:
    return os.path.join(OUT, name + ".dat-s")


def argv_for(name: str, extra: Optional[List[str]] = None) -> List[str]:
    flags = [a.format(sdpa=sdpa_path(name)) for a in INSTANCES[name]["argv"]]
    return ["solve", pop_path(name)] + flags + list(extra or [])


def exports_sdpa(name: str) -> bool:
    return "--export-sdpa" in INSTANCES[name]["argv"]


def generate(name: str):
    """The instance as a tssos PopProblem (imports tssos)."""
    from tssos import bench
    from tssos.poly import PopProblem

    spec = INSTANCES[name]
    n = spec["n"]
    f = getattr(bench, spec["family"])(n, **spec.get("kwargs", {}))
    return PopProblem(f, bench.constraint_set(spec.get("constraint", "none"), n))


def pop_text(pop) -> str:
    lines = [f"vars {pop.nvars}", str(pop.objective)]
    if pop.constraints:
        lines.append("subject to")
        lines.extend(str(g) for g in pop.constraints)
    return "\n".join(lines) + "\n"


def write_instances(names: List[str]) -> None:
    os.makedirs(OUT, exist_ok=True)
    for name in names:
        with open(pop_path(name), "w", encoding="utf-8") as fh:
            fh.write(pop_text(generate(name)))


def rhs_digest(b) -> str:
    """Order-free digest of a right-hand side vector, exact to the last bit."""
    text = " ".join(f"{v:.17g}" for v in sorted(float(x) for x in b))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sdpa_summary(path: str) -> dict:
    """Re-import an exported SDPA file: m, total block dimension, rhs digest."""
    from tssos import import_sdpa

    prob = import_sdpa(path).problem
    return {"m": prob.n_constraints, "total_dim": sum(abs(s) for s in prob.block_sizes),
            "rhs": rhs_digest(prob.b)}


def census(sizes: List[int]) -> str:
    counts: Dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    return " ".join(f"{s}x{counts[s]}" for s in sorted(counts, reverse=True))


def outcome(name: str, rc: int, stdout: str) -> dict:
    """What one CLI run delivered, in the shape reference.json records."""
    out: dict = {"exit": rc}
    if exports_sdpa(name):
        if rc == 0:
            try:
                out["sdpa"] = sdpa_summary(sdpa_path(name))
            except (OSError, ValueError) as exc:
                out["sdpa"] = f"unreadable: {exc}"
        return out
    try:
        payload = json.loads(stdout)
    except ValueError:
        return out
    out.update(status=payload.get("status"), bound=payload.get("bound"),
               iters=payload.get("iters"), m=payload.get("n_equalities"),
               census=census(payload.get("block_sizes", [])))
    return out


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def _tol(ref: float) -> float:
    return BOUND_TOL * (1.0 + abs(ref))


def judge(got: dict, ref: dict) -> List[str]:
    """Reasons one operation failed; empty when it succeeded.

    An operation fails when its exit code is not the expected one, its
    status is not optimal, its bound is off the recorded bound, its bound
    lies above the instance's minimum, or its SDPA file does not re-import
    to the recorded m, total block dimension and rhs.  For a known defect
    the expected outcome is the repaired one: exit 0, status optimal, and a
    bound no lower than the recorded one.
    """
    defect = "known_defect" in ref
    expected_exit = 0 if defect else ref["exit"]
    why = []
    if got["exit"] != expected_exit:
        why.append(f"exit {got['exit']} (expected {expected_exit})")
    if "sdpa" in ref:
        if got.get("sdpa") != ref["sdpa"]:
            why.append(f"sdpa {got.get('sdpa')} (expected {ref['sdpa']})")
        return why
    if got.get("status") != "optimal":
        why.append(f"status {got.get('status')}")
    bound = got.get("bound")
    if bound is None:
        why.append("no bound")
        return why
    low = bound < ref["bound"] - _tol(ref["bound"])
    if low or (not defect and bound > ref["bound"] + _tol(ref["bound"])):
        why.append(f"bound {bound!r} (expected {ref['bound']!r})")
    if bound > ref["minimum"] + _tol(ref["minimum"]):
        why.append(f"bound {bound!r} above the minimum {ref['minimum']!r}")
    return why


def matches_reference(got: dict, ref: dict) -> bool:
    """Whether the output is what the recorded outcome says it should be.

    Besides every output that passes ``judge``, a known defect reproduced
    as recorded matches: same exit code and status, same bound.
    """
    if not judge(got, ref):
        return True
    return ("known_defect" in ref and got["exit"] == ref["exit"]
            and got.get("status") == ref["status"] and got.get("bound") is not None
            and abs(got["bound"] - ref["bound"]) <= _tol(ref["bound"]))
