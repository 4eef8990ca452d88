"""Solver outcomes on benchmark relaxations against recorded ones.

tests/data/solver_outcomes.json holds the status, bound and iteration count
of each instance below at each sparse order, recorded with the solver
whose step-length tests still solved with the Cholesky factors.  A solver
change must keep statuses, keep bounds within 1e-7 * (1 + |bound|) and
iterations within one; an outcome that moves is listed in MOVED with the
reason.

Near the gap tolerance the iteration count depends on the last bits of
the Schur complement (at k=1 broyden_banded n=6 takes 24 iterations with
one BLAS thread and 32 with two, n=7 30 and 28), so the outcomes are
computed in a child process with BLAS at one thread, as they were recorded.  Rewrite the file
from the current code with

    PYTHONPATH=src python tests/test_solver_outcomes.py --write
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "solver_outcomes.json")
SRC = os.path.join(os.path.dirname(HERE), "src")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Outcomes that moved from the recorded ones, as they are now.  Both are
# the broyden_banded end game at k=1, where a run is chaotic in the last
# bits of the Schur complement: the traces agree to a rel gap of 4e-8, then
# the recorded runs stalled near 1e-8, n=6 for five iterations and n=7 until
# tiny_steps (Schur jitter 8e3; the best iterate, of iteration 25, was
# returned).  With two BLAS threads the recorded code ended both optimal, in
# 21 and 31 iterations.  Factoring M in place with scipy's LAPACK potrf,
# instead of np.linalg.cholesky, changes the last bits of the factor and of
# the solves with it, and moved them again: n=6 from 21 to 24 iterations
# and n=7 from 27 to 29, both still optimal, the bounds by 4.3e-8 and
# 4.0e-8.  Forming each pair of the Schur complement once, in one
# triangle, instead of averaging its two computed orders, and the
# refinement's M x by symv on that triangle instead of a full gemv, change
# M's last bits once more: n=7 ends optimal in 30 iterations instead of
# 29, its bound -5.51e-8 -> 1.68e-7, the primal objective 7 - 1.7e-7 with
# a primal residual of 8.8e-9, inside the gap test's 1e-8 * (1 + 7 + 7).
# The same change moves gen_rosenbrock n=10's bound, at both orders and in
# the same 16 iterations, from 0.99999983 to 0.99999974, past 2e-7 from
# the recorded 0.99999998: the bound is read off the primal objective,
# 9 + 2.6e-7 against a dual one of 9 - 4e-8, which the gap test lets lie
# up to 1e-8 * (1 + 9 + 9) = 1.9e-7 apart.
MOVED = {
    "broyden_banded_6": {"1": {"status": "optimal", "bound": -1.20e-08, "iterations": 24}},
    "broyden_banded_7": {"1": {"status": "optimal", "bound": 1.68e-07, "iterations": 30}},
    "gen_rosenbrock_10": {k: {"status": "optimal", "bound": 0.99999974, "iterations": 16}
                          for k in ("1", "2")},
}

# (family, n, sparse orders)
INSTANCES = [("broyden_banded", n, (1,)) for n in (5, 6, 7)] + [
    (family, 10, (1, 2))
    for family in ("broyden_tridiagonal", "gen_rosenbrock", "mod_chained_singular", "mod_gen_rosenbrock")
]


def outcomes() -> dict:
    """Status, bound and iterations per instance and order, Newton basis, in this process."""
    from tssos.assembly import assemble, solve_relaxation
    from tssos.bench import BenchSpec, RunOptions, build_relaxation, generate

    table = {}
    for family, n, orders in INSTANCES:
        pop = generate(BenchSpec(family, n))
        rel = build_relaxation(pop, RunOptions(k_max=max(orders)))
        row = table[f"{family}_{n}"] = {}
        for k in orders:
            res = solve_relaxation(assemble(pop, rel.cliques(k)))
            row[str(k)] = {"status": res.status, "bound": res.bound, "iterations": res.iterations}
    return table


def one_thread_outcomes() -> dict:
    """outcomes() in a child process with BLAS at one thread, on this checkout's src/."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **ONE_THREAD)
    run = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


@pytest.fixture(scope="module")
def measured():
    return one_thread_outcomes()


@pytest.fixture(scope="module")
def recorded():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_recorded_outcomes_cover_the_instances(recorded):
    assert {name: sorted(row) for name, row in recorded.items()} == {
        f"{family}_{n}": sorted(map(str, orders)) for family, n, orders in INSTANCES}


@pytest.mark.parametrize("name", [f"{family}_{n}" for family, n, _ in INSTANCES])
def test_solver_keeps_recorded_outcomes(name, measured, recorded):
    for k, want in recorded[name].items():
        want = MOVED.get(name, {}).get(k, want)
        got = measured[name][k]
        assert got["status"] == want["status"], (k, got, want)
        assert abs(got["bound"] - want["bound"]) <= 1e-7 * (1 + abs(want["bound"])), (k, got, want)
        assert abs(got["iterations"] - want["iterations"]) <= 1, (k, got, want)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with open(DATA, "w", encoding="utf-8") as fh:
            json.dump(one_thread_outcomes(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(outcomes(), sys.stdout)
