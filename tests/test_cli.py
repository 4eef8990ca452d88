import json
import os
import subprocess
import sys

import pytest

from tssos.cli import main
from tssos.sdpa import import_sdpa
from tssos.solver import solve_canonical

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EX1 = os.path.join(ROOT, "examples_pop", "ex1.pop")
BALL = os.path.join(ROOT, "examples_pop", "ball2.pop")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_json_unconstrained(capsys):
    code, out, _ = run(capsys, "solve", EX1, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert payload["bound"] == pytest.approx(-0.0035512, abs=1e-4)
    assert payload["bs"] == 6
    assert payload["sparse_order"] == 1
    assert payload["stabilized_at"] == 1
    assert payload["side"] == "sos"


def test_solve_human_output(capsys):
    code, out, _ = run(capsys, "solve", EX1)
    assert code == 0
    assert "bound:" in out
    assert "status:     optimal" in out
    assert "stabilized: yes (k = 1)" in out


def test_solve_dense_reaches_zero(capsys):
    code, out, _ = run(capsys, "solve", EX1, "--dense", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == pytest.approx(0.0, abs=1e-5)
    assert "stabilized_at" not in payload


def test_solve_constrained_ball(capsys):
    code, out, _ = run(capsys, "solve", BALL, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == pytest.approx(0.75, abs=1e-6)
    assert payload["order"] == 2  # inferred minimum order
    code2, out2, _ = run(capsys, "solve", BALL, "--json", "--order", "3")
    assert code2 == 0
    assert json.loads(out2)["bound"] == pytest.approx(0.75, abs=1e-5)


def test_solve_moment_side_matches(capsys):
    _, out_sos, _ = run(capsys, "solve", EX1, "--json")
    _, out_mom, _ = run(capsys, "solve", EX1, "--json", "--side", "moment")
    a = json.loads(out_sos)["bound"]
    b = json.loads(out_mom)["bound"]
    assert a == pytest.approx(b, abs=1e-6)


def test_solve_modes_agree_on_small_problem(capsys):
    bounds = {}
    for mode in ("chordal", "minfill", "block"):
        code, out, _ = run(capsys, "solve", EX1, "--json", "--mode", mode)
        assert code == 0
        bounds[mode] = json.loads(out)["bound"]
    assert bounds["chordal"] == pytest.approx(bounds["minfill"], abs=1e-6)
    # block closure is at least as tight (denser pattern)
    assert bounds["block"] >= bounds["chordal"] - 1e-7


def test_report_unconstrained(capsys):
    code, out, _ = run(capsys, "report", EX1)
    assert code == 0
    rep = json.loads(out)
    assert rep["nvars"] == 3
    assert rep["stabilized_at"] == 1
    (level,) = rep["levels"]["1"]
    assert level["max_clique"] == 3
    assert level["clique_sizes"] == [3, 3, 3, 3]
    assert rep["sos_scalar_variables"] == 24
    assert rep["moment_scalar_variables"] == rep["n_equalities"]


def test_report_constrained_levels(capsys):
    code, out, _ = run(capsys, "report", BALL, "--sparse-order", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == 2
    assert len(rep["levels"]["1"]) == 2  # moment graph + one localizing graph
    assert len(rep["levels"]["2"]) == 2


def test_bench_markdown(capsys):
    code, out, _ = run(
        capsys, "bench", "broyden_tridiagonal", "--n", "4", "--seed", "0"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| instance | k |")
    assert "broyden_tridiagonal(n=4)" in lines[2]
    assert "optimal" in lines[2]


def test_bench_json_to_file(capsys, tmp_path):
    out_path = tmp_path / "rows.json"
    code, out, _ = run(
        capsys, "bench", "randpoly1", "--n", "3", "--seed", "2",
        "--deg", "4", "--terms", "2", "--prob", "0.4",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    rows = json.loads(out_path.read_text())
    assert rows[0]["status"] == "optimal"
    assert rows[0]["rbs"] is not None


def test_bench_missing_random_args(capsys):
    code, _, err = run(capsys, "bench", "randpoly1", "--n", "3", "--seed", "2")
    assert code == 1
    assert "error:" in err and "--deg" in err


def test_export_sdpa_file(capsys, tmp_path):
    path = tmp_path / "ex1.dat-s"
    code, out, _ = run(capsys, "solve", EX1, "--json", "--export-sdpa", str(path))
    assert code == 0
    back = import_sdpa(str(path))
    sol = solve_canonical(back.problem)
    assert sol.status == "optimal"
    bound = back.offset - sol.primal_obj
    assert bound == pytest.approx(json.loads(out)["bound"], abs=1e-9)


def test_external_solver_two_step(capsys, tmp_path):
    sdpa_path = tmp_path / "ball.dat-s"
    code, out, _ = run(
        capsys, "solve", BALL, "--solver", "external",
        "--export-sdpa", str(sdpa_path),
    )
    assert code == 0
    assert "--solution" in out
    assert sdpa_path.exists()

    # play the part of the external solver with the embedded one
    back = import_sdpa(str(sdpa_path))
    sol = solve_canonical(back.problem)
    result = tmp_path / "result.json"
    result.write_text(json.dumps({
        "status": sol.status,
        "primal_obj": sol.primal_obj,
        "dual_obj": sol.dual_obj,
    }))
    code2, out2, _ = run(
        capsys, "solve", BALL, "--solver", "external",
        "--export-sdpa", str(sdpa_path), "--solution", str(result), "--json",
    )
    assert code2 == 0
    payload = json.loads(out2)
    assert payload["solver"] == "external"
    assert payload["bound"] == pytest.approx(0.75, abs=1e-6)


def test_external_solution_missing_key(capsys, tmp_path):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"dual_obj": 1.0}))
    code, _, err = run(
        capsys, "solve", BALL, "--solver", "external",
        "--export-sdpa", str(tmp_path / "b.dat-s"), "--solution", str(result),
    )
    assert code == 1
    assert "primal_obj" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/x.pop")
    assert code == 1
    assert err.startswith("error:")


def test_bad_syntax_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.pop"
    bad.write_text("vars 1\nx1 + + 2\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 1
    assert "error:" in err


def test_newton_basis_rejected_for_constrained(capsys):
    code, _, err = run(capsys, "solve", BALL, "--basis", "newton")
    assert code == 1
    assert "unconstrained" in err


def test_order_below_minimum_rejected(capsys):
    code, _, err = run(capsys, "solve", BALL, "--order", "1")
    assert code == 1
    assert "minimum" in err


def test_dense_with_reduced_basis_rejected(capsys):
    code, _, err = run(capsys, "solve", BALL, "--dense", "--basis", "reduced")
    assert code == 1
    assert "standard basis" in err


def test_sparse_order_must_be_positive(capsys):
    code, _, err = run(capsys, "solve", EX1, "--sparse-order", "0")
    assert code == 1
    assert "--sparse-order" in err


def test_iteration_budget_exhaustion_returns_two(capsys):
    code, out, _ = run(capsys, "solve", EX1, "--json", "--max-iters", "2")
    assert code == 2
    assert json.loads(out)["status"] == "max_iter"


def test_solver_events_name_the_stopping_rule(capsys, tmp_path):
    # the README's randpoly1 example stops short of optimality
    from tssos import bench

    path = tmp_path / "randpoly1.pop"
    path.write_text(f"vars 8\n{bench.randpoly1(8, deg=8, terms=30, prob=0.1, seed=3)}\n")
    code, out, _ = run(capsys, "solve", str(path), "--basis", "reduced", "--json")
    payload = json.loads(out)
    assert code == 2 and payload["status"] == "numerical"
    stops = [ev for ev in payload["events"] if ev["event"] == "stop"]
    assert len(stops) == 1
    assert stops[0]["rule"] in ("stall", "tiny_steps", "s_not_pd", "schur_failed")


def test_optimal_solve_reports_no_stop_event(capsys):
    code, out, _ = run(capsys, "solve", EX1, "--json")
    assert code == 0
    assert not [ev for ev in json.loads(out)["events"] if ev["event"] == "stop"]


def test_verbose_prints_events(capsys):
    code, _, err = run(capsys, "solve", EX1, "--max-iters", "2", "--verbose")
    assert code == 2
    assert "event  stop  rule max_iters  iter 2" in err


def test_json_stays_parseable_under_verbose(capsys):
    code, out, err = run(capsys, "solve", EX1, "--json", "--verbose")
    assert code == 0
    assert json.loads(out)["status"] == "optimal"
    assert err.startswith("iter   1")


@pytest.mark.parametrize("argv", [["solve", EX1, "--json"], ["solve", BALL, "--json"],
                                  ["report", EX1], ["report", BALL]])
def test_pop_file_is_parsed_once(capsys, monkeypatch, argv):
    import tssos.cli

    calls = []
    real = tssos.cli.parse_pop
    monkeypatch.setattr(tssos.cli, "parse_pop", lambda text: calls.append(text) or real(text))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_newton_candidates_above_cap_is_input_error(capsys, tmp_path):
    path = tmp_path / "wide.pop"
    path.write_text("vars 60\n1 + " + " + ".join(f"x{i}^12" for i in range(1, 61)) + "\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert err.startswith("error:") and "cap" in err


def test_problem_above_memory_limit_is_refused(capsys, monkeypatch):
    import tssos.solver

    # ex1's dense relaxation needs tens of KiB: below any real limit
    monkeypatch.setattr(tssos.solver, "_memory_limit", lambda: 1 << 10)
    code, out, err = run(capsys, "solve", EX1, "--dense", "--json")
    assert code == 1
    assert out == ""
    assert "error: the solver needs about" in err and "MiB" in err


@pytest.mark.parametrize("text", ["vars 1\nx1^2\n", "vars 2\n4*x1^2*x2^4\n", "vars 1\n3*x1^4\n"])
def test_one_term_objective_solves_on_the_newton_basis(capsys, tmp_path, text):
    # the origin joins the Newton hull, so the basis keeps the constant monomial
    path = tmp_path / "one_term.pop"
    path.write_text(text)
    code, out, _ = run(capsys, "solve", str(path), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "optimal"
    assert abs(payload["bound"]) <= 1e-6


@pytest.mark.parametrize("payload, fragment", [
    (3, "is not a JSON object"),
    ([0.75], "is not a JSON object"),
    ({"primal_obj": None}, "'primal_obj' is not a number: None"),
    ({"primal_obj": "x"}, "'primal_obj' is not a number: 'x'"),
    ({"primal_obj": True}, "'primal_obj' is not a number: True"),
    ({"primal_obj": float("nan")}, "'primal_obj' is not a number: nan"),
])
def test_external_solution_must_hold_a_numeric_objective(capsys, tmp_path, payload, fragment):
    result = tmp_path / "result.json"
    result.write_text(json.dumps(payload))
    code, out, err = run(
        capsys, "solve", BALL, "--solver", "external",
        "--export-sdpa", str(tmp_path / "b.dat-s"), "--solution", str(result),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: solution file") and fragment in err


def test_external_objective_beyond_double_range_reads_as_inf(capsys, tmp_path):
    result = tmp_path / "result.json"
    result.write_text('{"status": "optimal", "primal_obj": 1' + "0" * 400 + "}")
    code, out, _ = run(
        capsys, "solve", BALL, "--solver", "external",
        "--export-sdpa", str(tmp_path / "b.dat-s"), "--solution", str(result), "--json",
    )
    assert code == 0
    # the objective reads as inf; the bound it gives is written as null, which is JSON
    assert "Infinity" not in out
    assert json.loads(out)["bound"] is None


def test_solution_needs_the_external_solver(capsys, tmp_path):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"primal_obj": 0.75}))
    code, out, err = run(capsys, "solve", BALL, "--solution", str(result))
    assert code == 1
    assert out == ""
    assert err == "error: --solution needs --solver external\n"


COMMENTED_BALL = ("# scaled down from the x40 model\n"
                  "x1^4 + x2^4 - x1*x2\nsubject to\n1 - x1^2 - x2^2\n")


def test_comment_text_does_not_set_the_variable_count(capsys, tmp_path):
    path = tmp_path / "ball.pop"
    path.write_text(COMMENTED_BALL)
    code, out, _ = run(capsys, "solve", str(path), "--json")
    d = json.loads(out)
    assert code == 0
    assert (d["bs"], d["n_equalities"]) == (6, 9)


@pytest.mark.parametrize("text", [
    "x1^4 + x2^4 - x1 x2\n",
    "x1^4 + x2^4 - x1x2\n",
    "x1^4 + x2^4 - 2\nx1*x2\n",
    "1e999*x1^2 + 1\n",
    "vars 1\nx1^99999999999999999999\n",
    "vars 2\nx1^4611686018427387904*x2^4611686018427387904 + 1\n",
    "vars 1\nx1^4000000000 + 1\n",
])
def test_malformed_input_exits_one(capsys, tmp_path, text):
    path = tmp_path / "bad.pop"
    path.write_text(text)
    code, out, err = run(capsys, "solve", str(path), "--json")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_json_writes_non_finite_numbers_as_null(capsys, tmp_path):
    path = tmp_path / "wide.pop"
    path.write_text("1e200*x1^2 + 1e-200*x2^2 + 1\n")
    _, out, _ = run(capsys, "solve", str(path), "--json")

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    d = json.loads(out, parse_constant=refuse)
    assert d["status"] in {"optimal", "numerical", "max_iter", "infeasible", "unbounded"}


IMPORT_GUARD = """
import contextlib, io, json, sys
import tssos.basis
from tssos.cli import main

calls, real = [], tssos.basis.nnls
tssos.basis.nnls = lambda *a, **kw: calls.append(a) or real(*a, **kw)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "nnls_calls": len(calls),
                  "optimize": sorted(m for m in sys.modules if m.startswith("scipy.optimize")),
                  "csgraph": sorted(m for m in sys.modules if m.startswith("scipy.sparse.csgraph"))}))
"""


def test_cli_runs_never_import_scipy_optimize(tmp_path):
    # scipy.optimize (HiGHS) is imported only when a Newton candidate reaches
    # its LP; gen_rosenbrock n=14 leaves 13 candidates to NNLS and none to the LP
    from tssos import bench

    gr14, cube, sdpa = tmp_path / "gr14.pop", tmp_path / "cube.pop", tmp_path / "cube.dat-s"
    gr14.write_text(f"vars 14\n{bench.gen_rosenbrock(14)}\n")
    g = bench.constraint_set("unit_hypercube", 4)
    cube.write_text("vars 4\n{}\nsubject to\n{}\n".format(
        bench.gen_rosenbrock(4), "\n".join(map(str, g))))
    runs = [["solve", str(gr14), "--json"],
            ["solve", str(cube), "--solver", "external", "--export-sdpa", str(sdpa)],
            ["report", EX1]]
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0]
    assert got["nnls_calls"] >= 1
    assert got["optimize"] == []
    # csgraph is imported only by --mode block's closure, which no run here takes
    assert got["csgraph"] == []
    assert sdpa.stat().st_size > 0
