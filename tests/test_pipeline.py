"""The one relaxation pipeline: build_relaxation and the commands that use it."""

import contextlib
import io
import json
import os
import re

import pytest

import tssos.bench
import tssos.graphs
from tssos.assembly import assemble
from tssos.basis import generator_bases
from tssos.bench import RunOptions, build_relaxation
from tssos.cli import main
from tssos.graphs import maximal_cliques, reduce_basis_constrained
from tssos.poly import parse_pop

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EX1 = os.path.join(ROOT, "examples_pop", "ex1.pop")
BALL = os.path.join(ROOT, "examples_pop", "ball2.pop")

# the moment basis shrinks 10 -> 9 at order 2, so the reduction takes two rounds
TWO_ROUNDS = "vars 3\nx1*x2 + x3^2\nsubject to\n1 - x1^2\n"
with open(BALL, encoding="utf-8") as _fh:
    BALL_TEXT = _fh.read()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def iterate_calls(monkeypatch):
    """Bases of every iterate_constrained call, from basis and bench alike."""
    calls = []
    real = tssos.graphs.iterate_constrained

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(tssos.graphs, "iterate_constrained", counting)
    monkeypatch.setattr(tssos.bench, "iterate_constrained", counting)
    return calls


@pytest.fixture
def decompositions(monkeypatch):
    """Clique lists of every decomposition maximal_cliques' walk forms, however often it is called."""
    formed = []
    real = tssos.graphs.CliqueDecomposition

    def counting(basis, cliques):
        formed.append(cliques)
        return real(basis, cliques)

    monkeypatch.setattr(tssos.graphs, "CliqueDecomposition", counting)
    return formed


@pytest.mark.parametrize("text,order", [(TWO_ROUNDS, 2), (BALL_TEXT, 3)])
def test_reduced_constrained_iterates_once_per_round(iterate_calls, text, order):
    pop = parse_pop(text)
    basis = reduce_basis_constrained(pop, order).at(0)[0].basis
    rounds = len(iterate_calls)
    assert iterate_calls[-1][0] == basis  # the last round iterated on the reduced basis
    iterate_calls.clear()
    rel = build_relaxation(pop, RunOptions(order=order, basis="reduced"))
    assert len(iterate_calls) == rounds
    assert rel.rbs == len(basis)
    assert rel.seq.levels[0][0].basis == basis


def test_two_round_reduction_really_shrinks(iterate_calls):
    reduce_basis_constrained(parse_pop(TWO_ROUNDS), 2)
    assert [len(bases[0]) for bases in iterate_calls] == [10, 9]


@pytest.mark.parametrize("name,k_max,graphs", [("ex1.pop", 4, 1), ("ball2.pop", 3, 2)])
def test_cliques_are_formed_once_per_graph(capsys, decompositions, name, k_max, graphs):
    path = os.path.join(ROOT, "examples_pop", name)
    with open(path, encoding="utf-8") as fh:
        pop = parse_pop(fh.read())
    rel = build_relaxation(pop, RunOptions(k_max=k_max))
    assert rel.seq.stabilized_at == 1  # levels 1..k_max are the same graphs
    g = rel.seq.at(1)[0]
    assert maximal_cliques(g) is maximal_cliques(g)
    assert rel.cliques(k_max)[0] is rel.cliques(1)[0]
    assert len(decompositions) == graphs
    decompositions.clear()
    code, out, _ = run(capsys, "report", path, "--sparse-order", str(k_max))
    assert code == 0
    assert len(decompositions) == graphs
    levels = json.loads(out)["levels"]
    assert [levels[str(k)] for k in range(2, k_max + 1)] == [levels["1"]] * (k_max - 1)


def test_reduced_constrained_bs_counts_the_standard_basis(capsys, tmp_path):
    path = tmp_path / "two_rounds.pop"
    path.write_text(TWO_ROUNDS, encoding="utf-8")
    _, out, _ = run(capsys, "solve", str(path), "--order", "2", "--basis", "reduced", "--json")
    payload = json.loads(out)
    assert (payload["bs"], payload["rbs"]) == (10, 9)  # C(3 + 2, 2) before the reduction


def test_bench_order_sets_the_standard_basis_degree(capsys):
    code, out, _ = run(capsys, "bench", "broyden_tridiagonal", "--n", "4", "--seed", "0",
                       "--basis", "standard", "--order", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["bs"] == 35  # C(4 + 3, 3) monomials of degree <= 3
    code, out, _ = run(capsys, "solve", EX1, "--basis", "standard", "--order", "3", "--json")
    assert json.loads(out)["bs"] == 20  # solve honours the same flag: C(3 + 3, 3)


def test_report_validates_like_solve(capsys):
    code, out, err = run(capsys, "report", EX1, "--sparse-order", "0")
    assert code == 1 and out == ""
    assert "--sparse-order" in err
    code, _, err = run(capsys, "report", BALL, "--order", "1")
    assert code == 1 and "minimum" in err
    code, _, err = run(capsys, "report", BALL, "--basis", "newton")
    assert code == 1 and "unconstrained" in err


def test_dense_relaxation_has_one_clique_per_generator():
    pop = parse_pop(BALL_TEXT)
    rel = build_relaxation(pop, RunOptions(order=2, dense=True))
    assert rel.seq is None and rel.order == 2 and rel.bs == 6
    assert [dec.cliques for dec in rel.cliques(1)] == [(tuple(range(6)),), (tuple(range(3)),)]
    assert not rel.stabilized(1)


@pytest.mark.parametrize("order", [2, 3])
def test_dense_constrained_blocks_are_the_generator_bases(order):
    pop = parse_pop("vars 2\nx1^4 + x2^4 - x1*x2\nsubject to\n1 - x1^2 - x2^2\n1 - x1^4\n")
    rel = build_relaxation(pop, RunOptions(order=order, dense=True))
    sdp = assemble(pop, rel.cliques(1))
    assert sdp.block_sizes == [len(b) for b in generator_bases(pop, order)]


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert "optimal" in out.getvalue()


@pytest.mark.parametrize("flag,value", [
    ("--max-iters", "0"), ("--max-iters", "-3"),
    ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
])
def test_solve_rejects_bad_solver_options(capsys, tmp_path, flag, value):
    path = tmp_path / "quartic.pop"
    path.write_text("vars 2\nx1^4 + x2^4 + 1\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path), "--json", f"{flag}={value}")
    assert code == 1 and out == ""
    assert flag in err
    code, out, _ = run(capsys, "solve", str(path), "--json", "--max-iters", "1", "--tol", "1e-8")
    assert code == 2 and json.loads(out)["iters"] == 1
