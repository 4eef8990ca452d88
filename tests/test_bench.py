import json
import os

import numpy as np
import pytest

from tssos import bench
from tssos.assembly import assemble
from tssos.bench import (
    BenchRow,
    BenchSpec,
    RunOptions,
    broyden_banded,
    broyden_tridiagonal,
    build_relaxation,
    constraint_set,
    emit_table,
    gen_rosenbrock,
    generate,
    json_text,
    min_half_degree,
    mod_chained_singular,
    mod_gen_rosenbrock,
    randpoly1,
    randpoly2,
    run_pipeline,
    run_pop,
    sample_minimum,
    unconstrained_basis,
)
from tssos.cli import main
from tssos.poly import PopProblem, parse_pop
import running_sum_families as running
from sdp_tables import COLUMNS
from tuple_forms import support, terms as term_dict

EX1 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples_pop", "ex1.pop")


def coupling_direct(x):
    n = len(x)
    return sum(x[i] ** 2 * x[j] ** 2 for i in range(n) for j in range(i + 1, n))


def rosenbrock_direct(x):
    v = 1.0
    for i in range(1, len(x)):
        v += 100.0 * (x[i] - x[i - 1] ** 2) ** 2 + (1.0 - x[i]) ** 2
    return v


def banded_direct(x):
    n = len(x)
    v = 0.0
    for i in range(n):
        p = x[i] * (2.0 + 5.0 * x[i] ** 2) + 1.0
        for j in range(max(0, i - 5), min(n - 1, i + 1) + 1):
            if j != i:
                p -= (1.0 + x[j]) * x[j]
        v += p * p
    return v


def tridiagonal_direct(x):
    n = len(x)
    v = 0.0
    for i in range(n):
        p = (3.0 - 2.0 * x[i]) * x[i] + 1.0
        if i > 0:
            p -= x[i - 1]
        if i < n - 1:
            p -= 2.0 * x[i + 1]
        v += p * p
    return v


def singular_direct(x):
    v = coupling_direct(x)
    for i in range(0, len(x) - 3, 2):
        a = x[i] + 10.0 * x[i + 1]
        b = x[i + 2] - x[i + 3]
        c = x[i + 1] - 2.0 * x[i + 2]
        d = x[i] - 10.0 * x[i + 3]
        v += a * a + 5.0 * b * b + c ** 4 + 10.0 * d ** 4
    return v


def test_named_families_match_direct_evaluation():
    rng = np.random.default_rng(11)
    cases = [
        (gen_rosenbrock(5), rosenbrock_direct, 5),
        (broyden_banded(7), banded_direct, 7),
        (broyden_tridiagonal(6), tridiagonal_direct, 6),
        (mod_chained_singular(6), singular_direct, 6),
    ]
    for poly, direct, n in cases:
        for _ in range(20):
            x = rng.normal(size=n)
            assert abs(poly.evaluate(x) - direct(x)) < 1e-9 * (1 + abs(direct(x)))


def test_rosenbrock_reference_points():
    f = gen_rosenbrock(6)
    assert f.evaluate(np.ones(6)) == pytest.approx(1.0)
    assert f.degree() == 4
    g = mod_gen_rosenbrock(4)
    x = np.array([0.3, -0.2, 0.1, 0.4])
    assert g.evaluate(x) == pytest.approx(rosenbrock_direct(x) + coupling_direct(x))


def test_family_argument_validation():
    with pytest.raises(ValueError):
        gen_rosenbrock(1)
    with pytest.raises(ValueError):
        mod_chained_singular(5)
    with pytest.raises(ValueError):
        mod_chained_singular(2)
    with pytest.raises(ValueError):
        randpoly1(2, 3, 4, 0.5, 0)
    with pytest.raises(ValueError):
        randpoly1(2, 4, 4, 0.0, 0)
    with pytest.raises(ValueError):
        randpoly2(3, 4, 2, 0)  # needs >= n + 1 terms
    with pytest.raises(ValueError):
        randpoly2(1, 2, 50, 0)  # pool too small for the extras


def test_randpoly1_is_sos_and_deterministic():
    f = randpoly1(4, 4, 3, 0.3, seed=42)
    again = randpoly1(4, 4, 3, 0.3, seed=42)
    assert term_dict(f) == term_dict(again)
    other = randpoly1(4, 4, 3, 0.3, seed=43)
    assert term_dict(f) != term_dict(other)
    assert f.degree() <= 4
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert f.evaluate(rng.normal(size=4, scale=2.0)) >= 0.0


def test_randpoly2_structure():
    n, deg, terms = 3, 6, 9
    f = randpoly2(n, deg, terms, seed=5)
    assert term_dict(f) == term_dict(randpoly2(n, deg, terms, seed=5))
    assert len(f.rows) == terms
    const = f.coeff((0,) * n)
    assert 0.0 <= const <= 1.0
    for i in range(n):
        e = [0] * n
        e[i] = deg
        lead = f.coeff(tuple(e))
        assert 0.0 < lead <= 1.0
    others = [a for a in support(f) if sum(a) not in (0,) and a not in
              {tuple(deg if j == i else 0 for j in range(n)) for i in range(n)}]
    assert all(sum(a) <= deg - 1 for a in others if sum(a) > 0)


def test_constraint_sets():
    assert constraint_set("none", 3) == ()
    (ball,) = constraint_set("unit_ball", 3)
    assert ball.evaluate(np.zeros(3)) == 1.0
    assert ball.evaluate(np.array([1.0, 0.0, 0.0])) == 0.0
    cube = constraint_set("unit_hypercube", 3)
    assert len(cube) == 3
    with pytest.raises(ValueError):
        constraint_set("simplex", 3)


def test_generate_validates_random_args():
    with pytest.raises(ValueError):
        generate(BenchSpec(family="nope", n=3))
    with pytest.raises(ValueError, match="^randpoly1 needs --deg, --terms and --prob$"):
        generate(BenchSpec(family="randpoly1", n=3, deg=4, terms=2))
    with pytest.raises(ValueError, match="^randpoly2 needs --deg and --terms$"):
        generate(BenchSpec(family="randpoly2", n=3, deg=4))
    pop = generate(BenchSpec(family="gen_rosenbrock", n=4, constraint="unit_ball"))
    assert len(pop.constraints) == 1


def test_min_half_degree():
    pop = parse_pop("vars 2\nx1^4 + x2\nsubject to\n1 - x1^2 - x2^2\n")
    assert min_half_degree(pop) == 2


def test_unconstrained_basis_choices():
    f = gen_rosenbrock(3)
    std, bs, rbs = unconstrained_basis(f, "standard")
    assert bs == len(std) and rbs is None
    newt, nbs, _ = unconstrained_basis(f, "newton")
    assert nbs == len(newt) <= bs
    red, base_size, red_size = unconstrained_basis(f, "reduced")
    assert base_size == nbs and red_size == len(red) <= nbs
    with pytest.raises(ValueError):
        unconstrained_basis(f, "fancy")


def test_run_pop_unconstrained_rows():
    pop = PopProblem(gen_rosenbrock(4), ())
    rows = run_pop(pop, RunOptions(k_max=2, basis="newton"), instance="gR4")
    assert [r.k for r in rows] == [1, 2]
    for r in rows:
        assert r.status == "optimal"
        assert r.instance == "gR4"
        assert isinstance(r.mc, int) and r.mc >= 2
        assert r.rbs is None
        assert r.bound == pytest.approx(1.0, abs=1e-5)  # min at the all-ones point
    assert rows[0].bound <= rows[1].bound + 1e-7


def test_run_pop_constrained_rows():
    pop = parse_pop(
        "vars 2\nx1^2*x2^2 - x1*x2 + 1\nsubject to\n1 - x1^2 - x2^2\n"
    )
    rows = run_pop(pop, RunOptions(order=2, k_max=2, basis="standard"))
    assert len(rows) == 2
    for r in rows:
        assert r.status == "optimal"
        assert isinstance(r.mc, list) and len(r.mc) == 2
        assert r.bound <= 0.75 + 1e-6
    assert rows[0].bound <= rows[1].bound + 1e-7
    with pytest.raises(ValueError):
        run_pop(pop, RunOptions(order=2, basis="newton"))


def count_solves(monkeypatch):
    solves, real = [], bench.solve_relaxation
    monkeypatch.setattr(bench, "solve_relaxation", lambda sdp: solves.append(sdp) or real(sdp))
    return solves


def test_run_pop_solves_a_repeated_level_once(monkeypatch):
    # gen_rosenbrock n=6 is stabilized at k = 1: levels 2 and 3 have level 1's
    # cliques, so they are the same m = 38 SDP and reuse its solve
    solves = count_solves(monkeypatch)
    rows = run_pipeline(BenchSpec("gen_rosenbrock", 6), RunOptions(k_max=3))
    assert len(solves) == 1
    assert [(r.k, r.stabilized, r.n_equalities) for r in rows] == [(k, True, 38) for k in (1, 2, 3)]
    same = [{**r.to_dict(), "k": None, "time": None} for r in rows]
    assert same[1:] == same[:1] * 2
    # every level of a dense relaxation is the same SDP
    solves.clear()
    rows = run_pop(PopProblem(broyden_banded(4), ()), RunOptions(k_max=2, basis="standard", dense=True))
    assert len(solves) == 1 and rows[0].bound == rows[1].bound


def test_run_pop_solves_every_level_that_moves(monkeypatch):
    solves = count_solves(monkeypatch)
    rows = run_pop(PopProblem(broyden_banded(4), ()), RunOptions(k_max=3, basis="newton"))
    assert len(solves) == 3
    assert [r.n_equalities for r in rows] == [116, 151, 157]


def test_sampled_values_dominate_bounds():
    pop = parse_pop(
        "vars 2\nx1^2*x2^2 - x1*x2 + 1\nsubject to\n1 - x1^2 - x2^2\n"
    )
    rows = run_pop(pop, RunOptions(order=2, k_max=1, basis="standard"))
    hi = sample_minimum(pop, count=2000, seed=1)
    assert rows[-1].bound <= hi + 1e-6
    free = PopProblem(broyden_tridiagonal(3), ())
    frows = run_pop(free, RunOptions(k_max=1, basis="newton"))
    assert frows[-1].bound <= sample_minimum(free, count=2000, seed=2) + 1e-6


def test_run_pipeline_basis_defaults():
    rows = run_pipeline(
        BenchSpec(family="randpoly1", n=3, deg=4, terms=2, prob=0.4, seed=9)
    )
    assert rows[0].rbs is not None  # reduced basis by default
    assert "seed=9" in rows[0].instance
    rows2 = run_pipeline(BenchSpec(family="broyden_tridiagonal", n=3))
    assert rows2[0].rbs is None
    assert rows2[0].status == "optimal"


def test_emit_table_formats():
    pop = PopProblem(broyden_tridiagonal(3), ())
    rows = run_pop(pop, RunOptions(k_max=1, basis="newton"), instance="Bt3")
    parsed = json.loads(emit_table(rows, "json"))
    assert parsed[0]["instance"] == "Bt3"
    assert set(parsed[0]) == {
        "instance", "k", "bs", "rbs", "mc", "n_eq", "opt", "status", "time", "stabilized",
    }
    csv_text = emit_table(rows, "csv")
    assert csv_text.splitlines()[0] == "instance,k,bs,rbs,mc,n_eq,opt,status,time,stabilized"
    md = emit_table(rows, "markdown")
    assert md.startswith("| instance | k |")
    assert "| Bt3 | 1 |" in md
    with pytest.raises(ValueError):
        emit_table(rows, "latex")


@pytest.mark.parametrize("argv", [
    ["solve", EX1, "--order", "7"],
    ["solve", EX1, "--order", "1", "--json"],
    ["solve", EX1, "--order", "3", "--basis", "reduced"],
    ["report", EX1, "--order", "3", "--basis", "newton"],
    # randpoly2 picks the Newton basis by family
    ["bench", "randpoly2", "--n", "3", "--deg", "4", "--terms", "8", "--seed", "2", "--order", "3"],
])
def test_order_on_an_unconstrained_problem_needs_the_standard_basis(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and "--basis standard" in captured.err


def test_order_sets_the_standard_basis_degree(capsys):
    assert main(["solve", EX1, "--order", "3", "--basis", "standard", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["bs"] == 20
    with open(EX1) as fh:
        pop = parse_pop(fh.read())
    with pytest.raises(ValueError, match="--basis standard"):
        run_pop(pop, RunOptions(order=2))


def test_json_text_writes_non_finite_floats_as_null():
    rows = [BenchRow("x", 1, 3, None, 2, 4, float("nan"), "numerical", 0.5, False)]
    text = emit_table(rows, "json")
    assert json.loads(text, parse_constant=lambda name: pytest.fail(name)) == [
        {"instance": "x", "k": 1, "bs": 3, "rbs": None, "mc": 2, "n_eq": 4, "opt": None,
         "status": "numerical", "time": 0.5, "stabilized": False}]
    assert json.loads(json_text({"a": (float("inf"), -float("inf"), 1.5)})) == {"a": [None, None, 1.5]}


# Every instance of tests/test_poly.py's instance texts is among these: the
# named families at n = 4, 12 and 40, randpoly1(8, 8, 30, 0.1) and
# randpoly2(6, 6, 20) at seeds 0-9, and the perfbench instances.  The coupled
# families, whose running sum is O(n^4), and broyden_banded, whose parts are
# slow to form, stop at n = 32 plus 40 and 56.
ORACLE_CASES = {
    "broyden_banded": [(n,) for n in [*range(2, 33), 40, 56]],
    "broyden_tridiagonal": [(n,) for n in range(2, 57)],
    "gen_rosenbrock": [(n,) for n in range(2, 57)],
    "mod_gen_rosenbrock": [(n,) for n in [*range(2, 33), 40, 56]],
    "mod_chained_singular": [(n,) for n in [*range(4, 33, 2), 40, 56]],
    "randpoly1": [(8, 8, 30, 0.1, seed) for seed in range(40)],
    "randpoly2": [(6, 6, 20, seed) for seed in range(40)],
}


def bit_terms(p):
    """p as a dict {exponent tuple: coefficient bits}."""
    return dict(zip(map(tuple, p.rows.tolist()), p.coeffs.view(np.int64).tolist()))


def assert_same_sum(got, want, same_order, case):
    assert got.nvars == want.nvars, case
    assert bit_terms(got) == bit_terms(want), case
    assert str(got) == str(want), case
    if same_order:
        assert np.array_equal(got.rows, want.rows), case


@pytest.mark.parametrize("family", sorted(ORACLE_CASES))
def test_one_merge_matches_the_running_sum(family):
    # broyden_banded's partial sums cancel terms exactly (x1 and x2 at n = 4),
    # which the running sum dropped and took up again later in its order
    for args in ORACLE_CASES[family]:
        want = getattr(running, family)(*args)
        got = getattr(bench, family)(*args)
        assert_same_sum(got, want, family != "broyden_banded", (family, args))


@pytest.mark.parametrize("name", ["unit_ball", "unit_hypercube"])
def test_constraint_sets_match_the_running_sum(name):
    for n in range(1, 57):
        want, got = running.constraint_set(name, n), constraint_set(name, n)
        assert len(got) == len(want), n
        for g, w in zip(got, want):
            assert_same_sum(g, w, True, (name, n))


def test_broyden_banded_tables_match_the_running_sum():
    for n in range(4, 9):
        pops = [PopProblem(f) for f in (broyden_banded(n), running.broyden_banded(n))]
        for basis in ("standard", "newton", "reduced"):
            got, want = (build_relaxation(pop, RunOptions(k_max=2, basis=basis)) for pop in pops)
            for k in (1, 2):
                a, b = (assemble(pop, rel.cliques(k)) for pop, rel in zip(pops, (got, want)))
                assert a.block_sizes == b.block_sizes, (n, basis, k)
                columns = [(name, getattr(a.problem, name), getattr(b.problem, name)) for name in COLUMNS]
                for name, x, y in [("alphas", a.alphas, b.alphas),
                                   ("offset", np.float64(a.offset), np.float64(b.offset)), *columns]:
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (n, basis, k, name)
