"""End-to-end checks for the documented behavior of the whole package.

Each test covers one numbered claim about the library (reference values,
exactness, monotonicity, structure counts), so `pytest -v` prints one
pass/fail line per claim.  Run with -s to also see the measured values.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from tssos.assembly import assemble, solve_relaxation
from tssos.basis import (
    MonomialBasis,
    generate_basis,
    generator_bases,
    newton_half_basis,
    standard_basis,
)
from tssos.bench import (
    broyden_banded,
    broyden_tridiagonal,
    constraint_set,
    gen_rosenbrock,
    mod_gen_rosenbrock,
    randpoly2,
)
from tssos.graphs import (
    CliqueDecomposition,
    is_chordal,
    iterate_constrained,
    maximal_cliques,
    tsp_graph,
)
from tssos.poly import Polynomial, PopProblem, parse_polynomial
from tssos.sdpa import export_sdpa, import_sdpa
from tssos.solver import SolverConfig, solve_canonical
from tuple_forms import from_terms, has_edge, monos

EX33 = (
    "x1^2 - 2*x1*x2 + 3*x2^2 - 2*x1^2*x2 + 2*x1^2*x2^2 - 2*x2*x3 + 6*x3^2"
    " + 18*x2^2*x3 - 54*x2*x3^2 + 142*x2^2*x3^2"
)
LOOSE = SolverConfig(tol=1e-7)


def banded_quadratic(n, bandwidth, seed):
    """Bounded-below quadratic with a banded Hessian sparsity pattern."""
    rng = np.random.default_rng(seed)
    low = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - bandwidth), i + 1):
            low[i, j] = rng.normal()
    q = low @ low.T + 0.3 * np.eye(n)
    lin = rng.normal(size=n)
    terms = {(0,) * n: float(rng.normal())}
    for i in range(n):
        e = [0] * n
        e[i] = 1
        terms[tuple(e)] = float(lin[i])
        e[i] = 2
        terms[tuple(e)] = float(q[i, i])
    for i in range(n):
        for j in range(i + 1, n):
            if q[i, j] != 0.0:
                e = [0] * n
                e[i] = 1
                e[j] = 1
                terms[tuple(e)] = float(2.0 * q[i, j])
    return from_terms(n, terms)


@pytest.fixture(scope="module")
def ex33():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    t0 = time.perf_counter()
    seq = iterate_constrained(PopProblem(f), [basis], k=1)
    sdp = assemble(PopProblem(f), [maximal_cliques(seq.at(1)[0])])
    sparse = solve_relaxation(sdp)
    elapsed = time.perf_counter() - t0
    dense = solve_relaxation(assemble(PopProblem(f), [CliqueDecomposition.whole(basis)]))
    moment = solve_relaxation(
        assemble(PopProblem(f), [maximal_cliques(seq.at(1)[0])], side="moment")
    )
    return {
        "f": f,
        "basis": basis,
        "seq": seq,
        "sdp": sdp,
        "sparse": sparse,
        "dense": dense,
        "moment": moment,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def quadratics():
    out = []
    for trial in range(20):
        n = 2 + trial % 9  # n ranges over 2..10
        f = banded_quadratic(n, 1 + trial % 2, seed=100 + trial)
        basis = newton_half_basis(f)
        seq = iterate_constrained(PopProblem(f), [basis], k=1)
        sdp = assemble(PopProblem(f), [maximal_cliques(seq.at(1)[0])])
        sparse = solve_relaxation(sdp)
        dense = solve_relaxation(assemble(PopProblem(f), [CliqueDecomposition.whole(basis)]))
        moment = solve_relaxation(
            assemble(PopProblem(f), [maximal_cliques(seq.at(1)[0])], side="moment")
        )
        out.append({"n": n, "sdp": sdp, "sparse": sparse, "dense": dense, "moment": moment})
    return out


@pytest.fixture(scope="module")
def ball_runs():
    out = {}
    for name, family in (("rosenbrock", gen_rosenbrock), ("tridiagonal", broyden_tridiagonal)):
        pop = PopProblem(family(10), constraint_set("unit_ball", 10))
        seq = iterate_constrained(pop, generator_bases(pop, 2), k=1)
        graphs = seq.at(1)
        sos = solve_relaxation(assemble(pop, [maximal_cliques(g) for g in graphs]))
        moment = solve_relaxation(assemble(pop, [maximal_cliques(g) for g in graphs], side="moment"))
        out[name] = {
            "sos": sos,
            "moment": moment,
            "mc_moment": maximal_cliques(graphs[0]).max_clique,
            "mc_localizing": max(maximal_cliques(g).max_clique for g in graphs[1:]),
        }
    return out


def test_criterion_01_running_example(ex33):
    assert ex33["sparse"].status == "optimal"
    assert ex33["sparse"].bound == pytest.approx(-0.00355, abs=1e-3)
    assert ex33["dense"].status == "optimal"
    assert ex33["dense"].bound == pytest.approx(0.0, abs=1e-5)
    assert ex33["seq"].stabilized_at == 1
    assert ex33["elapsed"] < 5.0
    print(
        f"criterion 1: sparse {ex33['sparse'].bound:.7f}, dense "
        f"{ex33['dense'].bound:.2e}, stabilized at k=1, {ex33['elapsed']:.2f}s -> PASS"
    )


def test_criterion_02_basis_iteration_golden():
    chain = generate_basis([(0,), (1,), (8,)], standard_basis(1, 4))
    assert set(monos(chain[0])) == {(0,), (1,), (4,)}
    assert set(monos(chain[1])) == {(0,), (1,), (2,), (4,)}
    print("criterion 2: basis chain {0,1,4} then {0,1,2,4} -> PASS")


def test_criterion_03_quadratic_exactness(quadratics):
    worst = 0.0
    for case in quadratics:
        assert case["sparse"].status == "optimal"
        assert case["dense"].status == "optimal"
        gap = abs(case["sparse"].bound - case["dense"].bound)
        worst = max(worst, gap)
        assert gap <= 1e-6, (case["n"], gap)
    print(f"criterion 3: 20 quadratics, worst sparse-dense gap {worst:.2e} -> PASS")


def test_criterion_04_monotone_in_order_and_degree():
    shapes = [(2, 4), (3, 4), (4, 4), (2, 6), (3, 6)]

    def slack(v):
        # solver accuracy is relative to the bound's magnitude
        return 2e-6 * (1 + abs(v))

    for seed in range(20):
        n, deg = shapes[seed % len(shapes)]
        f = randpoly2(n, deg, n + 3, seed=seed)
        basis = newton_half_basis(f)
        seq = iterate_constrained(PopProblem(f), [basis], k=3)
        chain = []
        for k in (1, 2, 3):
            r = solve_relaxation(
                assemble(PopProblem(f), [maximal_cliques(seq.at(k)[0])]), LOOSE
            )
            assert r.status == "optimal", (seed, k, r.status)
            chain.append(r.bound)
        dense = solve_relaxation(assemble(PopProblem(f), [CliqueDecomposition.whole(basis)]), LOOSE)
        assert dense.status == "optimal", (seed, dense.status)
        chain.append(dense.bound)
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi + slack(hi), (seed, chain)

        pop = PopProblem(f, constraint_set("unit_ball", n))
        d = deg // 2
        lo_seq = iterate_constrained(pop, generator_bases(pop, d), k=2)
        hi_seq = iterate_constrained(pop, generator_bases(pop, d + 1), k=2, seed=lo_seq)
        vals = {}
        for dh, s in ((d, lo_seq), (d + 1, hi_seq)):
            for k in (1, 2):
                r = solve_relaxation(assemble(pop, [maximal_cliques(g) for g in s.at(k)]), LOOSE)
                assert r.status == "optimal", (seed, dh, k, r.status)
                vals[(dh, k)] = r.bound
        assert vals[(d, 1)] <= vals[(d, 2)] + slack(vals[(d, 2)]), (seed, vals)
        assert vals[(d + 1, 1)] <= vals[(d + 1, 2)] + slack(vals[(d + 1, 2)]), (seed, vals)
        assert vals[(d, 1)] <= vals[(d + 1, 1)] + slack(vals[(d + 1, 1)]), (seed, vals)
        assert vals[(d, 2)] <= vals[(d + 1, 2)] + slack(vals[(d + 1, 2)]), (seed, vals)
    print("criterion 4: 20 instances monotone in k, dense cap, and order -> PASS")


def coupled_quartic(n):
    total = Polynomial.zero(n)
    for i in range(1, n + 1):
        xi = Polynomial.variable(n, i)
        total = total + xi * xi + (xi * xi) * (xi * xi)
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            d = Polynomial.variable(n, i) - Polynomial.variable(n, k)
            total = total + (d * d) * (d * d)
    return total


def test_criterion_05_coupled_quartic_census():
    for n in range(3, 9):
        f = coupled_quartic(n)
        basis = standard_basis(n, 2)
        g0 = tsp_graph(f, basis)
        assert is_chordal(g0)
        sizes = maximal_cliques(g0).sizes
        expected = sorted([3] * (n * (n - 1) // 2) + [1] * n + [n + 1], reverse=True)
        assert sizes == expected, n
        sdp = assemble(PopProblem(f), [maximal_cliques(g0)])
        assert sdp.n_equalities == 3 * n * (n - 1) // 2 + 2 * n + 1, n
    print("criterion 5: clique census and equality counts exact for n=3..8 -> PASS")


def test_criterion_06_sign_type_structure():
    rng = np.random.default_rng(60)
    for n, d in itertools.product(range(1, 5), range(1, 5)):
        basis = standard_basis(n, d)
        classes = {}
        for m in monos(basis):
            classes.setdefault(tuple(e % 2 for e in m), []).append(m)
        cap = math.comb(n + d // 2, d // 2)
        assert max(len(c) for c in classes.values()) <= cap, (n, d)

        pool = monos(standard_basis(n, 2 * d))
        supports = [[(0,) * n]] + [
            [m for m in pool if rng.random() < 0.1] or [(0,) * n] for _ in range(2)
        ]
        for support in supports:
            f = Polynomial.zero(n)
            for m in support:
                f = f + Polynomial.monomial(n, m, 1.0)
            g = tsp_graph(f, basis)
            nodes = monos(basis)
            for i, j in itertools.combinations(range(len(basis)), 2):
                bi, bj = nodes[i], nodes[j]
                if all((a + b) % 2 == 0 for a, b in zip(bi, bj)):
                    assert has_edge(g, i, j), (n, d, bi, bj)
    print("criterion 6: sign-type adjacency and class size cap (n,d <= 4) -> PASS")


def test_criterion_07_broyden_banded_bounds():
    for n in (6, 7):
        f = broyden_banded(n)
        basis = newton_half_basis(f)
        t0 = time.perf_counter()
        seq = iterate_constrained(PopProblem(f), [basis], k=1)
        g1 = seq.at(1)[0]
        res = solve_relaxation(assemble(PopProblem(f), [maximal_cliques(g1)]))
        elapsed = time.perf_counter() - t0
        mc = maximal_cliques(g1).max_clique
        assert res.status == "optimal"
        assert abs(res.bound) <= 1e-4, (n, res.bound)
        assert mc <= 20, (n, mc)
        assert elapsed < 60.0
        print(f"criterion 7: banded n={n} bound {res.bound:.1e}, mc {mc}, {elapsed:.1f}s")
    print("criterion 7: -> PASS")


def test_criterion_08_unit_ball_benchmarks(ball_runs):
    rb = ball_runs["rosenbrock"]
    assert rb["sos"].status == "optimal"
    assert rb["sos"].bound == pytest.approx(8.35, abs=1e-2)
    assert rb["mc_moment"] == 11
    assert rb["mc_localizing"] == 2
    td = ball_runs["tridiagonal"]
    assert td["sos"].status == "optimal"
    assert td["sos"].bound == pytest.approx(5.15, abs=1e-2)
    print(
        f"criterion 8: rosenbrock {rb['sos'].bound:.4f} mc ({rb['mc_moment']},"
        f"{rb['mc_localizing']}), tridiagonal {td['sos'].bound:.4f} -> PASS"
    )


def test_criterion_09_coupled_rosenbrock_modes():
    f = mod_gen_rosenbrock(10)
    basis = standard_basis(10, 2)
    results = {}
    for mode in ("approx_min", "block_closure"):
        seq = iterate_constrained(PopProblem(f), [basis], k=1, mode=mode)
        g1 = seq.at(1)[0]
        res = solve_relaxation(assemble(PopProblem(f), [maximal_cliques(g1)]))
        assert res.status == "optimal", mode
        results[mode] = (res.bound, maximal_cliques(g1).max_clique)
    chordal_bound, chordal_mc = results["approx_min"]
    block_bound, block_mc = results["block_closure"]
    assert chordal_bound == pytest.approx(8.45, abs=1e-2)
    assert chordal_mc == 11
    assert block_bound == pytest.approx(8.45, abs=1e-2)
    assert block_mc == 28
    print(
        f"criterion 9: chordal {chordal_bound:.4f} (mc {chordal_mc}), "
        f"block {block_bound:.4f} (mc {block_mc}) -> PASS"
    )


def test_criterion_10_dense_oracle_dominance():
    rng = np.random.default_rng(10)
    checked = 0
    equal_cases = 0
    trial = 0
    while checked < 15:
        trial += 1
        n = 1 + trial % 3
        if trial % 2:
            f = banded_quadratic(n, 1, seed=500 + trial)
        else:
            f = randpoly2(n, 4, n + 2, seed=500 + trial)
        basis = newton_half_basis(f)
        seq = iterate_constrained(PopProblem(f), [basis], k=6)
        if seq.stabilized_at is None:
            continue
        g = seq.at(seq.stabilized_at)[0]
        sparse = solve_relaxation(assemble(PopProblem(f), [maximal_cliques(g)]), LOOSE)
        dense = solve_relaxation(assemble(PopProblem(f), [CliqueDecomposition.whole(basis)]), LOOSE)
        assert sparse.status == "optimal" and dense.status == "optimal", trial
        assert sparse.bound <= dense.bound + 1e-6, (trial, sparse.bound, dense.bound)
        r = len(basis)
        if g.n_edges == r * (r - 1) // 2:
            assert sparse.bound == pytest.approx(dense.bound, abs=1e-6), trial
            equal_cases += 1
        checked += 1
    assert equal_cases >= 3  # the equality branch must actually be exercised
    print(
        f"criterion 10: {checked} stabilized instances below dense bound, "
        f"{equal_cases} complete-graph equalities -> PASS"
    )


def test_criterion_11_no_duality_gap(ex33, quadratics, ball_runs):
    pairs = [(ex33["sparse"].bound, ex33["moment"].bound)]
    pairs += [(c["sparse"].bound, c["moment"].bound) for c in quadratics]
    pairs += [
        (ball_runs[k]["sos"].bound, ball_runs[k]["moment"].bound)
        for k in ("rosenbrock", "tridiagonal")
    ]
    worst = 0.0
    for sos_v, mom_v in pairs:
        tol = 1e-6 * (1 + abs(sos_v))
        worst = max(worst, abs(sos_v - mom_v) / (1 + abs(sos_v)))
        assert abs(sos_v - mom_v) <= tol, (sos_v, mom_v)
    print(f"criterion 11: {len(pairs)} side pairs agree, worst {worst:.2e} -> PASS")


def test_criterion_12_sdpa_round_trip(ex33, quadratics, tmp_path):
    cases = [("ex33", ex33["sdp"], ex33["sparse"].bound)]
    for i, c in enumerate(quadratics[:3]):
        cases.append((f"quad{i}", c["sdp"], c["sparse"].bound))
    for name, sdp, want in cases:
        path = tmp_path / f"{name}.dat-s"
        export_sdpa(sdp, str(path))
        back = import_sdpa(str(path))
        prob, offset, side = back.canonical()
        sol = solve_canonical(prob)
        assert sol.status == "optimal", name
        value = sol.primal_obj if side == "sos" else sol.dual_obj
        assert abs((offset - value) - want) <= 1e-6, name

    f = parse_polynomial("x1^2 - 2*x1 + 3", 1)
    toy = assemble(PopProblem(f), [CliqueDecomposition.whole(standard_basis(1, 1))])
    out = tmp_path / "toy.dat-s"
    export_sdpa(toy, str(out))
    golden = os.path.join(os.path.dirname(__file__), "data", "quadratic_1d.dat-s")
    with open(golden, "rb") as fh:
        assert out.read_bytes() == fh.read()
    print("criterion 12: export/import/solve reproduces bounds, golden bytes equal -> PASS")
