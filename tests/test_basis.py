import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import nnls

import tssos.basis
from tssos import bench
from tssos.basis import (
    MonomialBasis,
    _average_certified,
    _convex_proof,
    _cut_off,
    _in_half_polytope,
    _newton_candidates,
    _newton_members,
    generate_basis,
    generator_bases,
    newton_half_basis,
    reduce_basis_unconstrained,
    standard_basis,
)
from tssos.graphs import iterate_constrained, maximal_cliques, reduce_basis_constrained
from tssos.poly import STANDARD_BASIS_CAP, Polynomial, PopProblem, parse_polynomial, parse_pop
from tuple_forms import from_terms, grlex_key, monomials_up_to, monos, support

EX33 = (
    "x1^2 - 2*x1*x2 + 3*x2^2 - 2*x1^2*x2 + 2*x1^2*x2^2 - 2*x2*x3 + 6*x3^2"
    " + 18*x2^2*x3 - 54*x2*x3^2 + 142*x2^2*x3^2"
)


def in_half_hull_nnls(beta, points):
    """Independent membership oracle: 2*beta in conv(points) via NNLS.

    Solves min ||[P; 1] w - [2b; 1]|| over w >= 0; membership iff the
    residual vanishes.
    """
    p = np.asarray(points, dtype=float).T
    a = np.vstack([p, np.ones(p.shape[1])])
    target = np.concatenate([2.0 * np.asarray(beta, dtype=float), [1.0]])
    w, _ = nnls(a, target)  # the returned rnorm is unreliable; recompute
    return float(np.linalg.norm(a @ w - target)) < 1e-7


def test_standard_basis_sizes_and_order():
    for n in (1, 2, 4):
        for d in (0, 1, 3):
            b = standard_basis(n, d)
            assert len(b) == math.comb(n + d, d)
            assert (0,) * n in b
            assert monos(b)[0] == (0,) * n


def test_generator_bases_rejects_low_order():
    pop = parse_pop("vars 1\nx1^4\nsubject to\n1 - x1^2\n")
    with pytest.raises(ValueError, match="minimum"):
        generator_bases(pop, 1)


def test_generator_bases_one_standard_basis_per_half_degree():
    pop = parse_pop("vars 2\nx1^4 + x2\nsubject to\n1 - x1^2\nx2\n1 - x2^4\n")
    bases = generator_bases(pop, 3)
    assert [len(b) for b in bases] == [10, 6, 6, 3]
    assert bases[0] == standard_basis(2, 3) and bases[3] == standard_basis(2, 1)
    assert bases[1] is bases[2]


def test_monomial_basis_dedups_and_indexes():
    b = MonomialBasis(2, [(0, 0), (1, 0), (0, 0), (0, 1)])
    assert len(b) == 3
    assert b.index((1, 0)) == 1
    assert (1, 1) not in b
    with pytest.raises(ValueError):
        MonomialBasis(2, [(1, -1)])


def test_monomial_basis_from_arrays_is_grlex_sorted_and_distinct():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 5):
        rows = rng.integers(0, 4, size=(60, n))
        want = sorted({tuple(r) for r in rows.tolist()}, key=grlex_key)
        assert monos(MonomialBasis(n, rows)) == tuple(want)
        assert MonomialBasis(n, rows) == MonomialBasis(n, [tuple(r) for r in rows.tolist()])
    for n, d in ((1, 3), (3, 2), (4, 3)):
        assert monos(standard_basis(n, d)) == tuple(monomials_up_to(n, d))


def test_newton_basis_running_example():
    f = parse_polynomial(EX33, 3)
    b = newton_half_basis(f)
    assert set(monos(b)) == {
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, 1),
    }


def test_newton_basis_against_nnls_oracle():
    rng = np.random.default_rng(12)
    for trial in range(8):
        n = int(rng.integers(1, 4))
        deg = int(rng.integers(1, 4)) * 2
        pool = monomials_up_to(n, deg)
        pick = [m for m in pool if rng.random() < 0.3]
        if not any(sum(m) == deg for m in pick):
            pick.append(pool[-1])
        if len(pick) < 2:
            continue
        f = Polynomial.zero(n)
        for m in pick:
            f = f + Polynomial.monomial(n, m, float(rng.uniform(0.5, 2.0)))
        basis = newton_half_basis(f)
        hull_pts = sorted(set(pick) | {(0,) * n})
        got = set(monos(basis))
        for cand in monomials_up_to(n, deg // 2):
            assert (cand in got) == in_half_hull_nnls(cand, hull_pts), (
                f"membership mismatch at {cand} for support {sorted(pick)}"
            )


def reference_newton_basis(f):
    """One LP per candidate: every monomial of degree <= d inside the box and
    the degree bound of the hull, kept when _in_half_polytope accepts it."""
    supp = support(f)
    points = np.array(sorted(supp | {(0,) * f.nvars}, key=grlex_key), dtype=float)
    half_deg = max(sum(a) for a in supp) // 2
    comp_max = points.max(axis=0)
    deg_max = points.sum(axis=1).max()
    kept = []
    for beta in monomials_up_to(f.nvars, half_deg):
        doubled = np.asarray(beta) * 2
        if (doubled > comp_max).any() or doubled.sum() > deg_max:
            continue
        if _in_half_polytope(beta, points):
            kept.append(beta)
    return MonomialBasis(f.nvars, kept)


REFERENCE_CASES = {
    **{f"{fam}_{n}": getattr(bench, fam)(n) for fam in (
        "broyden_banded", "broyden_tridiagonal", "gen_rosenbrock",
        "mod_gen_rosenbrock", "mod_chained_singular") for n in (4, 6)},
    **{f"randpoly1_5_6_seed{s}": bench.randpoly1(5, 6, 6, 0.2, seed=s) for s in range(4)},
    **{f"randpoly1_4_8_seed{s}": bench.randpoly1(4, 8, 3, 0.15, seed=s) for s in range(3)},
    **{f"randpoly2_4_6_seed{s}": bench.randpoly2(4, 6, 12, seed=s) for s in range(3)},
    **{f"randpoly2_3_4_seed{s}": bench.randpoly2(3, 4, 8, seed=s) for s in range(3)},
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_newton_basis_matches_per_candidate_reference(name):
    f = REFERENCE_CASES[name]
    assert newton_half_basis(f) == reference_newton_basis(f)


@st.composite
def sparse_supports(draw):
    n = draw(st.integers(1, 4))
    deg = draw(st.integers(1, 6))
    pool = monomials_up_to(n, deg)
    picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=10, unique=True))
    return n, picks


@settings(max_examples=60, deadline=None)
@given(sparse_supports())
def test_newton_basis_property_against_nnls_oracle(case):
    n, picks = case
    f = Polynomial.zero(n)
    for m in picks:
        f = f + Polynomial.monomial(n, m, 1.0)
    got = set(monos(newton_half_basis(f)))
    hull_pts = sorted(set(picks) | {(0,) * n})
    for cand in monomials_up_to(n, max(sum(m) for m in picks) // 2):
        assert (cand in got) == in_half_hull_nnls(cand, hull_pts), cand


def has_average_certificate(beta, points):
    """Brute force: 4*beta = p + q or 6*beta = p + q + r for rows of points."""
    pts = [tuple(p) for p in points.tolist()]
    for k in (2, 3):
        target = tuple(2 * k * b for b in beta)
        for combo in itertools.combinations_with_replacement(pts, k):
            if tuple(map(sum, zip(*combo))) == target:
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(sparse_supports())
def test_newton_decisions_are_exact_proofs(case):
    n, picks = case
    f = from_terms(n, {m: 1.0 for m in picks})
    points, cands = _newton_candidates(f)
    certified = _average_certified(cands, points)
    confirmed = set()
    real = tssos.basis._in_half_polytope
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            tssos.basis, "_in_half_polytope", lambda b, h: confirmed.add(tuple(b)) or real(b, h)
        )
        member, (cut_w, cut_b) = _newton_members(cands, points)
    # accepted without an LP exactly when a 2- or 3-point certificate exists
    for beta, ok in zip(cands.tolist(), certified):
        assert ok == has_average_certificate(beta, points), beta
    assert member[certified].all()
    # every cut is valid: no hull point lies beyond it
    assert (points @ cut_w.T <= cut_b).all()
    # every rejection that skipped the per-candidate LP violates a logged cut
    for beta in cands[~member]:
        if tuple(beta) not in confirmed:
            assert (2 * beta @ cut_w.T > cut_b).any(), beta
    hull_pts = sorted(set(picks) | {(0,) * n})
    for beta, ok in zip(cands.tolist(), member):
        assert ok == in_half_hull_nnls(beta, hull_pts), beta


def test_convex_proof_and_cuts_are_exact():
    points = np.array([[0, 0], [2, 0], [0, 2], [2, 2]])
    beta = np.array([1, 0])  # 2*beta = (2, 0)
    assert _convex_proof(np.array([0.0, 1.0, 0.0, 0.0]), beta, points)
    # the right combination with weights summing to 1.5
    assert not _convex_proof(np.array([0.5, 1.0, 0.0, 0.0]), beta, points)
    # weights summing to 1 that combine to (1, 0)
    assert not _convex_proof(np.array([0.5, 0.5, 0.0, 0.0]), beta, points)
    # LP weights off by 1e-12 round back to 1/3 and 2/3: (2, 0) = (0, 0)/3 + 2*(3, 0)/3
    thirds = np.array([1 / 3 + 1e-12, 2 / 3 - 1e-12, 0.0])
    assert _convex_proof(thirds, beta, np.array([[0, 0], [3, 0], [0, 3]]))
    # the cut x + y <= 2: a 2*beta on it stays, a 2*beta beyond it goes
    cut_w, cut_b = np.array([[1, 1]]), np.array([2])
    cut = _cut_off(np.array([[1, 0], [0, 1], [1, 1]]), cut_w, cut_b)
    assert cut.tolist() == [False, False, True]
    assert not _cut_off(np.array([[1, 1]]), np.zeros((0, 2), dtype=np.int64), np.zeros(0)).any()


def test_newton_basis_small_chunks_match_reference(monkeypatch):
    # several pair-sum chunks, lookup chunks and collision-check chunks in the
    # certificate search
    monkeypatch.setattr(tssos.basis, "NEWTON_PAIR_BUDGET", 50)
    monkeypatch.setattr(tssos.basis, "PAIR_BUDGET", 64)
    f = REFERENCE_CASES["randpoly1_5_6_seed0"]
    assert newton_half_basis(f) == reference_newton_basis(f)


def count_calls(monkeypatch, name):
    """Record the calls of tssos.basis.<name>, which still runs."""
    calls, real = [], getattr(tssos.basis, name)
    monkeypatch.setattr(tssos.basis, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def test_newton_basis_lp_calls(monkeypatch):
    # broyden_tridiagonal: every member has a midpoint certificate and every
    # candidate is a member; gen_rosenbrock: the 13 uncertified candidates
    # are rejected by their NNLS cuts; every candidate of broyden_banded and
    # randpoly2 is a member and the average of two or three hull points; the
    # randpoly1 README instance leaves 8 of its 100 members and its 363
    # non-members to NNLS, and 55 NNLS calls decide all of them (measured)
    lps = count_calls(monkeypatch, "linprog")
    confirms = count_calls(monkeypatch, "_in_half_polytope")
    calls = count_calls(monkeypatch, "nnls")
    assert len(newton_half_basis(bench.broyden_tridiagonal(14))) == 120
    assert len(calls) == 0
    assert len(newton_half_basis(bench.gen_rosenbrock(14))) == 106
    assert len(calls) <= 13
    calls.clear()
    assert len(newton_half_basis(bench.broyden_banded(10))) == 286
    assert len(newton_half_basis(bench.randpoly2(6, 6, 20, seed=1))) == 84
    assert len(calls) == 0
    assert len(newton_half_basis(bench.randpoly1(8, 8, 30, 0.1, seed=3))) == 100
    assert 1 <= len(calls) <= 64
    assert len(lps) == 0
    assert len(confirms) == 0


@pytest.mark.parametrize("status", [1, 4])
def test_newton_basis_falls_back_when_chunk_lp_fails(monkeypatch, status):
    # the proposal step (one NNLS per candidate) fails in the two ways it can:
    # tssos.basis.nnls raises RuntimeError (status 1: its iteration limit, or
    # passive columns gone numerically dependent), or its weights are not
    # finite (status 4)
    f = REFERENCE_CASES["randpoly1_5_6_seed0"]
    want = reference_newton_basis(f)

    def failing(a, t, **kwargs):
        if status == 1:
            raise RuntimeError("Maximum number of iterations reached.")
        return np.full(a.shape[1], np.nan), np.nan

    monkeypatch.setattr(tssos.basis, "nnls", failing)
    confirms = count_calls(monkeypatch, "_in_half_polytope")
    assert newton_half_basis(f) == want
    # every candidate without a 2- or 3-point certificate went to the per-candidate test
    points, cands = _newton_candidates(f)
    uncertified = int((~_average_certified(cands, points)).sum())
    assert uncertified > 0
    assert len(confirms) == uncertified


def test_newton_basis_of_a_lower_dimensional_hull(monkeypatch):
    # supp(f) + {0} lies on the line x1 = x2: NNLS residuals of the points
    # off it give the cuts, and no candidate needs an LP
    confirms = count_calls(monkeypatch, "_in_half_polytope")
    f = parse_polynomial("x1^2*x2^2 + x1^4*x2^4 + 1", 2)
    b = newton_half_basis(f)
    assert set(monos(b)) == {(0, 0), (1, 1), (2, 2)}
    assert b == reference_newton_basis(f)
    assert len(confirms) == 0
    # the same line inside three variables, with x3 absent
    g = parse_polynomial("x1^2*x2^2 + x1^6*x2^6 + 1", 3)
    assert set(monos(newton_half_basis(g))) == {(a, a, 0) for a in range(4)}
    assert len(confirms) == 0


def test_newton_member_with_weights_in_ninths(monkeypatch):
    # 2*(1, 1) = (2, 2) = (0, 0)/9 + 2*(3, 0)/9 + 2*(2, 3)/3, the only convex
    # weights since the hull is a triangle; a combination over denominator 3
    # would be a 3-point certificate, so this member is NNLS's to propose and
    # _convex_proof's to round back from floats
    points = np.array([[0, 0], [3, 0], [2, 3]])
    assert not has_average_certificate((1, 1), points)
    proofs = count_calls(monkeypatch, "_convex_proof")
    confirms = count_calls(monkeypatch, "_in_half_polytope")
    f = parse_polynomial("x1^3 + x1^2*x2^3 + 1", 2)
    b = newton_half_basis(f)
    assert (1, 1) in b
    assert b == reference_newton_basis(f)
    assert any(tuple(beta) == (1, 1) for _, beta, _ in proofs)
    assert len(confirms) == 0


def test_newton_basis_survives_a_zero_nnls_proposal(monkeypatch):
    # with lam = 0 the residual is (2*beta, 1): members fall through to the
    # per-candidate LP and only the cut w = 2*beta may reject without one
    f = REFERENCE_CASES["randpoly1_5_6_seed0"]
    want = reference_newton_basis(f)
    monkeypatch.setattr(
        tssos.basis, "nnls", lambda a, t, **kw: (np.zeros(a.shape[1]), float(np.linalg.norm(t)))
    )
    confirms = count_calls(monkeypatch, "_in_half_polytope")
    points, cands = _newton_candidates(f)
    member, (cut_w, cut_b) = _newton_members(cands, points)
    confirmed = {tuple(beta) for beta, _ in confirms}
    assert MonomialBasis(f.nvars, cands[member]) == want
    assert len(cut_w) > 0
    assert (points @ cut_w.T <= cut_b).all()
    for beta in cands[~member]:
        if tuple(beta) not in confirmed:
            assert (2 * beta @ cut_w.T > cut_b).any(), beta


@pytest.mark.parametrize("args, sizes", [
    ((8, 8, 30, 0.1), [67, 102, 129, 100, 82]),
    ((10, 6, 40, 0.1), [36, 49, 54]),
])
def test_randpoly1_newton_bases_need_no_lp(monkeypatch, args, sizes):
    lps = count_calls(monkeypatch, "linprog")
    got = [len(newton_half_basis(bench.randpoly1(*args, seed=s))) for s in range(len(sizes))]
    assert got == sizes
    assert len(lps) == 0


def hull_matrix(points):
    """A = [points^T; 1], the matrix _newton_members fits every candidate with."""
    points = np.asarray(points, dtype=float).reshape(len(points), -1)
    return np.vstack([points.T, np.ones(len(points))])


def assert_nnls_solves(a, t):
    """tssos.basis.nnls against scipy.optimize.nnls: residual, sign and optimality."""
    x, rnorm = tssos.basis.nnls(a, t)
    scale = 1 + np.linalg.norm(t)
    assert (x >= 0).all()
    assert rnorm == pytest.approx(np.linalg.norm(a @ x - t), abs=1e-12 * scale)
    want, _ = nnls(a, t)
    assert abs(rnorm - np.linalg.norm(a @ want - t)) <= 1e-9 * scale
    # KKT: the gradient a^T (t - a x) is <= 0 off the support and 0 on it
    grad = a.T @ (t - a @ x)
    tol = 1e-9 * (1 + np.linalg.norm(a)) * scale
    assert (grad[x == 0] <= tol).all()
    assert np.abs(grad[x > 0]).max(initial=0.0) <= tol


@pytest.mark.parametrize("f", [
    bench.gen_rosenbrock(14), bench.broyden_tridiagonal(14), bench.randpoly1(8, 8, 30, 0.1, seed=3),
], ids=["gen_rosenbrock_14", "broyden_tridiagonal_14", "randpoly1_8_seed3"])
def test_nnls_matches_scipy_on_the_benchmark_hulls(f):
    # every candidate of the perfbench instances, not only the ones NNLS is asked about
    points, cands = _newton_candidates(f)
    a = hull_matrix(points)
    for beta in cands:
        assert_nnls_solves(a, np.append(2.0 * beta, 1.0))


@st.composite
def point_sets(draw):
    """Small integer point sets, repeats allowed, and a target (2*beta, 1) or any integer one."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    points = draw(st.lists(row, min_size=1, max_size=8))
    if draw(st.booleans()):
        points += draw(st.lists(st.sampled_from(points), max_size=3))  # duplicates
    if draw(st.booleans()):
        step = draw(row)
        points += [[k * s for s in step] for k in range(4)]  # collinear through the origin
    beta = draw(row)
    t = [2 * b for b in beta] + [1] if draw(st.booleans()) else draw(
        st.lists(st.integers(-3, 8), min_size=n + 1, max_size=n + 1))
    return points, t


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_nnls_matches_scipy_on_small_point_sets(case):
    points, t = case
    assert_nnls_solves(hull_matrix(points), np.array(t, dtype=float))


def test_nnls_on_a_lower_dimensional_hull_and_a_zero_target():
    # the hulls of test_newton_basis_of_a_lower_dimensional_hull: points on the line x1 = x2
    for text, n in (("x1^2*x2^2 + x1^4*x2^4 + 1", 2), ("x1^2*x2^2 + x1^6*x2^6 + 1", 3)):
        points, cands = _newton_candidates(parse_polynomial(text, n))
        a = hull_matrix(points)
        for beta in cands:
            assert_nnls_solves(a, np.append(2.0 * beta, 1.0))
        assert_nnls_solves(a, np.zeros(n + 1))
        x, rnorm = tssos.basis.nnls(a, np.zeros(n + 1))
        assert rnorm == 0 and not x.any()


def test_nnls_raises_at_its_iteration_limit():
    # nearly parallel columns: this problem takes 3 inner steps (found by a search over seeds)
    rng = np.random.default_rng(18)
    a, t = 1 + 0.3 * rng.normal(size=(10, 10)), rng.normal(size=10) + 2
    x, rnorm = tssos.basis.nnls(a, t)
    assert_nnls_solves(a, t)
    with pytest.raises(RuntimeError, match="iterations"):
        tssos.basis.nnls(a, t, maxiter=2)
    again, r_again = tssos.basis.nnls(a, t, maxiter=3)
    assert np.array_equal(again, x) and r_again == rnorm


def test_newton_candidates_stay_inside_the_box():
    # declared over 60 variables, but only x1 and x2 appear: C(66, 6) monomials
    # of degree <= 6 exist, 13 lie in the box
    f = parse_polynomial("x1^12 + x2^2 + 1", 60)
    start = time.perf_counter()
    b = newton_half_basis(f)
    assert time.perf_counter() - start < 5.0
    zeros = (0,) * 58
    assert set(monos(b)) == {(a, 0) + zeros for a in range(7)} | {(0, 1) + zeros}


def test_newton_candidate_box_above_cap_raises():
    # 60 variables of degree 12: C(66, 6) > cap candidates in the box
    f = Polynomial.constant(60, 1.0)
    for i in range(60):
        e = [0] * 60
        e[i] = 12
        f = f + Polynomial.monomial(60, tuple(e), 1.0)
    assert math.comb(66, 6) > STANDARD_BASIS_CAP
    with pytest.raises(ValueError, match="cap"):
        newton_half_basis(f)


def test_newton_basis_single_monomial():
    f = parse_polynomial("4*x1^2*x2^4", 2)
    b = newton_half_basis(f)
    assert set(monos(b)) == {(0, 0), (1, 2)}
    with pytest.raises(ValueError):
        newton_half_basis(parse_polynomial("x1^3", 1))
    with pytest.raises(ValueError):
        newton_half_basis(Polynomial.zero(2))


def test_newton_quadratic_is_affine_basis():
    # any quadratic with all squares present keeps exactly {1, x_i}
    f = parse_polynomial("x1^2 + x2^2 + x3^2 - x1*x2 + x3 - 2", 3)
    b = newton_half_basis(f)
    assert set(monos(b)) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def naive_generate_chain(targets, base):
    """Literal double-loop transcription of the basis iteration."""
    prev = set()
    chain = []
    while True:
        cur = set()
        for beta in base:
            for gamma in base:
                s = tuple(x + y for x, y in zip(beta, gamma))
                if s in targets or tuple(a // 2 for a in s) in prev and all(
                    a % 2 == 0 for a in s
                ):
                    cur.add(beta)
                    cur.add(gamma)
        if chain and cur == chain[-1]:
            break
        chain.append(cur)
        prev = cur
    return chain


def test_generate_basis_golden_chain():
    base = standard_basis(1, 4)
    chain = generate_basis([(0,), (1,), (8,)], base)
    assert set(monos(chain[0])) == {(0,), (1,), (4,)}
    assert set(monos(chain[1])) == {(0,), (1,), (2,), (4,)}
    # monotone and capped by the input basis
    for a, b in zip(chain, chain[1:]):
        assert set(monos(a)) <= set(monos(b))
    assert set(monos(chain[-1])) <= set(monos(base))


def test_generate_basis_matches_naive_oracle():
    rng = np.random.default_rng(99)
    for trial in range(10):
        n = 2
        pool = monomials_up_to(n, 4)
        targets = {m for m in pool if rng.random() < 0.25}
        base = standard_basis(n, 2)
        chain = generate_basis(sorted(targets), base)
        oracle = naive_generate_chain(targets, monos(base))
        assert len(chain) == len(oracle)
        for got, want in zip(chain, oracle):
            assert set(monos(got)) == want


def test_generate_basis_idempotent_at_fixed_point():
    base = standard_basis(2, 2)
    targets = {(2, 0), (0, 2), (1, 1), (0, 0)}
    chain = generate_basis(sorted(targets), base)
    again = generate_basis(sorted(targets), chain[-1])
    assert set(monos(again[-1])) == set(monos(chain[-1]))


def test_reduce_unconstrained_shrinks_randpoly1_instance():
    from tssos.bench import randpoly1

    f = randpoly1(8, 8, 30, 0.1, seed=3)
    nb = newton_half_basis(f)
    rb = reduce_basis_unconstrained(f, nb)
    assert set(monos(rb)) <= set(monos(nb))
    assert 40 <= len(rb) <= 106


def test_reduce_constrained_keeps_constant_and_fixed_point():
    pop = parse_pop(
        "vars 2\nx1^2*x2^2 - x1*x2 + 1\nsubject to\n1 - x1^2 - x2^2\n"
    )
    red = reduce_basis_constrained(pop, d_hat=2).at(0)[0].basis
    assert (0, 0) in red
    assert set(monos(red)) <= set(monos(standard_basis(2, 2)))
    # running the reduction again from its own output changes nothing
    again = reduce_basis_constrained(pop, d_hat=2).at(0)[0].basis
    assert again == red


def test_reduce_constrained_no_constraints_collapses():
    pop = parse_pop("x1^4 - x1^2 + 1")
    red = reduce_basis_constrained(pop, d_hat=2).at(0)[0].basis
    chain = generate_basis([(0,), (2,), (4,)], standard_basis(1, 2))
    assert set(monos(red)) == set(monos(chain[-1]))


def reference_generate_basis(support, base):
    """The basis iteration as a loop over targets x base, on exponent tuples."""
    base_set = set(map(tuple, base.array.tolist()))
    base_list = sorted(base_set, key=grlex_key)
    supp = {tuple(a) for a in support}
    chain = []
    prev = set()
    while True:
        targets = supp | {tuple(2 * a for a in m) for m in prev}
        cur = set()
        for t in targets:
            for beta in base_list:
                gamma = tuple(x - y for x, y in zip(t, beta))
                if any(g < 0 for g in gamma):
                    continue
                if gamma in base_set:
                    cur.add(beta)
                    cur.add(gamma)
        if cur == prev and chain:
            break
        chain.append(MonomialBasis(base.nvars, sorted(cur)))
        if cur == prev:
            break
        prev = cur
    return chain


def reference_reduce_basis_constrained(pop, d_hat, k=1, mode="approx_min"):
    """reduce_basis_constrained with clique pair sums and supp(g_j) shifts as tuple loops."""
    f = pop.objective
    n = pop.nvars
    basis0 = standard_basis(n, d_hat)
    origin = (0,) * n
    while True:
        seq = iterate_constrained(pop, [basis0] + generator_bases(pop, d_hat)[1:], k=k, mode=mode)
        target = support(f) | {origin}
        for j, g in enumerate(pop.constraints, start=1):
            graph = seq.levels[-1][j]
            sums = set()
            nodes = monos(graph.basis)
            for clique in maximal_cliques(graph).cliques:
                members = [nodes[i] for i in clique]
                for a in members:
                    for b in members:
                        sums.add(tuple(x + y for x, y in zip(a, b)))
            for ga in support(g):
                for s in sums:
                    target.add(tuple(x + y for x, y in zip(ga, s)))
        new_basis = reference_generate_basis(target, basis0)[-1]
        if new_basis == basis0:
            return basis0
        basis0 = new_basis


CHAIN_CASES = {**REFERENCE_CASES, "broyden_banded_10": bench.broyden_banded(10)}


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_generate_basis_matches_tuple_loop_reference(name):
    f = CHAIN_CASES[name]
    base = newton_half_basis(f)
    target = support(f) | {(0,) * f.nvars}
    assert generate_basis(list(target), base) == reference_generate_basis(target, base)


CONSTRAINED_CASES = [
    (fam, cset, d_hat)
    for fam in ("gen_rosenbrock", "broyden_tridiagonal")
    for cset in ("unit_ball", "unit_hypercube")
    for d_hat in (2, 3)
]


@pytest.mark.parametrize("fam,cset,d_hat", CONSTRAINED_CASES)
def test_reduce_constrained_matches_tuple_loop_reference(fam, cset, d_hat):
    pop = PopProblem(getattr(bench, fam)(3), bench.constraint_set(cset, 3))
    assert reduce_basis_constrained(pop, d_hat).at(0)[0].basis == reference_reduce_basis_constrained(pop, d_hat)


# constraints without a constant term, so the reduction drops monomials (on
# the ball and the box above it keeps the whole standard basis)
SHRINKING_POPS = {
    "n2_d2": ("vars 2\nx1^4 + x2^4 + 1\nsubject to\nx1^2 - x1^4\n", 2, 4),
    "n3_d3": ("vars 3\nx1^4*x2^2 + x3^2 + 1\nsubject to\nx1^2*x2^2 - x1^4\n", 3, 18),
}


@pytest.mark.parametrize("name", sorted(SHRINKING_POPS))
def test_reduce_constrained_shrinking_matches_tuple_loop_reference(name):
    text, d_hat, size = SHRINKING_POPS[name]
    pop = parse_pop(text)
    want = reference_reduce_basis_constrained(pop, d_hat)
    assert len(want) == size < len(standard_basis(pop.nvars, d_hat))
    for mode in ("approx_min", "block_closure"):
        assert reduce_basis_constrained(pop, d_hat, mode=mode).at(0)[0].basis == (
            reference_reduce_basis_constrained(pop, d_hat, mode=mode)
        )


def test_degenerate_key_weights_keep_bases(monkeypatch):
    """All-ones weights make every key the total degree: collisions everywhere."""
    names = ["broyden_banded_4", "gen_rosenbrock_6", "randpoly1_5_6_seed0", "randpoly2_4_6_seed1"]
    want = {}
    for name in names:
        f = REFERENCE_CASES[name]
        nb = newton_half_basis(f)
        want[name] = (nb, reduce_basis_unconstrained(f, nb))
    pops = [
        PopProblem(bench.gen_rosenbrock(3), bench.constraint_set("unit_ball", 3)),
        parse_pop(SHRINKING_POPS["n3_d3"][0]),
    ]
    want_constrained = [reduce_basis_constrained(pop, 3).at(0)[0].basis for pop in pops]
    monkeypatch.setattr(tssos.basis, "_key_weights", lambda nvars: np.ones(nvars, dtype=np.uint64))
    assert tssos.basis._rows_set(standard_basis(2, 2).array).sizes.max() > 1
    for name in names:
        f = REFERENCE_CASES[name]
        nb = newton_half_basis(f)
        assert (nb, reduce_basis_unconstrained(f, nb)) == want[name], name
    assert [reduce_basis_constrained(pop, 3).at(0)[0].basis for pop in pops] == want_constrained


def test_key_weights_are_built_once_and_read_only():
    weights = tssos.basis._key_weights(6)
    assert tssos.basis._key_weights(6) is weights
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 1
    # keys are sum(a_i * w_i) mod 2^64 over the first PCG64 outputs of KEY_SEED, made odd
    mask = (1 << 64) - 1
    raw = np.random.PCG64(tssos.basis.KEY_SEED).random_raw(6)
    want_weights = [int(w) | 1 for w in raw]
    assert weights.tolist() == want_weights
    rows = np.random.default_rng(8).integers(0, 40, size=(50, 6))
    want = [sum(int(a) * w for a, w in zip(row, want_weights)) & mask for row in rows]
    assert tssos.basis.exponent_keys(rows).tolist() == want


def test_newton_pair_sums_of_broyden_tridiagonal_120_have_no_key_collision():
    """The pair sums _average_certified searches: no two distinct ones share a key."""
    points, _ = _newton_candidates(bench.broyden_tridiagonal(120))
    i, j = np.triu_indices(len(points))
    keys = tssos.basis.exponent_keys(points)
    sums = tssos.basis._ExponentSet(keys[i] + keys[j], lambda idx: points[i[idx]] + points[j[idx]])
    assert len(i) == 351_541
    assert sums.sizes is None


@pytest.mark.parametrize("degenerate", [False, True])
def test_contains_confirms_key_hits_in_chunks(monkeypatch, degenerate):
    if degenerate:  # every key is the total degree: collisions everywhere
        monkeypatch.setattr(tssos.basis, "_key_weights", lambda nvars: np.ones(nvars, dtype=np.uint64))
    rows = np.random.default_rng(9).integers(0, 4, size=(300, 5))
    members = tssos.basis._rows_set(rows[:150])
    assert (members.sizes is not None) == degenerate
    want = [tuple(row) in set(map(tuple, rows[:150].tolist())) for row in rows.tolist()]
    monkeypatch.setattr(tssos.basis, "PAIR_BUDGET", 7)
    formed = []

    def rows_of(idx):
        formed.append(len(idx))
        return rows[idx]

    assert members.contains(tssos.basis.exponent_keys(rows), rows_of).tolist() == want
    assert len(formed) > 1 and max(formed) <= 7


def _check_exponent_set(items, queries):
    """_ExponentSet of the item rows against Python tuple sets: members, item map, lookups."""
    members = tssos.basis._rows_set(items)
    distinct = set(map(tuple, items.tolist()))
    keys = tssos.basis.exponent_keys(items)
    by_key = {}
    for row, key in zip(items.tolist(), keys.tolist()):
        by_key.setdefault(key, set()).add(tuple(row))
    assert members.keys.tolist() == sorted(by_key)
    sizes = [len(by_key[key]) for key in sorted(by_key)]
    assert members.sizes is None if max(sizes, default=1) == 1 else members.sizes.tolist() == sizes
    # one member per distinct exponent, and every item maps to the member of its exponent
    assert len(members) == len(distinct)
    assert members.rows(members.member_of).tolist() == items.tolist()
    assert len(set(members.member_of.tolist())) == len(distinct)
    # the sparse patterns decode to the distinct exponents, with their degrees and keys
    pos, val, deg, key = members.members()
    decoded = np.zeros((len(pos), items.shape[1]), dtype=np.int64)
    at, slot = np.nonzero(pos >= 0)
    decoded[at, pos[at, slot]] = val[at, slot]
    assert sorted(map(tuple, decoded.tolist())) == sorted(distinct)
    assert deg.tolist() == decoded.sum(axis=1).tolist()
    assert key.tolist() == tssos.basis.exponent_keys(decoded).tolist()
    found = members.contains(tssos.basis.exponent_keys(queries), queries.__getitem__)
    assert found.tolist() == [tuple(q) in distinct for q in queries.tolist()]
    return members


def test_exponent_set_groups_only_the_colliding_key(monkeypatch):
    # key(a) = a1 + 2*a2: of these rows only (2, 0) and (0, 1) share a key (2)
    monkeypatch.setattr(tssos.basis, "_key_weights", lambda nvars: np.array([1, 2], dtype=np.uint64))
    items = np.array([[2, 0], [0, 1], [2, 0], [1, 1], [0, 0], [0, 1], [3, 1], [1, 1]])
    # (3, 0) and (1, 2) hit the keys of members (1, 1) and (3, 1) without being members
    queries = np.array([[0, 1], [2, 0], [1, 1], [0, 0], [3, 1], [3, 0], [1, 2], [4, 0]])
    members = _check_exponent_set(items, queries)
    assert members.keys.tolist() == [0, 2, 3, 5]
    assert members.sizes.tolist() == [1, 2, 1, 1]
    assert members.first.tolist() == [0, 1, 3, 4]
    assert members.member_of.tolist() == [2, 1, 2, 3, 0, 1, 4, 3]
    assert members.items.tolist() == [4, 1, 0, 3, 6]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(st.integers(1, 3), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=0, max_size=30),
        st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=0, max_size=30),
    ))
)
def test_exponent_set_matches_tuple_sets_under_small_weights(case):
    weights, items, queries = case
    n = len(weights)
    real = tssos.basis._key_weights
    tssos.basis._key_weights = lambda nvars: np.array(weights, dtype=np.uint64)
    try:
        _check_exponent_set(np.array(items, dtype=np.int64).reshape(-1, n),
                            np.array(queries, dtype=np.int64).reshape(-1, n))
    finally:
        tssos.basis._key_weights = real
