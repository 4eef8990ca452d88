import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult, nnls

import tssos.basis
from tssos import bench
from tssos.basis import (
    STANDARD_BASIS_CAP,
    MonomialBasis,
    _in_half_polytope,
    generate_basis,
    newton_half_basis,
    reduce_basis_constrained,
    reduce_basis_unconstrained,
    standard_basis,
)
from tssos.poly import Polynomial, grlex_key, parse_polynomial, parse_pop, monomials_up_to

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
            assert b.monos[0] == (0,) * n


def test_monomial_basis_dedups_and_indexes():
    b = MonomialBasis(2, [(0, 0), (1, 0), (0, 0), (0, 1)])
    assert len(b) == 3
    assert b.index((1, 0)) == 1
    assert (1, 1) not in b
    with pytest.raises(ValueError):
        MonomialBasis(2, [(1, -1)])


def test_newton_basis_running_example():
    f = parse_polynomial(EX33, 3)
    b = newton_half_basis(f)
    assert set(b.monos) == {
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
        got = set(basis.monos)
        for cand in monomials_up_to(n, deg // 2):
            assert (cand in got) == in_half_hull_nnls(cand, hull_pts), (
                f"membership mismatch at {cand} for support {sorted(pick)}"
            )


def reference_newton_basis(f):
    """One LP per candidate: every monomial of degree <= d inside the box and
    the degree bound of the hull, kept when _in_half_polytope accepts it."""
    supp = f.support()
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
    got = set(newton_half_basis(f).monos)
    hull_pts = sorted(set(picks) | {(0,) * n})
    for cand in monomials_up_to(n, max(sum(m) for m in picks) // 2):
        assert (cand in got) == in_half_hull_nnls(cand, hull_pts), cand


def test_newton_basis_small_chunks_match_reference(monkeypatch):
    # several pair-sum chunks in the certificate search and several LP chunks
    monkeypatch.setattr(tssos.basis, "NEWTON_PAIR_BUDGET", 50)
    monkeypatch.setattr(tssos.basis, "NEWTON_LP_CHUNK", 5)
    f = REFERENCE_CASES["randpoly1_5_6_seed0"]
    assert newton_half_basis(f) == reference_newton_basis(f)


def test_newton_basis_lp_calls(monkeypatch):
    # broyden_tridiagonal: every member has a midpoint certificate and every
    # candidate is a member; gen_rosenbrock: the 13 uncertified candidates
    # are all rejected by one chunk LP
    calls = []
    real = tssos.basis.linprog
    monkeypatch.setattr(tssos.basis, "linprog", lambda *a, **kw: calls.append(kw) or real(*a, **kw))
    assert len(newton_half_basis(bench.broyden_tridiagonal(14))) == 120
    assert len(calls) == 0
    assert len(newton_half_basis(bench.gen_rosenbrock(14))) == 106
    assert len(calls) == 1


@pytest.mark.parametrize("status", [1, 4])
def test_newton_basis_falls_back_when_chunk_lp_fails(monkeypatch, status):
    f = REFERENCE_CASES["randpoly1_5_6_seed0"]
    want = reference_newton_basis(f)
    real = tssos.basis.linprog
    confirms = []

    def failing(c, **kwargs):
        if np.any(c):  # the phase-1 chunk LP; _in_half_polytope has no objective
            return OptimizeResult(status=status, x=None)
        confirms.append(c)
        return real(c, **kwargs)

    monkeypatch.setattr(tssos.basis, "linprog", failing)
    assert newton_half_basis(f) == want
    # every uncertified candidate went to the per-candidate test
    assert len(confirms) == 34


def test_newton_candidates_stay_inside_the_box():
    # declared over 60 variables, but only x1 and x2 appear: C(66, 6) monomials
    # of degree <= 6 exist, 13 lie in the box
    f = parse_polynomial("x1^12 + x2^2 + 1", 60)
    start = time.perf_counter()
    b = newton_half_basis(f)
    assert time.perf_counter() - start < 5.0
    zeros = (0,) * 58
    assert set(b.monos) == {(a, 0) + zeros for a in range(7)} | {(0, 1) + zeros}


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
    assert set(b.monos) == {(1, 2)}
    with pytest.raises(ValueError):
        newton_half_basis(parse_polynomial("x1^3", 1))
    with pytest.raises(ValueError):
        newton_half_basis(Polynomial.zero(2))


def test_newton_quadratic_is_affine_basis():
    # any quadratic with all squares present keeps exactly {1, x_i}
    f = parse_polynomial("x1^2 + x2^2 + x3^2 - x1*x2 + x3 - 2", 3)
    b = newton_half_basis(f)
    assert set(b.monos) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


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
    chain = generate_basis({(0,), (1,), (8,)}, base)
    assert set(chain[0].monos) == {(0,), (1,), (4,)}
    assert set(chain[1].monos) == {(0,), (1,), (2,), (4,)}
    # monotone and capped by the input basis
    for a, b in zip(chain, chain[1:]):
        assert set(a.monos) <= set(b.monos)
    assert set(chain[-1].monos) <= set(base.monos)


def test_generate_basis_matches_naive_oracle():
    rng = np.random.default_rng(99)
    for trial in range(10):
        n = 2
        pool = monomials_up_to(n, 4)
        targets = {m for m in pool if rng.random() < 0.25}
        base = standard_basis(n, 2)
        chain = generate_basis(targets, base)
        oracle = naive_generate_chain(targets, base.monos)
        assert len(chain) == len(oracle)
        for got, want in zip(chain, oracle):
            assert set(got.monos) == want


def test_generate_basis_idempotent_at_fixed_point():
    base = standard_basis(2, 2)
    targets = {(2, 0), (0, 2), (1, 1), (0, 0)}
    chain = generate_basis(targets, base)
    again = generate_basis(targets, chain[-1])
    assert set(again[-1].monos) == set(chain[-1].monos)


def test_reduce_unconstrained_shrinks_randpoly1_instance():
    from tssos.bench import randpoly1

    f = randpoly1(8, 8, 30, 0.1, seed=3)
    nb = newton_half_basis(f)
    rb = reduce_basis_unconstrained(f, nb)
    assert set(rb.monos) <= set(nb.monos)
    assert 40 <= len(rb) <= 106


def test_reduce_constrained_keeps_constant_and_fixed_point():
    pop = parse_pop(
        "vars 2\nx1^2*x2^2 - x1*x2 + 1\nsubject to\n1 - x1^2 - x2^2\n"
    )
    red = reduce_basis_constrained(pop, d_hat=2)
    assert (0, 0) in red
    assert set(red.monos) <= set(standard_basis(2, 2).monos)
    # running the reduction again from its own output changes nothing
    again = reduce_basis_constrained(pop, d_hat=2)
    assert again == red


def test_reduce_constrained_no_constraints_collapses():
    pop = parse_pop("x1^4 - x1^2 + 1")
    red = reduce_basis_constrained(pop, d_hat=2)
    chain = generate_basis({(0,), (2,), (4,)}, standard_basis(1, 2))
    assert set(red.monos) == set(chain[-1].monos)
