import itertools
import math
import os
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import blas, cho_solve, lapack

import tssos.solver
from tssos import bench
from tssos.assembly import assemble
from tssos.basis import generator_bases, standard_basis
from tssos.graphs import CliqueDecomposition, iterate_constrained, maximal_cliques
from tssos.poly import PopProblem
from tssos.solver import (
    SolverConfig,
    SolverSolution,
    CanonicalSdp,
    _cholesky,
    _constraint_norms,
    _index_dtype,
    _inverse_factors,
    _lapack_errors,
    _Layout,
    _Schur,
    _step_lengths,
    solve_canonical,
)

from held_index_schur import held_index_schur
from sdp_tables import canonical_sdp, entry_rows


def entries_from_matrix(blk, mat, tol=0.0):
    """Upper-triangle sparse entries of a symmetric matrix."""
    out = []
    n = mat.shape[0]
    for r in range(n):
        for c in range(r, n):
            v = float(mat[r, c])
            if abs(v) > tol or (r == c and not out):
                out.append((blk, r, c, v))
    return tuple(out)


def dense_from_entries(sizes, entries):
    mats = [np.zeros((s, s)) for s in sizes]
    for blk, r, c, v in entries:
        mats[blk][r, c] += v
        if r != c:
            mats[blk][c, r] += v
    return mats


def blockdiag(mats):
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    ofs = 0
    for m in mats:
        k = m.shape[0]
        out[ofs : ofs + k, ofs : ofs + k] = m
        ofs += k
    return out


def random_instance(rng, sizes, m):
    """A strictly feasible primal-dual pair with known interior points."""

    def rand_psd(s, shift):
        q = rng.normal(size=(s, s))
        return q @ q.T + shift * np.eye(s)

    a_mats = []
    for _ in range(m):
        row = [rng.normal(size=(s, s)) for s in sizes]
        a_mats.append([0.5 * (w + w.T) for w in row])
    x_star = [rand_psd(s, 0.5) for s in sizes]
    s_star = [rand_psd(s, 0.5) for s in sizes]
    y_star = rng.normal(size=m)
    b = tuple(
        float(sum(np.tensordot(ab, xb) for ab, xb in zip(arow, x_star)))
        for arow in a_mats
    )
    c_mats = [sb.copy() for sb in s_star]
    for yi, arow in zip(y_star, a_mats):
        for blk, ab in enumerate(arow):
            c_mats[blk] += yi * ab
    prob = canonical_sdp(
        block_sizes=tuple(sizes),
        c_entries=tuple(
            e for blk, cm in enumerate(c_mats) for e in entries_from_matrix(blk, cm)
        ),
        a_entries=tuple(
            tuple(e for blk, ab in enumerate(arow) for e in entries_from_matrix(blk, ab))
            for arow in a_mats
        ),
        b=b,
    )
    feas_p = float(sum(np.tensordot(cm, xb) for cm, xb in zip(c_mats, x_star)))
    feas_d = float(np.dot(b, y_star))
    return prob, feas_p, feas_d


def admm_solve(prob, iters=30000, tol=5e-8):
    """Boundary point method, an independent check on the interior point.

    Dual augmented Lagrangian with alternating y / S updates and the
    multiplier X recovered as sigma * (S - V); X stays PSD by construction.
    """
    sizes = prob.block_sizes
    c = blockdiag(dense_from_entries(sizes, entry_rows(prob)[0]))
    a = np.array(
        [blockdiag(dense_from_entries(sizes, row)) for row in entry_rows(prob)[1:]]
    )
    b = np.array(prob.b, dtype=float)
    m, n = len(b), c.shape[0]
    avec = a.reshape(m, -1)
    gram = avec @ avec.T
    lo = np.linalg.cholesky(gram + 1e-12 * np.eye(m))

    def proj_psd(w):
        vals, vecs = np.linalg.eigh(0.5 * (w + w.T))
        pos = vals > 0
        return (vecs[:, pos] * vals[pos]) @ vecs[:, pos].T

    x = np.zeros((n, n))
    s = np.zeros((n, n))
    sigma = max(1.0, np.linalg.norm(b)) / max(1.0, np.linalg.norm(c))
    nb, nc = 1.0 + np.linalg.norm(b), 1.0 + np.linalg.norm(c)
    for it in range(iters):
        rhs = avec @ (c - s).ravel() + (b - avec @ x.ravel()) / sigma
        y = np.linalg.solve(lo.T, np.linalg.solve(lo, rhs))
        v = c - (avec.T @ y).reshape(n, n) - x / sigma
        s = proj_psd(v)
        x_new = sigma * (s - v)
        rd = np.linalg.norm(x_new - x) / (sigma * nc)
        x = x_new
        rp = np.linalg.norm(avec @ x.ravel() - b) / nb
        if rp < tol and rd < tol:
            break
        if it % 100 == 99:
            if rp > 10 * rd:
                sigma *= 0.7
            elif rd > 10 * rp:
                sigma *= 1.3
    return float(np.tensordot(c, x)), float(b @ y), rp, rd


def test_one_by_one_equality():
    prob = canonical_sdp(
        block_sizes=(1,),
        c_entries=((0, 0, 0, 1.0),),
        a_entries=(((0, 0, 0, 1.0),),),
        b=(1.0,),
    )
    sol = solve_canonical(prob)
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - 1.0) < 1e-7
    assert abs(sol.dual_obj - 1.0) < 1e-7
    assert abs(sol.x_blocks[0][0, 0] - 1.0) < 1e-7


def test_trace_min_with_fixed_offdiagonal():
    # min X11 + X22 with X12 = 1: optimum 2 at X = ones
    prob = canonical_sdp(
        block_sizes=(2,),
        c_entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)),
        a_entries=(((0, 0, 1, 1.0),),),
        b=(2.0,),
    )
    sol = solve_canonical(prob)
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - 2.0) < 1e-7
    assert abs(sol.x_blocks[0][0, 1] - 1.0) < 1e-6
    assert abs(sol.y[0] - 1.0) < 1e-6


def test_zero_constraints_shortcut():
    psd = canonical_sdp((2,), ((0, 0, 0, 1.0), (0, 1, 1, 2.0)), (), ())
    sol = solve_canonical(psd)
    assert sol.status == "optimal" and sol.primal_obj == 0.0
    indef = canonical_sdp((2,), ((0, 0, 1, 1.0),), (), ())
    assert solve_canonical(indef).status == "unbounded"


def test_random_instances_reach_kkt_accuracy():
    rng = np.random.default_rng(2024)
    shapes = [((2,), 1), ((3,), 2), ((3, 2), 3), ((4,), 4), ((2, 2, 3), 5), ((5,), 6)]
    for trial in range(30):
        sizes, m = shapes[trial % len(shapes)]
        prob, feas_p, feas_d = random_instance(rng, sizes, m)
        sol = solve_canonical(prob)
        assert sol.status == "optimal", (trial, sol.status, sol.residuals)
        # weak duality sandwich against the known feasible pair
        assert sol.primal_obj <= feas_p + 1e-6 * (1 + abs(feas_p))
        assert sol.dual_obj >= feas_d - 1e-6 * (1 + abs(feas_d))
        gap = abs(sol.primal_obj - sol.dual_obj)
        assert gap <= 1e-6 * (1 + abs(sol.primal_obj) + abs(sol.dual_obj))
        # primal feasibility recomputed from scratch
        a_mats = [dense_from_entries(sizes, row) for row in entry_rows(prob)[1:]]
        rp = np.array(
            [
                sum(np.tensordot(ab, xb) for ab, xb in zip(arow, sol.x_blocks)) - bi
                for arow, bi in zip(a_mats, prob.b)
            ]
        )
        assert np.linalg.norm(rp) <= 1e-6 * (1 + np.linalg.norm(prob.b))
        # dual feasibility and conic membership
        c_mats = dense_from_entries(sizes, entry_rows(prob)[0])
        for blk in range(len(sizes)):
            resid = c_mats[blk] - sol.s_blocks[blk]
            for i, arow in enumerate(a_mats):
                resid -= sol.y[i] * arow[blk]
            assert np.abs(resid).max() <= 1e-6 * (1 + np.abs(c_mats[blk]).max())
            assert np.linalg.eigvalsh(sol.x_blocks[blk]).min() >= -1e-7
            assert np.linalg.eigvalsh(sol.s_blocks[blk]).min() >= -1e-7


def test_agrees_with_boundary_point_method():
    rng = np.random.default_rng(7)
    for trial in range(6):
        sizes, m = [((3,), 2), ((2, 2), 3), ((4,), 3)][trial % 3]
        prob, _, _ = random_instance(rng, sizes, m)
        sol = solve_canonical(prob)
        assert sol.status == "optimal"
        ref_p, ref_d, rp, rd = admm_solve(prob)
        assert rp < 1e-6 and rd < 1e-6, "oracle failed to converge"
        scale = 1 + abs(ref_p)
        assert abs(sol.primal_obj - ref_p) <= 1e-4 * scale
        assert abs(sol.dual_obj - ref_d) <= 1e-4 * scale


def test_infeasible_primal_is_flagged():
    # X11 = -1 contradicts positive semidefiniteness
    prob = canonical_sdp(
        block_sizes=(2,),
        c_entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)),
        a_entries=(((0, 0, 0, 1.0),),),
        b=(-1.0,),
    )
    sol = solve_canonical(prob)
    assert sol.status in ("infeasible", "numerical")
    assert sol.status == "infeasible"


def test_unbounded_primal_is_flagged():
    # min -X22 subject to X11 = 1
    prob = canonical_sdp(
        block_sizes=(2,),
        c_entries=((0, 1, 1, -1.0),),
        a_entries=(((0, 0, 0, 1.0),),),
        b=(1.0,),
    )
    sol = solve_canonical(prob)
    assert sol.status in ("unbounded", "numerical")
    assert sol.status == "unbounded"


def test_solver_is_deterministic():
    rng = np.random.default_rng(99)
    prob, _, _ = random_instance(rng, (3, 2), 4)
    a = solve_canonical(prob)
    b = solve_canonical(prob)
    assert a.primal_obj == b.primal_obj
    assert a.dual_obj == b.dual_obj
    assert a.iterations == b.iterations
    assert all(np.array_equal(x1, x2) for x1, x2 in zip(a.x_blocks, b.x_blocks))


def test_validate_rejects_bad_data():
    with pytest.raises(ValueError):
        canonical_sdp((2,), ((1, 0, 0, 1.0),), (), ()).validate()
    with pytest.raises(ValueError):
        canonical_sdp((2,), ((0, 1, 0, 1.0),), (), ()).validate()
    with pytest.raises(ValueError):
        canonical_sdp((2,), ((0, 0, 2, 1.0),), (), ()).validate()
    with pytest.raises(ValueError):
        canonical_sdp((2,), (), ((),), (0.0,)).validate()
    with pytest.raises(ValueError):
        canonical_sdp((2,), (), (((0, 0, 0, 1.0),),), (0.0, 1.0)).validate()
    zeros = np.zeros(2, dtype=np.int64)
    for k in (-1, 2):
        bad_k = CanonicalSdp((2,), np.zeros(1), np.array([1, k]), zeros, zeros, zeros, np.ones(2))
        with pytest.raises(ValueError, match=f"matrix index {k} out of range 0..1"):
            bad_k.validate()


def test_max_iter_status_when_budget_too_small():
    rng = np.random.default_rng(5)
    prob, _, _ = random_instance(rng, (3,), 2)
    sol = solve_canonical(prob, SolverConfig(max_iters=2))
    assert sol.status == "max_iter"
    assert sol.iterations == 2


def test_solution_json_fields():
    prob = canonical_sdp(
        block_sizes=(1,),
        c_entries=((0, 0, 0, 1.0),),
        a_entries=(((0, 0, 0, 1.0),),),
        b=(1.0,),
    )
    sol = solve_canonical(prob)
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - 1.0) < 1e-8
    assert set(sol.residuals) == {"gap", "primal", "dual"}


def mixed_instance(seed, sizes, m, untouched, no_c):
    """A strictly feasible pair over blocks of mixed, repeated sizes.

    Each constraint touches a random subset of the blocks.  Block untouched
    appears in no constraint; block no_c has no objective entries (its dual
    slack is -sum_i y_i A_i, made positive definite by the choice of A_i).
    """
    rng = np.random.default_rng(seed)

    def rand_psd(s):
        q = rng.normal(size=(s, s))
        return q @ q.T + 0.5 * np.eye(s)

    nb = len(sizes)
    y_star = rng.normal(size=m)
    x_star = [rand_psd(s) for s in sizes]
    rows = []
    for i in range(m):
        touched = [blk for blk in range(nb) if blk != untouched and rng.random() < 0.5]
        if i % 2 == 0 and no_c not in touched:
            touched.append(no_c)
        row = {}
        for blk in sorted(touched):
            s = sizes[blk]
            if blk == no_c:
                row[blk] = -y_star[i] * rand_psd(s)
            else:
                w = rng.normal(size=(s, s))
                row[blk] = 0.5 * (w + w.T)
        rows.append(row)
    s_star = [rand_psd(s) for s in sizes]
    s_star[no_c] = -sum(y_star[i] * row[no_c] for i, row in enumerate(rows) if no_c in row)
    c_mats = [s.copy() for s in s_star]
    for yi, row in zip(y_star, rows):
        for blk, w in row.items():
            c_mats[blk] += yi * w
    b = tuple(float(sum(np.tensordot(w, x_star[blk]) for blk, w in row.items())) for row in rows)
    return canonical_sdp(
        block_sizes=tuple(sizes),
        c_entries=tuple(e for blk, cm in enumerate(c_mats) if blk != no_c
                        for e in entries_from_matrix(blk, cm)),
        a_entries=tuple(tuple(e for blk, w in row.items() for e in entries_from_matrix(blk, w))
                        for row in rows),
        b=b,
    )


# (seed, sizes, m, untouched block, block without C entries) and the
# outcome recorded with the per-block solver that preceded size classes:
# primal objective, dual objective, iterations
MIXED_GOLDEN = [
    ((11, (3, 1, 2, 1, 3, 1, 2, 1), 6, 3, 4),
     (-13.394693433362844, -13.394693554691239, 11)),
    ((12, (1, 1, 4, 2, 1, 4, 2, 1, 1, 3), 9, 7, 2),
     (-2.8794137814678464, -2.879413788155666, 12)),
    ((13, (2, 2, 2, 1, 1, 5, 1), 7, 5, 0),
     (36.279811146511726, 36.27981106900161, 10)),
]


@pytest.mark.parametrize("case, golden", MIXED_GOLDEN)
def test_mixed_block_sizes_match_recorded_outcomes(case, golden):
    prob = mixed_instance(*case)
    sol = solve_canonical(prob)
    pobj, dobj, iters = golden
    assert sol.status == "optimal"
    assert abs(sol.primal_obj - pobj) <= 1e-7 * (1 + abs(pobj))
    assert abs(sol.dual_obj - dobj) <= 1e-7 * (1 + abs(dobj))
    assert abs(sol.iterations - iters) <= 1
    assert sol.events == []


def test_blocks_come_back_in_block_order():
    prob = mixed_instance(*MIXED_GOLDEN[1][0])
    sizes = prob.block_sizes
    sol = solve_canonical(prob)
    assert [x.shape for x in sol.x_blocks] == [(s, s) for s in sizes]
    assert [s.shape for s in sol.s_blocks] == [(s, s) for s in sizes]
    # feasibility recomputed block by block pins every block to its index
    a_mats = [dense_from_entries(sizes, row) for row in entry_rows(prob)[1:]]
    for arow, bi in zip(a_mats, prob.b):
        got = sum(np.tensordot(ab, xb) for ab, xb in zip(arow, sol.x_blocks))
        assert abs(got - bi) <= 1e-6 * (1 + abs(bi))
    c_mats = dense_from_entries(sizes, entry_rows(prob)[0])
    for blk in range(len(sizes)):
        resid = c_mats[blk] - sol.s_blocks[blk] - sum(
            yi * arow[blk] for yi, arow in zip(sol.y, a_mats))
        assert np.abs(resid).max() <= 1e-6 * (1 + np.abs(c_mats[blk]).max())


def test_step_length_is_zero_for_stack_with_non_pd_member():
    rng = np.random.default_rng(3)
    x = np.stack([np.eye(3), np.diag([1.0, -1.0, 2.0]), 2 * np.eye(3)])
    s = np.stack([np.eye(3)] * 3)
    dx = rng.normal(size=(3, 3, 3))
    # the factors report a failure within the errstate the solver calls them in
    with _lapack_errors():
        assert _cholesky(x) is None
        assert _step_lengths(_inverse_factors(x, s), dx + dx.swapaxes(1, 2), np.zeros((3, 3, 3)))[0] == 0.0
        one = np.array([1.0, 0.0, 2.0]).reshape(3, 1, 1)
        ones = np.ones((3, 1, 1))
        assert _step_lengths(_inverse_factors(one, ones), ones, ones)[0] == 0.0
    # the same stack without the bad member gets a positive step
    assert _step_lengths(_inverse_factors(x[[0, 2]], s[:2]), np.zeros((2, 3, 3)), np.zeros((2, 3, 3))) == (
        np.inf, np.inf)


def test_step_length_on_1x1_stack_is_ratio_test():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, s = rng.uniform(0.1, 2.0, size=(2, 7))
        dx, ds = rng.normal(size=(2, 7))
        alphas = _step_lengths(_inverse_factors(x.reshape(7, 1, 1), s.reshape(7, 1, 1)),
                               dx.reshape(7, 1, 1), ds.reshape(7, 1, 1))
        for v, dv, alpha in zip((x, s), (dx, ds), alphas):
            # on the half-line the largest alpha with v + alpha dv >= 0 is -1/min(dv/v)
            lam = (dv / v).min()
            if lam >= 0:
                assert alpha == np.inf
                continue
            assert alpha == pytest.approx(-1.0 / lam, rel=1e-12)
            assert (v + alpha * dv).min() == pytest.approx(0.0, abs=1e-12)
    ones = np.ones((2, 1, 1))
    assert _step_lengths(_inverse_factors(ones, ones), ones, ones) == (np.inf, np.inf)


def separate_step_length(v, dv):
    """The step test of one stack by its own Cholesky factor and triangular solves."""
    lo = np.linalg.cholesky(v)
    w = np.linalg.solve(lo, np.linalg.solve(lo, dv).swapaxes(-1, -2))
    lam = float(np.linalg.eigvalsh(0.5 * (w + w.swapaxes(-1, -2))).min())
    return np.inf if lam >= -1e-14 else -1.0 / lam


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_stacked_step_test_matches_separate_tests(size):
    rng = np.random.default_rng(41 + size)
    for nb in (1, 4):
        x, s = (np.stack(random_pd_blocks(rng, [size] * nb)) for _ in range(2))
        dx, ds = (rng.normal(size=(nb, size, size)) for _ in range(2))
        dx, ds = dx + dx.swapaxes(1, 2), ds + ds.swapaxes(1, 2)
        # a negative definite member makes both bounds finite
        dx[0] -= 10 * np.eye(size)
        ds[-1] -= 10 * np.eye(size)
        got = _step_lengths(_inverse_factors(x, s), dx, ds)
        want = separate_step_length(x, dx), separate_step_length(s, ds)
        assert np.isfinite(want).all()
        assert got == pytest.approx(want, rel=1e-12)


def test_x_not_pd_gives_primal_step_zero_and_a_finite_dual_step():
    rng = np.random.default_rng(43)
    x = np.stack([np.eye(3), np.diag([1.0, -1.0, 2.0])])
    s = np.stack(random_pd_blocks(rng, [3, 3]))
    ds = rng.normal(size=(2, 3, 3))
    ds = ds + ds.swapaxes(1, 2)
    with _lapack_errors():
        linv = _inverse_factors(x, s)
        assert linv.shape == (2, 3, 3)  # S's half only
        primal, dual = _step_lengths(linv, np.zeros((2, 3, 3)), ds)
        assert primal == 0.0
        assert np.isfinite(dual) and dual == pytest.approx(separate_step_length(s, ds), rel=1e-12)
        # S not positive definite: no factors at all
        assert _inverse_factors(s, x) is None


def failing_cholesky(monkeypatch, fails):
    """Make tssos.solver._cholesky return None for the calls fails(call, stack) picks."""
    real = tssos.solver._cholesky
    calls = []

    def patched(stack):
        calls.append(stack.shape)
        return None if fails(len(calls), stack) else real(stack)

    monkeypatch.setattr(tssos.solver, "_cholesky", patched)
    return calls


def test_s_not_pd_ends_numerical_with_stop_event(monkeypatch):
    prob = mixed_instance(*MIXED_GOLDEN[0][0])
    classes = len(_Layout(prob).classes)
    # from the third iteration on every factorization fails
    failing_cholesky(monkeypatch, lambda call, stack: call > 2 * classes)
    sol = solve_canonical(prob)
    assert sol.status == "numerical"
    assert {"event": "stop", "rule": "s_not_pd", "iter": 3} in sol.events


def test_x_not_pd_in_one_iteration_does_not_stop_the_run(monkeypatch):
    prob = mixed_instance(*MIXED_GOLDEN[0][0])
    classes = len(_Layout(prob).classes)
    # the stacked factorization of the first class fails in the third iteration;
    # S alone still factors, so only that iteration's primal step is lost
    calls = failing_cholesky(monkeypatch, lambda call, stack: call == 2 * classes + 1)
    sol = solve_canonical(prob)
    assert sol.status == "optimal"
    assert not [ev for ev in sol.events if ev["event"] == "stop"]
    # one extra call: S of the failed class on its own
    assert len(calls) == classes * (sol.iterations - 1) + 1


def test_size_classes_split_by_constraint_count():
    # four 1x1 blocks and one 2x2 block; block 0 is touched by nine
    # constraints, blocks 1-3 by one each, block 4 by none
    a_entries = tuple(((0, 0, 0, 1.0), (1 + i % 3, 0, 0, 1.0)) if i < 3 else ((0, 0, 0, float(i)),)
                      for i in range(9))
    prob = canonical_sdp((1, 1, 1, 1, 2), ((4, 0, 1, 1.0),), a_entries, (1.0,) * 9)
    lay = _Layout(prob)
    got = sorted((cl.size, tuple(cl.blocks), cl.rows.shape[1]) for cl in lay.classes)
    assert got == [(1, (0,), 9), (1, (1, 2, 3), 1), (2, (4,), 0)]
    for cl in lay.classes:
        counts = (cl.rows < prob.n_constraints).sum(axis=1)
        assert cl.rows.shape[1] <= 2 * max(counts.min(), 1)


def test_stop_rule_is_recorded_as_event():
    rng = np.random.default_rng(5)
    prob, _, _ = random_instance(rng, (3,), 2)
    sol = solve_canonical(prob, SolverConfig(max_iters=2))
    assert {"event": "stop", "rule": "max_iters", "iter": 2} in sol.events
    one = canonical_sdp((1,), ((0, 0, 0, 1.0),), (((0, 0, 0, 1.0),),), (1.0,))
    sol = solve_canonical(one)
    assert sol.status == "optimal"
    assert not [ev for ev in sol.events if ev["event"] == "stop"]


def test_schur_jitter_is_recorded_as_event(monkeypatch):
    # potrf fails once, in the first iteration, so one rung of jitter is taken
    real, calls = lapack.dpotrf, []

    def failing_once(*args, **kwargs):
        calls.append(1)
        lo, info = real(*args, **kwargs)
        return lo, (1 if len(calls) == 1 else info)

    monkeypatch.setattr(tssos.solver.lapack, "dpotrf", failing_once)
    prob, _, _ = random_instance(np.random.default_rng(5), (3,), 2)
    sol = solve_canonical(prob)
    assert sol.status == "optimal"
    jitters = [ev["max"] for ev in sol.events if ev["event"] == "schur_jitter"]
    assert len(jitters) == 1 and jitters[0] > 0
    # one factor per iteration but the last, which only checks convergence,
    # and the failed one
    assert len(calls) == (sol.iterations - 1) + 1


def repeated_constraint_instance(b):
    """min X11 + X22 over 2x2 X >= 0 with X11 = b[0] and X11 = b[1]."""
    return canonical_sdp(
        block_sizes=(2,),
        c_entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)),
        a_entries=(((0, 0, 0, 1.0),), ((0, 0, 0, 1.0),)),
        b=b,
    )


def test_repeated_constraint_is_dropped_by_presolve():
    # the repeated row would make the Schur complement singular for every X and S
    sol = solve_canonical(repeated_constraint_instance((1.0, 1.0)))
    assert sol.status == "optimal"
    assert sol.events == [{"event": "presolve", "dropped": 1}]
    assert abs(sol.primal_obj - 1.0) < 1e-7
    # the dropped row's multiplier is 0, the kept one carries the dual
    assert sol.y.shape == (2,) and sol.y[1] == 0.0 and abs(sol.y[0] - 1.0) < 1e-6


def test_inconsistent_repeated_constraint_is_infeasible():
    sol = solve_canonical(repeated_constraint_instance((1.0, 2.0)))
    assert sol.status == "infeasible" and sol.iterations == 0
    assert sol.events == [{"event": "stop", "rule": "inconsistent_rows", "iter": 0, "rows": [1]}]


def dense_rows(prob):
    """A as a dense (m, cells) matrix whose row products are <A_i, A_j>."""
    cells = {}
    cols = []
    for i, row in enumerate(entry_rows(prob)[1:]):
        for blk, r, c, v in row:
            j = cells.setdefault((blk, r, c), len(cells))
            cols.append((i, j, v if r == c else math.sqrt(2.0) * v))
    a = np.zeros((prob.n_constraints, len(cells)))
    for i, j, v in cols:
        a[i, j] += v
    return a


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("constraint", ["unit_ball", "unit_hypercube"])
def test_presolved_rows_have_full_rank(constraint, order, k):
    n = 3
    pop = PopProblem(bench.gen_rosenbrock(n), bench.constraint_set(constraint, n))
    seq = iterate_constrained(pop, generator_bases(pop, order), k=k)
    prob = assemble(pop, [maximal_cliques(g) for g in seq.at(k)]).canonical()[0]
    m = prob.n_constraints
    dropped, inconsistent = tssos.solver._dependent_rows(prob, 1e-8)
    assert len(inconsistent) == 0
    # exactly the rank deficiency is dropped, and what is left has full row rank
    assert np.linalg.matrix_rank(dense_rows(prob)) == m - len(dropped)
    reduced = tssos.solver._without_rows(prob, dropped)
    assert reduced.n_constraints == m - len(dropped)
    assert np.linalg.matrix_rank(dense_rows(reduced)) == reduced.n_constraints
    # the ball's localizing rows repeat each other; the hypercube's do not
    assert (len(dropped) > 0) == (constraint == "unit_ball")


@pytest.mark.parametrize("n, dropped", [(8, 42), (10, 72)])
def test_ball_relaxations_need_no_schur_jitter(n, dropped):
    pop = bench.generate(bench.BenchSpec("gen_rosenbrock", n, constraint="unit_ball"))
    rel = bench.build_relaxation(pop, bench.RunOptions(order=2))
    sol = solve_canonical(assemble(pop, rel.cliques(1)).canonical()[0])
    assert sol.status == "optimal"
    assert sol.events == [{"event": "presolve", "dropped": dropped}]


def reference_schur(prob, x_blocks, sinv_blocks):
    """The dense product form sum_b <A_j, X A_i S^{-1}>, symmetrized."""
    m = prob.n_constraints
    full = np.zeros((m, m))
    for blk, s in enumerate(prob.block_sizes):
        touching = [(i, dense_from_entries(prob.block_sizes, [e for e in row if e[0] == blk])[blk])
                    for i, row in enumerate(entry_rows(prob)[1:]) if any(e[0] == blk for e in row)]
        for i, ai in touching:
            t = x_blocks[blk] @ ai @ sinv_blocks[blk]
            for j, aj in touching:
                full[j, i] += np.vdot(aj, t)
    return 0.5 * (full + full.T)


def random_pd_blocks(rng, sizes):
    out = []
    for s in sizes:
        q = rng.normal(size=(s, s))
        out.append(0.5 * (q @ q.T + s * np.eye(s) + (q @ q.T + s * np.eye(s)).T))
    return out


def class_stacks(lay, blocks):
    return [np.stack([blocks[b] for b in cl.blocks]) for cl in lay.classes]


def symmetric(lower):
    """The symmetric matrix whose lower triangle is lower's, formed without rounding."""
    low = np.tril(lower)
    return low + np.tril(low, -1).T


def build(lay, xs, sinvs):
    """Run lay's Schur build, which returns nothing, and give M's (m, m) array, lay.mat.full."""
    assert lay.schur(xs, sinvs) is None
    return lay.mat.full


def natural_lower(lay, got):
    """The lower triangle of the M that lay built, its rows read back into constraint order."""
    rank = np.argsort(lay.mat.order)
    return np.tril(symmetric(got)[np.ix_(rank, rank)])


def localizing_instance():
    """A constrained relaxation: moment cliques plus many-term localizing blocks."""
    n = 3
    pop = PopProblem(bench.broyden_tridiagonal(n), bench.constraint_set("unit_ball", n))
    seq = iterate_constrained(pop, generator_bases(pop, 3), k=1)
    return assemble(pop, [maximal_cliques(g) for g in seq.at(1)]).canonical()[0]


def dense_banded_instance():
    """broyden_banded n=5 on the full degree-3 basis: one 56x56 block, m=461."""
    f = bench.broyden_banded(5)
    return assemble(PopProblem(f), [CliqueDecomposition.whole(standard_basis(5, 3))]).canonical()[0]


SCHUR_CASES = {
    "mixed": lambda: mixed_instance(*MIXED_GOLDEN[1][0]),
    "localizing": localizing_instance,
    "dense_banded": dense_banded_instance,
}


@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_schur_matches_dense_product_form(case):
    prob = SCHUR_CASES[case]()
    rng = np.random.default_rng(17)
    xb = random_pd_blocks(rng, prob.block_sizes)
    sb = random_pd_blocks(rng, prob.block_sizes)
    lay = _Layout(prob)
    got = build(lay, class_stacks(lay, xb), class_stacks(lay, sb))
    want = reference_schur(prob, xb, sb)
    # M is the lower triangle (the strict upper one holds no part of M);
    # mirrored and read in constraint order, it is the symmetrized product form
    mirrored = symmetric(natural_lower(lay, got))
    assert np.abs(mirrored - want).max() <= 1e-12 * np.abs(want).max()


def test_schur_cases_cover_the_block_kinds():
    mixed = SCHUR_CASES["mixed"]()
    assert 1 in mixed.block_sizes
    touched = {e[0] for row in entry_rows(mixed)[1:] for e in row}
    assert len(touched) < len(mixed.block_sizes)  # an untouched block
    loc = SCHUR_CASES["localizing"]()
    touching = Counter(b for row in entry_rows(loc)[1:] for b in {e[0] for e in row})
    widths = Counter((i, e[0]) for i, row in enumerate(entry_rows(loc)[1:]) for e in row)
    # a block touched by most constraints, with constraint matrices of many entries
    assert max(touching.values()) >= 50 and max(widths.values()) >= 5
    dense = SCHUR_CASES["dense_banded"]()
    assert dense.block_sizes == (56,) and dense.n_constraints == 461


@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_constraint_norms_match_the_entry_loop(case):
    prob = SCHUR_CASES[case]()
    want = [math.sqrt(sum(v * v * (1.0 if r == c else 2.0) for _, r, c, v in row))
            for row in entry_rows(prob)[1:]]
    assert _constraint_norms(prob).tolist() == want


@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_transpose_permutation_mirrors_every_block(case):
    lay = _Layout(SCHUR_CASES[case]())
    n = len(lay.c)
    perm = lay.transpose
    # an involution taking entry (b, i, j) of each class's stack to (b, j, i)
    assert np.array_equal(perm[perm], np.arange(n))
    for at, mirror in zip(lay.stacks(np.arange(n)), lay.stacks(perm)):
        assert np.array_equal(mirror, at.swapaxes(1, 2))
    # so the flat symmetrization is the stacks' own, bit for bit, whatever
    # the scratch held
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = rng.normal(size=n) * 10.0 ** rng.integers(-5, 5, size=n)
        want = [0.5 * (v + v.swapaxes(-1, -2)) for v in lay.stacks(a)]
        lay.symmetrize(a, np.full(n, np.nan))
        assert all(got.tobytes() == w.tobytes() for got, w in zip(lay.stacks(a), want))


@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_constraint_maps_are_adjoint(case):
    prob = SCHUR_CASES[case]()
    rng = np.random.default_rng(5)
    lay = _Layout(prob)
    # V flat, its classes' (nb, s, s) stacks side by side in a's columns
    vs = rng.normal(size=len(lay.c))
    y = rng.normal(size=prob.n_constraints)
    lhs = float((lay.a @ vs) @ y)
    rhs = float(np.vdot(vs, lay.at_map(y, np.empty_like(vs))))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    # A^T, A's arrays read as CSC, adds each column's terms in the order a
    # CSR copy of A^T does: the products agree bit for bit, also into a
    # buffer holding stale values
    for _ in range(20):
        y = rng.normal(size=prob.n_constraints)
        got = lay.at_map(y, np.full(len(lay.c), np.nan))
        assert got.tobytes() == (lay.a.T.tocsr() @ y).tobytes()
    # and A matches the entries themselves
    blocks = lay.unstack(vs)
    assert [stack.shape for stack in lay.stacks(vs)] == [cl.c.shape for cl in lay.classes]
    got = lay.a @ vs
    for i, row in enumerate(entry_rows(prob)[1:]):
        mats = dense_from_entries(prob.block_sizes, row)
        assert got[i] == pytest.approx(
            sum(float(np.vdot(a, v)) for a, v in zip(mats, blocks)), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_chunked_schur_equals_unchunked(case, monkeypatch):
    prob = SCHUR_CASES[case]()
    rng = np.random.default_rng(23)
    xb = random_pd_blocks(rng, prob.block_sizes)
    sb = random_pd_blocks(rng, prob.block_sizes)
    whole = _Layout(prob)
    monkeypatch.setattr(tssos.solver, "SCHUR_CHUNK_BYTES", 1)
    cut = _Layout(prob)
    # one (block, constraint) pair per chunk wherever a block has two or more
    assert sum(len(cl.chunks) for cl in cut.classes) > sum(len(cl.chunks) for cl in whole.classes)
    got = build(cut, class_stacks(cut, xb), class_stacks(cut, sb))
    want = build(whole, class_stacks(whole, xb), class_stacks(whole, sb))
    # the two may number M's rows differently: one by a block's slots
    assert np.array_equal(natural_lower(cut, got), natural_lower(whole, want))


@pytest.mark.parametrize("chunk_bytes", [None, 1])
@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_schur_cells_match_the_held_index_build(case, chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(tssos.solver, "SCHUR_CHUNK_BYTES", chunk_bytes)
    prob = SCHUR_CASES[case]()
    rng = np.random.default_rng(37)
    lay = _Layout(prob)
    lay.mat.cells[:] = np.nan  # stale: the build zeroes what it adds into
    xs, ss = (class_stacks(lay, random_pd_blocks(rng, prob.block_sizes)) for _ in range(2))
    want = held_index_schur(lay, xs, ss)
    assert not np.triu(want, 1).any()
    got = build(lay, xs, ss)
    assert np.array_equal(natural_lower(lay, got), np.tril(want))


# a budget at which every block of mixed and localizing touched by more
# than a few constraints is cut into slot ranges
SLOT_BUDGET = 1 << 12


@pytest.mark.parametrize("chunk_bytes", [None, SLOT_BUDGET])
@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_slot_order_schur_is_the_natural_one_permuted(case, chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(tssos.solver, "SCHUR_CHUNK_BYTES", chunk_bytes)
    prob = SCHUR_CASES[case]()
    rng = np.random.default_rng(41)
    lay = _Layout(prob)
    ranged = {b for cl in lay.classes for ch in cl.chunks
              if ch.slots != slice(0, cl.rows.shape[1]) for b in cl.blocks[ch.blocks]}
    # the dense block is too wide for one chunk at every budget; mixed and
    # localizing only at the smaller one
    assert bool(ranged) == (case == "dense_banded" or chunk_bytes is not None)
    assert (lay.mat.frame is not None) == bool(ranged)
    order = lay.mat.order
    if not ranged:
        assert order.tolist() == list(range(prob.n_constraints))
    else:
        # M's first rows are the constraints of the ranged block touched by
        # most constraints, and its chunks alone add in strips of M
        touching = Counter(b for row in entry_rows(prob)[1:] for b in {e[0] for e in row})
        widest = min(ranged, key=lambda b: (-touching[b], b))
        assert sorted(order[:touching[widest]]) == [
            i for i, row in enumerate(entry_rows(prob)[1:]) if any(e[0] == widest for e in row)]
        for cl in lay.classes:
            for ch in cl.chunks:
                on_widest = cl.blocks[ch.blocks].tolist() == [widest]
                assert (ch.tt is None) == on_widest
                assert np.shares_memory(ch.to, lay.mat.cells) == on_widest
    lay.mat.cells[:] = np.nan
    xs, ss = (class_stacks(lay, random_pd_blocks(rng, prob.block_sizes)) for _ in range(2))
    natural = symmetric(held_index_schur(lay, xs, ss))
    got = build(lay, xs, ss)
    assert np.array_equal(np.tril(got), np.tril(natural[np.ix_(order, order)]))
    # no pair lands above M's diagonal: a strip's cells there, the pairs
    # below the slot diagonal, keep their stale NaN
    for cl in lay.classes:
        for ch in cl.chunks:
            if ch.tt is None:
                above = np.tri(*ch.to.shape, k=-1, dtype=bool)
                assert np.isnan(ch.to[above]).all() and np.isfinite(ch.to[~above]).all()


def chunk_dims(cl, ch):
    """The (nb, kc, kk, s, kr, strip) of a chunk, as _chunk_footprint takes them."""
    nb, kc, kk = ch.v.shape[:3]
    return nb, kc, kk, cl.size, ch.w.shape[0] // nb, ch.tt is None


def planned_bytes(cl, ch):
    """What a chunk's build touches besides w and the stacks, in bytes: footprint, index, gather tables."""
    footprint = sum(tssos.solver._chunk_footprint(*chunk_dims(cl, ch)))
    held = 0 if ch.tt is None else ch.to.nbytes
    return 8 * footprint + held + sum(a.nbytes for a in (ch.xrow, ch.srow, ch.v))


VIEWS = ("xg", "sg", "t", "tt", "out")


@pytest.mark.parametrize("chunk_bytes", [None, SLOT_BUDGET])
@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_chunk_views_lie_side_by_side_in_the_arena(case, chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(tssos.solver, "SCHUR_CHUNK_BYTES", chunk_bytes)
    prob = SCHUR_CASES[case]()
    lay = _Layout(prob)
    lo = lay.arena.__array_interface__["data"][0]
    hi = lo + lay.arena.nbytes
    most = held = 0
    for cl in lay.classes:
        # the arena is sized before the chunks, each at its class's widest pair
        wide = max((ch.v.shape[2] for ch in cl.chunks), default=0)
        for ch in cl.chunks:
            views = [(name, getattr(ch, name)) for name in VIEWS if getattr(ch, name) is not None]
            # a strip chunk, whose readout lands in M itself, has no T transposed
            strip = np.shares_memory(ch.to, lay.mat.cells)
            assert len(views) == (4 if strip else 5)
            for name, a in views:
                start = a.__array_interface__["data"][0]
                assert lo <= start and start + a.nbytes <= hi, name
            for (n1, a1), (n2, a2) in itertools.combinations(views, 2):
                assert not np.shares_memory(a1, a2), (n1, n2)
            # a chunk but a strip holds one index, outside the arena, a cell
            # of M's buffer for each pair of its readout
            if not strip:
                assert ch.to.shape == ch.out.shape and ch.to.dtype == cl.rows.dtype
                assert not np.shares_memory(ch.to, lay.arena)
                held += ch.to.size
            nb, kc, _, s, kr, strip = chunk_dims(cl, ch)
            most = max(most, sum(tssos.solver._chunk_footprint(nb, kc, wide, s, kr, strip)))
    # the arena is the largest footprint; the memory estimate counts it and
    # at least the indices held (chunks of untouched blocks hold none)
    assert lay.arena.size == most
    terms = []
    real = tssos.solver._working_set
    monkeypatch.setattr(tssos.solver, "_working_set", lambda *a: terms.append(real(*a)) or terms[-1])
    tssos.solver._layout_bytes(prob.n_constraints, tssos.solver._plan(prob))
    assert len(terms) == 1 and terms[0][0] == most and terms[0][1] >= held


# 1 << 18: localizing's widest class in two chunks, its layout peak closest
# to the bound, the transient of forming the largest held index included
@pytest.mark.parametrize("chunk_bytes", [1, 1 << 12, 1 << 16, 1 << 18, None])
@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_no_chunk_past_the_budget_but_a_single_pair(case, chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(tssos.solver, "SCHUR_CHUNK_BYTES", chunk_bytes)
    budget = tssos.solver.SCHUR_CHUNK_BYTES
    prob = SCHUR_CASES[case]()
    m = prob.n_constraints
    bound = tssos.solver._layout_bytes(m, tssos.solver._plan(prob))
    # M's buffer is allocated before tracing starts and handed to the layout,
    # so the peak is the layout's alone, before M exists and after
    bufs = [np.empty(m * m + 1)]
    real = np.empty
    monkeypatch.setattr(np, "empty", lambda shape, *a, **k: bufs.pop() if shape == m * m + 1 and bufs
                        else real(shape, *a, **k))
    tracemalloc.start()
    try:
        lay = _Layout(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(np, "empty", real)
    assert not bufs
    for cl in lay.classes:
        for ch in cl.chunks:
            nb, kc = ch.v.shape[:2]
            assert nb * kc == 1 or planned_bytes(cl, ch) <= budget, (nb, kc, planned_bytes(cl, ch))
    # the memory estimate plans the same chunks, each at least as wide, and
    # bounds all the layout allocates besides M's buffer, the indices too
    assert peak <= bound, (peak, bound)


def many_constraints_instance():
    """1000 constraints over 300 blocks of size 1 to 4, two blocks per constraint."""
    rng = np.random.default_rng(3)
    m, sizes = 1000, tuple(int(s) for s in rng.integers(1, 5, size=300))
    a_entries = []
    for _ in range(m):
        row = []
        for blk in sorted(rng.choice(len(sizes), size=2, replace=False)):
            r, c = sorted(rng.integers(0, sizes[blk], size=2))
            row.append((int(blk), int(r), int(c), 1.0))
        a_entries.append(tuple(row))
    return canonical_sdp(sizes, (), tuple(a_entries), (0.0,) * m)


@pytest.mark.parametrize("make", [many_constraints_instance, dense_banded_instance])
def test_schur_holds_one_m_by_m_array_and_one_chunk(make, monkeypatch):
    monkeypatch.setattr(tssos.solver, "SCHUR_CHUNK_BYTES", 1 << 20)
    prob = make()
    m = prob.n_constraints
    rng = np.random.default_rng(3)
    xb = random_pd_blocks(rng, prob.block_sizes)
    sb = random_pd_blocks(rng, prob.block_sizes)
    rhs = rng.normal(size=m)
    tracemalloc.start()
    try:
        lay = _Layout(prob)
        schur = build(lay, class_stacks(lay, xb), class_stacks(lay, sb))
        lay.mat.factor()
        lay.mat.solve(rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense block is cut into slot ranges: M is numbered by its slots
    assert (lay.mat.frame is not None) == (make is dense_banded_instance)
    assert schur.shape == (m, m) and np.shares_memory(schur, lay.mat.cells)
    # each chunk holds its index, nb*kr*kc entries outside the arena, or
    # adds its readout in a strip of M and holds none
    for cl in lay.classes:
        for ch in cl.chunks:
            nb, kc = ch.v.shape[:2]
            if ch.tt is not None:
                assert ch.to.shape == (nb, ch.w.shape[0] // nb, kc)
                assert not np.shares_memory(ch.to, lay.arena)
                assert not np.shares_memory(ch.to, lay.mat.cells)
            else:
                assert np.shares_memory(ch.to, lay.mat.cells)
    # M's one buffer, plus one chunk and the layout's smaller arrays
    assert peak <= m * m * 8 + 2 * (1 << 20), peak / (m * m * 8)


@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_schur_builds_form_no_index(case, monkeypatch):
    prob = SCHUR_CASES[case]()
    rng = np.random.default_rng(53)
    lay = _Layout(prob)
    xs, ss = (class_stacks(lay, random_pd_blocks(rng, prob.block_sizes)) for _ in range(2))
    want = np.tril(build(_Layout(prob), xs, ss))

    def forbidden(*args):
        raise AssertionError("a scatter index formed after the layout")

    # the indices are formed with the layout and held: no build forms one
    monkeypatch.setattr(_Schur, "cells_of", forbidden)
    for _ in range(2):
        assert np.array_equal(np.tril(build(lay, xs, ss)), want)


def test_cell_map_by_hand():
    # m = 5, M's rows numbered by a lead: constraint c is M's row row_of[c]
    mat = _Schur(5, np.array([3, 1]))
    assert mat.order.tolist() == [1, 3, 0, 2, 4]
    assert mat.row_of.tolist() == [2, 0, 3, 1, 4]
    # two blocks of M's rows, three slots each, the second padded with m;
    # the chunk's slots are 1..3, so its readout rows are slots 1 and 2
    rows = np.array([[4, 3, 1], [2, 0, 5]], dtype=_index_dtype(5))
    cells = mat.cells_of(rows, 1, 3)
    spare = 5 * 5
    # cells[b, j - 1, i - 1] for readout slot j and chunk slot i of block b
    want = [[[3 * 5 + 3, spare],  # (j, i) = (1, 2) is formed as (2, 1)
             [3 * 5 + 1, 1 * 5 + 1]],  # rows 1 and 3: max * m + min
            [[0, spare],
             [spare, spare]]]  # a padding slot touches nothing
    assert cells.tolist() == want
    assert cells.dtype == np.int32 and rows.tolist() == [[4, 3, 1], [2, 0, 5]]
    # the chunk of slot 2 alone: its one readout row is slot 2
    assert mat.cells_of(rows, 2, 3).tolist() == [[[6]], [[spare]]]


def test_index_dtype_is_int32_while_the_spare_cell_fits():
    # the spare cell m*m is the largest index: 46340**2 < 2**31 - 1 < 46341**2
    assert _index_dtype(46340) is np.int32
    assert _index_dtype(46341) is np.int64


def test_schur_build_reads_no_unwritten_bytes(monkeypatch):
    # M's buffer full of signaling NaNs, as a reused heap block may hold:
    # adding into a cell that nothing wrote raises "invalid value"
    prob = dense_banded_instance()
    m = prob.n_constraints
    rng = np.random.default_rng(59)
    real = np.empty

    def stale(shape, *args, **kwargs):
        out = real(shape, *args, **kwargs)
        if shape == m * m + 1:  # M's buffer
            out.view(np.uint64)[:] = 0x7FF0000000000001
        return out

    monkeypatch.setattr(np, "empty", stale)
    lay = _Layout(prob)
    monkeypatch.undo()
    assert lay.mat.cells[-1:].view(np.uint64)[0] == 0x7FF0000000000001
    xs, ss = (class_stacks(lay, random_pd_blocks(rng, prob.block_sizes)) for _ in range(2))
    want = np.tril(build(_Layout(prob), xs, ss))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = build(lay, xs, ss)
    assert np.tril(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("make, plans", [(lambda: mixed_instance(*MIXED_GOLDEN[0][0]), 1),
                                         (lambda: repeated_constraint_instance((1.0, 1.0)), 2)],
                         ids=["mixed", "repeated_constraint"])
def test_layout_planned_once_per_solve(make, plans, monkeypatch):
    calls = []
    real = tssos.solver._plan
    monkeypatch.setattr(tssos.solver, "_plan", lambda prob: calls.append(prob) or real(prob))
    sol = solve_canonical(make())
    assert sol.status == "optimal"
    # the layout is built from the memory check's plan; a problem that the
    # presolve took rows off is planned once more
    assert len(calls) == plans


def test_block_sizes_beyond_int64_are_refused_before_planning(monkeypatch):
    prob = canonical_sdp((int("9" * 25),), (), (((0, 0, 0, 1.0),),), (1.0,))
    monkeypatch.setattr(tssos.solver, "_plan", None)  # nothing may be planned
    with pytest.raises(ValueError, match=r"needs about \d+ MiB \(1 constraints"):
        solve_canonical(prob)


def test_solver_refuses_problem_above_memory_limit(monkeypatch):
    prob = dense_banded_instance()
    monkeypatch.setattr(tssos.solver, "_memory_limit", lambda: 1 << 20)
    monkeypatch.setattr(tssos.solver, "_Layout", None)  # nothing may be built
    with pytest.raises(ValueError, match=r"needs about \d+ MiB \(461 constraints"):
        solve_canonical(prob)


def test_memory_limit_is_physical_memory_or_lower():
    limit = tssos.solver._memory_limit()
    assert 0 < limit <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def test_running_out_of_memory_exits_one_without_a_traceback(capsys, monkeypatch):
    from tssos.cli import main

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setattr(tssos.solver, "_Layout", no_memory)
    ex1 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples_pop", "ex1.pop")
    assert main(["solve", ex1, "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 1.00 GiB for an array\n"


def test_memory_limit_takes_the_mapped_address_space_off_rlimit_as(monkeypatch):
    import resource

    cap = 4 << 30
    monkeypatch.setattr(resource, "getrlimit", lambda which: (cap, resource.RLIM_INFINITY))
    mapped = tssos.solver._mapped_bytes()
    # the interpreter with numpy and scipy already maps far more than 64 MiB
    assert mapped > 64 << 20
    limit = tssos.solver._memory_limit()
    assert 0 < limit < cap - (64 << 20)


def test_schur_complement_factored_once_per_iteration(monkeypatch):
    prob = mixed_instance(*MIXED_GOLDEN[0][0])
    calls = []
    real = _Schur.factor

    def counting(mat):
        out = real(mat)
        calls.append((mat.full.__array_interface__["data"][0], np.shares_memory(mat.lo, mat.full)))
        return out

    monkeypatch.setattr(_Schur, "factor", counting)
    sol = solve_canonical(prob)
    assert sol.status == "optimal"
    # the last iteration only checks convergence
    assert len(calls) == sol.iterations - 1
    # every iteration factors M in M's own buffer, the same one
    assert all(out == calls[0][0] and inside for out, inside in calls)


def test_factor_allocates_little_after_the_first():
    prob = dense_banded_instance()
    m = prob.n_constraints
    rng = np.random.default_rng(3)
    lay = _Layout(prob)
    xs = class_stacks(lay, random_pd_blocks(rng, prob.block_sizes))
    ss = class_stacks(lay, random_pd_blocks(rng, prob.block_sizes))
    lay.schur(xs, ss)
    lay.mat.factor()
    lay.schur(xs, ss)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        factored, _ = lay.mat.factor()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert factored and np.shares_memory(lay.mat.lo, lay.mat.cells)
    assert peak < m * m * 8 / 4, peak / (m * m * 8)


@pytest.mark.parametrize("chunk_bytes", [None, 1])
@pytest.mark.parametrize("case", sorted(SCHUR_CASES))
def test_schur_build_carries_nothing_over_to_the_next(case, chunk_bytes, monkeypatch):
    if chunk_bytes is not None:
        monkeypatch.setattr(tssos.solver, "SCHUR_CHUNK_BYTES", chunk_bytes)
    prob = SCHUR_CASES[case]()
    rng = np.random.default_rng(29)
    first, second = ([random_pd_blocks(rng, prob.block_sizes) for _ in range(2)] for _ in range(2))
    lay = _Layout(prob)
    lay.schur(*(class_stacks(lay, b) for b in first))
    got = build(lay, *(class_stacks(lay, b) for b in second))
    fresh = _Layout(prob)
    want = build(fresh, *(class_stacks(fresh, b) for b in second))
    assert np.array_equal(np.tril(got), np.tril(want))


def test_schur_build_allocates_little_after_the_first():
    prob = dense_banded_instance()
    m = prob.n_constraints
    rng = np.random.default_rng(3)
    lay = _Layout(prob)
    xs = class_stacks(lay, random_pd_blocks(rng, prob.block_sizes))
    ss = class_stacks(lay, random_pd_blocks(rng, prob.block_sizes))
    lay.schur(xs, ss)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lay.schur(xs, ss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # M, its scratch and the chunk intermediates are reused; what is left
    # is one chunk's readout
    assert peak < m * m * 8 / 4, peak / (m * m * 8)


def lower_factor_solve(lo, diag, rhs):
    """_Schur.solve's refinement, passing the lower factor to cho_solve.

    M x is formed as _Schur.solve forms it: symv on the strict upper triangle of
    lo, which holds M's, with M's diagonal in place of the factor's.
    """
    def m_times(x):
        held = np.diag(lo).copy()
        np.fill_diagonal(lo, diag)
        out = blas.dsymv(1.0, lo, x, lower=0)
        np.fill_diagonal(lo, held)
        return out

    x = cho_solve((lo, True), rhs, check_finite=False)
    res = rhs - m_times(x)
    last = np.inf
    for _ in range(tssos.solver.REFINE_PASSES):
        size = np.linalg.norm(res)
        if not size < 0.5 * last:
            break
        x += cho_solve((lo, True), res, check_finite=False)
        last = size
        res = rhs - m_times(x)
    return x


def schur_holding(m, lead=()):
    """A _Schur of M = m, its lower triangle in M's buffer as _Layout.schur leaves it.

    lead numbers M's rows as _Layout's strip block does: given, the solves
    are two trsv calls and M's row i is constraint order[i].
    """
    mat = _Schur(len(m), np.array(lead, dtype=np.intp))
    mat.full[...] = np.tril(m)
    return mat


@pytest.mark.parametrize("singular", [False, True])
def test_factor_in_buffer_and_solve_match_lapack_bitwise(singular):
    rng = np.random.default_rng(31)
    n = 300
    q = rng.normal(size=(n, n - 5 if singular else n))
    m = q @ q.T
    m = 0.5 * (m + m.T)  # exactly symmetric
    if singular:  # indefinite, so that the jitter ladder takes several rungs
        m.flat[:: n + 1] -= 1e-7
    kept = m.copy()
    mat = schur_holding(m)
    factored, jitter = mat.factor()
    lo, diag = mat.lo, mat.diag
    assert factored and (jitter > 0) == singular
    assert np.shares_memory(lo, mat.cells)
    # the factor is potrf's of M + jitter I, and M's triangle is not written
    shifted = kept.copy()
    shifted.flat[:: n + 1] += jitter
    ref, info = lapack.dpotrf(shifted, lower=1)
    assert info == 0
    assert np.array_equal(np.tril(lo), ref)
    assert np.array_equal(np.tril(mat.full, -1), np.tril(kept, -1))
    assert np.array_equal(diag, kept.diagonal())
    rhs = rng.normal(size=n)
    assert np.array_equal(mat.solve(rhs), lower_factor_solve(lo, diag, rhs))


@pytest.mark.parametrize("indefinite", [False, True])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 461])
def test_slot_order_solve_by_trsv_matches_potrs(n, indefinite):
    rng = np.random.default_rng(43)
    # eigenvalues in [1, 2], or one of them -1e-3, which only the last
    # rungs of the jitter ladder lift: a well-conditioned jittered factor
    lam = rng.uniform(1.0, 2.0, size=n)
    if indefinite:
        lam[0] = -1e-3
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    m = (q * lam) @ q.T
    m = 0.5 * (m + m.T)
    # M's row i is constraint order[i]: the lead, last first
    order = rng.permutation(n)
    natural, slotted = schur_holding(m), schur_holding(m, order[::-1])
    assert slotted.order.tolist() == order.tolist()
    for mat in (natural, slotted):
        factored, jitter = mat.factor()
        assert factored and (jitter > 0) == indefinite
    rhs = rng.normal(size=n)
    want = np.empty(n)
    want[order] = natural.solve(rhs[order])
    got = slotted.solve(rhs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_factor_gives_up_past_the_last_rung_without_writing_m():
    mat = schur_holding(-np.eye(4))
    factored, jitter = mat.factor()
    assert not factored and 0 < jitter < 1
    assert np.array_equal(mat.full, -np.eye(4))


@pytest.mark.parametrize("make", [many_constraints_instance, dense_banded_instance, localizing_instance])
def test_solve_peak_is_within_memory_estimate(make):
    prob = make()
    need, _ = tssos.solver._check_memory(prob)
    tracemalloc.start()
    try:
        sol = solve_canonical(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the presolve drops localizing's dependent rows: its Gram matrix is
    # freed before M of the rows kept is allocated
    assert make is not localizing_instance or sol.events[0]["event"] == "presolve"
    assert peak <= need, (peak, need)


@pytest.mark.parametrize("make", [lambda: mixed_instance(*MIXED_GOLDEN[0][0]), localizing_instance,
                                  dense_banded_instance])
def test_iterates_stay_exactly_symmetric(make, monkeypatch):
    # X and S are updated without symmetrizing: dX is symmetrized, and dS
    # is C - A^T(y) - S - A^T(dy), whose every term is exactly symmetric
    seen = []
    real = tssos.solver._inverse_factors

    def checking(x, s):
        seen.append(all(np.array_equal(a, a.swapaxes(-1, -2)) for a in (x, s)))
        return real(x, s)

    monkeypatch.setattr(tssos.solver, "_inverse_factors", checking)
    sol = solve_canonical(make())
    assert sol.status == "optimal"
    # once per class in every iteration but the last, whose iterate is returned
    assert len(seen) >= sol.iterations - 1 and all(seen)
    assert all(np.array_equal(b, b.T) for b in sol.x_blocks + sol.s_blocks)


def test_step_tests_reuse_the_cholesky_factors(monkeypatch):
    from numpy.linalg import _umath_linalg

    prob = mixed_instance(*MIXED_GOLDEN[0][0])
    lay = _Layout(prob)
    calls = failing_cholesky(monkeypatch, lambda call, stack: False)
    counted = {"inv": [], "eigvalsh_lo": []}

    def counting(name):
        real = getattr(_umath_linalg, name)

        def call(a, **kwargs):
            counted[name].append(a.shape)
            return real(a, **kwargs)
        return call

    for name in counted:
        monkeypatch.setattr(_umath_linalg, name, counting(name))
    sol = solve_canonical(prob)
    assert sol.status == "optimal"
    # X and S stacked: one factorization and one inverse of the (2nb, s, s)
    # stack per class in every iteration but the last
    stacked = [(2 * len(cl.blocks), cl.size, cl.size) for cl in lay.classes]
    assert calls == stacked * (sol.iterations - 1)
    assert counted["inv"] == calls
    # and two step tests, one eigvalsh each of the (2nb, s, s) stack W
    assert counted["eigvalsh_lo"] == stacked * 2 * (sol.iterations - 1)


def test_solve_peak_with_large_blocks_is_within_memory_estimate(monkeypatch):
    # with a small chunk budget the block stacks dominate the working set
    monkeypatch.setattr(tssos.solver, "SCHUR_CHUNK_BYTES", 1 << 16)
    sizes = (150, 100)
    c = tuple((b, i, i, 1.0) for b, s in enumerate(sizes) for i in range(s))
    a = tuple(((b, 0, 0, 1.0), (b, 0, 1, 1.0)) for b in range(len(sizes)))
    prob = canonical_sdp(sizes, c, a, (1.0,) * len(sizes))
    need, _ = tssos.solver._check_memory(prob)
    tracemalloc.start()
    try:
        sol = solve_canonical(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak <= need, (peak, need)


def test_readout_matches_the_public_product():
    # _readout calls scipy's private kernel scipy.sparse._sparsetools.csr_matvecs:
    # a scipy release that renames or changes it fails here, not inside a solve
    from scipy import sparse
    from scipy.sparse import _sparsetools

    assert tssos.solver._sparsetools.csr_matvecs is _sparsetools.csr_matvecs
    rng = np.random.default_rng(4)
    w = sparse.random(7, 11, density=0.3, format="csr", random_state=rng)
    t = rng.normal(size=(11, 5))
    out = np.full((7, 5), 123.0)  # stale values from an earlier chunk
    tssos.solver._readout(w, t, out)
    np.testing.assert_allclose(out, w @ t, rtol=1e-14, atol=1e-14)
    # and _readout_by_slot calls its one-vector kernel csr_matvec, slot by
    # slot, on w's rows from that slot on: slot i's row holds w[i:] @ t[:, i]
    # from column i on and 0 before it
    assert tssos.solver._sparsetools.csr_matvec is _sparsetools.csr_matvec
    rows = np.full((5, 7), 123.0)
    tssos.solver._readout_by_slot(w, t.T.copy(), rows)
    for i in range(5):
        np.testing.assert_allclose(rows[i, i:], w[i:] @ t[:, i], rtol=1e-14, atol=1e-14)
    assert not np.tril(rows, -1).any()
    # and _Layout.at_map calls the CSC kernel csc_matvec, held bitwise to
    # the public product by test_constraint_maps_are_adjoint
    assert tssos.solver._sparsetools.csc_matvec is _sparsetools.csc_matvec


def test_lapack_gufuncs_match_the_public_calls():
    # the solver calls numpy.linalg's private gufuncs cholesky_lo, inv and
    # eigvalsh_lo without np.linalg's wrapper: a numpy release that renames
    # or changes them fails here, not inside a solve
    from numpy.linalg import _umath_linalg

    assert tssos.solver._umath_linalg is _umath_linalg
    rng = np.random.default_rng(6)
    for x, s in [(np.full((1, 1, 1), 2.5), np.full((1, 1, 1), 0.3)),
                 tuple(np.stack(random_pd_blocks(rng, [4] * 5)) for _ in range(2))]:
        both = np.concatenate([x, s])
        d = rng.normal(size=both.shape)
        with warnings.catch_warnings(), _lapack_errors():
            warnings.simplefilter("error")
            lo = _cholesky(both)
            linv = _inverse_factors(x, s)
            w = linv @ (d + d.swapaxes(1, 2)) @ linv.swapaxes(1, 2)
            lam = _umath_linalg.eigvalsh_lo(w, signature="d->d")
            bounds = _step_lengths(linv, *np.split(d + d.swapaxes(1, 2), 2))
        assert lo.tobytes() == np.linalg.cholesky(both).tobytes()
        assert linv.tobytes() == np.linalg.inv(lo).tobytes()
        assert lam.tobytes() == np.linalg.eigvalsh(w).tobytes()
        want = [-1.0 / v if v < -1e-14 else np.inf for v in (lam[:len(x), 0].min(), lam[len(x):, 0].min())]
        assert list(bounds) == want
    # a member that is not positive definite: the public call raises, and the
    # gufunc flags it as an invalid value, which the solver's errstate turns
    # into _cholesky's None with no warning
    bad = np.stack([np.eye(3), np.diag([1.0, -1.0, 2.0]), 2 * np.eye(3)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(bad)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert np.isnan(_umath_linalg.cholesky_lo(bad, signature="d->d")[1]).all()
    with warnings.catch_warnings(), _lapack_errors():
        warnings.simplefilter("error")
        assert _cholesky(bad) is None
        assert _inverse_factors(bad, bad) is None
        # and a singular stack raises in the gufunc of inv as in np.linalg.inv
        with pytest.raises(np.linalg.LinAlgError):
            _umath_linalg.inv(np.zeros((2, 3, 3)), signature="d->d")
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.zeros((2, 3, 3)))
