import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import cho_solve, lapack

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
    _inverse_factors,
    _Layout,
    _solve,
    _step_lengths,
    solve_canonical,
)

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


def test_schur_jitter_is_recorded_as_event():
    # a repeated constraint makes the Schur complement singular
    prob = canonical_sdp(
        block_sizes=(2,),
        c_entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)),
        a_entries=(((0, 0, 0, 1.0),), ((0, 0, 0, 1.0),)),
        b=(1.0, 1.0),
    )
    sol = solve_canonical(prob)
    assert sol.status == "optimal"
    jitters = [ev["max"] for ev in sol.events if ev["event"] == "schur_jitter"]
    assert len(jitters) == 1 and jitters[0] > 0


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
    got = lay.schur(class_stacks(lay, xb), class_stacks(lay, sb))
    want = reference_schur(prob, xb, sb)
    assert np.array_equal(got, got.T)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
def test_constraint_maps_are_adjoint(case):
    prob = SCHUR_CASES[case]()
    rng = np.random.default_rng(5)
    lay = _Layout(prob)
    vs = [rng.normal(size=cl.c.shape) for cl in lay.classes]
    y = rng.normal(size=prob.n_constraints)
    lhs = float(lay.a_map(vs) @ y)
    rhs = sum(float(np.vdot(v, w)) for v, w in zip(vs, lay.at_map(y)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    # and A matches the entries themselves
    blocks = lay.unstack(vs)
    got = lay.a_map(vs)
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
    got = cut.schur(class_stacks(cut, xb), class_stacks(cut, sb))
    want = whole.schur(class_stacks(whole, xb), class_stacks(whole, sb))
    assert np.array_equal(got, want)


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
def test_schur_holds_two_m_by_m_arrays_and_one_chunk(make, monkeypatch):
    monkeypatch.setattr(tssos.solver, "SCHUR_CHUNK_BYTES", 1 << 20)
    prob = make()
    m = prob.n_constraints
    rng = np.random.default_rng(3)
    lay = _Layout(prob)
    xs = class_stacks(lay, random_pd_blocks(rng, prob.block_sizes))
    ss = class_stacks(lay, random_pd_blocks(rng, prob.block_sizes))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        schur = lay.schur(xs, ss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert schur.shape == (m, m)
    # M and the copy its in-place symmetrization makes, plus one chunk
    assert peak <= 2.2 * m * m * 8 + (1 << 20), peak / (m * m * 8)


def test_solver_refuses_problem_above_memory_limit(monkeypatch):
    prob = dense_banded_instance()
    monkeypatch.setattr(tssos.solver, "_memory_limit", lambda: 1 << 20)
    monkeypatch.setattr(tssos.solver, "_Layout", None)  # nothing may be built
    with pytest.raises(ValueError, match=r"needs about \d+ MiB \(461 constraints"):
        solve_canonical(prob)


def test_memory_limit_is_physical_memory_or_lower():
    import os

    limit = tssos.solver._memory_limit()
    assert 0 < limit <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def test_schur_complement_factored_once_per_iteration(monkeypatch):
    prob = mixed_instance(*MIXED_GOLDEN[0][0])
    calls = []
    real = tssos.solver._factor

    def counting(m, out):
        lo, jitter = real(m, out)
        calls.append((out, np.shares_memory(lo, out)))
        return lo, jitter

    monkeypatch.setattr(tssos.solver, "_factor", counting)
    sol = solve_canonical(prob)
    assert sol.status == "optimal"
    # the last iteration only checks convergence
    assert len(calls) == sol.iterations - 1
    # every iteration factors into the same buffer
    assert all(out is calls[0][0] and inside for out, inside in calls)


def test_factor_allocates_little_after_the_first():
    prob = dense_banded_instance()
    m = prob.n_constraints
    rng = np.random.default_rng(3)
    lay = _Layout(prob)
    xs = class_stacks(lay, random_pd_blocks(rng, prob.block_sizes))
    ss = class_stacks(lay, random_pd_blocks(rng, prob.block_sizes))
    schur = lay.schur(xs, ss)
    tssos.solver._factor(schur, lay.m_fac)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lo, _ = tssos.solver._factor(schur, lay.m_fac)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert lo is not None and np.shares_memory(lo, lay.m_fac)
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
    got = lay.schur(*(class_stacks(lay, b) for b in second))
    fresh = _Layout(prob)
    assert np.array_equal(got, fresh.schur(*(class_stacks(fresh, b) for b in second)))


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


def lower_factor_solve(m, lo, rhs):
    """_solve's refinement, passing the lower factor to cho_solve."""
    x = cho_solve((lo, True), rhs, check_finite=False)
    res = rhs - m @ x
    last = np.inf
    for _ in range(tssos.solver.REFINE_PASSES):
        size = np.linalg.norm(res)
        if not size < 0.5 * last:
            break
        x += cho_solve((lo, True), res, check_finite=False)
        last = size
        res = rhs - m @ x
    return x


@pytest.mark.parametrize("singular", [False, True])
def test_factor_in_buffer_and_solve_match_lapack_bitwise(singular):
    rng = np.random.default_rng(31)
    n = 300
    q = rng.normal(size=(n, n - 5 if singular else n))
    m = q @ q.T
    m = 0.5 * (m + m.T)  # exactly symmetric, as _Layout.schur leaves M
    if singular:  # indefinite, so that the jitter ladder takes several rungs
        m.flat[:: n + 1] -= 1e-7
    kept = m.copy()
    buf = np.empty_like(m)
    lo, jitter = tssos.solver._factor(m, buf)
    assert (jitter > 0) == singular
    assert np.shares_memory(lo, buf)
    # the factor is potrf's of M + jitter I, and M is not written
    shifted = kept.copy()
    shifted.flat[:: n + 1] += jitter
    ref, info = lapack.dpotrf(shifted, lower=1)
    assert info == 0
    assert np.array_equal(np.tril(lo), ref)
    assert np.array_equal(m, kept)
    rhs = rng.normal(size=n)
    assert np.array_equal(_solve(m, lo, rhs), lower_factor_solve(m, lo, rhs))


def test_factor_gives_up_past_the_last_rung_without_writing_m():
    m = -np.eye(4)
    lo, jitter = tssos.solver._factor(m, np.empty_like(m))
    assert lo is None and 0 < jitter < 1
    assert np.array_equal(m, -np.eye(4))


@pytest.mark.parametrize("make", [many_constraints_instance, dense_banded_instance])
def test_solve_peak_is_within_memory_estimate(make):
    prob = make()
    need = tssos.solver._check_memory(prob)
    tracemalloc.start()
    try:
        solve_canonical(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need, (peak, need)


def test_step_tests_reuse_the_cholesky_factors(monkeypatch):
    prob = mixed_instance(*MIXED_GOLDEN[0][0])
    lay = _Layout(prob)
    calls = failing_cholesky(monkeypatch, lambda call, stack: False)
    inverses = []
    real_inv = np.linalg.inv

    def counting_inv(a):
        inverses.append(a.shape)
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    sol = solve_canonical(prob)
    assert sol.status == "optimal"
    # X and S stacked: one factorization and one inverse of the (2nb, s, s)
    # stack per class in every iteration but the last
    stacked = [(2 * len(cl.blocks), cl.size, cl.size) for cl in lay.classes]
    assert calls == stacked * (sol.iterations - 1)
    assert inverses == calls


def test_solve_peak_with_large_blocks_is_within_memory_estimate(monkeypatch):
    # with a small chunk budget the block stacks dominate the working set
    monkeypatch.setattr(tssos.solver, "SCHUR_CHUNK_BYTES", 1 << 16)
    sizes = (150, 100)
    c = tuple((b, i, i, 1.0) for b, s in enumerate(sizes) for i in range(s))
    a = tuple(((b, 0, 0, 1.0), (b, 0, 1, 1.0)) for b in range(len(sizes)))
    prob = canonical_sdp(sizes, c, a, (1.0,) * len(sizes))
    need = tssos.solver._check_memory(prob)
    tracemalloc.start()
    try:
        sol = solve_canonical(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak <= need, (peak, need)
