"""Block-diagonal semidefinite programming by a primal-dual interior point.

Solves the standard pair

    (P)  min <C, X>   s.t.  <A_i, X> = b_i,  X in S+ (block diagonal)
    (D)  max b'y      s.t.  sum_i y_i A_i + S = C,  S in S+

with an infeasible-start path-following method.  Search directions are the
usual XZ (HKM) directions with a Mehrotra predictor-corrector; the Schur
complement M[i,j] = sum_b tr(A_i X A_j S^{-1}) is symmetric positive definite
whenever the constraint matrices are linearly independent, and a tiny
diagonal regularization keeps the Cholesky factorization alive near
degeneracy.

All constraint data is sparse (block, row, col, value) with row <= col and
symmetric semantics: an off-diagonal entry v stands for v at (row, col) and
at (col, row).

Blocks are grouped into size classes.  The blocks of one size s are held as
stacked arrays, (nb, s, s) for C, X and S, and the constraint matrices
touching them as one zero-padded stack (nb, k, s, s), k being the largest
number of constraints touching one block of the class.  A class holds only
blocks whose constraint counts lie in one power-of-two bucket (k/2, k], so
padding stays below a factor of two: a few many-term localizing blocks do
not inflate every small moment block of the same size.  Each step of an
iteration (Cholesky factors and inverses of S, Schur contributions, search
directions, inner products, the maps A and A^T, the step-length test) is one
batched numpy call per class, so the Python work per iteration grows with
the number of classes rather than with the number of blocks.  1x1 blocks
take the same path; for them the batched Cholesky and eigenvalue test
reduce to S^{-1} = 1/s and the ratio test min dx/x.

The Schur contributions keep the product form <A_j, X A_i S^{-1}>, whose
temporaries have the size of the constraint stack.  The Kronecker form
X (x) S^{-1} would need an s^2 x s^2 matrix per block, 3136 x 3136 for a
56 x 56 block.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_solve

Entry = Tuple[int, int, int, float]  # (block, row, col, value), row <= col


@dataclass
class CanonicalSdp:
    """Standard-form data: objective entries, constraint entries, rhs."""

    block_sizes: Tuple[int, ...]
    c_entries: Tuple[Entry, ...]
    a_entries: Tuple[Tuple[Entry, ...], ...]  # one tuple per constraint
    b: Tuple[float, ...]

    @property
    def n_constraints(self) -> int:
        return len(self.a_entries)

    def validate(self):
        nb = len(self.block_sizes)
        for ent in self.c_entries:
            self._check_entry(ent, nb)
        for row in self.a_entries:
            if not row:
                raise ValueError("constraint with no coefficients")
            for ent in row:
                self._check_entry(ent, nb)
        if len(self.b) != len(self.a_entries):
            raise ValueError("rhs length mismatch")

    def _check_entry(self, ent: Entry, nb: int):
        blk, r, c, _ = ent
        if not 0 <= blk < nb:
            raise ValueError(f"entry block {blk} out of range")
        s = self.block_sizes[blk]
        if not (0 <= r <= c < s):
            raise ValueError(f"entry ({r},{c}) out of range for block size {s}")


@dataclass
class SolverConfig:
    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iters: int = 200
    step_fraction: float = 0.98
    verbose: bool = False


@dataclass
class SolverSolution:
    status: str  # optimal | max_iter | infeasible | unbounded | numerical
    x_blocks: List[np.ndarray]
    s_blocks: List[np.ndarray]
    y: np.ndarray
    primal_obj: float
    dual_obj: float
    iterations: int
    residuals: Dict[str, float]
    # what happened besides plain iterating: {"event": "stop", "rule": ...}
    # for the rule that ended a run short of optimality, "best_iterate" when
    # the returned point is the remembered best instead of the last one, and
    # "schur_jitter" with the largest regularization the Schur solves needed
    events: List[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "primal_obj": self.primal_obj,
                "dual_obj": self.dual_obj,
                "iters": self.iterations,
                "residuals": self.residuals,
                "events": self.events,
            },
            indent=2,
        )


def _entry_columns(entries: Sequence[Entry]):
    """Block, row and column index arrays and the value array of entries."""
    arr = np.array(entries, dtype=float).reshape(-1, 4)
    blk, r, c = (arr[:, j].astype(np.intp) for j in range(3))
    return blk, r, c, arr[:, 3]


def _add_sym(out: np.ndarray, index: Tuple[np.ndarray, ...], r, c, v):
    """Add v at (r, c) and, off the diagonal, at (c, r) of out[index]."""
    np.add.at(out, index + (r, c), v)
    off = r != c
    np.add.at(out, tuple(i[off] for i in index) + (c[off], r[off]), v[off])


def _sym(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + stack.swapaxes(-1, -2))


class _SizeClass:
    """Blocks of one size and one constraint-count bucket, in block order.

    c is (nb, s, s).  a is (nb, k, s, s): for each block the constraint
    matrices touching it, in constraint order, zero-padded up to k, the
    largest count in the class.  rows (nb, k) holds their constraint
    indices, with m marking padding.
    """

    def __init__(self, blocks: np.ndarray, c: np.ndarray, a: np.ndarray, rows: np.ndarray):
        self.blocks = blocks
        self.size = c.shape[-1]
        self.c = c
        self.a = a
        self.a_flat = a.reshape(a.shape[0], a.shape[1], self.size * self.size)
        self.rows = rows


class _Layout:
    """Size classes of a problem plus the scatter indices into A(X) and M."""

    def __init__(self, prob: CanonicalSdp):
        sizes = np.array(prob.block_sizes, dtype=np.intp)
        m = self.m = prob.n_constraints
        self.n_blocks = len(sizes)
        # each (block, constraint) pair gets a slot: its rank among the
        # constraints touching that block
        blk, r, c, v = _entry_columns([e for row in prob.a_entries for e in row])
        con = np.repeat(np.arange(m), [len(row) for row in prob.a_entries])
        pairs, pair_of_entry = np.unique(blk * m + con, return_inverse=True)
        pair_blk, pair_con = np.divmod(pairs, max(m, 1))
        pair_slot = np.arange(len(pairs)) - np.searchsorted(pair_blk, pair_blk)
        slot = pair_slot[pair_of_entry]
        touching = np.bincount(pair_blk, minlength=len(sizes))
        cblk, cr, cc, cv = _entry_columns(prob.c_entries)
        # bucket j holds the counts in (2^(j-1), 2^j]; counts 0 and 1 share 0
        bucket = np.frexp(np.maximum(touching, 1) - 1)[1]
        keys, cls = np.unique(np.stack([sizes, bucket]), axis=1, return_inverse=True)
        cls = cls.ravel()

        self.classes: List[_SizeClass] = []
        pos = np.zeros(len(sizes), dtype=np.intp)  # position inside the class
        for j, s in enumerate(keys[0]):
            members = np.flatnonzero(cls == j)
            nb, k = len(members), int(touching[members].max())
            pos[members] = np.arange(nb)
            cstack = np.zeros((nb, s, s))
            sel = cls[cblk] == j
            _add_sym(cstack, (pos[cblk[sel]],), cr[sel], cc[sel], cv[sel])
            astack = np.zeros((nb, k, s, s))
            sel = cls[blk] == j
            _add_sym(astack, (pos[blk[sel]], slot[sel]), r[sel], c[sel], v[sel])
            rows = np.full((nb, k), m, dtype=np.intp)
            sel = cls[pair_blk] == j
            rows[pos[pair_blk[sel]], pair_slot[sel]] = pair_con[sel]
            self.classes.append(_SizeClass(members, cstack, astack, rows))
        none = np.zeros(0, dtype=np.intp)  # for a problem without blocks
        self.row_index = np.concatenate([none] + [cl.rows.ravel() for cl in self.classes])
        self.pair_index = np.concatenate(
            [none] + [(cl.rows[:, :, None] * (m + 1) + cl.rows[:, None, :]).ravel()
                      for cl in self.classes]
        )

    def a_map(self, vs: List[np.ndarray]) -> np.ndarray:
        """(<A_i, V>)_i for V given as one stack per class."""
        vals = [np.matmul(cl.a_flat, v.reshape(len(v), cl.size * cl.size, 1)).ravel()
                for cl, v in zip(self.classes, vs)]
        return np.bincount(self.row_index, np.concatenate(vals), self.m + 1)[: self.m]

    def at_map(self, y: np.ndarray) -> List[np.ndarray]:
        """sum_i y_i A_i as one stack per class."""
        ypad = np.append(y, 0.0)
        return [np.matmul(ypad[cl.rows][:, None, :], cl.a_flat).reshape(cl.c.shape)
                for cl in self.classes]

    def schur(self, xs: List[np.ndarray], sinvs: List[np.ndarray]) -> np.ndarray:
        """M[i,j] = sum_b <A_j, X A_i S^{-1}>, symmetrized."""
        vals = []
        for cl, x, sinv in zip(self.classes, xs, sinvs):
            t = np.matmul(np.matmul(x[:, None], cl.a), sinv[:, None])
            # A_j is symmetric, so tr(A_j T) is the plain entrywise product
            vals.append(np.matmul(cl.a_flat, t.reshape(cl.a_flat.shape).swapaxes(1, 2)).ravel())
        n = self.m + 1
        full = np.bincount(self.pair_index, np.concatenate(vals), n * n).reshape(n, n)
        schur = full[: self.m, : self.m]
        return 0.5 * (schur + schur.T)

    def unstack(self, stacks: List[np.ndarray]) -> List[np.ndarray]:
        """Per-block matrices in the original block order."""
        out: list = [None] * self.n_blocks
        for cl, stack in zip(self.classes, stacks):
            for p, blk in enumerate(cl.blocks):
                out[blk] = stack[p]
        return out


def _inverse(s: np.ndarray) -> Optional[np.ndarray]:
    """S^{-1} for a stack of positive definite S; None if one is not."""
    try:
        lo = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    eye = np.broadcast_to(np.eye(s.shape[-1]), s.shape)
    return _sym(np.linalg.solve(lo.swapaxes(-1, -2), np.linalg.solve(lo, eye)))


def _step_length(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x_b + alpha*dx_b >= 0 for every block b of a stack.

    The stack is assumed positive definite; when its Cholesky factorization
    fails the step is 0.
    """
    try:
        lo = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return 0.0
    w = np.linalg.solve(lo, np.linalg.solve(lo, dx).swapaxes(-1, -2))
    lam = float(np.linalg.eigvalsh(_sym(w)).min())
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _chol_solve(m: np.ndarray, rhs: np.ndarray) -> Tuple[Optional[np.ndarray], float]:
    """Solve m x = rhs with a Cholesky factor, jittering only on failure.

    One pass of iterative refinement keeps the solve accurate when m turns
    ill-conditioned near the central path's end, which otherwise leaves a
    feasibility residual floor around sqrt(eps).  Returns the solution (None
    when every jitter failed) and the jitter used.
    """
    base = 1e-14 * (1.0 + np.abs(np.diag(m)).max())
    for jitter in [0.0] + [base * 100.0 ** j for j in range(7)]:
        try:
            lo = np.linalg.cholesky(m + jitter * np.eye(len(m)) if jitter else m)
        except np.linalg.LinAlgError:
            continue
        x = cho_solve((lo, True), rhs, check_finite=False)
        x += cho_solve((lo, True), rhs - m @ x, check_finite=False)
        return x, jitter
    return None, jitter


def solve_canonical(prob: CanonicalSdp, config: SolverConfig | None = None) -> SolverSolution:
    cfg = config or SolverConfig()
    prob.validate()
    m = prob.n_constraints
    lay = _Layout(prob)
    classes = lay.classes
    total_dim = sum(prob.block_sizes)
    b = np.array(prob.b, dtype=float)

    if m == 0:
        # min <C, X> over X >= 0: zero if C is PSD, otherwise unbounded below.
        lam_min = min(
            (float(np.linalg.eigvalsh(cl.c).min()) for cl in classes if cl.size), default=0.0
        )
        status = "optimal" if lam_min >= -1e-12 else "unbounded"
        return SolverSolution(
            status=status,
            x_blocks=[np.zeros((s, s)) for s in prob.block_sizes],
            s_blocks=lay.unstack([cl.c.copy() for cl in classes]),
            y=np.zeros(0),
            primal_obj=0.0,
            dual_obj=0.0,
            iterations=0,
            residuals={"gap": 0.0, "primal": 0.0, "dual": 0.0},
        )

    norm_b = np.linalg.norm(b)
    norm_c = math.sqrt(sum(float(np.vdot(cl.c, cl.c)) for cl in classes))
    norm_a = []
    for row in prob.a_entries:
        sq = sum(v * v * (1.0 if r == c else 2.0) for _, r, c, v in row)
        norm_a.append(math.sqrt(sq))
    eta_p = max(10.0, math.sqrt(total_dim))
    eta_d = max(10.0, math.sqrt(total_dim), norm_c / max(1.0, math.sqrt(total_dim)))
    for i in range(m):
        eta_p = max(eta_p, (1.0 + abs(b[i])) / (1.0 + norm_a[i]))

    xs = [eta_p * np.broadcast_to(np.eye(cl.size), cl.c.shape) for cl in classes]
    ss = [eta_d * np.broadcast_to(np.eye(cl.size), cl.c.shape) for cl in classes]
    y = np.zeros(m)

    status = "max_iter"
    events: List[dict] = []
    iters = 0
    residuals = {"gap": np.inf, "primal": np.inf, "dual": np.inf}
    pobj = dobj = 0.0
    best = None  # (err, iteration, xs, ss, y, pobj, dobj, residuals)
    stall = 0
    max_jitter = 0.0

    def stop(rule: str):
        events.append({"event": "stop", "rule": rule, "iter": iters})

    for it in range(1, cfg.max_iters + 1):
        iters = it
        pobj = sum(float(np.vdot(cl.c, x)) for cl, x in zip(classes, xs))
        dobj = float(b @ y)
        gap = sum(float(np.vdot(x, s)) for x, s in zip(xs, ss))
        mu = gap / total_dim

        rd = [cl.c - at - s for cl, at, s in zip(classes, lay.at_map(y), ss)]
        rp = b - lay.a_map(xs)

        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        rp_norm = np.linalg.norm(rp) / (1.0 + norm_b)
        rd_norm = math.sqrt(sum(float(np.vdot(r, r)) for r in rd)) / (1.0 + norm_c)
        residuals = {"gap": float(rel_gap), "primal": float(rp_norm), "dual": float(rd_norm)}

        if cfg.verbose:
            print(f"iter {it:3d}  pobj {pobj: .9e}  dobj {dobj: .9e}  "
                  f"gap {rel_gap:.2e}  rp {rp_norm:.2e}  rd {rd_norm:.2e}", file=sys.stderr)

        if rel_gap <= cfg.tol_gap and rp_norm <= cfg.tol_feas and rd_norm <= cfg.tol_feas:
            status = "optimal"
            break

        # near the numerical floor the step error can undo feasibility
        # faster than progress is made; remember the best iterate and stop
        # once a long window brings no improvement
        err = max(rel_gap, rp_norm, rd_norm)
        if best is None or err < 0.9 * best[0]:
            best = (err, it, [x.copy() for x in xs], [s.copy() for s in ss],
                    y.copy(), pobj, dobj, dict(residuals))
            stall = 0
        else:
            stall += 1
            if stall >= 15:
                stop("stall")
                status = "numerical"
                break

        # divergence heuristics
        xnorm = max(float(np.abs(x).max(initial=0.0)) for x in xs)
        ynorm = float(np.abs(y).max()) if m else 0.0
        if xnorm > 1e13:
            stop("x_diverged")
            status = "unbounded" if rp_norm <= 1e-6 else "numerical"
            break
        if ynorm > 1e13:
            stop("y_diverged")
            status = "infeasible" if rd_norm <= 1e-6 else "numerical"
            break

        sinvs = [_inverse(s) for s in ss]
        if any(si is None for si in sinvs):
            stop("s_not_pd")
            status = "numerical"
            break

        schur = lay.schur(xs, sinvs)

        def direction(sigma_mu: float, corr: Optional[List[np.ndarray]]):
            nonlocal max_jitter
            aux = []
            for j, (x, sinv, rdb) in enumerate(zip(xs, sinvs, rd)):
                u = x @ rdb @ sinv
                if sigma_mu:
                    u = u - sigma_mu * sinv
                if corr is not None:
                    u = u + corr[j] @ sinv
                aux.append(u)
            dy, jitter = _chol_solve(schur, b + lay.a_map(aux))
            max_jitter = max(max_jitter, jitter)
            if dy is None:
                return None
            dss = [rdb - at for rdb, at in zip(rd, lay.at_map(dy))]
            dxs = []
            for j, (x, sinv, dsb) in enumerate(zip(xs, sinvs, dss)):
                raw = -x - x @ dsb @ sinv
                if sigma_mu:
                    raw = raw + sigma_mu * sinv
                if corr is not None:
                    raw = raw - corr[j] @ sinv
                dxs.append(_sym(raw))
            return dxs, dy, dss

        got = direction(0.0, None)
        if got is None:
            stop("schur_failed")
            status = "numerical"
            break
        dx_aff, dy_aff, ds_aff = got

        ap_aff = min(1.0, min((_step_length(x, dx) for x, dx in zip(xs, dx_aff)), default=1.0))
        ad_aff = min(1.0, min((_step_length(s, ds) for s, ds in zip(ss, ds_aff)), default=1.0))
        gap_aff = sum(
            float(np.vdot(x + ap_aff * dx, s + ad_aff * ds))
            for x, dx, s, ds in zip(xs, dx_aff, ss, ds_aff)
        )
        mu_aff = max(gap_aff, 0.0) / total_dim
        sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.0
        # keep complementarity from racing far below the remaining
        # infeasibility; a mu much smaller than the residuals ruins the
        # Schur conditioning before feasibility can catch up
        if rel_gap < max(rp_norm, rd_norm):
            sigma = max(sigma, 0.5)

        corr = [dx @ ds for dx, ds in zip(dx_aff, ds_aff)]
        got = direction(sigma * mu, corr)
        if got is None:
            stop("schur_failed")
            status = "numerical"
            break
        dxs, dy, dss = got

        tau = cfg.step_fraction
        ap = min(1.0, tau * min((_step_length(x, dx) for x, dx in zip(xs, dxs)), default=np.inf))
        ad = min(1.0, tau * min((_step_length(s, ds) for s, ds in zip(ss, dss)), default=np.inf))
        if ap <= 1e-12 and ad <= 1e-12:
            stop("tiny_steps")
            status = "numerical"
            break
        xs = [_sym(x + ap * dx) for x, dx in zip(xs, dxs)]
        ss = [_sym(s + ad * ds) for s, ds in zip(ss, dss)]
        y = y + ad * dy
    else:
        stop("max_iters")

    if status != "optimal" and best is not None:
        cur_err = max(residuals.values())
        if best[0] < cur_err:
            events.append({"event": "best_iterate", "iter": best[1],
                           "error": float(best[0]), "last_error": float(cur_err)})
            _, _, xs, ss, y, pobj, dobj, residuals = best
    if max_jitter:
        events.append({"event": "schur_jitter", "max": float(max_jitter)})
    if cfg.verbose:
        for ev in events:
            print(f"event  {ev['event']}  "
                  + "  ".join(f"{k} {v}" for k, v in ev.items() if k != "event"), file=sys.stderr)

    return SolverSolution(
        status=status,
        x_blocks=lay.unstack(xs),
        s_blocks=lay.unstack(ss),
        y=y,
        primal_obj=pobj,
        dual_obj=dobj,
        iterations=iters,
        residuals=residuals,
        events=events,
    )
