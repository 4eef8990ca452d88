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

All problem data is one sparse table (CanonicalSdp): the columns k, block,
row, col and value with row <= col, and symmetric semantics: an
off-diagonal entry v stands for v at (row, col) and at (col, row).

Blocks are grouped into size classes.  The blocks of one size s are held as
stacked arrays, (nb, s, s) for C, X and S.  A class holds only blocks whose
constraint counts lie in one power-of-two bucket (k/2, k], so a few
many-term localizing blocks do not pad every small moment block of the same
size.  Each step of an iteration (inverse Cholesky factors of X and S,
Schur contributions, search directions, inner products, the step-length
tests) is one batched numpy call per class, so the Python work per
iteration grows with the number of classes rather than with the number of
blocks.  1x1 blocks take the same path; for them the batched Cholesky and
eigenvalue test reduce to S^{-1} = 1/s and the ratio test min dx/x.

The constraint matrices are never densified.  In a term-sparsity relaxation
each A_i is a pattern of a few entries on a block, so they are read
straight off the table's columns:

- A(X) and A^T(y) are one CSR matrix (m x sum of nb*s^2 over the classes)
  applied to the stacked blocks, one sparse matvec each.
- The Schur complement follows the sparse-data formulas of Fujisawa, Kojima
  and Nakata (Math. Prog. 79, 1997).  With the entries (p_e, q_e, v_e) of
  A_i on a block expanded symmetrically,
      T_i = X A_i S^{-1} = sum_e v_e X[:, p_e] S^{-1}[q_e, :],
  one (s, K) by (K, s) product, K the entry count, instead of two s x s
  products with a dense A_i.  The entries <A_j, T_i> of every constraint j
  touching the block are read off T_i by one CSR product and added into M.
- The (block, constraint) grid of a class is cut into chunks of at most
  SCHUR_CHUNK_BYTES of working set, so no intermediate grows with the
  number of constraints times s^2.  Within a block the constraints are
  ordered widest first, so a chunk pads K only to its own widest entry
  list.

Only the pairs i <= j of each block are formed: the chunk holding T_i
reads out the constraints from its first slot on, and its pairs below the
slot diagonal land on a spare cell.  M is accumulated in one triangle of
one m x m buffer, through a scatter index built with the layout.

M is factored once per iteration, in place by LAPACK's potrf, and the
predictor and the corrector solve with the same factor by potrs, as in
SDPT3: M's triangle is copied onto the other one strip by strip, and
potrf overwrites that copy, so the untouched triangle and M's diagonal, saved
aside, still hold M for the refinement's symv.  X and S are factored
together, one Cholesky call on each class's stacked [X; S], and the
factor L is inverted once.  S^{-1} is L_S^{-T} L_S^{-1}, and both
step-length tests read their bounds off the eigenvalues of
W = L^{-1} [dX; dS] L^{-T} (as SDPT3 does, Toh, Todd and Tutuncu, Optim.
Methods Softw. 11, 1999): two batched products and one eigvalsh per
class, no triangular solve.

M is singular for every X and S when the rows of A are linearly
dependent, which the localizing blocks of a constrained relaxation make
common.  Before the first iteration such rows are found by a pivoted
Cholesky of A A^T and dropped, as SDPT3 drops dependent constraints; a
dropped row's multiplier is returned as 0.

The working set (the m x m buffer, the scatter index and the arena of the
Schur chunks) is allocated once per solve and refilled by every
iteration.  Before anything is allocated, the working set (with the
block stacks) is compared with the memory the process may use, and a
problem that does not fit is refused with a ValueError.
"""

from __future__ import annotations

import math
import os
import resource
import sys
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.linalg import blas, lapack, solve_triangular

Entry = Tuple[int, int, int, float]  # (block, row, col, value), row <= col
_INT64_MAX = np.iinfo(np.int64).max

# bytes of the working set of one chunk of the Schur build
SCHUR_CHUNK_BYTES = 1 << 23
# at most this many passes of iterative refinement per Schur solve
REFINE_PASSES = 4
# width of the strips in which _factor copies M's triangle onto the other
MIRROR_TILE = 64
# share of the way to the cone boundary that each step goes
STEP_FRACTION = 0.98
_UPPER = np.triu(np.ones((MIRROR_TILE, MIRROR_TILE), dtype=bool), 1)


def _capped_sizes(block_sizes) -> np.ndarray:
    """Block sizes as int64, a size beyond int64 capped: above any index either way."""
    return np.array([min(s, _INT64_MAX) for s in block_sizes], dtype=np.int64)


@dataclass
class CanonicalSdp:
    """Standard-form data as one table of entries, plus the rhs b.

    Entry e is v[e] at (r[e], c[e]), r <= c, of block blk[e] of F_k[e]: F_0
    is the objective C and F_{i+1} the constraint matrix A_i, whose rhs is
    b[i].  Entries are stably ordered by k, which is SDPA's entry order.
    """

    block_sizes: Tuple[int, ...]
    b: np.ndarray
    k: np.ndarray
    blk: np.ndarray
    r: np.ndarray
    c: np.ndarray
    v: np.ndarray

    @property
    def n_constraints(self) -> int:
        return len(self.b)

    def _entry_tuples(self) -> List[List[Entry]]:
        rows: List[List[Entry]] = [[] for _ in range(self.n_constraints + 1)]
        for k, *entry in zip(*(col.tolist() for col in (self.k, self.blk, self.r, self.c, self.v))):
            rows[k].append(tuple(entry))
        return rows

    @property
    def c_entries(self) -> Tuple[Entry, ...]:
        """C's entries as tuples, read-only.

        Kept only for the counts perfbench/spans.py reads under --trace 1;
        nothing in the package reads it or a_entries.
        """
        return tuple(self._entry_tuples()[0])

    @property
    def a_entries(self) -> Tuple[Tuple[Entry, ...], ...]:
        """One tuple of entry tuples per constraint, read-only; see c_entries."""
        return tuple(map(tuple, self._entry_tuples()[1:]))

    def validate(self):
        m, nb = self.n_constraints, len(self.block_sizes)
        bad = np.flatnonzero((self.k < 0) | (self.k > m))
        if len(bad):
            raise ValueError(f"entry matrix index {self.k[bad[0]]} out of range 0..{m}")
        if not np.bincount(self.k, minlength=m + 1)[1:].all():
            raise ValueError("constraint with no coefficients")
        bad = np.flatnonzero((self.blk < 0) | (self.blk >= nb))
        if len(bad):
            raise ValueError(f"entry block {self.blk[bad[0]]} out of range")
        size = _capped_sizes(self.block_sizes)[self.blk]
        bad = np.flatnonzero((self.r < 0) | (self.r > self.c) | (self.c >= size))
        if len(bad):
            e = bad[0]
            raise ValueError(f"entry ({self.r[e]},{self.c[e]}) out of range for block size "
                             f"{self.block_sizes[self.blk[e]]}")


@dataclass
class SolverConfig:
    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iters: int = 200
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
    # the returned point is the remembered best instead of the last one,
    # "schur_jitter" with the largest regularization the Schur solves needed
    # and "presolve" with the count of dependent constraint rows dropped
    events: List[dict] = field(default_factory=list)


def _add_sym(out: np.ndarray, index: Tuple[np.ndarray, ...], r, c, v):
    """Add v at (r, c) and, off the diagonal, at (c, r) of out[index]."""
    np.add.at(out, index + (r, c), v)
    off = r != c
    np.add.at(out, tuple(i[off] for i in index) + (c[off], r[off]), v[off])


def _sym(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + stack.swapaxes(-1, -2))


def _rank_within(groups: np.ndarray) -> np.ndarray:
    """Position of each element among the equal values of sorted groups."""
    return np.arange(len(groups)) - np.searchsorted(groups, groups)


class _Chunk(NamedTuple):
    """A (block range, slot range) piece of a class for the Schur build.

    For the entries e of each (block, slot) pair of the ranges, padded with
    v_e = 0 up to K, the widest pair of the chunk, xrow and srow (nb, kc, K)
    index the rows b*s + p_e and b*s + q_e of the range's stacks flattened
    to (nb*s, s), b counted from the start of the block range; v is
    (nb, kc, K, 1).  w is the CSR matrix whose row (b, j) is the flattened
    A_{rows[b, j]} on block b of the range, for the kr slots j from the
    range's first slot on.  dest (nb*kr*kc) is the index into M's buffer of
    each pair (j, i) of the readout: the lower-triangle cell of the two
    constraints when j is not below i in slot order and both are real,
    the spare cell after M otherwise.

    xg, sg, t, tt and out are views into the layout's arena, written by
    every Schur build: the X and S^{-1} gathers (nb, kc, K, s), T
    (nb, kc, s, s), T transposed to (nb, s*s, kc) and the readout
    (nb*kr, kc).  tt overwrites the gathers and out overwrites T, each once
    what it overwrites is dead.
    """

    blocks: slice
    xrow: np.ndarray
    srow: np.ndarray
    v: np.ndarray
    w: sp.csr_matrix
    dest: np.ndarray
    xg: np.ndarray
    sg: np.ndarray
    t: np.ndarray
    tt: np.ndarray
    out: np.ndarray


class _SizeClass:
    """Blocks of one size and one constraint-count bucket, in block order.

    c is (nb, s, s).  rows (nb, k) holds for each block the indices of the
    constraints touching it, those with the most entries first, padded up
    to k, the largest count in the class, with m.  chunks cut the (block,
    slot) grid of the class into pieces of bounded bytes for the Schur
    build.
    """

    def __init__(self, blocks: np.ndarray, c: np.ndarray, rows: np.ndarray, chunks: List[_Chunk]):
        self.blocks = blocks
        self.size = c.shape[-1]
        self.c = c
        self.rows = rows
        self.chunks = chunks


def _size_classes(sizes: np.ndarray, pair_blk: np.ndarray):
    """Touching counts per block, and the (size, count bucket) class of each block.

    pair_blk holds the block of every distinct (block, constraint) pair.
    Returns the counts, the size of each class and the class of each block.
    """
    touching = np.bincount(pair_blk, minlength=len(sizes))
    # bucket j holds the counts in (2^(j-1), 2^j]; counts 0 and 1 share 0
    bucket = np.frexp(np.maximum(touching, 1) - 1)[1]
    keys, cls = np.unique(np.stack([sizes, bucket]), axis=1, return_inverse=True)
    return touching, keys[0], cls.ravel()


def _plan_chunks(nb: int, k: int, s: int, wide: int) -> List[Tuple[int, int, int, int]]:
    """Block and slot ranges cutting a class's (block, slot) grid.

    Whole blocks are grouped while they fit in SCHUR_CHUNK_BYTES; a block
    that does not fit on its own is cut into slot ranges.  A block range is
    never cut into slot ranges, so every Schur entry receives its
    contributions in block order however the grid is cut.
    """
    if not k:
        return []
    # T and its transposed copy, the X and S^{-1} gathers, the readout and
    # its scatter index, per (block, slot) pair
    unit = 8 * (2 * s * s + 2 * s * wide + 3 * k)
    per_chunk = max(1, SCHUR_CHUNK_BYTES // unit)
    if per_chunk >= k:
        step = per_chunk // k
        return [(b0, min(b0 + step, nb), 0, k) for b0 in range(0, nb, step)]
    return [(b, b + 1, i0, min(i0 + per_chunk, k))
            for b in range(nb) for i0 in range(0, k, per_chunk)]


def _index_dtype(m: int):
    """int32 while every index into M's buffer, the spare cell m*m included, fits it."""
    return np.int32 if m * m <= np.iinfo(np.int32).max else np.int64


def _index_size(prob: CanonicalSdp) -> int:
    """Entries of the Schur scatter index of prob's layout, or more.

    The index holds nb * kr * kc entries per chunk.  Planned with one
    entry per (block, constraint) pair, the narrowest the layout can see,
    the chunks are the largest they can be, and the index with them.
    """
    m = prob.n_constraints
    on_a = prob.k > 0
    pair_blk = np.unique(prob.blk[on_a] * max(m, 1) + prob.k[on_a] - 1) // max(m, 1)
    touching, class_sizes, cls = _size_classes(np.array(prob.block_sizes, dtype=np.intp), pair_blk)
    total = 0
    for j, s in enumerate(class_sizes.tolist()):
        members = cls == j
        k = int(touching[members].max())
        total += sum((b1 - b0) * (k - i0) * (i1 - i0)
                     for b0, b1, i0, i1 in _plan_chunks(int(members.sum()), k, s, 1))
    return total


def _arena_views(arena: Optional[np.ndarray], nb: int, kc: int, kk: int, s: int, kr: int):
    """The Schur intermediates of a chunk as views into arena.

    T, and after it the readout, sit first; the gathers, and after them T
    transposed, share the space that follows.  Returns the views, or with
    arena None the number of elements they need.
    """
    n_t, n_g, n_r = nb * kc * s * s, nb * kc * kk * s, nb * kr * kc
    head = max(n_t, n_r)
    size = head + max(2 * n_g, n_t)
    if arena is None:
        return size
    rest = arena[head:size]
    return (rest[:n_g].reshape(nb, kc, kk, s), rest[n_g:2 * n_g].reshape(nb, kc, kk, s),
            arena[:n_t].reshape(nb, kc, s, s), rest[:n_t].reshape(nb, s * s, kc),
            arena[:n_r].reshape(nb * kr, kc))


def _readout(w: sp.csr_matrix, t: np.ndarray, out: np.ndarray):
    """w @ t written into out, by the kernel of scipy's own CSR-dense product.

    scipy's product allocates its result; out is a view into the arena.
    """
    out.fill(0.0)
    _sparsetools.csr_matvecs(w.shape[0], w.shape[1], t.shape[-1], w.indptr, w.indices, w.data,
                             t.ravel(), out.ravel())


def _scatter_index(rows: np.ndarray, i0: int, i1: int, m: int) -> np.ndarray:
    """dest of a chunk: rows (nb, k) of its blocks, its slots i0..i1, m constraints."""
    ci, cj = rows[:, None, i0:i1], rows[:, i0:, None]
    lo, hi = np.minimum(ci, cj), np.maximum(ci, cj)
    upper = np.arange(rows.shape[1] - i0)[:, None] >= np.arange(i1 - i0)
    return np.where(upper & (hi < m), hi * m + lo, m * m).astype(_index_dtype(m)).ravel()


class _Layout:
    """Size classes of a problem, the constraint map A and the Schur build.

    a is the CSR matrix (m, N) of all constraints over the stacked block
    entries: the classes in order, each as its (nb, s, s) stack flattened,
    with every off-diagonal entry at (r, c) and at (c, r).  A(V) and A^T(y)
    are one sparse matvec each.

    The Schur build's working set is allocated here, once per solve, and
    reused by every build: m_acc, the one m x m buffer (and a spare cell
    after it that the pairs not formed land on), in which M is built in the
    lower triangle and factored, taken from buf when given; the scatter
    indices of the chunks; and one arena that holds the intermediates of
    the largest chunk.
    """

    def __init__(self, prob: CanonicalSdp, buf: Optional[np.ndarray] = None):
        sizes = np.array(prob.block_sizes, dtype=np.intp)
        m = self.m = prob.n_constraints
        self.n_blocks = len(sizes)
        on_a = prob.k > 0
        blk, r, c, v = (col[on_a] for col in (prob.blk, prob.r, prob.c, prob.v))
        con = prob.k[on_a] - 1
        off = r != c
        blk, con, v = (np.concatenate([a, a[off]]) for a in (blk, con, v))
        r, c = np.concatenate([r, c[off]]), np.concatenate([c, r[off]])
        # each (block, constraint) pair gets a slot: its rank among the
        # constraints touching that block, widest first, so that the slot
        # ranges of a chunk need little padding
        pairs, pair_of_entry = np.unique(blk * m + con, return_inverse=True)
        pair_blk, pair_con = np.divmod(pairs, max(m, 1))
        pair_width = np.bincount(pair_of_entry, minlength=len(pairs))
        order = np.lexsort((pair_con, -pair_width, pair_blk))
        pair_slot = np.empty(len(pairs), dtype=np.intp)
        pair_slot[order] = _rank_within(pair_blk[order])
        by_pair = np.argsort(pair_of_entry, kind="stable")
        rank = np.empty(len(by_pair), dtype=np.intp)  # entry's place in its pair
        rank[by_pair] = _rank_within(pair_of_entry[by_pair])
        slot = pair_slot[pair_of_entry]
        touching, class_sizes, cls = _size_classes(sizes, pair_blk)
        cblk, cr, cc, cv = (col[~on_a] for col in (prob.blk, prob.r, prob.c, prob.v))

        self.classes: List[_SizeClass] = []
        planned = []  # (class, arena dimensions, chunk fields before the views)
        pos = np.zeros(len(sizes), dtype=np.intp)  # position inside the class
        col = np.zeros(len(blk), dtype=np.intp)  # column of each entry in a
        ofs = 0
        for j, s in enumerate(class_sizes.tolist()):
            members = np.flatnonzero(cls == j)
            nb, k = len(members), int(touching[members].max())
            pos[members] = np.arange(nb)
            cstack = np.zeros((nb, s, s))
            sel = cls[cblk] == j
            _add_sym(cstack, (pos[cblk[sel]],), cr[sel], cc[sel], cv[sel])
            rows = np.full((nb, k), m, dtype=np.intp)
            width = np.zeros((nb, k), dtype=np.intp)
            sel = cls[pair_blk] == j
            rows[pos[pair_blk[sel]], pair_slot[sel]] = pair_con[sel]
            width[pos[pair_blk[sel]], pair_slot[sel]] = pair_width[sel]
            sel = cls[blk] == j
            eb, es, er, ec, ev = pos[blk[sel]], slot[sel], r[sel], c[sel], v[sel]
            wide = int(width.max(initial=0))
            p, q, val = (np.zeros((nb, k, wide), dtype=dt) for dt in (np.intp, np.intp, float))
            p[eb, es, rank[sel]], q[eb, es, rank[sel]], val[eb, es, rank[sel]] = er, ec, ev
            flat = (eb * s + er) * s + ec
            col[sel] = ofs + flat
            ofs += nb * s * s
            # the readout of every chunk is a run of w's rows, taken off
            # its arrays without copying the values
            w = sp.csr_matrix((ev, (eb * k + es, flat)), shape=(nb * k, nb * s * s))
            for b0, b1, i0, i1 in _plan_chunks(nb, k, s, wide):
                kk = int(width[b0:b1, i0:i1].max())
                if not kk:  # blocks that no constraint touches add nothing
                    continue
                bl, sl = slice(b0, b1), slice(i0, i1)
                base = np.arange(b1 - b0)[:, None, None] * s
                r0, r1 = b0 * k + i0, b1 * k
                e0, e1 = w.indptr[r0], w.indptr[r1]
                wc = sp.csr_matrix((w.data[e0:e1], w.indices[e0:e1] - b0 * s * s,
                                    w.indptr[r0:r1 + 1] - e0), shape=(r1 - r0, (b1 - b0) * s * s))
                planned.append((j, (b1 - b0, i1 - i0, kk, s, k - i0), (
                    bl, base + p[bl, sl, :kk], base + q[bl, sl, :kk], val[bl, sl, :kk, None].copy(),
                    wc, _scatter_index(rows[bl], i0, i1, m))))
            self.classes.append(_SizeClass(members, cstack, rows, []))
        self.arena = np.empty(max((_arena_views(None, *dims) for _, dims, _ in planned), default=0))
        for j, dims, fields in planned:
            self.classes[j].chunks.append(_Chunk(*fields, *_arena_views(self.arena, *dims)))
        self.m_acc = np.empty(m * m + 1) if buf is None else buf[:m * m + 1]
        self.a = sp.csr_matrix((v, (con, col)), shape=(m, ofs))
        self.at = self.a.T.tocsr()
        self.ends = np.cumsum([0] + [cl.c.size for cl in self.classes])

    def a_map(self, vs: List[np.ndarray]) -> np.ndarray:
        """(<A_i, V>)_i for V given as one stack per class."""
        return self.a @ np.concatenate([v.ravel() for v in vs])

    def at_map(self, y: np.ndarray) -> List[np.ndarray]:
        """sum_i y_i A_i as one stack per class."""
        flat = self.at @ y
        return [flat[a:b].reshape(cl.c.shape)
                for a, b, cl in zip(self.ends, self.ends[1:], self.classes)]

    def schur(self, xs: List[np.ndarray], sinvs: List[np.ndarray]) -> np.ndarray:
        """M[i,j] = sum_b <A_j, X A_i S^{-1}> for i >= j, in the lower triangle.

        X and S^{-1} are symmetric, so X A_i S^{-1} is the sum over the
        entries e of A_i of v_e X[p_e, :]^T S^{-1}[q_e, :]: one (s, K) by
        (K, s) product per (block, constraint) pair, read out by one CSR
        product per chunk against the A_j of the block from the chunk's
        first slot on, and added into M.  Each pair of a block is formed
        once, by the slot that comes first, so M is exactly symmetric in
        what it holds: its lower triangle, diagonal included.  The upper
        triangle holds zeros.

        The returned M is the layout's own (m, m) buffer, overwritten by the
        next call and by _factor: a caller that keeps M past them keeps a
        copy.
        """
        m = self.m
        acc = self.m_acc
        acc.fill(0.0)
        for cl, x, sinv in zip(self.classes, xs, sinvs):
            s = cl.size
            for ch in cl.chunks:
                xf = x[ch.blocks].reshape(-1, s)
                sf = sinv[ch.blocks].reshape(-1, s)
                nb, kc = ch.v.shape[:2]
                # take buffers out= unless mode is "clip"; the rows are in range
                np.take(xf, ch.xrow, axis=0, out=ch.xg, mode="clip")
                np.multiply(ch.xg, ch.v, out=ch.xg)
                np.take(sf, ch.srow, axis=0, out=ch.sg, mode="clip")
                np.matmul(ch.xg.swapaxes(-1, -2), ch.sg, out=ch.t)
                np.copyto(ch.tt, ch.t.reshape(nb, kc, s * s).swapaxes(1, 2))
                _readout(ch.w, ch.tt.reshape(-1, kc), ch.out)
                np.add.at(acc, ch.dest, ch.out.ravel())
        return acc[:m * m].reshape(m, m)

    def unstack(self, stacks: List[np.ndarray]) -> List[np.ndarray]:
        """Per-block matrices in the original block order."""
        out: list = [None] * self.n_blocks
        for cl, stack in zip(self.classes, stacks):
            for p, blk in enumerate(cl.blocks):
                out[blk] = stack[p]
        return out


def _cholesky(stack: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factors of a stack; None if a member is not positive definite."""
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return None


def _inverse_factors(x: np.ndarray, s: np.ndarray) -> Optional[np.ndarray]:
    """Inverse lower Cholesky factors of a class's X and S stacks.

    X and S are factored together, one Cholesky call on the (2nb, s, s)
    stack [X; S], and the factor is inverted by one batched call.  When
    that Cholesky fails, S alone is factored to learn which one is not
    positive definite: if S is, only S's (nb, s, s) half is returned, and
    if S is not, None.
    """
    lo = _cholesky(np.concatenate([x, s]))
    if lo is None:
        lo = _cholesky(s)
        if lo is None:
            return None
    return np.linalg.inv(lo)


def _bound(lam: float) -> float:
    """Largest alpha with 1 + alpha*lam >= 0: -1/lam, or inf for lam >= -1e-14."""
    return np.inf if lam >= -1e-14 else -1.0 / float(lam)


def _step_lengths(linv: np.ndarray, dx: np.ndarray, ds: np.ndarray) -> Tuple[float, float]:
    """Largest alphas with x_b + alpha*dx_b and s_b + alpha*ds_b PSD for every block b.

    linv is what _inverse_factors returned for the class's stacks x and s.
    With L the Cholesky factor of x_b, x_b + alpha*dx_b is PSD exactly when
    I + alpha*L^{-1} dx_b L^{-T} is, so the bound is read off the smallest
    eigenvalue of W = L^{-1} D L^{-T}, formed for [dx; ds] at once; eigvalsh
    reads one triangle of W, so W is not symmetrized.  When linv holds only
    S's half (x is not positive definite) the primal step is 0.
    """
    nb = len(ds)
    both = len(linv) > nb
    w = linv @ (np.concatenate([dx, ds]) if both else ds) @ linv.swapaxes(-1, -2)
    lam = np.linalg.eigvalsh(w)[:, 0]
    return (_bound(lam[:nb].min()) if both else 0.0), _bound(lam[-nb:].min())


def _mirror(m: np.ndarray):
    """Copy the lower triangle of the square m onto its upper one.

    Column strip by column strip: the rows a..b of the lower triangle,
    contiguous, become the columns a..b of the upper one.
    """
    n = len(m)
    for a in range(0, n, MIRROR_TILE):
        b = min(a + MIRROR_TILE, n)
        m[:a, a:b] = m[a:b, :a].T
        tile = m[a:b, a:b]
        np.copyto(tile, tile.T, where=_UPPER[:b - a, :b - a])


def _factor(m: np.ndarray) -> Tuple[Optional[np.ndarray], float, np.ndarray]:
    """Lower Cholesky factor of M in M's own buffer, jittering the diagonal only on failure.

    m holds M in its lower triangle, as _Layout.schur leaves it.  Returns
    the factor (None when every jitter failed), the jitter used and M's
    diagonal.  Every rung of the ladder copies the lower triangle onto the
    upper one, puts M's diagonal plus the rung's jitter on the diagonal and
    runs LAPACK's potrf in place on m.T, whose lower triangle in Fortran
    order is that copy.  The factor is m.T, the Fortran-order view: its
    lower triangle is the factor, its strict upper one is M's, which potrs
    does not read and _solve reads M off.  When every rung fails, M's
    diagonal is put back.
    """
    n = len(m)
    diag = m.diagonal().copy()
    base = 1e-14 * (1.0 + np.abs(diag).max(initial=0.0))
    for jitter in [0.0] + [base * 100.0 ** j for j in range(7)]:
        _mirror(m)
        m.flat[:: n + 1] = diag + jitter
        lo, info = lapack.dpotrf(m.T, lower=1, overwrite_a=1, clean=0)
        if info == 0:
            return lo, jitter, diag
    m.flat[:: n + 1] = diag
    return None, jitter, diag


def _solve(lo: np.ndarray, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs with _factor's factor lo of (a jittered) M and M's diagonal.

    Iterative refinement keeps the solve accurate when M turns
    ill-conditioned near the central path's end, which otherwise leaves a
    feasibility residual floor around sqrt(eps) or stalls the steps.  It
    runs while each pass at least halves the residual, at most
    REFINE_PASSES times.  potrs reads lo's lower triangle in place, and the
    residual's M x is one symv on the strict upper triangle, with M's
    diagonal swapped in for the call.
    """
    on_diag = lo.T.reshape(-1)[:: len(diag) + 1]  # a view: lo is Fortran-contiguous
    factor_diag = on_diag.copy()

    def residual(x):
        on_diag[:] = diag
        mx = blas.dsymv(1.0, lo, x, lower=0)
        on_diag[:] = factor_diag
        return rhs - mx

    x = lapack.dpotrs(lo, rhs, lower=1)[0]
    res = residual(x)
    last = np.inf
    for _ in range(REFINE_PASSES):
        size = np.linalg.norm(res)
        if not size < 0.5 * last:
            break
        x += lapack.dpotrs(lo, res, lower=1)[0]
        last = size
        res = residual(x)
    return x


def _mapped_bytes() -> int:
    """Address space this process maps now, from /proc/self/statm; 0 where that is unreadable."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def _memory_limit() -> int:
    """Bytes this process may use: physical memory, or when lower what RLIMIT_AS leaves.

    RLIMIT_AS bounds the whole address space, so what the process already
    maps (the interpreter, numpy, scipy, the relaxation) is taken off it.
    """
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, max(0, soft - _mapped_bytes()))
    return limit


def _check_memory(prob: CanonicalSdp) -> int:
    """Bytes of the solver's working set; ValueError when it would not fit.

    Counts what is held for the whole solve: the one m x m buffer M is
    built and factored in; the Schur scatter index (bounded by
    _index_size); the Schur arena with one chunk's readout; and 24 block
    stacks: the 13 an iteration keeps alive (iterate, slack, the remembered
    best of both, residual, inverse factors of X and S, S^{-1}, both pairs
    of directions, corrector) and the temporaries of a step test (the
    stacked directions, two products and eigvalsh's copy, each two stacks
    deep) with room to spare.
    """
    m = prob.n_constraints
    sizes = prob.block_sizes
    s_max = max(sizes, default=0)
    chunk = max(SCHUR_CHUNK_BYTES, 8 * (2 * s_max * s_max + 3 * m))
    need = 8 * m * m + chunk + 8 * 24 * sum(s * s for s in sizes)
    if s_max <= _INT64_MAX:  # beyond, the stacks alone are past any memory
        need += np.dtype(_index_dtype(m)).itemsize * _index_size(prob)
    limit = _memory_limit()
    if need > limit:
        raise ValueError(
            f"the solver needs about {need / 2**20:.0f} MiB ({m} constraints, "
            f"largest block {s_max}), more than the {limit / 2**20:.0f} MiB "
            f"this process may use")
    return need


def _constraint_norms(prob: CanonicalSdp) -> np.ndarray:
    """||A_i||_F of every constraint, its squares summed entry by entry in table order."""
    sq = np.bincount(prob.k, weights=prob.v * prob.v * (2.0 - (prob.r == prob.c)),
                     minlength=prob.n_constraints + 1)
    return np.sqrt(sq[1:])  # bin 0 is C's


def _dependent_rows(prob: CanonicalSdp, buf: np.ndarray, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Rows of A that are combinations of the others: (droppable, inconsistent).

    Nonzero rows whose supports share no cell (block, r, c) are
    independent; that is every unconstrained relaxation, settled by one sort
    of the table.  Otherwise the Gram matrix G = D A A^T D of the rows
    scaled to unit norm (<A_i, A_j> with symmetric semantics) is formed in
    buf and factored by LAPACK's pivoted Cholesky, pstrf, with its default
    tolerance.  The rows past its rank, in pivot order, are combinations
    of the rows K before: with P^T G P = L L^T, D_d A_d = L21 L11^{-1} D_K
    A_K.  Such a row is droppable when b_d agrees with the same combination
    of b_K within tol * (1 + ||b||); otherwise no X satisfies A(X) = b, and
    the row is inconsistent.  Both are returned sorted.
    """
    m = prob.n_constraints
    on_a = prob.k > 0
    con, blk, r, c, v = (col[on_a] for col in (prob.k - 1, prob.blk, prob.r, prob.c, prob.v))
    order = np.lexsort((con, c, r, blk))
    con, blk, r, c, v = (col[order] for col in (con, blk, r, c, v))
    new_cell = np.ones(len(con), dtype=bool)
    new_cell[1:] = (blk[1:] != blk[:-1]) | (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    norm = _constraint_norms(prob)
    none = np.zeros(0, dtype=np.intp)
    if norm.all() and not (~new_cell[1:] & (con[1:] != con[:-1])).any():
        return none, none
    cell = np.cumsum(new_cell) - 1
    scale = np.divide(1.0, norm, out=np.zeros(m), where=norm > 0)
    a = sp.csr_matrix((v * np.where(r == c, 1.0, math.sqrt(2.0)) * scale[con], (con, cell)),
                      shape=(m, cell[-1] + 1))
    gram = buf[:m * m].reshape(m, m)
    (a @ a.T).toarray(out=gram)
    fac, piv, rank, _ = lapack.dpstrf(gram.T, lower=1, overwrite_a=1)
    if rank == m:
        return none, none
    kept, dep = piv[:rank] - 1, piv[rank:] - 1
    z = solve_triangular(fac[:rank, :rank], scale[kept] * prob.b[kept], lower=True)
    want = norm[dep] * (fac[rank:, :rank] @ z)
    off = np.abs(prob.b[dep] - want) > tol * (1.0 + np.linalg.norm(prob.b))
    return np.sort(dep[~off]), np.sort(dep[off])


def _without_rows(prob: CanonicalSdp, rows: np.ndarray) -> CanonicalSdp:
    """prob with the constraints rows taken out, the others renumbered in order."""
    m = prob.n_constraints
    keep = np.ones(m + 1, dtype=bool)
    keep[rows + 1] = False
    renumber = np.cumsum(keep) - 1
    sel = keep[prob.k]
    return CanonicalSdp(prob.block_sizes, prob.b[keep[1:]], renumber[prob.k[sel]],
                        prob.blk[sel], prob.r[sel], prob.c[sel], prob.v[sel])


def solve_canonical(prob: CanonicalSdp, config: SolverConfig | None = None) -> SolverSolution:
    """Solve prob by the interior point, after dropping its dependent constraint rows.

    A dropped row's multiplier is returned as 0.  A dependent row whose rhs
    disagrees with the rows it depends on makes the primal infeasible: the
    status is then "infeasible" at once, with an event naming the rows.
    """
    cfg = config or SolverConfig()
    prob.validate()
    _check_memory(prob)
    m_all = prob.n_constraints
    buf = np.empty(m_all * m_all + 1)
    dropped, inconsistent = _dependent_rows(prob, buf, cfg.tol_feas)
    if len(inconsistent):
        sol = _inconsistent(prob, inconsistent)
    else:
        sol = _interior_point(_without_rows(prob, dropped) if len(dropped) else prob, cfg, buf)
        if len(dropped):
            sol.events.insert(0, {"event": "presolve", "dropped": len(dropped)})
            y = np.zeros(m_all)
            y[np.isin(np.arange(m_all), dropped, invert=True)] = sol.y
            sol.y = y
    if cfg.verbose:
        for ev in sol.events:
            print(f"event  {ev['event']}  "
                  + "  ".join(f"{k} {v}" for k, v in ev.items() if k != "event"), file=sys.stderr)
    return sol


def _inconsistent(prob: CanonicalSdp, rows: np.ndarray) -> SolverSolution:
    """The outcome when A(X) = b has no solution: rows are combinations of others, b is not.

    The point returned is X = S = 0, y = 0, with its residuals.
    """
    on_c = prob.k == 0
    norm_b = float(np.linalg.norm(prob.b))
    norm_c = math.sqrt(float(prob.v[on_c] ** 2 @ (2.0 - (prob.r[on_c] == prob.c[on_c]))))
    return SolverSolution(
        status="infeasible",
        x_blocks=[np.zeros((s, s)) for s in prob.block_sizes],
        s_blocks=[np.zeros((s, s)) for s in prob.block_sizes],
        y=np.zeros(prob.n_constraints),
        primal_obj=0.0,
        dual_obj=0.0,
        iterations=0,
        residuals={"gap": 0.0, "primal": norm_b / (1.0 + norm_b), "dual": norm_c / (1.0 + norm_c)},
        events=[{"event": "stop", "rule": "inconsistent_rows", "iter": 0, "rows": rows.tolist()}],
    )


def _interior_point(prob: CanonicalSdp, cfg: SolverConfig, buf: np.ndarray) -> SolverSolution:
    """The interior-point iteration on prob, M built and factored in buf."""
    m = prob.n_constraints
    lay = _Layout(prob, buf)
    classes = lay.classes
    total_dim = sum(prob.block_sizes)
    b = prob.b

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
    norm_a = _constraint_norms(prob)
    eta_p = max(10.0, math.sqrt(total_dim))
    eta_d = max(10.0, math.sqrt(total_dim), norm_c / max(1.0, math.sqrt(total_dim)))
    # fmax skips a NaN ratio, as max(eta_p, ratio) does
    eta_p = float(np.fmax.reduce((1.0 + np.abs(b)) / (1.0 + norm_a), initial=eta_p))

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

        linvs = [_inverse_factors(x, s) for x, s in zip(xs, ss)]
        if any(li is None for li in linvs):
            stop("s_not_pd")
            status = "numerical"
            break
        # S^{-1} = L^{-T} L^{-1} from S's half of the inverse factors
        sinvs = [_sym(li[-len(s):].swapaxes(-1, -2) @ li[-len(s):]) for li, s in zip(linvs, ss)]

        lo, jitter, diag = _factor(lay.schur(xs, sinvs))
        max_jitter = max(max_jitter, jitter)
        if lo is None:
            stop("schur_failed")
            status = "numerical"
            break

        def direction(sigma_mu: float, corr: Optional[List[np.ndarray]]):
            aux = []
            for j, (x, sinv, rdb) in enumerate(zip(xs, sinvs, rd)):
                u = x @ rdb @ sinv
                if sigma_mu:
                    u = u - sigma_mu * sinv
                if corr is not None:
                    u = u + corr[j] @ sinv
                aux.append(u)
            dy = _solve(lo, diag, b + lay.a_map(aux))
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

        dx_aff, dy_aff, ds_aff = direction(0.0, None)

        aff = [_step_lengths(*a) for a in zip(linvs, dx_aff, ds_aff)]
        ap_aff = min(1.0, min((p for p, _ in aff), default=1.0))
        ad_aff = min(1.0, min((d for _, d in aff), default=1.0))
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
        dxs, dy, dss = direction(sigma * mu, corr)

        steps = [_step_lengths(*a) for a in zip(linvs, dxs, dss)]
        ap = min(1.0, STEP_FRACTION * min((p for p, _ in steps), default=np.inf))
        ad = min(1.0, STEP_FRACTION * min((d for _, d in steps), default=np.inf))
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
