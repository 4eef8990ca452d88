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

- A(X) and A^T(y) are one sparse matvec each on the stacked blocks, by one
  CSR matrix (m x sum of nb*s^2 over the classes) read as CSR and as CSC.
- The Schur complement follows the sparse-data formulas of Fujisawa, Kojima
  and Nakata (Math. Prog. 79, 1997).  With the entries (p_e, q_e, v_e) of
  A_i on a block expanded symmetrically,
      T_i = X A_i S^{-1} = sum_e v_e X[:, p_e] S^{-1}[q_e, :],
  one (s, K) by (K, s) product, K the entry count, instead of two s x s
  products with a dense A_i.  The entries <A_j, T_i> of every constraint j
  touching the block are read off T_i by one CSR product and added into M.
- The (block, constraint) grid of a class is cut into chunks of at most
  SCHUR_CHUNK_BYTES of working set, so no intermediate grows with the
  number of constraints times s^2.  The budget is a core's 2 MiB L2
  cache, after the cache blocking of Goto and van de Geijn (ACM TOMS 34,
  2008).  With the strips below, one Schur build was measured faster at
  2 MiB than at 8 MiB on a dense 56 x 56 block and on the 100 x 100
  clique of gen_rosenbrock n=100, there 103 against 127 ms.  Within a block the
  constraints are ordered widest first, so a chunk pads K only to its own
  widest entry list.

Only the pairs i <= j of each block are formed: the chunk holding T_i
reads out the constraints from its first slot on, into M's lower
triangle (_Schur holds M: its buffer and numbering, its factor and
solves).  Where a block is too wide for one chunk (a dense relaxation's
one block, the Newton basis's {1, x_i^2} clique), M's rows are numbered
by that block's slots, last first (of several such blocks, the one
touched by most constraints).  Its chunks read T out slot by slot, one
CSR matvec per slot from that slot on, into rows that are M's own, and
add them into whole rows of M's triangle: no transposed copy of T, no
index.  Every other chunk adds its readout by one np.add.at through its
scatter index, formed once with the layout and held: those chunks serve
the narrower blocks, so at paper scale the indices are a few percent of
M's bytes.  A chunk's buffers lie side by side in one arena, sized by
the footprint the chunks are planned with.

M is factored once per iteration, and the predictor and the corrector
solve with the same factor, as in SDPT3.  X and S are factored together,
one Cholesky call on each class's stacked [X; S], and the factor L is
inverted once.  S^{-1} is L_S^{-T} L_S^{-1}, and both step-length tests
read their bounds off the eigenvalues of W = L^{-1} [dX; dS] L^{-T} (as
SDPT3 does, Toh, Todd and Tutuncu, Optim. Methods Softw. 11, 1999): two
batched products and one eigvalsh per class, no triangular solve.

M is singular for every X and S when the rows of A are linearly
dependent, which the localizing blocks of a constrained relaxation make
common.  Before the first iteration such rows are found by a pivoted
Cholesky of A A^T and dropped, as SDPT3 drops dependent constraints; a
dropped row's multiplier is returned as 0.

The working set (M's buffer, the arena of the Schur chunks and their
scatter indices) is allocated once per solve and refilled by every
iteration.  Before anything is allocated, the working set (with the block
stacks) is compared with the memory the process may use, and a problem
that does not fit is refused with a ValueError.
"""

from __future__ import annotations

import math
import os
import resource
import sys
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.linalg import blas, lapack

Entry = Tuple[int, int, int, float]  # (block, row, col, value), row <= col
_INT64_MAX = np.iinfo(np.int64).max

# bytes of the working set of one chunk of the Schur build: the 2 MiB of a
# core's L2 cache
SCHUR_CHUNK_BYTES = 1 << 21
# bytes _Layout holds at its peak, the end of its build, beside its arena,
# held indices and gather tables: per entry of the symmetric expansion (its
# columns, their pairs, slots and sorts, w and A) and per chunk (its views
# and objects).  tracemalloc measured 150-210 bytes an entry (with a copy
# of A^T) and 2.3-2.7 KiB a chunk on gen_rosenbrock and broyden_tridiagonal
# at n = 100 and on a dense 56 x 56 block, at chunk budgets of 64 KiB to 8 MiB.
LAYOUT_ENTRY_BYTES = 256
LAYOUT_CHUNK_BYTES = 4096
# at most this many passes of iterative refinement per Schur solve
REFINE_PASSES = 4
# width of the strips in which _Schur zeroes M's triangle and copies it
# onto the other
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
    tol: float = 1e-8  # on the relative gap and on both relative residuals
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


class _RowRun(NamedTuple):
    """A run of a CSR matrix's rows, taken off its arrays without copying.

    indptr is the run's slice of the matrix's, which need not start at 0
    (csr_matrix refuses that); indices and data are the whole matrix's.
    """

    shape: Tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


class _Chunk(NamedTuple):
    """A (block range, slot range) piece of a class for the Schur build.

    For the entries e of each (block, slot) pair of the ranges, padded with
    v_e = 0 up to K, the widest pair of the chunk, xrow and srow (nb, kc, K)
    index the rows b*s + p_e and b*s + q_e of the class's stacks flattened,
    b the block's place in the class, and v is (nb, kc, K, 1): views of the
    class's (nb, k, wide) tables.  w is the run of the class's CSR rows
    whose row (b, j) is the flattened A_{rows[b, j]} on block b of the
    range, for the kr slots j from the range's first slot to the class's last.

    xg, sg, t, tt and out are views into the layout's arena, side by side
    as _chunk_footprint lays them, written by every Schur build: the X and
    S^{-1} gathers (nb, kc, K, s), T (nb, kc, s, s), T transposed to
    (nb, s*s, kc) and the readout (nb, kr, kc).  dest (nb, kr, kc), formed
    with the layout and held for the solve, is the cell in M's buffer of
    each pair (j, i) of the readout (see _scatter_index).

    strip is None but for the chunks of the layout's strip block, which M
    is numbered by.  There it is the view of _Schur's frame, (slots of the
    chunk, slots from its first on), that the readout lands on; out is the
    readout transposed, (nb, kc, kr), each slot's row 0 before that slot;
    and tt and dest are None.
    """

    blocks: slice
    slots: slice
    xrow: np.ndarray
    srow: np.ndarray
    v: np.ndarray
    w: _RowRun
    xg: np.ndarray
    sg: np.ndarray
    t: np.ndarray
    tt: np.ndarray
    out: np.ndarray
    dest: Optional[np.ndarray]
    strip: Optional[np.ndarray]


class _SizeClass:
    """Blocks of one size and one constraint-count bucket, in block order.

    c is (nb, s, s).  rows (nb, k) holds for each block the rows of M of the
    constraints touching it, those with the most entries first, padded up
    to k, the largest count in the class, with m, in the dtype of the
    Schur build's index.  chunks cut the (block, slot) grid of the class
    into pieces of bounded bytes for the Schur build.
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


def _plan(prob: CanonicalSdp):
    """The symmetric expansion of prob's constraint entries and the plan of its classes.

    Returns the entries' columns (blk, con, r, c, v), every off-diagonal
    entry at (r, c) and at (c, r); the distinct (block, constraint) pairs'
    blocks, constraints and widths (entry counts) and each entry's pair; the
    class of each block; and per class (members, s, k, wide, chunks): its
    blocks, their size, the largest touching count, the widest pair and the
    (block, slot) ranges of its chunks.
    """
    sizes = np.array(prob.block_sizes, dtype=np.intp)
    m = prob.n_constraints
    on_a = prob.k > 0
    blk, r, c, v = (col[on_a] for col in (prob.blk, prob.r, prob.c, prob.v))
    con = prob.k[on_a] - 1
    off = r != c
    blk, con, v = (np.concatenate([a, a[off]]) for a in (blk, con, v))
    r, c = np.concatenate([r, c[off]]), np.concatenate([c, r[off]])
    pairs, pair_of_entry = np.unique(blk * m + con, return_inverse=True)
    pair_blk, pair_con = np.divmod(pairs, max(m, 1))
    pair_width = np.bincount(pair_of_entry, minlength=len(pairs))
    touching, class_sizes, cls = _size_classes(sizes, pair_blk)
    index = _index_dtype(m)
    classes = []
    for j, s in enumerate(class_sizes.tolist()):
        members = np.flatnonzero(cls == j)
        k = int(touching[members].max())
        wide = int(pair_width[cls[pair_blk] == j].max(initial=0))
        classes.append((members, s, k, wide, _plan_chunks(len(members), k, s, wide, index)))
    return (blk, con, r, c, v), (pair_blk, pair_con, pair_width, pair_of_entry), cls, classes


def _plan_chunks(nb: int, k: int, s: int, wide: int, index) -> List[Tuple[int, int, int, int]]:
    """Block and slot ranges cutting a class's (block, slot) grid.

    Whole blocks are grouped while they fit in SCHUR_CHUNK_BYTES; a block
    that does not fit on its own is cut into slot ranges.  A block range is
    never cut into slot ranges, so every Schur entry receives its
    contributions in block order however the grid is cut.
    """
    if not k:
        return []
    # what a chunk touches, per (block, slot) pair: its arena footprint at
    # the class's widest pair as a chunk that is not a strip, the larger
    # kind; two index entries a readout pair, one more than it holds, as
    # the chunks were first planned (one moves slot ranges, and with them
    # M's numbering); and the gather rows and values, 24 bytes an entry.
    # Not its slice of w nor its blocks of X and S^{-1}.
    unit = (8 * sum(_chunk_footprint(1, 1, wide, s, k, False)) + 2 * k * np.dtype(index).itemsize
            + 24 * wide)
    per_chunk = max(1, SCHUR_CHUNK_BYTES // unit)
    if per_chunk >= k:
        step = per_chunk // k
        return [(b0, min(b0 + step, nb), 0, k) for b0 in range(0, nb, step)]
    return [(b, b + 1, i0, min(i0 + per_chunk, k))
            for b in range(nb) for i0 in range(0, k, per_chunk)]


def _strip_block(pair_blk: np.ndarray, classes) -> int:
    """The block whose slot order numbers M's rows, or -1 for the constraint order.

    A block qualifies when its class is cut into slot ranges, too wide for
    one chunk; of several, the one touched by most constraints, the first
    of equals in block order.
    """
    ranged = [members for members, _, k, _, chunks in classes if chunks and chunks[0][3] < k]
    if not ranged:
        return -1
    blocks = np.sort(np.concatenate(ranged))
    touching = np.bincount(pair_blk, minlength=blocks[-1] + 1)
    return int(blocks[np.argmax(touching[blocks])])


def _index_dtype(m: int):
    """int32 while every cell index of the Schur build, up to the spare cell m*m, fits it."""
    return np.int32 if m * m <= np.iinfo(np.int32).max else np.int64


def _chunk_footprint(nb: int, kc: int, kk: int, s: int, kr: int, strip: bool) -> List[int]:
    """A chunk's arena footprint, in doubles, view by view as the arena lays them side by side.

    nb blocks of size s, kc slots, kk entries a pair, kr readout rows: the
    X and S^{-1} gathers, T, T transposed and the readout.  A strip chunk
    (strip True) has no T transposed.
    """
    n_t, n_g, n_r = nb * kc * s * s, nb * kc * kk * s, nb * kr * kc
    return [n_g, n_g, n_t, n_r] if strip else [n_g, n_g, n_t, n_t, n_r]


def _working_set(plans, strip_blk: int) -> Tuple[int, int, int]:
    """Arena doubles (the largest chunk footprint, at its widest pair), index entries held, most in one."""
    arena = held = most = 0
    for members, s, k, wide, chunks in plans:
        for b0, b1, i0, i1 in chunks:
            strip = members[b0] == strip_blk
            arena = max(arena, sum(_chunk_footprint(b1 - b0, i1 - i0, wide, s, k - i0, strip)))
            size = 0 if strip else (b1 - b0) * (k - i0) * (i1 - i0)
            held, most = held + size, max(most, size)
    return arena, held, most


def _arena_views(arena: np.ndarray, nb: int, kc: int, kk: int, s: int, kr: int, strip: bool):
    """A chunk's views (_Chunk's xg to out) into arena, side by side as _chunk_footprint lays them."""
    at = [0, *accumulate(_chunk_footprint(nb, kc, kk, s, kr, strip))]
    xg, sg, t, *rest = (arena[a:b] for a, b in zip(at, at[1:]))
    views = (xg.reshape(nb, kc, kk, s), sg.reshape(nb, kc, kk, s), t.reshape(nb, kc, s, s))
    if strip:
        return views + (None, rest[0].reshape(nb, kc, kr))
    return views + (rest[0].reshape(nb, s * s, kc), rest[1].reshape(nb, kr, kc))


def _layout_bytes(m: int, plan) -> int:
    """Bytes _Layout allocates besides M's buffer, or more, for m constraints and _plan's plan.

    Read off the plan: the Schur arena and the chunks' held indices, with
    what forming the largest one takes for a moment (see _scatter_index:
    its lo twin, two bool masks and one ufunc buffer of up to
    np.getbufsize() entries); the class's (nb, k, wide) gather tables,
    which the chunks view, 24 bytes a padded entry; LAYOUT_ENTRY_BYTES an
    entry of the symmetric expansion; and LAYOUT_CHUNK_BYTES a chunk.
    """
    entries, (pair_blk, *_), _, classes = plan
    arena, held, most = _working_set(classes, _strip_block(pair_blk, classes))
    tables = sum(len(members) * k * wide for members, _, k, wide, _ in classes)
    n_chunks = sum(len(chunks) for *_, chunks in classes)
    index = np.dtype(_index_dtype(m)).itemsize
    return (8 * arena + index * (held + most + min(most, np.getbufsize())) + 2 * most + 24 * tables
            + LAYOUT_ENTRY_BYTES * len(entries[0]) + LAYOUT_CHUNK_BYTES * n_chunks)


def _readout(w, t: np.ndarray, out: np.ndarray):
    """w @ t written into out, by the kernel of scipy's own CSR-dense product.

    w is a csr_matrix or a _RowRun.  scipy's product allocates its result;
    out is a view into the arena.
    """
    out.fill(0.0)
    _sparsetools.csr_matvecs(w.shape[0], w.shape[1], t.shape[-1], w.indptr, w.indices, w.data,
                             t.ravel(), out.ravel())


def _readout_by_slot(w: _RowRun, t: np.ndarray, out: np.ndarray):
    """w[i:] @ t[i].ravel() written into out[i, i:] for every slot i, by scipy's CSR matvec kernel.

    The same sums, term by term in the same order, as _readout's of t
    transposed, read into rows of out instead of columns, each from its
    own slot on; out[i, :i] is left 0.
    """
    out.fill(0.0)
    n, cols = w.shape
    for i, ti in enumerate(t.reshape(len(t), -1)):
        _sparsetools.csr_matvec(n - i, cols, w.indptr[i:], w.indices, w.data, ti, out[i, i:])


def _scatter_index(rows: np.ndarray, i0: int, i1: int, m: int) -> np.ndarray:
    """The cell in M's buffer of each pair (j, i) of a chunk's readout, (nb, kr, kc).

    rows (nb, k) are M's rows of the chunk's blocks, padded with m, in the
    index's dtype; the chunk's slots are i0..i1 and its readout rows the
    slots from i0 on.  Constraints a and b add into the lower-triangle
    cell max(a, b)*m + min(a, b).  A pair whose row slot j comes before its
    column slot i is formed by the chunk holding T_j, and a padding slot
    touches nothing: both land on the spare cell m*m after M.
    """
    ci, cj = rows[:, None, i0:i1], rows[:, i0:, None]
    # numpy buffers every broadcast operand of a ufunc, up to 8192 elements
    # each, as large as a small chunk's index: one such operand at a time
    dest = np.empty((len(rows), rows.shape[1] - i0, i1 - i0), rows.dtype)
    dest[...] = ci
    np.maximum(dest, cj, out=dest)
    np.copyto(dest, m, where=np.arange(dest.shape[1])[:, None] < np.arange(dest.shape[2]))
    real = dest < m
    dest *= m
    lo = np.empty_like(dest)
    lo[...] = ci
    np.minimum(lo, cj, out=lo)
    np.add(dest, lo, out=dest, where=real)
    return dest


def _tiles(n: int):
    """M's strips of MIRROR_TILE rows: (a, b, the strict upper mask of the tile a..b on the diagonal)."""
    for a in range(0, n, MIRROR_TILE):
        b = min(a + MIRROR_TILE, n)
        yield a, b, _UPPER[:b - a, :b - a]


class _Schur:
    """The Schur complement M of m constraints: its buffer and numbering, its factor and solves.

    M is built, factored and solved in one buffer of m*m + 1 doubles,
    cells, allocated once per solve: full is its (m, m) array, and the
    spare cell m*m after it takes the pairs no chunk forms.  A build
    zeroes M's lower triangle, diagonal included, and the spare cell, strip
    by strip (zero()), and adds into them: through cells by the held
    scatter indices' np.add.at, and through frame by the strips.  The
    strict upper triangle keeps what was there, which factor() overwrites;
    a caller that keeps M past the next build or factor keeps a copy.

    M's row i is constraint order[i].  lead is the constraints of the
    strip block (see _strip_block) in its slot order, empty when there is
    none.  M's rows are lead, last slot first, then the other constraints
    in order, so order is the identity when lead is empty.  frame, None
    without lead, is M's first kl = len(lead) rows and columns, both axes
    reversed: the strip block's chunks view it, and a pair (j, i) of its
    slots i <= j lands at row kl - 1 - i and column kl - 1 - j, every row
    a contiguous run of M's lower triangle.  The strips add 0 above M's
    diagonal, so the frame is zeroed once, here.  Each cell receives the
    same terms in the same order whatever the numbering, so M in a
    block's slot order is M in constraint order permuted, bit for bit.

    factor() factors M in place by LAPACK's potrf, jittering the diagonal
    only on failure.  Every rung of its ladder copies M's lower triangle
    onto the upper one strip by strip, puts M's diagonal (saved aside as
    diag) plus the rung's jitter on the diagonal and runs potrf on full.T,
    whose lower triangle in Fortran order is that copy.  The factor lo is
    full.T: its lower triangle is the factor, its strict upper one M's,
    which potrs and trsv do not read.  When every rung fails, M's diagonal
    is put back.

    solve(rhs) solves M x = rhs with the last factor, rhs permuted into
    M's numbering and x back out of it.  Without a strip block the solves
    with the factor are potrs; with one, two trsv calls on lo in place, L
    then L^T, which run about twice as fast as potrs's trsm on one column
    from m of a few hundred up.  Iterative refinement keeps the solve
    accurate when M turns ill-conditioned near the central path's end,
    which otherwise leaves a feasibility residual floor around sqrt(eps)
    or stalls the steps.  It runs while each pass at least halves the
    residual, at most REFINE_PASSES times.  The residual's M x is one symv
    on lo's strict upper triangle, with M's diagonal swapped in for the
    call.
    """

    def __init__(self, m: int, lead: np.ndarray):
        self.cells = np.empty(m * m + 1)
        self.full = self.cells[:m * m].reshape(m, m)
        rest = np.ones(m, dtype=bool)
        rest[lead] = False
        self.order = np.concatenate([lead[::-1], np.flatnonzero(rest)])
        kl = len(lead)
        self.frame = self.full[kl - 1::-1, kl - 1::-1] if kl else None
        self.full[:kl, :kl] = 0.0
        self.lo = self.diag = None

    def zero(self):
        """Zero M's lower triangle, strip by strip, and the spare cell, lest stale values overflow."""
        for a, b, upper in _tiles(len(self.full)):
            self.full[a:b, :a] = 0.0
            np.copyto(self.full[a:b, a:b], 0.0, where=~upper)
        self.cells[-1] = 0.0

    def factor(self) -> Tuple[bool, float]:
        """Whether M factored, and the jitter used: the last rung's when every rung failed."""
        full = self.full
        n = len(full)
        diag = self.diag = full.diagonal().copy()
        base = 1e-14 * (1.0 + np.abs(diag).max(initial=0.0))
        for jitter in [0.0] + [base * 100.0 ** j for j in range(7)]:
            for a, b, upper in _tiles(n):
                full[:a, a:b] = full[a:b, :a].T
                tile = full[a:b, a:b]
                np.copyto(tile, tile.T, where=upper)
            full.flat[:: n + 1] = diag + jitter
            self.lo, info = lapack.dpotrf(full.T, lower=1, overwrite_a=1, clean=0)
            if info == 0:
                return True, jitter
        full.flat[:: n + 1] = diag
        return False, jitter

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs, rhs and the result in constraint order."""
        lo, diag, order = self.lo, self.diag, self.order
        on_diag = lo.T.reshape(-1)[:: len(diag) + 1]  # a view: lo is Fortran-contiguous
        factor_diag = on_diag.copy()

        def residual(x):
            on_diag[:] = diag
            mx = blas.dsymv(1.0, lo, x, lower=0)
            on_diag[:] = factor_diag
            return rhs - mx

        def by_factor(r):
            """M^{-1} r; overwrites r when solving by trsv."""
            if self.frame is None:
                return lapack.dpotrs(lo, r, lower=1)[0]
            blas.dtrsv(lo, r, lower=1, overwrite_x=1)
            return blas.dtrsv(lo, r, lower=1, trans=1, overwrite_x=1)

        rhs = rhs[order]
        x = by_factor(rhs.copy())
        res = residual(x)
        last = np.inf
        for _ in range(REFINE_PASSES):
            size = np.linalg.norm(res)
            if not size < 0.5 * last:
                break
            x += by_factor(res)
            last = size
            res = residual(x)
        out = np.empty_like(x)
        out[order] = x
        return out


class _Layout:
    """Size classes of a problem, the constraint map A and the Schur build.

    a is the CSR matrix (m, N) of all constraints over the stacked block
    entries: the classes in order, each as its (nb, s, s) stack flattened,
    with every off-diagonal entry at (r, c) and at (c, r).  A(V) and A^T(y)
    are one sparse matvec each, A^T by reading a's arrays as CSC.

    The Schur build's working set is allocated here, once per solve, and
    reused by every build: mat, M itself (see _Schur), its rows numbered
    by the strip block's slots when there is one (see _strip_block); one
    arena, sized to the plan's largest chunk footprint, for every chunk's
    views; and the scatter index of every chunk but the strips.  The
    classes' rows are M's, while A and A^T keep the constraint order.  The
    layout is built from plan, prob's _plan, planned here when not given.
    """

    def __init__(self, prob: CanonicalSdp, plan=None):
        m = self.m = prob.n_constraints
        self.n_blocks = len(prob.block_sizes)
        (blk, con, r, c, v), (pair_blk, pair_con, pair_width, pair_of_entry), cls, plans = plan or _plan(prob)
        # each (block, constraint) pair gets a slot: its rank among the
        # constraints touching that block, widest first, so that the slot
        # ranges of a chunk need little padding
        by_width = np.lexsort((pair_con, -pair_width, pair_blk))
        pair_slot = np.empty(len(pair_blk), dtype=np.intp)
        pair_slot[by_width] = _rank_within(pair_blk[by_width])
        by_pair = np.argsort(pair_of_entry, kind="stable")
        rank = np.empty(len(by_pair), dtype=np.intp)  # entry's place in its pair
        rank[by_pair] = _rank_within(pair_of_entry[by_pair])
        slot = pair_slot[pair_of_entry]
        on_c = prob.k == 0
        cblk, cr, cc, cv = (col[on_c] for col in (prob.blk, prob.r, prob.c, prob.v))
        strip_blk = _strip_block(pair_blk, plans)
        mine = pair_blk == strip_blk
        self.mat = _Schur(m, pair_con[mine][np.argsort(pair_slot[mine])])
        row_of = np.argsort(self.mat.order)

        index = _index_dtype(m)
        self.arena = np.empty(_working_set(plans, strip_blk)[0])
        self.classes: List[_SizeClass] = []
        pos = np.zeros(self.n_blocks, dtype=np.intp)  # position inside the class
        col = np.zeros(len(blk), dtype=np.intp)  # column of each entry in a
        ofs = 0
        for j, (members, s, k, wide, chunks) in enumerate(plans):
            nb = len(members)
            pos[members] = np.arange(nb)
            cstack = np.zeros((nb, s, s))
            sel = cls[cblk] == j
            _add_sym(cstack, (pos[cblk[sel]],), cr[sel], cc[sel], cv[sel])
            rows = np.full((nb, k), m, dtype=index)
            width = np.zeros((nb, k), dtype=np.intp)
            sel = cls[pair_blk] == j
            rows[pos[pair_blk[sel]], pair_slot[sel]] = row_of[pair_con[sel]]
            width[pos[pair_blk[sel]], pair_slot[sel]] = pair_width[sel]
            sel = cls[blk] == j
            eb, es, er, ec, ev = pos[blk[sel]], slot[sel], r[sel], c[sel], v[sel]
            p, q, val = (np.zeros((nb, k, wide), dtype=dt) for dt in (np.intp, np.intp, float))
            e = eb, es, rank[sel]
            p[e], q[e], val[e] = eb * s + er, eb * s + ec, ev  # rows of the stacks flattened
            flat = (eb * s + er) * s + ec
            col[sel] = ofs + flat
            ofs += nb * s * s
            # the readout of every chunk is a run of w's rows, with w's
            # columns counted from the first block of the entry's chunk
            first = np.empty(nb, dtype=np.intp)
            for b0, b1, _, _ in chunks:
                first[b0:b1] = b0
            w = sp.csr_matrix((ev, (eb * k + es, flat - first[eb] * s * s)), shape=(nb * k, nb * s * s))
            built = []
            for b0, b1, i0, i1 in chunks:
                kk = int(width[b0:b1, i0:i1].max())
                if not kk:  # blocks that no constraint touches add nothing
                    continue
                bl, sl = slice(b0, b1), slice(i0, i1)
                r0, r1 = b0 * k + i0, b1 * k
                wc = _RowRun((r1 - r0, (b1 - b0) * s * s), w.indptr[r0:r1 + 1], w.indices, w.data)
                strip = self.mat.frame[i0:i1, i0:] if members[b0] == strip_blk else None  # k slots
                views = _arena_views(self.arena, b1 - b0, i1 - i0, kk, s, k - i0, strip is not None)
                dest = None if strip is not None else _scatter_index(rows[bl], i0, i1, m)
                built.append(_Chunk(bl, sl, p[bl, sl, :kk], q[bl, sl, :kk], val[bl, sl, :kk, None],
                                    wc, *views, dest, strip))
            self.classes.append(_SizeClass(members, cstack, rows, built))
        self.a = sp.csr_matrix((v, (con, col)), shape=(m, ofs))
        self.ends = np.cumsum([0] + [cl.c.size for cl in self.classes])

    def a_map(self, vs: List[np.ndarray]) -> np.ndarray:
        """(<A_i, V>)_i for V given as one stack per class."""
        return self.a @ np.concatenate([v.ravel() for v in vs])

    def at_map(self, y: np.ndarray) -> List[np.ndarray]:
        """sum_i y_i A_i as one stack per class: A^T y, by scipy's CSC kernel on a's own arrays."""
        flat = np.zeros(self.a.shape[1])
        _sparsetools.csc_matvec(*self.a.shape[::-1], self.a.indptr, self.a.indices, self.a.data, y, flat)
        return [flat[a:b].reshape(cl.c.shape)
                for a, b, cl in zip(self.ends, self.ends[1:], self.classes)]

    def schur(self, xs: List[np.ndarray], sinvs: List[np.ndarray]) -> np.ndarray:
        """M[i,j] = sum_b <A_j, X A_i S^{-1}> for i >= j, in the lower triangle.

        i and j are M's rows, numbered as mat.order says.  X and S^{-1}
        are symmetric, so X A_i S^{-1} is the sum over the entries e of A_i
        of v_e X[p_e, :]^T S^{-1}[q_e, :]: one (s, K) by (K, s) product per
        (block, constraint) pair, read out against the A_j of the block and
        added into M: a strip chunk's by one CSR matvec per slot, from that
        slot on, into its strip, and any other chunk's by one CSR product
        from its first slot on, through its held index.  Each pair of a
        block is formed once, by the slot that comes first, so M is exactly
        symmetric in what it holds: its lower triangle, diagonal included,
        zeroed first (see _Schur).

        The returned M is mat's (m, m) array, overwritten by the next call
        and by mat.factor(): a caller that keeps M past them keeps a copy.
        """
        self.mat.zero()
        for cl, x, sinv in zip(self.classes, xs, sinvs):
            s = cl.size
            xf, sf = x.reshape(-1, s), sinv.reshape(-1, s)
            for ch in cl.chunks:
                nb, kc = ch.v.shape[:2]
                # take buffers out= unless mode is "clip"; the rows are in range
                np.take(xf, ch.xrow, axis=0, out=ch.xg, mode="clip")
                np.multiply(ch.xg, ch.v, out=ch.xg)
                np.take(sf, ch.srow, axis=0, out=ch.sg, mode="clip")
                np.matmul(ch.xg.swapaxes(-1, -2), ch.sg, out=ch.t)
                if ch.strip is None:
                    np.copyto(ch.tt, ch.t.reshape(nb, kc, s * s).swapaxes(1, 2))
                    _readout(ch.w, ch.tt.reshape(-1, kc), ch.out)
                    np.add.at(self.mat.cells, ch.dest.ravel(), ch.out.ravel())
                else:
                    # the readout is 0 before each slot's own: the
                    # strip's cells above M's diagonal keep their values
                    _readout_by_slot(ch.w, ch.t[0], ch.out[0])
                    np.add(ch.strip, ch.out[0], out=ch.strip)
        return self.mat.full

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


def _check_memory(prob: CanonicalSdp) -> Tuple[int, tuple]:
    """Bytes of the solver's working set and prob's _plan; ValueError when it would not fit.

    Counts what is held for the whole solve: the one m x m buffer M is
    built and factored in; the layout's arena, indices and tables (bounded
    by _layout_bytes of the plan returned); and 24 block stacks: the 13
    an iteration keeps alive (iterate, slack, the remembered best of both,
    residual, inverse factors of X and S, S^{-1}, both pairs of directions,
    corrector) and the temporaries of a step test (the stacked directions,
    two products and eigvalsh's copy, each two stacks deep) with room to
    spare.
    """
    m = prob.n_constraints
    sizes = prob.block_sizes
    s_max = max(sizes, default=0)
    need = 8 * (m * m + 1) + 8 * 24 * sum(s * s for s in sizes)
    limit = _memory_limit()
    plan = _plan(prob) if need <= limit else None  # past it the block sizes may not fit an int64
    need += _layout_bytes(m, plan) if plan else 0
    if need > limit:
        raise ValueError(
            f"the solver needs about {need / 2**20:.0f} MiB ({m} constraints, "
            f"largest block {s_max}), more than the {limit / 2**20:.0f} MiB "
            f"this process may use")
    return need, plan


def _constraint_norms(prob: CanonicalSdp) -> np.ndarray:
    """||A_i||_F of every constraint, its squares summed entry by entry in table order."""
    sq = np.bincount(prob.k, weights=prob.v * prob.v * (2.0 - (prob.r == prob.c)),
                     minlength=prob.n_constraints + 1)
    return np.sqrt(sq[1:])  # bin 0 is C's


def _dependent_rows(prob: CanonicalSdp, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Rows of A that are combinations of the others: (droppable, inconsistent).

    Nonzero rows whose supports share no cell (block, r, c) are
    independent; that is every unconstrained relaxation, settled by one sort
    of the table.  Otherwise the Gram matrix G = D A A^T D of the rows
    scaled to unit norm (<A_i, A_j> with symmetric semantics) is formed in
    its own array, freed on return, and factored in place by LAPACK's
    pivoted Cholesky, pstrf, with its default tolerance.  The rows past
    its rank, in pivot order, are combinations
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
    fac, piv, rank, _ = lapack.dpstrf((a @ a.T).toarray().T, lower=1, overwrite_a=1)
    if rank == m:
        return none, none
    kept, dep = piv[:rank] - 1, piv[rank:] - 1
    # trtrs reads L11 in place, off the first rank columns of the factor;
    # solve_triangular would copy it, rank^2 doubles
    z = lapack.dtrtrs(fac[:, :rank], scale[kept] * prob.b[kept], lower=1)[0]
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
    The layout is built from the memory check's plan, unless rows are dropped.
    """
    cfg = config or SolverConfig()
    prob.validate()
    _, plan = _check_memory(prob)
    m_all = prob.n_constraints
    dropped, inconsistent = _dependent_rows(prob, cfg.tol)
    if len(inconsistent):
        sol = _inconsistent(prob, inconsistent)
    elif not len(dropped):
        sol = _interior_point(prob, cfg, plan)
    else:
        sol = _interior_point(_without_rows(prob, dropped), cfg)
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


def _interior_point(prob: CanonicalSdp, cfg: SolverConfig, plan=None) -> SolverSolution:
    """The interior-point iteration on prob, its layout from plan."""
    m = prob.n_constraints
    lay = _Layout(prob, plan)
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

        if rel_gap <= cfg.tol and rp_norm <= cfg.tol and rd_norm <= cfg.tol:
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

        lay.schur(xs, sinvs)
        factored, jitter = lay.mat.factor()
        max_jitter = max(max_jitter, jitter)
        if not factored:
            stop("schur_failed")
            status = "numerical"
            break

        # the part of the rhs that both directions share
        xrds = [x @ rdb @ sinv for x, sinv, rdb in zip(xs, sinvs, rd)]

        def direction(sigma_mu: float, corr: Optional[List[np.ndarray]]):
            aux = []
            for j, (u, sinv) in enumerate(zip(xrds, sinvs)):
                if sigma_mu:
                    u = u - sigma_mu * sinv
                if corr is not None:
                    u = u + corr[j] @ sinv
                aux.append(u)
            dy = lay.mat.solve(b + lay.a_map(aux))
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
        # dx is symmetrized and ds a difference of symmetric stacks, so
        # both sums are exactly symmetric
        xs = [x + ap * dx for x, dx in zip(xs, dxs)]
        ss = [s + ad * ds for s, ds in zip(ss, dss)]
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
