"""Monomial bases for Gram matrix representations.

Three ways to pick the rows/columns of a Gram matrix for f:

* the standard basis, all monomials of degree <= d;
* the Newton half-polytope basis, lattice points beta with 2*beta inside the
  convex hull of supp(f) together with the origin (the origin participates
  because we always represent f - lambda, which has a constant term);
* a shrunken basis obtained by repeatedly discarding monomials that can never
  pair up into the support, optionally interleaved with the sparsity-graph
  machinery for constrained problems.

Bases are value objects: a sorted tuple of exponents plus an index lookup.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .poly import Exponent, Polynomial, PopProblem, grlex_key, monomials_up_to

STANDARD_BASIS_CAP = 10 ** 7
NEWTON_LP_TOL = 1e-9
# candidates per phase-1 LP in newton_half_basis; bounds the LP's size and memory
NEWTON_LP_CHUNK = 32
# a phase-1 L1 residual above this rejects a candidate without a further test
NEWTON_RESIDUAL_TOL = 1e-7
# point pairs whose sums newton_half_basis searches at once; bounds its memory
NEWTON_PAIR_BUDGET = 1 << 20


class MonomialBasis:
    """An ordered set of exponents, graded lex, with O(1) index lookup."""

    __slots__ = ("nvars", "monos", "_index")

    def __init__(self, nvars: int, monos: Iterable[Exponent]):
        dedup = {tuple(int(a) for a in m) for m in monos}
        for m in dedup:
            if len(m) != nvars or any(a < 0 for a in m):
                raise ValueError(f"bad exponent {m} for {nvars} variables")
        self.nvars = nvars
        self.monos: Tuple[Exponent, ...] = tuple(sorted(dedup, key=grlex_key))
        self._index: Dict[Exponent, int] = {m: i for i, m in enumerate(self.monos)}

    def __len__(self) -> int:
        return len(self.monos)

    def __iter__(self):
        return iter(self.monos)

    def __contains__(self, alpha) -> bool:
        return tuple(alpha) in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialBasis)
            and self.nvars == other.nvars
            and self.monos == other.monos
        )

    def __hash__(self):
        return hash((self.nvars, self.monos))

    def index(self, alpha: Exponent) -> int:
        return self._index[tuple(alpha)]

    def exponent_set(self) -> Set[Exponent]:
        return set(self.monos)

    def __repr__(self) -> str:
        return f"MonomialBasis(nvars={self.nvars}, size={len(self)})"


def standard_basis(nvars: int, degree: int) -> MonomialBasis:
    """All monomials of total degree <= degree."""
    if nvars < 1 or degree < 0:
        raise ValueError("need nvars >= 1 and degree >= 0")
    count = math.comb(nvars + degree, degree)
    if count > STANDARD_BASIS_CAP:
        raise ValueError(
            f"standard basis would have {count} monomials "
            f"(more than the {STANDARD_BASIS_CAP} cap); "
            "reduce the degree or variable count"
        )
    return MonomialBasis(nvars, monomials_up_to(nvars, degree))


def _in_half_polytope(beta: Exponent, points: np.ndarray) -> bool:
    """Is 2*beta a convex combination of the rows of points?

    Decided by LP feasibility: find lambda >= 0 with sum(lambda) = 1 and
    points^T lambda = 2*beta.
    """
    target = 2 * np.asarray(beta, dtype=float)
    npts = points.shape[0]
    a_eq = np.vstack([points.T, np.ones((1, npts))])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(
        c=np.zeros(npts),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": NEWTON_LP_TOL},
    )
    return res.status == 0


def _box_count(upper: Sequence[int], degree: int) -> int:
    """Number of lattice points 0 <= beta <= upper with |beta| <= degree."""
    ways = [1] + [0] * degree  # ways[d]: points of total degree d so far
    for u in upper:
        if u:
            ways = [sum(ways[max(0, d - u):d + 1]) for d in range(degree + 1)]
    return sum(ways)


def _box_points(upper: np.ndarray, degree: int) -> np.ndarray:
    """The lattice points counted by _box_count, one integer row each."""
    rows = np.zeros((1, len(upper)), dtype=np.int64)
    for i in np.flatnonzero(upper):
        deg = rows.sum(axis=1)
        grown = [rows]
        for a in range(1, int(upper[i]) + 1):
            more = rows[deg + a <= degree]
            more[:, i] = a
            grown.append(more)
        rows = np.concatenate(grown)
    return rows


def _midpoint_certified(cands: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask of the candidates beta with 4*beta = p + q for rows p, q of points.

    Then 2*beta = (p + q)/2 lies in conv(points): an exact certificate in
    integer arithmetic.  The pairwise sums are searched through linear
    64-bit keys, key(a) = sum_i a_i*w_i mod 2**64 with fixed odd weights w,
    so key(p + q) = key(p) + key(q); the pair a search returns is then
    checked on the exponent rows themselves, so a key collision can only
    cost a candidate its certificate, never grant one.  The sums are formed
    for at most NEWTON_PAIR_BUDGET pairs at a time.
    """
    npts, nvars = points.shape
    weights = np.random.default_rng(0).integers(0, 2 ** 63, size=nvars, dtype=np.uint64) * 2 + 1
    keys = points.astype(np.uint64) @ weights
    target = (4 * cands).astype(np.uint64) @ weights
    found = np.zeros(len(cands), dtype=bool)
    step = max(1, NEWTON_PAIR_BUDGET // npts)
    for lo in range(0, npts, step):
        sums = (keys[lo:lo + step, None] + keys).ravel()
        order = np.argsort(sums)
        pos = np.minimum(np.searchsorted(sums[order], target), len(sums) - 1)
        i, j = np.divmod(order[pos], npts)
        found |= (points[lo + i] + points[j] == 4 * cands).all(axis=1)
    return found


def _phase1_residuals(cands: np.ndarray, points: np.ndarray):
    """L1 distance of each 2*beta to conv(points), from one block-diagonal LP.

    Each candidate gets its own block: lambda in the simplex and slacks
    s+, s- >= 0 with points^T lambda + s+ - s- = 2*beta, and the LP
    minimizes the sum of all slacks.  Returns None when the LP does not end
    optimal.
    """
    npts, nvars = points.shape
    eye = np.eye(nvars)
    block = sparse.csr_matrix(np.block([
        [points.T, eye, -eye],
        [np.ones((1, npts)), np.zeros((1, 2 * nvars))],
    ]))
    count = len(cands)
    res = linprog(
        c=np.tile(np.r_[np.zeros(npts), np.ones(2 * nvars)], count),
        A_eq=sparse.kron(sparse.identity(count, format="csr"), block, format="csr"),
        b_eq=np.hstack([2.0 * cands, np.ones((count, 1))]).ravel(),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        return None
    return res.x.reshape(count, -1)[:, npts:].sum(axis=1)


def newton_half_basis(f: Polynomial) -> MonomialBasis:
    """Lattice points of half the Newton polytope of f (origin included).

    The candidates are all beta with 2*beta in conv(supp(f) union {0});
    the origin joins the hull because the representation target is always
    f - lambda with a constant present.  A single-monomial objective is
    handled separately: x^alpha is a square exactly when alpha is even.

    Only the beta with 2*beta inside the bounding box and the degree bound
    of the hull are enumerated (at most STANDARD_BASIS_CAP of them).  Each
    is decided in up to three steps: an exact midpoint certificate keeps
    it; else a chunked phase-1 LP rejects it when its L1 residual exceeds
    NEWTON_RESIDUAL_TOL; what is left, and every candidate of a chunk whose
    LP does not end optimal, is decided by _in_half_polytope.
    """
    supp = f.support()
    if not supp:
        raise ValueError("zero polynomial has no Newton polytope")
    if len(supp) == 1:
        (alpha,) = supp
        if any(a % 2 for a in alpha):
            raise ValueError("objective cannot be SOS: single monomial of odd exponent")
        return MonomialBasis(f.nvars, [tuple(a // 2 for a in alpha)])
    pts = sorted(supp | {(0,) * f.nvars}, key=grlex_key)
    points = np.array(pts, dtype=np.int64)
    hull = points.astype(float)
    upper = points.max(axis=0) // 2
    half_deg = int(points.sum(axis=1).max()) // 2
    count = _box_count(upper.tolist(), half_deg)
    if count > STANDARD_BASIS_CAP:
        raise ValueError(
            f"Newton basis would test {count} candidate monomials "
            f"(more than the {STANDARD_BASIS_CAP} cap); reduce the degree or variable count"
        )
    cands = _box_points(upper, half_deg)
    certified = _midpoint_certified(cands, points)
    kept = cands[certified].tolist()
    rest = cands[~certified]
    for start in range(0, len(rest), NEWTON_LP_CHUNK):
        chunk = rest[start:start + NEWTON_LP_CHUNK]
        resid = _phase1_residuals(chunk, points)
        if resid is not None:
            chunk = chunk[resid <= NEWTON_RESIDUAL_TOL]
        kept.extend(b for b in chunk.tolist() if _in_half_polytope(b, hull))
    return MonomialBasis(f.nvars, kept)


def generate_basis(
    support: Iterable[Exponent],
    base: MonomialBasis | Iterable[Exponent],
    nvars: int | None = None,
    max_steps: int | None = None,
) -> List[MonomialBasis]:
    """Increasing chain of sub-bases that can still reach the support.

    Starting from B_0 empty, step p keeps every pair {beta, gamma} of the
    base whose sum lies in the support or in 2*B_{p-1}.  The chain B_1,
    B_2, ... is returned up to stabilization (B_p == B_{p-1}) or up to
    max_steps entries.  The last element is the useful shrunken basis.
    """
    if isinstance(base, MonomialBasis):
        nvars = base.nvars
        base_set = base.exponent_set()
    else:
        base_set = {tuple(m) for m in base}
        if nvars is None:
            raise ValueError("nvars required when base is a raw exponent set")
    supp = {tuple(a) for a in support}
    base_list = sorted(base_set, key=grlex_key)
    chain: List[MonomialBasis] = []
    prev: Set[Exponent] = set()
    while True:
        targets = supp | {tuple(2 * a for a in m) for m in prev}
        cur: Set[Exponent] = set()
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
        chain.append(MonomialBasis(nvars, cur))
        if cur == prev:
            break
        prev = cur
        if max_steps is not None and len(chain) >= max_steps:
            break
    return chain


def reduce_basis_unconstrained(f: Polynomial, base: MonomialBasis | None = None) -> MonomialBasis:
    """Stabilized shrunken basis for representing f - lambda.

    Defaults to shrinking the Newton half-polytope basis against
    supp(f) plus the origin.
    """
    if base is None:
        base = newton_half_basis(f)
    support = f.support() | {(0,) * f.nvars}
    chain = generate_basis(support, base)
    return chain[-1]


def reduce_basis_constrained(
    pop: PopProblem,
    d_hat: int,
    k: int = 1,
    mode: str = "approx_min",
) -> MonomialBasis:
    """Shrink the moment basis of a constrained relaxation to a fixed point.

    Alternates two steps until the basis stops changing: run the sparsity
    graph iteration at order k with the current moment basis, then keep only
    basis elements that can pair into supp(f), or into supp(g_j) shifted by
    products within some clique of g_j's graph.  Only the j = 0 basis is
    shrunk; localizing bases stay standard.
    """
    from .graphs import iterate_constrained, maximal_cliques

    f = pop.objective
    n = pop.nvars
    basis0 = standard_basis(n, d_hat)
    origin = (0,) * n
    while True:
        seq = iterate_constrained(pop, d_hat, k=k, mode=mode, moment_basis=basis0)
        target = f.support() | {origin}
        for j, g in enumerate(pop.constraints, start=1):
            graph = seq.graphs[-1][j]
            sums: Set[Exponent] = set()
            for clique in maximal_cliques(graph).cliques:
                members = [graph.basis.monos[i] for i in clique]
                for a in members:
                    for b in members:
                        sums.add(tuple(x + y for x, y in zip(a, b)))
            for ga in g.support():
                for s in sums:
                    target.add(tuple(x + y for x, y in zip(ga, s)))
        chain = generate_basis(target, basis0)
        new_basis = chain[-1]
        if new_basis == basis0:
            return basis0
        basis0 = new_basis
