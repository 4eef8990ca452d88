"""Assembling block SDPs from clique decompositions by coefficient matching.

The SOS side of a relaxation asks for f - lambda = sum_j g_j * sigma_j with
every sigma_j a sum of squares supported on the cliques of g_j's graph.
Matching coefficients exponent by exponent gives one equality row per
exponent: the Gram entries realizing alpha, weighted by the coefficients of
g_j, must add up to f_alpha, and lambda rides along only in the alpha = 0
row.  The moment side keeps one scalar variable y_alpha per exponent and
requires every clique submatrix of every (localizing) moment matrix to be
positive semidefinite; overlapping cliques automatically agree because a
shared y_alpha is literally the same variable in each block.

Both sides canonicalize to the same standard-form data (the two problems are
exact duals), but the bound is read from the primal objective on the SOS
side and from the dual objective on the moment side:

    bound = f_0 - primal_opt   (sos)      bound = f_0 - dual_opt   (moment)

Every relaxation takes the same route: each generator g_j (g_0 = 1) brings a
clique decomposition of its basis, every clique is one PSD block, and the
rows are scattered forward from the products within the cliques.  The
unconstrained case is the generator list [1] and the dense case one clique
per basis, so only the readout depends on the side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .basis import _ExponentSet, exponent_keys
from .graphs import CliqueDecomposition
from .poly import Exponent, Polynomial, PopProblem, grlex_key
from .solver import CanonicalSdp, SolverConfig, SolverSolution, solve_canonical

SIDES = ("sos", "moment")


@dataclass
class BlockSdp:
    """A relaxation in block form, before canonicalization for the solver.

    Row i is the equality of exponent alphas[i], f's coefficient rhs[i] on
    the right.  alphas is graded lex, so row 0 is the constant.  Entry e
    puts coefficient v[e] on cell (r[e], c[e]), r <= c, of block blk[e] in
    row row[e]; entries are stably ordered by row.  The row number is the
    SDPA matrix index: row 0 becomes the objective, row i constraint i.
    """

    nvars: int
    side: str
    block_sizes: List[int]
    alphas: np.ndarray
    rhs: np.ndarray
    row: np.ndarray
    blk: np.ndarray
    r: np.ndarray
    c: np.ndarray
    v: np.ndarray
    constraints: Tuple[Polynomial, ...] = ()

    @property
    def n_equalities(self) -> int:
        return len(self.alphas)

    def scalar_variable_count(self) -> int:
        """Total Gram entries over all blocks (SOS-side scalar count)."""
        return sum(s * (s + 1) // 2 for s in self.block_sizes)

    def moment_variable_count(self) -> int:
        """Distinct y_alpha variables (moment-side scalar count)."""
        return len(self.alphas)

    def canonical(self) -> Tuple[CanonicalSdp, float, str]:
        """Standard-form data plus (constant offset, readout side).

        bound = offset - primal objective for the SOS side, and
        bound = offset - dual objective for the moment side.
        """
        sign = 1.0 if self.side == "sos" else -1.0
        v = self.v if sign == 1.0 else np.where(self.row > 0, -self.v, self.v)
        prob = CanonicalSdp(tuple(self.block_sizes), sign * self.rhs[1:],
                            self.row, self.blk, self.r, self.c, v)
        readout = "primal" if self.side == "sos" else "dual"
        return prob, float(self.rhs[0]), readout


@dataclass
class RelaxationResult:
    bound: float
    status: str
    side: str
    block_sizes: List[int]
    n_equalities: int
    iterations: int
    residuals: Dict[str, float]
    solve_seconds: float
    solution: Optional[SolverSolution] = None

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "status": self.status,
            "side": self.side,
            "block_sizes": self.block_sizes,
            "n_equalities": self.n_equalities,
            "iters": self.iterations,
            "residuals": self.residuals,
            "solve_seconds": self.solve_seconds,
            "events": self.solution.events if self.solution is not None else [],
        }


def _check_side(side: str):
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")


def _clique_cells(dec: CliqueDecomposition) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every cell a <= b of every clique block, clique by clique in row-major order.

    Returns the clique index, the in-block row a and column b, and the basis
    indices u, v of the two nodes the cell pairs.
    """
    sizes = np.array([len(c) for c in dec.cliques], dtype=np.int64)
    counts = sizes * (sizes + 1) // 2
    start = np.cumsum(counts) - counts
    clique = np.repeat(np.arange(len(sizes)), counts)
    a, b, u, v = (np.empty(int(counts.sum()), dtype=np.int64) for _ in range(4))
    for size in np.unique(sizes).tolist():
        which = np.flatnonzero(sizes == size)
        members = np.array([dec.cliques[w] for w in which.tolist()], dtype=np.int64)
        ta, tb = np.triu_indices(size)
        pos = (start[which, None] + np.arange(len(ta))).ravel()
        a[pos], b[pos] = np.tile(ta, len(which)), np.tile(tb, len(which))
        u[pos], v[pos] = members[:, ta].ravel(), members[:, tb].ravel()
    return clique, a, b, u, v


def assemble(pop: PopProblem, cliques: Sequence[CliqueDecomposition], side: str = "sos") -> BlockSdp:
    """Relaxation with one PSD block per clique of every generator's basis.

    cliques[0] decomposes the moment basis (g_0 = 1) and cliques[j] the
    basis of g_j's localizing block.  An unconstrained problem has the single
    generator 1; a dense relaxation passes CliqueDecomposition.whole of each
    basis.  Row alpha collects, generator by generator and term by term, the
    clique entries realizing alpha - aprime, so duplicate exponents across
    generators share one equality row (SOS side) or one y variable (moment
    side).

    Every (generator, term, cell) triple is one entry of row aprime + u + v;
    the entries are laid out in that order, so a stable sort by row keeps it
    within each row.
    """
    _check_side(side)
    f = pop.objective
    n = pop.nvars
    gens = [Polynomial.constant(n, 1.0)] + list(pop.constraints)
    if len(cliques) != len(gens):
        raise ValueError(f"expected {len(gens)} clique decompositions, got {len(cliques)}")
    # the basis is graded lex, so the constant is row 0 when present
    basis0 = cliques[0].basis.array
    if not len(basis0) or basis0[0].any():
        raise ValueError("constant monomial missing from the basis")

    block_sizes: List[int] = []
    parts: List[Tuple[np.ndarray, ...]] = []  # per generator term: its cells and term index
    nodes: List[np.ndarray] = []  # every generator's basis rows, stacked
    terms: List[Tuple[Exponent, float]] = []
    first_node = 0
    for g, dec in zip(gens, cliques):
        clique, a, b, u, v = _clique_cells(dec)
        blk = clique + len(block_sizes)
        block_sizes.extend(len(c) for c in dec.cliques)
        for term in g.terms.items():
            parts.append((blk, a, b, u + first_node, v + first_node, np.full(len(a), len(terms))))
            terms.append(term)
        nodes.append(dec.basis.array)
        first_node += len(dec.basis)
    blk, a, b, u, v, term = (np.concatenate(col) for col in zip(*parts))
    node_rows = np.concatenate(nodes)
    shifts = np.array([t for t, _ in terms], dtype=np.int64).reshape(-1, n)
    node_keys = exponent_keys(node_rows)
    sums = _ExponentSet(
        node_keys[u] + node_keys[v] + exponent_keys(shifts)[term],
        lambda idx: node_rows[u[idx]] + node_rows[v[idx]] + shifts[term[idx]],
    )
    distinct, group = sums.rows(np.arange(len(sums))), sums.member_of
    coeff = np.array([c for _, c in terms])[term]
    # graded lex: total degree first, then x1's exponent downwards, then x2's, ...
    order = np.lexsort(np.vstack([-distinct[:, ::-1].T, distinct.sum(axis=1)]))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    row = rank[group]
    perm = np.argsort(row, kind="stable")
    alphas = distinct[order]
    if not len(alphas) or alphas[0].any():
        raise ValueError("constant monomial missing: no alpha = 0 row")

    # f's support looked up among the rows: its coefficients are the rhs
    supp = np.array(list(f.terms), dtype=np.int64).reshape(-1, n)
    q, member = sums.candidates(exponent_keys(supp))
    hit = (supp[q] == sums.rows(member)).all(axis=1)
    q, member = q[hit], member[hit]
    missing = np.ones(len(supp), dtype=bool)
    missing[q] = False
    if missing.any():
        absent = sorted(map(tuple, supp[missing].tolist()), key=grlex_key)
        raise ValueError(f"unrepresentable support: {absent[:5]} not realized by the cliques")
    rhs = np.zeros(len(alphas))
    rhs[rank[member]] = np.array(list(f.terms.values()))[q]
    return BlockSdp(nvars=n, side=side, block_sizes=block_sizes, alphas=alphas, rhs=rhs,
                    row=row[perm], blk=blk[perm], r=a[perm], c=b[perm], v=coeff[perm],
                    constraints=tuple(pop.constraints))


# -- solving ------------------------------------------------------------------


def solve_relaxation(problem: BlockSdp, config: SolverConfig | None = None) -> RelaxationResult:
    """Canonicalize, run the interior-point solver, read out the bound."""
    prob, offset, readout = problem.canonical()
    t0 = time.perf_counter()
    sol = solve_canonical(prob, config)
    dt = time.perf_counter() - t0
    value = sol.primal_obj if readout == "primal" else sol.dual_obj
    return RelaxationResult(
        bound=offset - value,
        status=sol.status,
        side=problem.side,
        block_sizes=problem.block_sizes,
        n_equalities=problem.n_equalities,
        iterations=sol.iterations,
        residuals=sol.residuals,
        solve_seconds=dt,
        solution=sol,
    )


def reconstruct_certificate(
    problem: BlockSdp,
    result: RelaxationResult,
    cliques: Sequence[CliqueDecomposition],
) -> Polynomial:
    """Rebuild lambda + sum_j g_j * sigma_j from an SOS-side solution.

    For a sound solve this equals f up to solver tolerance; it is the
    soundness check used in the tests.  cliques is the decomposition the
    problem was assembled from.
    """
    if problem.side != "sos":
        raise ValueError("certificates come from SOS-side solves")
    if result.solution is None:
        raise ValueError("result carries no solver solution")
    n = problem.nvars
    gens = [Polynomial.constant(n, 1.0)] + list(problem.constraints)
    if len(cliques) != len(gens):
        raise ValueError(f"expected {len(gens)} clique decompositions, got {len(cliques)}")
    total = Polynomial.constant(n, result.bound)
    x_blocks = iter(result.solution.x_blocks)
    for g, dec in zip(gens, cliques):
        u, v = _clique_cells(dec)[3:]
        # x is symmetric, so an off-diagonal cell a < b carries x[a, b] + x[b, a]
        cells = [np.zeros(0)]
        for _, x in zip(dec.cliques, x_blocks):
            cells.append((x + x.T - np.diag(np.diag(x)))[np.triu_indices(len(x))])
        rows = dec.basis.array
        keys = exponent_keys(rows)
        sums = _ExponentSet(keys[u] + keys[v], lambda idx: rows[u[idx]] + rows[v[idx]])
        distinct, group = sums.rows(np.arange(len(sums))), sums.member_of
        coeffs = np.bincount(group, weights=np.concatenate(cells), minlength=len(distinct))
        sigma = dict(zip(map(tuple, distinct.tolist()), coeffs.tolist()))
        total = total + g * Polynomial(n, sigma)
    return total
