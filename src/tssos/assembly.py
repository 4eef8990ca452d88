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

The two problems are exact duals, so both sides are the same standard-form
table up to sign: on the moment side the constraint entries and their rhs
are negated.  The bound is read from the primal objective on the SOS side
and from the dual objective on the moment side:

    bound = f_0 - primal_opt   (sos)      bound = f_0 - dual_opt   (moment)

Every relaxation takes the same route: each generator g_j (g_0 = 1) brings a
clique decomposition of its basis, every clique is one PSD block, and the
rows are scattered forward from the products within the cliques.  The
unconstrained case is the generator list [1] and the dense case one clique
per basis.  assemble builds the solver's table once, with the side's sign;
the side then only picks the readout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .basis import _ExponentSet, exponent_keys
from .graphs import CliqueDecomposition
from .poly import Polynomial, PopProblem, grlex_order
from .solver import CanonicalSdp, SolverConfig, SolverSolution, solve_canonical

SIDES = ("sos", "moment")


@dataclass
class BlockSdp:
    """A relaxation: the solver's table, its constant offset and its side.

    Constraint i of problem is the equality of exponent alphas[i + 1], and
    F_0 = C that of alphas[0] = 0 (alphas is graded lex), whose rhs f_0 is
    the offset.  Entry e of row k[e] puts the coefficient of one generator
    term on one clique cell; b is f's coefficients.  On the moment side the
    constraint entries and b are negated.  Entries are stably ordered by row,
    which is SDPA's entry order.  A relaxation read from an SDPA file has no
    exponents: alphas is None.
    """

    problem: CanonicalSdp
    offset: float
    side: str
    alphas: Optional[np.ndarray] = None
    constraints: Tuple[Polynomial, ...] = ()

    @property
    def block_sizes(self) -> List[int]:
        return list(self.problem.block_sizes)

    @property
    def n_equalities(self) -> int:
        """Equality rows, the objective's row 0 included."""
        return self.problem.n_constraints + 1

    def scalar_variable_count(self) -> int:
        """Total Gram entries over all blocks (SOS-side scalar count)."""
        return sum(s * (s + 1) // 2 for s in self.block_sizes)

    def canonical(self) -> Tuple[CanonicalSdp, float, str]:
        """The solver's table, the constant offset and the side, as stored."""
        return self.problem, self.offset, self.side

    @property
    def readout(self) -> str:
        """The solver objective the bound is read from: primal (sos) or dual (moment)."""
        return "primal_obj" if self.side == "sos" else "dual_obj"

    def bound(self, objectives: Mapping[str, float]) -> float:
        """The lower bound offset - objectives[readout]."""
        return self.offset - objectives[self.readout]


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
    terms: List[Tuple[np.ndarray, np.ndarray]] = []  # every generator's term rows and coefficients
    first_node = 0
    for g, dec in zip(gens, cliques):
        clique, a, b, u, v = _clique_cells(dec)
        blk = clique + len(block_sizes)
        block_sizes.extend(len(c) for c in dec.cliques)
        terms.append((g.rows, g.coeffs))
        for _ in terms[-1][1]:  # parts holds one entry per term so far
            parts.append((blk, a, b, u + first_node, v + first_node, np.full(len(a), len(parts))))
        nodes.append(dec.basis.array)
        first_node += len(dec.basis)
    blk, a, b, u, v, term = (np.concatenate(col) for col in zip(*parts))
    node_rows = np.concatenate(nodes)
    shifts, coeffs = (np.concatenate(col) for col in zip(*terms))
    node_keys = exponent_keys(node_rows)
    sums = _ExponentSet(
        node_keys[u] + node_keys[v] + exponent_keys(shifts)[term],
        lambda idx: node_rows[u[idx]] + node_rows[v[idx]] + shifts[term[idx]],
    )
    distinct, group = sums.rows(np.arange(len(sums))), sums.member_of
    coeff = coeffs[term]
    order = grlex_order(distinct)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    row = rank[group]
    perm = np.argsort(row, kind="stable")
    alphas = distinct[order]
    if not len(alphas) or alphas[0].any():
        raise ValueError("constant monomial missing: no alpha = 0 row")

    # f's support looked up among the rows: its coefficients are the rhs
    supp, f_coeffs = f.rows, f.coeffs
    member = sums.find(exponent_keys(supp), supp.__getitem__)
    missing = member < 0
    if missing.any():
        absent = supp[missing][grlex_order(supp[missing])][:5]
        raise ValueError(f"unrepresentable support: {list(map(tuple, absent.tolist()))} "
                         "not realized by the cliques")
    rhs = np.zeros(len(alphas))
    rhs[rank[member]] = f_coeffs
    row, coeff, constraint_rhs = row[perm], coeff[perm], rhs[1:]
    if side == "moment":
        coeff, constraint_rhs = np.where(row > 0, -coeff, coeff), -constraint_rhs
    problem = CanonicalSdp(tuple(block_sizes), constraint_rhs, row, blk[perm], a[perm], b[perm], coeff)
    return BlockSdp(problem, float(rhs[0]), side, alphas, tuple(pop.constraints))


# -- solving ------------------------------------------------------------------


def solve_relaxation(problem: BlockSdp, config: SolverConfig | None = None) -> RelaxationResult:
    """Run the interior-point solver on the relaxation's table, read out the bound."""
    prob = problem.canonical()[0]
    t0 = time.perf_counter()
    sol = solve_canonical(prob, config)
    dt = time.perf_counter() - t0
    return RelaxationResult(
        bound=problem.bound(vars(sol)),
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
    if problem.alphas is None:
        raise ValueError("certificates need an assembled relaxation, not one read from a file")
    n = problem.alphas.shape[1]
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
        total = total + g * Polynomial(n, distinct, coeffs)
    return total
