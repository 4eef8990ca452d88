"""Assembling block SDPs from sparsity graphs by coefficient matching.

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

The two assembly routes enumerate independently (rows by exponent vs blocks
by position), which makes cross-checking them a meaningful test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .basis import MonomialBasis, standard_basis
from .graphs import CliqueDecomposition, GraphSequence, MonomialGraph, maximal_cliques
from .poly import Exponent, Polynomial, PopProblem, grlex_key, monomials_up_to
from .solver import CanonicalSdp, SolverConfig, SolverSolution, solve_canonical

SIDES = ("sos", "moment")


@dataclass(frozen=True)
class BlockSpec:
    size: int
    label: Tuple[int, int]  # (constraint index j, clique index); j = 0 is the moment block


@dataclass(frozen=True)
class CoeffMatcher:
    """One equality row: entries of Gram blocks that realize an exponent."""

    alpha: Exponent
    entries: Tuple[Tuple[int, int, int, float], ...]  # (block, row, col, coeff), row <= col
    rhs: float


@dataclass
class BlockSdp:
    """A relaxation in block form, before canonicalization for the solver."""

    nvars: int
    side: str
    blocks: Tuple[BlockSpec, ...]
    rows: Tuple[CoeffMatcher, ...]
    constraints: Tuple[Polynomial, ...] = ()
    meta: Dict = field(default_factory=dict)

    @property
    def n_equalities(self) -> int:
        return len(self.rows)

    @property
    def block_sizes(self) -> List[int]:
        return [b.size for b in self.blocks]

    def scalar_variable_count(self) -> int:
        """Total Gram entries over all blocks (SOS-side scalar count)."""
        return sum(s * (s + 1) // 2 for s in self.block_sizes)

    def moment_variable_count(self) -> int:
        """Distinct y_alpha variables (moment-side scalar count)."""
        return len(self.rows)

    def constant_row(self) -> CoeffMatcher:
        origin = (0,) * self.nvars
        for row in self.rows:
            if row.alpha == origin:
                return row
        raise ValueError("constant monomial missing: no alpha = 0 row")

    def canonical(self) -> Tuple[CanonicalSdp, float, str]:
        """Standard-form data plus (constant offset, readout side).

        bound = offset - primal objective for the SOS side, and
        bound = offset - dual objective for the moment side.
        """
        origin = (0,) * self.nvars
        const = self.constant_row()
        sign = 1.0 if self.side == "sos" else -1.0
        a_entries = []
        b = []
        for row in self.rows:
            if row.alpha == origin:
                continue
            a_entries.append(tuple((blk, r, c, sign * v) for blk, r, c, v in row.entries))
            b.append(sign * row.rhs)
        prob = CanonicalSdp(
            block_sizes=tuple(s.size for s in self.blocks),
            c_entries=tuple(const.entries),
            a_entries=tuple(a_entries),
            b=tuple(b),
        )
        readout = "primal" if self.side == "sos" else "dual"
        return prob, const.rhs, readout


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


def _require_constant(basis: MonomialBasis):
    if (0,) * basis.nvars not in basis:
        raise ValueError("constant monomial missing from the basis")


def _sum(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


# -- dense assembly (the oracle path; no graph machinery involved) -----------


def assemble_dense_unconstrained(f: Polynomial, basis: MonomialBasis, side: str = "sos") -> BlockSdp:
    """Full Gram relaxation on one block: rows over every pairwise sum."""
    _check_side(side)
    _require_constant(basis)
    monos = basis.monos
    r = len(monos)
    positions: Dict[Exponent, List[Tuple[int, int, int, float]]] = {}
    for i in range(r):
        for j in range(i, r):
            positions.setdefault(_sum(monos[i], monos[j]), []).append((0, i, j, 1.0))
    missing = [a for a in f.support() if a not in positions]
    if missing:
        raise ValueError(f"unrepresentable support: {sorted(missing, key=grlex_key)[:5]} not in basis sums")
    rows = tuple(
        CoeffMatcher(alpha=a, entries=tuple(ents), rhs=f.coeff(a))
        for a, ents in sorted(positions.items(), key=lambda kv: grlex_key(kv[0]))
    )
    return BlockSdp(
        nvars=f.nvars,
        side=side,
        blocks=(BlockSpec(size=r, label=(0, 0)),),
        rows=rows,
        meta={"kind": "dense_unconstrained", "basis_size": r},
    )


def assemble_dense_constrained(pop: PopProblem, d_hat: int, side: str = "sos") -> BlockSdp:
    """Full moment/SOS relaxation of order d_hat with one block per g_j."""
    _check_side(side)
    f = pop.objective
    n = pop.nvars
    gens = [Polynomial.constant(n, 1.0)] + list(pop.constraints)
    half = [0] + [(g.degree() + 1) // 2 for g in pop.constraints]
    if d_hat < max((f.degree() + 1) // 2, max(half)):
        raise ValueError("relaxation order too small for the problem degrees")
    bases = [standard_basis(n, d_hat - h) for h in half]
    blocks = tuple(BlockSpec(size=len(b), label=(j, 0)) for j, b in enumerate(bases))
    rows_map: Dict[Exponent, List[Tuple[int, int, int, float]]] = {}
    for j, (g, bj) in enumerate(zip(gens, bases)):
        monos = bj.monos
        for i in range(len(monos)):
            for k in range(i, len(monos)):
                rho = _sum(monos[i], monos[k])
                for aprime, coeff in g.terms.items():
                    rows_map.setdefault(_sum(aprime, rho), []).append((j, i, k, coeff))
    missing = [a for a in f.support() if a not in rows_map]
    if missing:
        raise ValueError(f"unrepresentable support: {sorted(missing, key=grlex_key)[:5]}")
    rows = tuple(
        CoeffMatcher(alpha=a, entries=tuple(ents), rhs=f.coeff(a))
        for a, ents in sorted(rows_map.items(), key=lambda kv: grlex_key(kv[0]))
    )
    return BlockSdp(
        nvars=n,
        side=side,
        blocks=blocks,
        rows=rows,
        constraints=tuple(pop.constraints),
        meta={"kind": "dense_constrained", "d_hat": d_hat, "basis_sizes": [len(b) for b in bases]},
    )


# -- sparse assembly ----------------------------------------------------------


def _clique_blocks(
    graphs: Sequence[MonomialGraph],
) -> Tuple[Tuple[BlockSpec, ...], List[Tuple[int, int, Tuple[int, ...]]]]:
    """Flatten clique decompositions into solver blocks.

    Returns the block specs plus a list of (j, block index, member node
    indices) triples.
    """
    specs: List[BlockSpec] = []
    layout: List[Tuple[int, int, Tuple[int, ...]]] = []
    for j, graph in enumerate(graphs):
        dec = maximal_cliques(graph)
        for ci, clique in enumerate(dec.cliques):
            layout.append((j, len(specs), clique))
            specs.append(BlockSpec(size=len(clique), label=(j, ci)))
    return tuple(specs), layout


def assemble_sparse_unconstrained(
    f: Polynomial,
    basis: MonomialBasis,
    graph: MonomialGraph,
    side: str = "sos",
) -> BlockSdp:
    """Sparse Gram relaxation with one block per maximal clique of the graph.

    SOS route: one row per exponent in the graph support, collecting every
    clique position that realizes it.  Moment route: walk clique positions
    and scatter them into per-exponent pattern matrices.  Both land in the
    same row container.
    """
    _check_side(side)
    _require_constant(basis)
    if graph.basis != basis:
        raise ValueError("graph was built on a different basis")
    blocks, layout = _clique_blocks([graph])
    monos = basis.monos
    supp_g = graph.support()
    missing = [a for a in f.support() if a not in supp_g]
    if missing:
        raise ValueError(
            f"unrepresentable support: {sorted(missing, key=grlex_key)[:5]} "
            "not realized by the graph"
        )

    rows_map: Dict[Exponent, List[Tuple[int, int, int, float]]] = {}
    if side == "sos":
        # row-major: fix the exponent, scan cliques for realizing positions
        by_alpha: Dict[Exponent, List[Tuple[int, int, int]]] = {}
        for _, blk, clique in layout:
            for a in range(len(clique)):
                for b in range(a, len(clique)):
                    s = _sum(monos[clique[a]], monos[clique[b]])
                    by_alpha.setdefault(s, []).append((blk, a, b))
        for alpha in sorted(supp_g, key=grlex_key):
            rows_map[alpha] = [(blk, a, b, 1.0) for blk, a, b in by_alpha[alpha]]
    else:
        # position-major: scatter clique entries into pattern matrices
        for _, blk, clique in layout:
            members = [monos[i] for i in clique]
            for a, ma in enumerate(members):
                for b in range(a, len(members)):
                    rows_map.setdefault(_sum(ma, members[b]), []).append((blk, a, b, 1.0))

    rows = tuple(
        CoeffMatcher(alpha=a, entries=tuple(ents), rhs=f.coeff(a))
        for a, ents in sorted(rows_map.items(), key=lambda kv: grlex_key(kv[0]))
    )
    return BlockSdp(
        nvars=f.nvars,
        side=side,
        blocks=blocks,
        rows=rows,
        meta={
            "kind": "sparse_unconstrained",
            "basis_size": len(basis),
            "clique_sizes": sorted((len(c) for _, _, c in layout), reverse=True),
        },
    )


def assemble_sparse_constrained(
    pop: PopProblem,
    d_hat: int,
    graphs: Sequence[MonomialGraph],
    side: str = "sos",
) -> BlockSdp:
    """Sparse constrained relaxation from one graph per generator.

    graphs[0] is the moment graph, graphs[j] the localizing graph of g_j.
    Duplicate exponents across generators share a single equality row (SOS
    side) or a single y variable (moment side).
    """
    _check_side(side)
    f = pop.objective
    n = pop.nvars
    gens = [Polynomial.constant(n, 1.0)] + list(pop.constraints)
    if len(graphs) != len(gens):
        raise ValueError(f"expected {len(gens)} graphs, got {len(graphs)}")
    _require_constant(graphs[0].basis)
    blocks, layout = _clique_blocks(graphs)

    rows_map: Dict[Exponent, List[Tuple[int, int, int, float]]] = {}
    if side == "sos":
        # precompute realization maps per generator graph, then emit rows
        realize: List[Dict[Exponent, List[Tuple[int, int, int]]]] = [dict() for _ in gens]
        for j, blk, clique in layout:
            monos = graphs[j].basis.monos
            for a in range(len(clique)):
                for b in range(a, len(clique)):
                    s = _sum(monos[clique[a]], monos[clique[b]])
                    realize[j].setdefault(s, []).append((blk, a, b))
        alphas: Set[Exponent] = set()
        for j, g in enumerate(gens):
            for aprime in g.terms:
                for rho in realize[j]:
                    alphas.add(_sum(aprime, rho))
        for alpha in sorted(alphas, key=grlex_key):
            ents: List[Tuple[int, int, int, float]] = []
            for j, g in enumerate(gens):
                for aprime, coeff in g.terms.items():
                    delta = tuple(x - y for x, y in zip(alpha, aprime))
                    if any(d < 0 for d in delta):
                        continue
                    for blk, a, b in realize[j].get(delta, ()):
                        ents.append((blk, a, b, coeff))
            if ents:
                rows_map[alpha] = ents
    else:
        for j, blk, clique in layout:
            monos = graphs[j].basis.monos
            g = gens[j]
            for a in range(len(clique)):
                for b in range(a, len(clique)):
                    rho = _sum(monos[clique[a]], monos[clique[b]])
                    for aprime, coeff in g.terms.items():
                        rows_map.setdefault(_sum(aprime, rho), []).append((blk, a, b, coeff))

    missing = [a for a in f.support() if a not in rows_map]
    if missing:
        raise ValueError(f"unrepresentable support: {sorted(missing, key=grlex_key)[:5]}")
    rows = tuple(
        CoeffMatcher(alpha=a, entries=tuple(ents), rhs=f.coeff(a))
        for a, ents in sorted(rows_map.items(), key=lambda kv: grlex_key(kv[0]))
    )
    return BlockSdp(
        nvars=n,
        side=side,
        blocks=blocks,
        rows=rows,
        constraints=tuple(pop.constraints),
        meta={
            "kind": "sparse_constrained",
            "d_hat": d_hat,
            "clique_sizes_per_j": [
                sorted((len(c) for jj, _, c in layout if jj == j), reverse=True)
                for j in range(len(gens))
            ],
        },
    )


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
    graphs: Sequence[MonomialGraph] | None = None,
    bases: Sequence[MonomialBasis] | None = None,
) -> Polynomial:
    """Rebuild lambda + sum_j g_j * sigma_j from an SOS-side solution.

    For a sound solve this equals f up to solver tolerance; it is the
    soundness check used in the tests.  The caller supplies the clique
    layout through graphs (sparse) or bases (dense).
    """
    if problem.side != "sos":
        raise ValueError("certificates come from SOS-side solves")
    if result.solution is None:
        raise ValueError("result carries no solver solution")
    n = problem.nvars
    gens = [Polynomial.constant(n, 1.0)] + list(problem.constraints)
    if graphs is not None:
        _, layout = _clique_blocks(graphs)
        member_monos = [
            [graphs[j].basis.monos[i] for i in clique] for j, _, clique in layout
        ]
        block_gen = [j for j, _, _ in layout]
    elif bases is not None:
        member_monos = [list(b.monos) for b in bases]
        block_gen = list(range(len(bases)))
    else:
        raise ValueError("pass graphs (sparse) or bases (dense)")
    lam = result.bound
    total = Polynomial.constant(n, lam)
    for blk, monos in enumerate(member_monos):
        x = result.solution.x_blocks[blk]
        sigma_terms: Dict[Exponent, float] = {}
        for a in range(len(monos)):
            for b in range(len(monos)):
                key = _sum(monos[a], monos[b])
                sigma_terms[key] = sigma_terms.get(key, 0.0) + x[a, b]
        sigma = Polynomial(n, sigma_terms)
        total = total + gens[block_gen[blk]] * sigma
    return total
