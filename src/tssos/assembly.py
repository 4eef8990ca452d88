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

from .graphs import CliqueDecomposition
from .poly import Exponent, Polynomial, PopProblem, grlex_key
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


def _sum(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def assemble(pop: PopProblem, cliques: Sequence[CliqueDecomposition], side: str = "sos") -> BlockSdp:
    """Relaxation with one PSD block per clique of every generator's basis.

    cliques[0] decomposes the moment basis (g_0 = 1) and cliques[j] the
    basis of g_j's localizing block.  An unconstrained problem has the single
    generator 1; a dense relaxation passes CliqueDecomposition.whole of each
    basis.  Row alpha collects, generator by generator and term by term, the
    clique entries realizing alpha - aprime, so duplicate exponents across
    generators share one equality row (SOS side) or one y variable (moment
    side).
    """
    _check_side(side)
    f = pop.objective
    n = pop.nvars
    gens = [Polynomial.constant(n, 1.0)] + list(pop.constraints)
    if len(cliques) != len(gens):
        raise ValueError(f"expected {len(gens)} clique decompositions, got {len(cliques)}")
    if (0,) * n not in cliques[0].basis:
        raise ValueError("constant monomial missing from the basis")

    blocks: List[BlockSpec] = []
    realize: List[Dict[Exponent, List[Tuple[int, int, int]]]] = [dict() for _ in gens]
    for j, dec in enumerate(cliques):
        monos = dec.basis.monos
        for ci, clique in enumerate(dec.cliques):
            blk = len(blocks)
            blocks.append(BlockSpec(size=len(clique), label=(j, ci)))
            for a in range(len(clique)):
                for b in range(a, len(clique)):
                    s = _sum(monos[clique[a]], monos[clique[b]])
                    realize[j].setdefault(s, []).append((blk, a, b))
    rows_map: Dict[Exponent, List[Tuple[int, int, int, float]]] = {}
    for j, g in enumerate(gens):
        for aprime, coeff in g.terms.items():
            shifted = any(aprime)
            for rho, cells in realize[j].items():
                alpha = _sum(aprime, rho) if shifted else rho
                rows_map.setdefault(alpha, []).extend([(blk, a, b, coeff) for blk, a, b in cells])

    missing = [a for a in f.support() if a not in rows_map]
    if missing:
        raise ValueError(
            f"unrepresentable support: {sorted(missing, key=grlex_key)[:5]} "
            "not realized by the cliques"
        )
    rows = tuple(
        CoeffMatcher(alpha=a, entries=tuple(ents), rhs=f.coeff(a))
        for a, ents in sorted(rows_map.items(), key=lambda kv: grlex_key(kv[0]))
    )
    return BlockSdp(nvars=n, side=side, blocks=tuple(blocks), rows=rows,
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
    members = [(g, dec.monomials(ci)) for g, dec in zip(gens, cliques) for ci in range(len(dec.cliques))]
    total = Polynomial.constant(n, result.bound)
    for (g, monos), x in zip(members, result.solution.x_blocks):
        sigma_terms: Dict[Exponent, float] = {}
        for a in range(len(monos)):
            for b in range(len(monos)):
                key = _sum(monos[a], monos[b])
                sigma_terms[key] = sigma_terms.get(key, 0.0) + x[a, b]
        total = total + g * Polynomial(n, sigma_terms)
    return total
