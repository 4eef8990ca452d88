"""Term-sparse moment-SOS relaxations for polynomial optimization.

The pipeline: build a monomial basis for the Gram matrix, read the term
sparsity pattern of the objective (and constraints) as a graph on that
basis, extend it to a chordal graph, split the relaxation into one block
per maximal clique, and solve the resulting SDP with the embedded
interior-point solver or export it in SDPA sparse format.
"""

from .assembly import (
    BlockSdp,
    RelaxationResult,
    assemble,
    reconstruct_certificate,
    solve_relaxation,
)
from .basis import (
    MonomialBasis,
    generate_basis,
    newton_half_basis,
    reduce_basis_unconstrained,
    standard_basis,
)
from .graphs import (
    CliqueDecomposition,
    EXTENSION_MODES,
    GraphSequence,
    MonomialGraph,
    chordal_extension,
    clique_report,
    is_chordal,
    iterate_constrained,
    maximal_cliques,
    reduce_basis_constrained,
    support_extension,
    tsp_graph,
)
from .poly import (
    ParseError,
    Polynomial,
    PopProblem,
    parse_polynomial,
    parse_pop,
)
from .sdpa import SdpaFormatError, export_sdpa, import_sdpa
from .solver import CanonicalSdp, SolverConfig, SolverSolution, solve_canonical

__version__ = "0.1.0"

__all__ = [
    "BlockSdp",
    "CanonicalSdp",
    "CliqueDecomposition",
    "EXTENSION_MODES",
    "GraphSequence",
    "MonomialBasis",
    "MonomialGraph",
    "ParseError",
    "Polynomial",
    "PopProblem",
    "RelaxationResult",
    "SdpaFormatError",
    "SolverConfig",
    "SolverSolution",
    "assemble",
    "chordal_extension",
    "clique_report",
    "export_sdpa",
    "generate_basis",
    "import_sdpa",
    "is_chordal",
    "iterate_constrained",
    "maximal_cliques",
    "newton_half_basis",
    "parse_polynomial",
    "parse_pop",
    "reconstruct_certificate",
    "reduce_basis_constrained",
    "reduce_basis_unconstrained",
    "solve_canonical",
    "solve_relaxation",
    "standard_basis",
    "support_extension",
    "tsp_graph",
    "__version__",
]
