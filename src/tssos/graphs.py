"""Term-sparsity graphs on monomial bases and their chordal extensions.

Nodes are basis monomials.  Two distinct monomials are linked when their sum
is a support exponent we care about; every node is implicitly linked to
itself, so the diagonal (squares of basis monomials) is always part of a
graph's support.  A graph holds its edges as one sorted array of codes
i*r + j, i < j, against the graded lex order of a basis of r nodes: the
form the edge search returns, so a union is np.union1d and a comparison
np.array_equal; the (i, j) pairs and the adjacency are formed from the codes
only where they are read.  A chordal graph's maximal cliques, what the
relaxations are read off, are formed once and kept on the graph.

The sparse relaxation machinery iterates two steps on the graph of every
generator g_j (g_0 = 1, then each constraint), each on its own basis: a
support extension that adds any edge whose sum, shifted by a term of g_j,
is already realized by the current moment graph, and a chordal extension
that completes the result into a chordal graph.  An unconstrained problem is
the single generator g_0.  Running the pair to a fixed point gives the graph
sequence the block structure of the relaxations is read from; one loop,
iterate_constrained, does it for every relaxation.  reduce_basis_constrained
alternates that loop with the basis shrinking of the basis module.

Each step searches only the support that is new.  This is exact because
edges only grow from level to level (the seed union and the chordal
extension both return supergraphs): a pair that is still a non-edge was a
non-edge at every earlier level, so its sum already missed every support
searched for that graph so far (for the moment graph, the tsp_graph targets
too).  Only support outside those sets can link it, and only chordal fill
and seed edges bring such support, since a support-extension edge's sum is
old support by definition.

Every search is one _linked_pairs call (basis module): it enumerates the
divisors of the targets instead of the basis pairs.  For a target t and a
shift s (a term of g_j, or 0 for the moment graph) it counts out the
sub-exponents beta <= d = t - s and looks beta and d - beta up among the
basis keys, so a search costs O(|targets| * |shifts| * prod(d_k + 1)) and
not O(r^2) in the basis size r; every hit is confirmed on the exponent rows.

Chordal extension modes:

* ``approx_min``: leave the graph alone when it is already chordal (checked
  by maximum cardinality search); otherwise add fill edges along a
  minimum-degree elimination ordering, breaking degree ties by lowest node
  index so runs are reproducible.
* ``min_fill``: same shape, but the elimination picks the node that creates
  the fewest fill edges at each step.
* ``block_closure``: complete every connected component (the coarsest chordal
  extension; cheap, bigger blocks).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .basis import (
    MonomialBasis,
    RowsOf,
    _ExponentSet,
    _linked_pairs,
    _rows_set,
    _with_origin,
    exponent_keys,
    generate_basis,
    generator_bases,
)
from .poly import Polynomial, PopProblem

Edge = Tuple[int, int]

EXTENSION_MODES = ("approx_min", "min_fill", "block_closure")


class MonomialGraph:
    """A graph over the monomials of a basis, self-loops implicit.

    The edges are one read-only, sorted int64 array of distinct codes
    i*r + j, i < j, for a basis of r nodes; pairs and adjacency() are
    formed from it on demand.  Edges are given as pairs (i, j), an iterable
    or an (m, 2) array, or as a 1-D array of codes; repeats and self-loops
    are dropped and a node outside the basis is refused.  A graph that
    chordal_extension returned keeps a perfect elimination ordering of
    itself, so neither a later extension step nor maximal_cliques searches
    for one again, and a chordal graph keeps the clique decomposition
    maximal_cliques formed, so it is formed once.
    """

    __slots__ = ("basis", "codes", "_order", "_cliques")

    def __init__(self, basis: MonomialBasis, edges: Iterable[Edge] | np.ndarray = ()):
        r = len(basis)
        if not isinstance(edges, np.ndarray):
            edges = np.array(list(edges), dtype=np.int64)
        elif edges.ndim == 1:  # codes
            edges = np.column_stack(np.divmod(edges, max(r, 1)))
        pairs = edges.astype(np.int64).reshape(-1, 2)
        i, j = pairs.min(axis=1), pairs.max(axis=1)
        bad = (i < 0) | (j >= r)
        if bad.any():
            raise ValueError(f"edge {tuple(pairs[bad][0].tolist())} out of range for {r} nodes")
        self.basis = basis
        self.codes = np.unique((i * r + j)[i != j])
        self.codes.flags.writeable = False
        self._order: Optional[List[int]] = None
        self._cliques: Optional[CliqueDecomposition] = None

    @property
    def pairs(self) -> np.ndarray:
        """The edges as an (n_edges, 2) int64 array of (i, j), i < j, in code order."""
        return np.column_stack(np.divmod(self.codes, max(self.n_nodes, 1)))

    def _union(self, codes: np.ndarray) -> "MonomialGraph":
        """This graph plus the edges of codes: np.union1d, by the constructor's np.unique."""
        return MonomialGraph(self.basis, np.concatenate([self.codes, codes])) if len(codes) else self

    @property
    def n_nodes(self) -> int:
        return len(self.basis)

    @property
    def n_edges(self) -> int:
        return len(self.codes)

    def adjacency(self) -> Dict[int, Set[int]]:
        adj: Dict[int, Set[int]] = {i: set() for i in range(self.n_nodes)}
        for i, j in self.pairs.tolist():
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialGraph)
            and self.basis == other.basis
            and np.array_equal(self.codes, other.codes)
        )

    def __repr__(self) -> str:
        return f"MonomialGraph(nodes={self.n_nodes}, edges={self.n_edges})"


# -- edge search by exponent keys ----------------------------------------------


def _support_pairs(graph: MonomialGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Node index arrays a, b whose sums basis[a] + basis[b] make up the graph's support.

    The support is every sum of two adjacent nodes; the diagonal contributes
    2*beta for every node beta, matching the implicit self-loops.
    """
    diag = np.arange(graph.n_nodes)
    i, j = graph.pairs.T
    return np.concatenate([diag, i]), np.concatenate([diag, j])


def _support_items(graph: MonomialGraph) -> Tuple[np.ndarray, RowsOf]:
    """Keys and rows_of of the sums basis[a] + basis[b] that make up the graph's support."""
    rows = graph.basis.array
    a, b = _support_pairs(graph)
    keys = exponent_keys(rows)
    return keys[a] + keys[b], lambda idx: rows[a[idx]] + rows[b[idx]]


def _support_set(graph: MonomialGraph) -> _ExponentSet:
    """The graph's support as an _ExponentSet."""
    return _ExponentSet(*_support_items(graph))


def _new_support(keys: np.ndarray, rows_of: RowsOf, searched: _ExponentSet) -> Optional[_ExponentSet]:
    """The support items (keys, rows_of) outside searched, or None when they are all in there."""
    new = np.flatnonzero(~searched.contains(keys, rows_of))
    if not len(new):
        return None
    return _ExponentSet(keys[new], lambda idx: rows_of(new[idx]))


def _tsp_targets(f: Polynomial, basis: MonomialBasis, extra) -> _ExponentSet:
    """supp(f), the extra support exponent rows and all doubled basis monomials."""
    extra = np.asarray(extra, dtype=np.int64).reshape(-1, basis.nvars)
    return _rows_set(np.concatenate([f.rows, extra, 2 * basis.array]))


def _linked(
    graph: MonomialGraph, targets: Optional[_ExponentSet], shifts: Optional[np.ndarray] = None
) -> MonomialGraph:
    """graph plus every non-edge whose sum, shifted by a row of shifts, is in targets.

    targets None stands for the empty set: no pair search at all.
    """
    if targets is None:
        return graph
    return graph._union(_linked_pairs(graph.basis, targets, shifts, known=graph.codes))


def tsp_graph(
    f: Polynomial,
    basis: MonomialBasis,
    extra_support=(),
) -> MonomialGraph:
    """Initial sparsity graph: link monomials whose sum hits the support.

    The target set is supp(f), any extra support exponent rows (constraint
    supports in the constrained setting), and all doubled basis monomials.
    """
    return _linked(MonomialGraph(basis, ()), _tsp_targets(f, basis, extra_support))


def support_extension(graph: MonomialGraph) -> MonomialGraph:
    """Add every edge whose sum is already realized by the graph."""
    return _linked(graph, _support_set(graph))


# -- chordality ------------------------------------------------------------


def _mcs_order(adj: Dict[int, Set[int]]) -> List[int]:
    """Maximum cardinality search visit order (ties to the lowest index).

    A heap of (-weight, node) with lazy deletion: every weight increment
    pushes a fresh entry, and an entry whose node was visited or whose
    weight is out of date is skipped when popped.
    """
    n = len(adj)
    weight = [0] * n
    seen = [False] * n
    heap = [(0, u) for u in range(n)]
    order = []
    while heap:
        w, v = heapq.heappop(heap)
        if seen[v] or -w != weight[v]:
            continue
        seen[v] = True
        order.append(v)
        for u in adj[v]:
            if not seen[u]:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    return order


def _peo(adj: Dict[int, Set[int]]) -> Optional[List[int]]:
    order = list(reversed(_mcs_order(adj)))
    pos = {v: p for p, v in enumerate(order)}
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        first = min(later, key=lambda u: pos[u])
        rest = set(later) - {first}
        if not rest <= adj[first]:
            return None
    return order


def peo(graph: MonomialGraph) -> Optional[List[int]]:
    """A perfect elimination ordering, or None if the graph is not chordal.

    The reverse of an MCS visit order is a perfect elimination ordering
    exactly when the graph is chordal; the candidate is verified directly.
    """
    return _peo(graph.adjacency())


def is_chordal(graph: MonomialGraph) -> bool:
    return peo(graph) is not None


def _block_closure(graph: MonomialGraph) -> MonomialGraph:
    """Complete every connected component; a graph already so is returned."""
    pairs = graph.pairs
    r = graph.n_nodes
    adj = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(r, r))
    count, label = connected_components(adj, directed=False)
    sizes = np.bincount(label, minlength=count)
    if int((sizes * (sizes - 1) // 2).sum()) == graph.n_edges:
        return graph
    members = np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1])
    blocks = [np.zeros(0, dtype=np.int64)]
    for comp in members:
        if len(comp) > 1:
            a, b = np.triu_indices(len(comp), 1)
            blocks.append(comp[a] * r + comp[b])
    return MonomialGraph(graph.basis, np.concatenate(blocks))


def _elimination_fill(adj: Dict[int, Set[int]], rule: str) -> Tuple[Set[Edge], List[int]]:
    """Fill edges produced by a greedy elimination ordering, and the ordering.

    rule 'degree' picks the node of minimum current degree, rule 'fill' the
    node whose neighborhood needs the fewest new edges.  Ties go to the
    lowest index.  The ordering is a perfect elimination ordering of the
    graph plus the fill: a node's neighbors eliminated after it are its
    neighbors when it is eliminated, made a clique by then.
    """
    work = {v: set(nb) for v, nb in adj.items()}
    fills: Set[Edge] = set()
    order: List[int] = []
    by_fill = rule == "fill"

    def cost(u: int) -> int:
        nbs = work[u]
        if not by_fill:
            return len(nbs)
        linked = sum(len(work[a] & nbs) for a in nbs) // 2
        return len(nbs) * (len(nbs) - 1) // 2 - linked

    # costs are kept current edge by edge instead of being recounted, and the
    # next node comes off a heap of (cost, node) whose stale entries are skipped
    costs = {u: cost(u) for u in sorted(work)}
    heap = [(c, u) for u, c in costs.items()]
    heapq.heapify(heap)
    while heap:
        c, v = heapq.heappop(heap)
        if costs.get(v) != c:
            continue
        order.append(v)
        nbs = sorted(work[v])
        moved = set(nbs)
        for a in range(len(nbs)):
            for b in range(a + 1, len(nbs)):
                p, q = nbs[a], nbs[b]
                if q not in work[p]:
                    if by_fill:
                        # p gains the pairs (q, x), x in N(p), missing unless
                        # x is in N(q); a common neighbor loses the pair (p, q)
                        common = work[p] & work[q]
                        for w in common:
                            costs[w] -= 1
                        moved |= common
                        costs[p] += len(work[p]) - len(common)
                        costs[q] += len(work[q]) - len(common)
                    else:
                        costs[p] += 1
                        costs[q] += 1
                    work[p].add(q)
                    work[q].add(p)
                    fills.add((min(p, q), max(p, q)))
        for u in nbs:
            work[u].discard(v)
            # N(v) is a clique now, so u's pairs (v, x) miss exactly for x outside N(v)
            costs[u] -= len(work[u]) - (len(nbs) - 1) if by_fill else 1
        del work[v], costs[v]
        for u in moved - {v}:
            heapq.heappush(heap, (costs[u], u))
    return fills, order


def chordal_extension(graph: MonomialGraph, mode: str = "approx_min") -> MonomialGraph:
    """Extend a graph to a chordal supergraph.

    Already-chordal graphs are returned unchanged in the elimination modes,
    so trees, complete graphs and other chordal inputs keep their exact edge
    set.  In those modes the returned graph keeps a perfect elimination
    ordering: the one that showed the input chordal, or the elimination
    ordering the fill was made along.  A graph that already holds one is
    returned at once.
    """
    if mode not in EXTENSION_MODES:
        raise ValueError(f"unknown extension mode {mode!r}; pick one of {EXTENSION_MODES}")
    if mode == "block_closure":
        return _block_closure(graph)
    if graph._order is not None:
        return graph
    adj = graph.adjacency()
    order = _peo(adj)
    if order is not None:
        graph._order = order
        return graph
    rule = "degree" if mode == "approx_min" else "fill"
    fills, order = _elimination_fill(adj, rule)
    out = graph._union(np.array([p * graph.n_nodes + q for p, q in fills], dtype=np.int64))
    out._order = order
    return out


# -- maximal cliques --------------------------------------------------------


@dataclass(frozen=True)
class CliqueDecomposition:
    """Maximal cliques of a chordal graph, as sorted node index tuples."""

    basis: MonomialBasis
    cliques: Tuple[Tuple[int, ...], ...]

    @classmethod
    def whole(cls, basis: MonomialBasis) -> CliqueDecomposition:
        """One clique holding the whole basis: the dense relaxation."""
        return cls(basis, (tuple(range(len(basis))),))

    @property
    def sizes(self) -> List[int]:
        return sorted((len(c) for c in self.cliques), reverse=True)

    @property
    def max_clique(self) -> int:
        return max(len(c) for c in self.cliques) if self.cliques else 0


def maximal_cliques(graph: MonomialGraph) -> CliqueDecomposition:
    """Enumerate maximal cliques along a perfect elimination ordering.

    The ordering the graph keeps from chordal_extension is used when there
    is one.  The decomposition is kept on the graph, and later calls return
    it.  Raises ValueError when the graph is not chordal: callers must
    extend first.
    """
    if graph._cliques is not None:
        return graph._cliques
    adj = graph.adjacency()
    order = graph._order if graph._order is not None else _peo(adj)
    if order is None:
        raise ValueError("graph is not chordal; apply chordal_extension first")
    # Along a perfect elimination ordering, node v's later neighbors L(v)
    # form a clique with v, and {v} | L(v) is maximal unless some node w
    # whose first later neighbor is v has L(w) = {v} | L(v), which is
    # exactly when |L(w)| = |L(v)| + 1 (Vandenberghe-Andersen, 2015, sec. 4).
    pos = {v: p for p, v in enumerate(order)}
    later = {v: [u for u in adj[v] if pos[u] > pos[v]] for v in order}
    absorbed = set()
    for v in order:
        if later[v]:
            parent = min(later[v], key=pos.__getitem__)
            if len(later[v]) == len(later[parent]) + 1:
                absorbed.add(parent)
    cliques = sorted(tuple(sorted([v] + later[v])) for v in order if v not in absorbed)
    graph._cliques = CliqueDecomposition(graph.basis, tuple(cliques))
    return graph._cliques


# -- graph iterations --------------------------------------------------------


@dataclass
class GraphSequence:
    """Graphs per iteration order; levels[k][j] is generator j's graph.

    j = 0 is the moment graph, the only one of an unconstrained problem.  Level 0
    holds the raw sparsity pattern; levels >= 1 are chordal.  stabilized_at
    is the smallest k >= 1 whose level is a fixed point of the iteration,
    or None if that was not reached within the computed range.
    """

    levels: List[List[MonomialGraph]]
    stabilized_at: Optional[int]

    def at(self, k: int) -> List[MonomialGraph]:
        return self.levels[k]


def iterate_constrained(
    pop: PopProblem,
    bases: Sequence[MonomialBasis],
    k: int = 1,
    mode: str = "approx_min",
    seed: GraphSequence | None = None,
) -> GraphSequence:
    """Graph iteration of a relaxation with one basis per generator.

    bases[0] carries the moment graph (g_0 = 1) and bases[j] the graph of
    constraint g_j, as cliques[j] does in assemble; an unconstrained
    problem has the single basis [basis].  Per iteration the moment graph
    is support-extended and the constraint graphs are rebuilt from the
    previous moment support: g_j links {beta, gamma} whenever some exponent
    of g_j shifted by beta + gamma lands in that support.  Each graph is
    seeded with its predecessor's edges before the chordal extension, which
    keeps the levels nested even though the extension heuristic is not
    monotone by itself.  One step past k probes for stabilization.

    A seed sequence from a lower relaxation order can be supplied to keep
    graphs nested across orders as well; its edges are embedded by monomial
    identity and unioned in at every level.

    Every search covers only the support new since that graph's last one
    (see the module docstring): the moment support minus the tsp targets at
    step 1 for the moment graph, the whole moment support at step 1 for a
    constraint graph, and from step 2 on, for both, the moment support minus
    the previous step's.  When nothing is new the search is skipped.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(bases) != len(pop.constraints) + 1:
        raise ValueError(f"expected {len(pop.constraints) + 1} bases, got {len(bases)}")
    shifts = [g.rows for g in pop.constraints]
    extra = np.concatenate([np.zeros((0, pop.nvars), dtype=np.int64), *shifts])

    def with_seed(graph: MonomialGraph, level: int, j: int) -> MonomialGraph:
        """graph plus the seed's level-`level` edges of generator j, by monomial identity."""
        if seed is None:
            return graph
        lv = min(level, len(seed.levels) - 1)
        if j >= len(seed.levels[lv]):
            return graph
        src = seed.levels[lv][j]
        # both bases are graded lex, so an edge i < j of src stays i < j
        at = graph.basis.find(src.basis.array)[src.pairs]
        at = at[(at >= 0).all(axis=1)]
        return graph._union(at[:, 0] * graph.n_nodes + at[:, 1])

    targets = _tsp_targets(pop.objective, bases[0], extra)
    g0 = with_seed(_linked(MonomialGraph(bases[0], ()), targets), 0, 0)
    levels: List[List[MonomialGraph]] = [[g0] + [MonomialGraph(b, ()) for b in bases[1:]]]
    stabilized = None
    searched = targets  # every non-edge of the moment graph is known to miss it
    for step in range(1, k + 2):
        prev = levels[-1]
        items = _support_items(prev[0])
        moment_supp = _ExponentSet(*items)
        new = _new_support(*items, searched)
        new_level = [chordal_extension(with_seed(_linked(prev[0], new), step, 0), mode)]
        # the constraint graphs were last searched one step back, against the
        # support searched now holds; at step 1 they have searched nothing yet
        loc_targets = moment_supp if step == 1 else new
        for j, loc_prev in enumerate(prev[1:]):
            graph = with_seed(_linked(loc_prev, loc_targets, shifts[j]), step, j + 1)
            new_level.append(chordal_extension(graph, mode))
        if step >= 2 and all(np.array_equal(g.codes, h.codes) for g, h in zip(new_level, prev)):
            stabilized = step - 1
            break
        if step > k:
            break
        levels.append(new_level)
        # it holds every tsp target a basis pair can realize, as tsp edges did
        searched = moment_supp
    while len(levels) < k + 1:
        levels.append(levels[-1])
    return GraphSequence(levels=levels, stabilized_at=stabilized)


def reduce_basis_constrained(
    pop: PopProblem,
    d_hat: int,
    k: int = 1,
    mode: str = "approx_min",
) -> GraphSequence:
    """Shrink the moment basis of a constrained relaxation to a fixed point.

    Alternates two steps until the basis stops changing: run the sparsity
    graph iteration at order k with the current moment basis, then keep only
    basis elements that can pair into supp(f), or into supp(g_j) shifted by
    products within some clique of g_j's graph.  Only the j = 0 basis is
    shrunk; localizing bases stay the generator_bases ones.  Returns the
    last round's GraphSequence, the iteration on the reduced basis, which is
    seq.at(0)[0].basis.

    g_j's graph is chordal, so the products within its maximal cliques are
    exactly its support: the doubled nodes and the sums along its edges.
    """
    n = pop.nvars
    basis0, *loc_bases = generator_bases(pop, d_hat)
    fixed = _with_origin(pop.objective)
    shifts = [g.rows for g in pop.constraints]
    while True:
        seq = iterate_constrained(pop, [basis0] + loc_bases, k=k, mode=mode)
        targets = [fixed]
        for graph, shift in zip(seq.levels[-1][1:], shifts):
            a, b = _support_pairs(graph)
            sums = graph.basis.array[a] + graph.basis.array[b]
            targets.append((sums[:, None, :] + shift).reshape(-1, n))
        new_basis = generate_basis(np.concatenate(targets), basis0)[-1]
        if new_basis == basis0:
            return seq
        basis0 = new_basis


def clique_report(graph: MonomialGraph, stabilized: bool) -> dict:
    """Census of a chordal graph's maximal cliques in plain JSON-friendly form."""
    dec = maximal_cliques(graph)
    return {
        "clique_sizes": dec.sizes,
        "max_clique": dec.max_clique,
        "n_edges": graph.n_edges,
        "stabilized": bool(stabilized),
    }
