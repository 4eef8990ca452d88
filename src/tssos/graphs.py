"""Term-sparsity graphs on monomial bases and their chordal extensions.

Nodes are basis monomials.  Two distinct monomials are linked when their sum
is a support exponent we care about; every node is implicitly linked to
itself, so the diagonal (squares of basis monomials) is always part of a
graph's support.  Edges are stored as a frozenset of index pairs (i, j) with
i < j against the graded lex order of the basis.

The sparse relaxation machinery iterates two steps on the graph of every
generator g_j (g_0 = 1, then each constraint), each on its own basis: a
support extension that adds any edge whose sum, shifted by a term of g_j,
is already realized by the current moment graph, and a chordal extension
that completes the result into a chordal graph.  An unconstrained problem is
the single generator g_0.  Running the pair to a fixed point gives the graph
sequence the block structure of the relaxations is read from; one loop,
iterate_constrained, does it for every relaxation.

Each step searches only the support that is new.  This is exact because
edges only grow from level to level (the seed union and the chordal
extension both return supergraphs): a pair that is still a non-edge was a
non-edge at every earlier level, so its sum already missed every support
searched for that graph so far (for the moment graph, the tsp_graph targets
too).  Only support outside those sets can link it, and only chordal fill
and seed edges bring such support, since a support-extension edge's sum is
old support by definition.

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
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .basis import MonomialBasis, RowsOf, _ExponentSet, _linked_pairs, _rows_set, exponent_keys
from .poly import Exponent, Polynomial, PopProblem

Edge = Tuple[int, int]

EXTENSION_MODES = ("approx_min", "min_fill", "block_closure")


def _pair_set(pairs: np.ndarray) -> FrozenSet[Edge]:
    return frozenset(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))


class MonomialGraph:
    """A graph over the monomials of a basis, self-loops implicit.

    A graph that chordal_extension returned keeps a perfect elimination
    ordering of itself, so neither a later extension step nor
    maximal_cliques searches for one again.
    """

    __slots__ = ("basis", "edges", "_pairs", "_order")

    def __init__(self, basis: MonomialBasis, edges: Iterable[Edge]):
        n = len(basis)
        norm = set()
        for i, j in edges:
            if i == j:
                continue  # self-loops are implicit
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for {n} nodes")
            norm.add((min(i, j), max(i, j)))
        self.basis = basis
        self.edges: FrozenSet[Edge] = frozenset(norm)
        self._pairs: Optional[np.ndarray] = None
        self._order: Optional[List[int]] = None

    @classmethod
    def _from_pairs(
        cls, basis: MonomialBasis, pairs: np.ndarray, edges: Optional[FrozenSet[Edge]] = None
    ) -> "MonomialGraph":
        """A graph from distinct in-range pairs i < j, taken without checks."""
        graph = cls.__new__(cls)
        graph.basis = basis
        graph.edges = _pair_set(pairs) if edges is None else edges
        pairs.flags.writeable = False
        graph._pairs = pairs
        graph._order = None
        return graph

    @property
    def pairs(self) -> np.ndarray:
        """The edges as a read-only (n_edges, 2) int64 array of (i, j), i < j."""
        if self._pairs is None:
            flat = chain.from_iterable(self.edges)
            self._pairs = np.fromiter(flat, dtype=np.int64, count=2 * self.n_edges).reshape(-1, 2)
            self._pairs.flags.writeable = False
        return self._pairs

    def _with_pairs(self, new: np.ndarray) -> "MonomialGraph":
        """This graph plus new edges, distinct pairs i < j that are not edges yet."""
        if not len(new):
            return self
        return MonomialGraph._from_pairs(
            self.basis, np.concatenate([self.pairs, new]), self.edges | _pair_set(new)
        )

    @property
    def n_nodes(self) -> int:
        return len(self.basis)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return True
        return (min(i, j), max(i, j)) in self.edges

    def adjacency(self) -> Dict[int, Set[int]]:
        adj: Dict[int, Set[int]] = {i: set() for i in range(self.n_nodes)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def support(self) -> Set[Exponent]:
        """All exponents realized as a sum of two adjacent nodes.

        The diagonal contributes 2*beta for every node beta, matching the
        implicit self-loops.
        """
        monos = self.basis.monos
        out = {tuple(2 * a for a in m) for m in monos}
        for i, j in self.edges:
            out.add(tuple(x + y for x, y in zip(monos[i], monos[j])))
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialGraph)
            and self.basis == other.basis
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"MonomialGraph(nodes={self.n_nodes}, edges={self.n_edges})"


# -- edge search by exponent keys ----------------------------------------------


def _support_pairs(graph: MonomialGraph) -> Tuple[np.ndarray, np.ndarray]:
    """Node index arrays a, b whose sums basis[a] + basis[b] make up graph.support()."""
    diag = np.arange(graph.n_nodes)
    return np.concatenate([diag, graph.pairs[:, 0]]), np.concatenate([diag, graph.pairs[:, 1]])


def _support_items(graph: MonomialGraph) -> Tuple[np.ndarray, RowsOf]:
    """Keys and rows_of of the sums basis[a] + basis[b] that make up graph.support()."""
    rows = graph.basis.array
    a, b = _support_pairs(graph)
    keys = exponent_keys(rows)
    return keys[a] + keys[b], lambda idx: rows[a[idx]] + rows[b[idx]]


def _support_set(graph: MonomialGraph) -> _ExponentSet:
    """graph.support() as an _ExponentSet."""
    return _ExponentSet(*_support_items(graph))


def _new_support(graph: MonomialGraph, searched: _ExponentSet) -> Optional[_ExponentSet]:
    """The part of graph.support() outside searched, or None when it is all in there."""
    keys, rows_of = _support_items(graph)
    new = np.flatnonzero(~searched.contains(keys, rows_of))
    if not len(new):
        return None
    return _ExponentSet(keys[new], lambda idx: rows_of(new[idx]))


def _tsp_targets(f: Polynomial, basis: MonomialBasis, extra_support: Iterable[Exponent]) -> _ExponentSet:
    """supp(f), the extra support exponents and all doubled basis monomials."""
    target = set(f.support())
    target.update(tuple(a) for a in extra_support)
    rows = np.concatenate([
        np.array(sorted(target), dtype=np.int64).reshape(-1, basis.nvars),
        2 * basis.array,
    ])
    return _rows_set(rows)


def _linked(
    graph: MonomialGraph, targets: Optional[_ExponentSet], shifts: Optional[np.ndarray] = None
) -> MonomialGraph:
    """graph plus every non-edge whose sum, shifted by a row of shifts, is in targets.

    targets None stands for the empty set: no pair search at all.
    """
    if targets is None:
        return graph
    return graph._with_pairs(_linked_pairs(graph.basis, targets, shifts, known=graph.pairs))


def tsp_graph(
    f: Polynomial,
    basis: MonomialBasis,
    extra_support: Iterable[Exponent] = (),
) -> MonomialGraph:
    """Initial sparsity graph: link monomials whose sum hits the support.

    The target set is supp(f), any extra support exponents (constraint
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
    if int((sizes * (sizes - 1) // 2).sum()) == len(pairs):
        return graph
    members = np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1])
    blocks = [np.zeros((0, 2), dtype=np.int64)]
    for comp in members:
        if len(comp) > 1:
            a, b = np.triu_indices(len(comp), 1)
            blocks.append(np.column_stack([comp[a], comp[b]]))
    return MonomialGraph._from_pairs(graph.basis, np.concatenate(blocks))


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
    out = graph._with_pairs(np.array(sorted(fills), dtype=np.int64).reshape(-1, 2))
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

    def monomials(self, which: int) -> List[Exponent]:
        return [self.basis.monos[i] for i in self.cliques[which]]


def maximal_cliques(graph: MonomialGraph) -> CliqueDecomposition:
    """Enumerate maximal cliques along a perfect elimination ordering.

    The ordering the graph keeps from chordal_extension is used when there
    is one.  Raises ValueError when the graph is not chordal: callers must
    extend first.
    """
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
    return CliqueDecomposition(graph.basis, tuple(cliques))


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
    mode: str
    stabilized_at: Optional[int]

    @property
    def order(self) -> int:
        return len(self.levels) - 1

    def at(self, k: int) -> List[MonomialGraph]:
        return self.levels[k]


def _levels_equal(a: List[MonomialGraph], b: List[MonomialGraph]) -> bool:
    return len(a) == len(b) and all(x.edges == y.edges for x, y in zip(a, b))


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
    n = pop.nvars
    shifts = [np.array(sorted(g.support()), dtype=np.int64).reshape(-1, n) for g in pop.constraints]
    extra = set().union(*(g.support() for g in pop.constraints))

    def with_seed(graph: MonomialGraph, level: int, j: int) -> MonomialGraph:
        """graph plus the seed's level-`level` edges of generator j, by monomial identity."""
        if seed is None:
            return graph
        lv = min(level, len(seed.levels) - 1)
        if j >= len(seed.levels[lv]):
            return graph
        src = seed.levels[lv][j]
        target_basis = graph.basis
        out: Set[Edge] = set()
        for a, b in src.edges:
            ma, mb = src.basis.monos[a], src.basis.monos[b]
            if ma in target_basis and mb in target_basis:
                ia, ib = target_basis.index(ma), target_basis.index(mb)
                out.add((min(ia, ib), max(ia, ib)))
        return MonomialGraph(target_basis, graph.edges | out)

    targets = _tsp_targets(pop.objective, bases[0], extra)
    g0 = with_seed(_linked(MonomialGraph(bases[0], ()), targets), 0, 0)
    levels: List[List[MonomialGraph]] = [[g0] + [MonomialGraph(b, ()) for b in bases[1:]]]
    stabilized = None
    searched = targets  # every non-edge of the moment graph is known to miss it
    for step in range(1, k + 2):
        prev = levels[-1]
        moment_supp = _support_set(prev[0])
        new = _new_support(prev[0], searched)
        new_level = [chordal_extension(with_seed(_linked(prev[0], new), step, 0), mode)]
        # the constraint graphs were last searched one step back, against the
        # support searched now holds; at step 1 they have searched nothing yet
        loc_targets = moment_supp if step == 1 else new
        for j, loc_prev in enumerate(prev[1:]):
            graph = with_seed(_linked(loc_prev, loc_targets, shifts[j]), step, j + 1)
            new_level.append(chordal_extension(graph, mode))
        if step >= 2 and _levels_equal(new_level, prev):
            stabilized = step - 1
            break
        if step > k:
            break
        levels.append(new_level)
        # it holds every tsp target a basis pair can realize, as tsp edges did
        searched = moment_supp
    while len(levels) < k + 1:
        levels.append(levels[-1])
    return GraphSequence(levels=levels, mode=mode, stabilized_at=stabilized)


def clique_report(graph: MonomialGraph, stabilized: bool) -> dict:
    """Census of a chordal graph's cliques in plain JSON-friendly form."""
    dec = maximal_cliques(graph)
    return {
        "clique_sizes": dec.sizes,
        "max_clique": dec.max_clique,
        "n_edges": graph.n_edges,
        "stabilized": bool(stabilized),
    }
