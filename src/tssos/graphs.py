"""Term-sparsity graphs on monomial bases and their chordal extensions.

Nodes are basis monomials.  Two distinct monomials are linked when their sum
is a support exponent we care about; every node is implicitly linked to
itself, so the diagonal (squares of basis monomials) is always part of a
graph's support.  Edges are stored as a frozenset of index pairs (i, j) with
i < j against the graded lex order of the basis.

The sparse relaxation machinery iterates two steps: a support extension that
adds any edge whose sum is already realized by the current graph, and a
chordal extension that completes the result into a chordal graph.  Running
the pair to a fixed point gives the graph sequence the block structure of the
relaxations is read from.

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
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .basis import (
    MonomialBasis,
    _ExponentSet,
    _linked_pairs,
    _rows_set,
    exponent_keys,
    standard_basis,
)
from .poly import Exponent, Polynomial, PopProblem

Edge = Tuple[int, int]

EXTENSION_MODES = ("approx_min", "min_fill", "block_closure")


def _pair_set(pairs: np.ndarray) -> FrozenSet[Edge]:
    return frozenset(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))


class MonomialGraph:
    """A graph over the monomials of a basis, self-loops implicit."""

    __slots__ = ("basis", "edges", "_pairs")

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


def _support_set(graph: MonomialGraph) -> _ExponentSet:
    """graph.support() as an _ExponentSet."""
    rows = graph.basis.array
    a, b = _support_pairs(graph)
    keys = exponent_keys(rows)
    return _ExponentSet(keys[a] + keys[b], lambda idx: rows[a[idx]] + rows[b[idx]])


def tsp_graph(
    f: Polynomial,
    basis: MonomialBasis,
    extra_support: Iterable[Exponent] = (),
) -> MonomialGraph:
    """Initial sparsity graph: link monomials whose sum hits the support.

    The target set is supp(f), any extra support exponents (constraint
    supports in the constrained setting), and all doubled basis monomials.
    """
    target = set(f.support())
    target.update(tuple(a) for a in extra_support)
    rows = np.concatenate([
        np.array(sorted(target), dtype=np.int64).reshape(-1, basis.nvars),
        2 * basis.array,
    ])
    return MonomialGraph._from_pairs(basis, _linked_pairs(basis, _rows_set(rows)))


def support_extension(
    graph: MonomialGraph, support: Optional[_ExponentSet] = None
) -> MonomialGraph:
    """Add every edge whose sum is already realized by the graph.

    support is the graph's ``_support_set`` when the caller has built it.
    """
    if support is None:
        support = _support_set(graph)
    return graph._with_pairs(_linked_pairs(graph.basis, support, known=graph.pairs))


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


def _elimination_fill(adj: Dict[int, Set[int]], rule: str) -> Set[Edge]:
    """Fill edges produced by a greedy elimination ordering.

    rule 'degree' picks the node of minimum current degree, rule 'fill' the
    node whose neighborhood needs the fewest new edges.  Ties go to the
    lowest index.
    """
    work = {v: set(nb) for v, nb in adj.items()}
    fills: Set[Edge] = set()
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
    return fills


def chordal_extension(graph: MonomialGraph, mode: str = "approx_min") -> MonomialGraph:
    """Extend a graph to a chordal supergraph.

    Already-chordal graphs are returned unchanged in the elimination modes,
    so trees, complete graphs and other chordal inputs keep their exact edge
    set.
    """
    if mode not in EXTENSION_MODES:
        raise ValueError(f"unknown extension mode {mode!r}; pick one of {EXTENSION_MODES}")
    if mode == "block_closure":
        return _block_closure(graph)
    adj = graph.adjacency()
    if _peo(adj) is not None:
        return graph
    rule = "degree" if mode == "approx_min" else "fill"
    fills = _elimination_fill(adj, rule)
    return graph._with_pairs(np.array(sorted(fills), dtype=np.int64).reshape(-1, 2))


# -- maximal cliques --------------------------------------------------------


@dataclass(frozen=True)
class CliqueDecomposition:
    """Maximal cliques of a chordal graph, as sorted node index tuples."""

    basis: MonomialBasis
    cliques: Tuple[Tuple[int, ...], ...]

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

    Raises ValueError when the graph is not chordal: callers must extend
    first.
    """
    adj = graph.adjacency()
    order = _peo(adj)
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
    """Graphs per iteration order; levels[k][j] is constraint j's graph.

    Unconstrained sequences have a single entry per level (j = 0).  Level 0
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


def iterate_unconstrained(
    f: Polynomial,
    basis: MonomialBasis,
    k: int = 1,
    mode: str = "approx_min",
    probe_stabilization: bool = True,
) -> GraphSequence:
    """Run the support-extension / chordal-extension loop k times.

    Nestedness across k is automatic: the support extension always contains
    its argument and the chordal extension only adds edges.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    g0 = tsp_graph(f, basis)
    levels = [[g0]]
    stabilized = None
    cur = g0
    steps = k if not probe_stabilization else k + 1
    for step in range(1, steps + 1):
        nxt = chordal_extension(support_extension(cur), mode)
        if nxt.edges == cur.edges:
            stabilized = max(1, step - 1)
            break
        if step <= k:
            levels.append([nxt])
        cur = nxt
    while len(levels) < k + 1:
        levels.append([cur])
    return GraphSequence(levels=levels, mode=mode, stabilized_at=stabilized)


def iterate_constrained(
    pop: PopProblem,
    d_hat: int,
    k: int = 1,
    mode: str = "approx_min",
    moment_basis: MonomialBasis | None = None,
    seed: GraphSequence | None = None,
    probe_stabilization: bool = True,
) -> GraphSequence:
    """Graph iteration for a constrained relaxation of order d_hat.

    The moment graph (j = 0) lives on monomials of degree <= d_hat (or on a
    caller-provided shrunken basis); each constraint g_j gets a graph on
    monomials of degree <= d_hat - ceil(deg(g_j)/2).  Per iteration the
    moment graph is support-extended and the constraint graphs are rebuilt
    from the previous moment support: g_j links {beta, gamma} whenever some
    exponent of g_j shifted by beta + gamma lands in that support.  Each
    graph is seeded with its predecessor's edges before the chordal
    extension, which keeps the levels nested even though the extension
    heuristic is not monotone by itself.

    A seed sequence from a lower relaxation order can be supplied to keep
    graphs nested across d_hat as well; its edges are embedded by monomial
    identity and unioned in at every level.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    f = pop.objective
    n = pop.nvars
    d_min = (f.degree() + 1) // 2
    half_degs = [(g.degree() + 1) // 2 for g in pop.constraints]
    if half_degs:
        d_min = max(d_min, max(half_degs))
    if d_hat < d_min:
        raise ValueError(f"relaxation order {d_hat} below minimum {d_min}")
    b0 = moment_basis if moment_basis is not None else standard_basis(n, d_hat)
    if (0,) * n not in b0:
        raise ValueError("constant monomial missing from the moment basis")
    by_half = {dj: standard_basis(n, d_hat - dj) for dj in set(half_degs)}
    loc_bases = [by_half[dj] for dj in half_degs]
    shifts = [np.array(sorted(g.support()), dtype=np.int64).reshape(-1, n) for g in pop.constraints]
    extra = set()
    for g in pop.constraints:
        extra |= g.support()

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

    g0 = with_seed(tsp_graph(f, b0, extra_support=extra), 0, 0)
    placeholders = [MonomialGraph(bj, ()) for bj in loc_bases]
    levels: List[List[MonomialGraph]] = [[g0] + placeholders]
    stabilized = None
    steps = k if not probe_stabilization else k + 1
    for step in range(1, steps + 1):
        prev = levels[min(step - 1, len(levels) - 1)]
        moment_prev = prev[0]
        moment_supp = _support_set(moment_prev)
        new_moment = with_seed(support_extension(moment_prev, moment_supp), step, 0)
        new_level = [chordal_extension(new_moment, mode)]
        for j, loc_prev in enumerate(prev[1:]):
            found = _linked_pairs(loc_prev.basis, moment_supp, shifts[j], known=loc_prev.pairs)
            graph = with_seed(loc_prev._with_pairs(found), step, j + 1)
            new_level.append(chordal_extension(graph, mode))
        if step >= 2 and _levels_equal(new_level, levels[-1]):
            stabilized = step - 1
            break
        if step <= k:
            levels.append(new_level)
        else:
            break
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
