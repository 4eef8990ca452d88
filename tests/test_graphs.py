import itertools
import math
import tracemalloc
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tssos.basis
import tssos.graphs
from tssos import bench
from tssos.basis import MonomialBasis, generator_bases, newton_half_basis, standard_basis
from tssos.graphs import (
    EXTENSION_MODES,
    MonomialGraph,
    _elimination_fill,
    _linked_pairs,
    _mcs_order,
    _new_support,
    _support_set,
    _tsp_targets,
    chordal_extension,
    clique_report,
    is_chordal,
    iterate_constrained,
    maximal_cliques,
    peo,
    support_extension,
    tsp_graph,
)
from tssos.poly import Polynomial, PopProblem, parse_polynomial, parse_pop

EX33 = (
    "x1^2 - 2*x1*x2 + 3*x2^2 - 2*x1^2*x2 + 2*x1^2*x2^2 - 2*x2*x3 + 6*x3^2"
    " + 18*x2^2*x3 - 54*x2*x3^2 + 142*x2^2*x3^2"
)


def to_nx(g: MonomialGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n_nodes))
    h.add_edges_from(g.edges)
    return h


def random_monomial_graph(rng, n_nodes=8, p=0.3):
    basis = MonomialBasis(1, [(i,) for i in range(n_nodes)])
    edges = [
        (i, j)
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < p
    ]
    return MonomialGraph(basis, edges)


def test_monomial_graph_normalizes_edges():
    basis = standard_basis(1, 3)
    g = MonomialGraph(basis, [(2, 0), (0, 2), (1, 1)])
    assert g.edges == frozenset({(0, 2)})
    assert g.has_edge(1, 1)  # implicit self-loop
    assert not g.has_edge(0, 1)
    with pytest.raises(ValueError):
        MonomialGraph(basis, [(0, 9)])


def test_graph_support_includes_diagonal():
    basis = MonomialBasis(1, [(0,), (1,), (3,)])
    g = MonomialGraph(basis, [(0, 2)])
    assert g.support() == {(0,), (2,), (6,), (3,)}


def test_tsp_graph_running_example_edges():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    names = {m: i for i, m in enumerate(basis.monos)}
    one, x1, x2, x3 = names[(0, 0, 0)], names[(1, 0, 0)], names[(0, 1, 0)], names[(0, 0, 1)]
    x1x2, x2x3 = names[(1, 1, 0)], names[(0, 1, 1)]
    want = {
        tuple(sorted(e))
        for e in [
            (one, x1x2),
            (one, x2x3),
            (x1, x2),
            (x1, x1x2),
            (x2, x3),
            (x2, x2x3),
            (x3, x2x3),
        ]
    }
    g0 = tsp_graph(f, basis)
    assert g0.edges == frozenset(want)


def test_tsp_graph_links_all_doubled_basis_sums():
    # beta + gamma = 2*delta with delta a basis member must be an edge even
    # when the support misses it
    f = parse_polynomial("x1^4 + x2^4", 2)
    basis = standard_basis(2, 2)
    g = tsp_graph(f, basis)
    i = basis.index((0, 0))
    j = basis.index((2, 0))
    k = basis.index((0, 2))
    assert g.has_edge(i, j)  # 1 * x1^2 = (x1)^2
    assert g.has_edge(j, k)  # x1^2 * x2^2 = (x1 x2)^2


def test_support_extension_fixed_point_on_tsp_graphs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        pool = standard_basis(n, 2 * d).monos
        pick = [m for m in pool if rng.random() < 0.3]
        f = Polynomial.zero(n)
        for m in pick:
            f = f + Polynomial.monomial(n, m, 1.0)
        if not f.support():
            continue
        g0 = tsp_graph(f, standard_basis(n, d))
        assert support_extension(g0).edges == g0.edges


def test_support_extension_adds_realized_sums():
    basis = MonomialBasis(1, [(0,), (1,), (2,)])
    # only edge 0-2: support holds 2 = 0+2, plus diagonal {0, 2, 4}
    g = MonomialGraph(basis, [(0, 2)])
    se = support_extension(g)
    # 1+1 = 2 is realized, so the pair (1, 1) is a loop (implicit); edge
    # (0, 2) realizes 2 which equals 1+1 -> nothing new between distinct
    # nodes except (0,2) itself; node 1 pairs: 0+1=1 not in support,
    # 1+2=3 not in support
    assert se.edges == g.edges
    g2 = MonomialGraph(basis, [(1, 2)])  # support gains 3 = 1+2
    se2 = support_extension(g2)
    # 0+... 0 pairs: 0+1=1 no, 0+2=2 yes via diagonal of node 1
    assert se2.has_edge(0, 2)


def test_chordal_extension_identity_on_chordal_graphs():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_monomial_graph(rng, n_nodes=9, p=0.25)
        h = to_nx(g)
        if not nx.is_chordal(h):
            # complete a cycle to make it chordal via networkx, then re-wrap
            filled, _ = nx.complete_to_chordal_graph(h)
            g = MonomialGraph(g.basis, filled.edges())
        for mode in ("approx_min", "min_fill"):
            ext = chordal_extension(g, mode)
            assert ext.edges == g.edges, mode


def test_chordal_extension_produces_chordal_supergraphs():
    rng = np.random.default_rng(23)
    for trial in range(25):
        g = random_monomial_graph(rng, n_nodes=10, p=0.3)
        for mode in EXTENSION_MODES:
            ext = chordal_extension(g, mode)
            assert g.edges <= ext.edges
            assert nx.is_chordal(to_nx(ext)), mode
            assert is_chordal(ext) == nx.is_chordal(to_nx(ext))


def test_six_cycle_gets_three_fills():
    basis = MonomialBasis(1, [(i,) for i in range(6)])
    cycle = MonomialGraph(basis, [(i, (i + 1) % 6) for i in range(6)])
    for mode in ("approx_min", "min_fill"):
        ext = chordal_extension(cycle, mode)
        assert len(ext.edges) == 9, mode  # 6 cycle edges + 3 fills
    block = chordal_extension(cycle, "block_closure")
    assert len(block.edges) == 15  # one complete component


def test_block_closure_completes_components():
    basis = MonomialBasis(1, [(i,) for i in range(7)])
    g = MonomialGraph(basis, [(0, 1), (1, 2), (4, 5)])
    ext = chordal_extension(g, "block_closure")
    dec = maximal_cliques(ext)
    assert sorted(dec.cliques) == [(0, 1, 2), (3,), (4, 5), (6,)]


def test_unknown_mode_rejected():
    basis = MonomialBasis(1, [(0,), (1,)])
    g = MonomialGraph(basis, [])
    with pytest.raises(ValueError):
        chordal_extension(g, "different")


def test_maximal_cliques_match_networkx():
    rng = np.random.default_rng(31)
    for trial in range(25):
        g = random_monomial_graph(rng, n_nodes=10, p=0.35)
        ext = chordal_extension(g, "approx_min")
        mine = {frozenset(c) for c in maximal_cliques(ext).cliques}
        ref = {frozenset(c) for c in nx.find_cliques(to_nx(ext))}
        assert mine == ref


def test_maximal_cliques_requires_chordal():
    basis = MonomialBasis(1, [(i,) for i in range(4)])
    c4 = MonomialGraph(basis, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError):
        maximal_cliques(c4)


def assert_peo(adj, order):
    """order is a perfect elimination ordering of the graph with adjacency adj."""
    assert sorted(order) == list(range(len(adj)))
    pos = {v: i for i, v in enumerate(order)}
    for idx, v in enumerate(order):
        later = [u for u in adj[v] if pos[u] > idx]
        if not later:
            continue
        first = min(later, key=lambda u: pos[u])
        rest = set(later) - {first}
        assert rest <= adj[first]


def test_peo_is_a_perfect_elimination_ordering():
    rng = np.random.default_rng(41)
    for trial in range(10):
        g = random_monomial_graph(rng, n_nodes=9, p=0.3)
        ext = chordal_extension(g, "min_fill")
        assert_peo(ext.adjacency(), peo(ext))


def f_n_polynomial(n):
    total = Polynomial.zero(n)
    for i in range(1, n + 1):
        xi = Polynomial.variable(n, i)
        total = total + xi * xi + xi * xi * xi * xi
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            d = Polynomial.variable(n, i) - Polynomial.variable(n, k)
            total = total + (d * d) * (d * d)
    return total


def test_coupled_quartic_family_census():
    for n in (3, 4, 6):
        f = f_n_polynomial(n)
        basis = standard_basis(n, 2)
        g0 = tsp_graph(f, basis)
        assert is_chordal(g0)
        g1 = chordal_extension(g0, "approx_min")
        assert g1.edges == g0.edges
        census = Counter(maximal_cliques(g0).sizes)
        assert census == Counter({3: n * (n - 1) // 2, 1: n, n + 1: 1})


def test_mixed_parity_example_census():
    f = parse_polynomial(
        "1 + x1^4 + x2^4 + x3^4 - x1^2*x2^2 - x1^2*x3^2 - x2^2*x3^2 + x2*x3", 3
    )
    g0 = tsp_graph(f, standard_basis(3, 2))
    assert is_chordal(g0)
    assert sorted(maximal_cliques(g0).sizes, reverse=True) == [4, 2, 2, 1, 1, 1]


def test_same_sign_type_pairs_are_adjacent():
    rng = np.random.default_rng(8)
    for n, d in ((2, 2), (3, 2), (2, 3)):
        basis = standard_basis(n, d)
        pool = standard_basis(n, 2 * d).monos
        pick = [m for m in pool if rng.random() < 0.15]
        f = Polynomial.constant(n, 1.0)
        for m in pick:
            f = f + Polynomial.monomial(n, m, 1.0)
        g = tsp_graph(f, basis)
        for i, j in itertools.combinations(range(len(basis)), 2):
            bi, bj = basis.monos[i], basis.monos[j]
            if all((a + b) % 2 == 0 for a, b in zip(bi, bj)):
                assert g.has_edge(i, j)


def test_iteration_without_constraints_running_example():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    seq = iterate_constrained(PopProblem(f), [basis], k=3)
    assert seq.stabilized_at == 1
    assert len(seq.at(1)) == 1
    assert seq.at(1)[0].edges == seq.at(3)[0].edges
    assert len(seq.at(1)[0].edges) == 9  # 7 pattern edges + 2 fills


def test_iteration_without_constraints_monotone_edges():
    rng = np.random.default_rng(6)
    for trial in range(6):
        n = int(rng.integers(2, 4))
        pool = standard_basis(n, 4).monos
        pick = [m for m in pool if rng.random() < 0.2]
        f = Polynomial.constant(n, 1.0)
        for m in pick:
            f = f + Polynomial.monomial(n, m, float(rng.normal()))
        basis = standard_basis(n, 2)
        seq = iterate_constrained(PopProblem(f), [basis], k=4)
        for k in range(1, 4):
            assert seq.at(k)[0].edges <= seq.at(k + 1)[0].edges
        if seq.stabilized_at is not None:
            s = seq.stabilized_at
            assert seq.at(s)[0].edges == seq.at(min(s + 1, 4))[0].edges


def test_iterate_constrained_shapes_and_nesting():
    pop = parse_pop(
        "vars 2\nx1^4 + x2^4 - x1*x2 + 1\nsubject to\n1 - x1^2 - x2^2\n"
    )
    seq = iterate_constrained(pop, generator_bases(pop, 2), k=3)
    assert all(len(level) == 2 for level in seq.levels)
    for j in (0, 1):
        for k in range(1, 3):
            assert seq.at(k)[j].edges <= seq.at(k + 1)[j].edges
    # moment basis N^2_2, localizing basis N^2_1
    assert len(seq.at(1)[0].basis) == 6
    assert len(seq.at(1)[1].basis) == 3


def test_iterate_constrained_rejects_wrong_number_of_bases():
    pop = parse_pop("vars 2\nx1^4 + x2^4\nsubject to\n1 - x1^2\n1 - x2^2\n")
    bases = generator_bases(pop, 2)
    with pytest.raises(ValueError, match="expected 3 bases, got 2"):
        iterate_constrained(pop, bases[:2], k=1)
    with pytest.raises(ValueError, match="expected 1 bases, got 3"):
        iterate_constrained(PopProblem(pop.objective), bases, k=1)


def test_iterate_constrained_seed_embedding_gives_inclusion():
    pop = parse_pop(
        "vars 2\nx1^4 + x2^4 - x1^3*x2 + 0.5\nsubject to\n1 - x1^2 - x2^2\n"
    )
    low = iterate_constrained(pop, generator_bases(pop, 2), k=2)
    high = iterate_constrained(pop, generator_bases(pop, 3), k=2, seed=low)
    for k in (1, 2):
        for j in (0, 1):
            lo_basis = low.at(k)[j].basis
            hi_basis = high.at(k)[j].basis
            for a, b in low.at(k)[j].edges:
                ma, mb = lo_basis.monos[a], lo_basis.monos[b]
                ia, ib = hi_basis.index(ma), hi_basis.index(mb)
                assert high.at(k)[j].has_edge(ia, ib)


def test_clique_report_shape():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    seq = iterate_constrained(PopProblem(f), [basis], k=1)
    rep = clique_report(seq.at(1)[0], stabilized=True)
    assert rep["max_clique"] == 3
    assert rep["clique_sizes"] == [3, 3, 3, 3]
    assert rep["n_edges"] == 9
    assert rep["stabilized"] is True


# -- reference implementations: the tuple loops the key engine replaced -------


def _tsum(a, b):
    return tuple(x + y for x, y in zip(a, b))


def reference_tsp_graph(f, basis, extra_support=()):
    monos = basis.monos
    target = set(f.support())
    target.update(tuple(a) for a in extra_support)
    target.update(tuple(2 * x for x in m) for m in monos)
    edges = [
        (i, j)
        for i in range(len(monos))
        for j in range(i + 1, len(monos))
        if _tsum(monos[i], monos[j]) in target
    ]
    return MonomialGraph(basis, edges)


def reference_support_extension(graph):
    monos = graph.basis.monos
    supp = graph.support()
    edges = set(graph.edges)
    for i in range(len(monos)):
        for j in range(i + 1, len(monos)):
            if (i, j) not in edges and _tsum(monos[i], monos[j]) in supp:
                edges.add((i, j))
    return MonomialGraph(graph.basis, edges)


def reference_localizing_graph(prev, g, moment_supp):
    """prev plus {a, b} whenever a shift of a + b by supp(g) is in moment_supp."""
    monos = prev.basis.monos
    edges = set(prev.edges)
    for a in range(len(monos)):
        for b in range(a + 1, len(monos)):
            if (a, b) in edges:
                continue
            base_sum = _tsum(monos[a], monos[b])
            if any(_tsum(ga, base_sum) in moment_supp for ga in sorted(g.support())):
                edges.add((a, b))
    return MonomialGraph(prev.basis, edges)


def reference_mcs_order(adj):
    n = len(adj)
    weight = [0] * n
    seen = [False] * n
    order = []
    for _ in range(n):
        v = -max((w, -u) for u, w in enumerate(weight) if not seen[u])[1]
        seen[v] = True
        order.append(v)
        for u in adj[v]:
            if not seen[u]:
                weight[u] += 1
    return order


def reference_elimination_fill(adj, rule):
    work = {v: set(nb) for v, nb in adj.items()}
    alive = sorted(work)
    fills = set()

    def fill_count(u):
        nbs = list(work[u])
        return sum(
            1
            for a in range(len(nbs))
            for b in range(a + 1, len(nbs))
            if nbs[b] not in work[nbs[a]]
        )

    while alive:
        if rule == "degree":
            v = min(alive, key=lambda u: (len(work[u]), u))
        else:
            v = min(alive, key=lambda u: (fill_count(u), u))
        nbs = sorted(work[v])
        for a in range(len(nbs)):
            for b in range(a + 1, len(nbs)):
                p, q = nbs[a], nbs[b]
                if q not in work[p]:
                    work[p].add(q)
                    work[q].add(p)
                    fills.add((p, q))
        for u in nbs:
            work[u].discard(v)
        del work[v]
        alive.remove(v)
    return fills


def reference_chordal_extension(graph, mode):
    adj = graph.adjacency()
    if mode == "block_closure":
        h = to_nx(graph)
        edges = set(graph.edges)
        for comp in nx.connected_components(h):
            edges.update(itertools.combinations(sorted(comp), 2))
        return MonomialGraph(graph.basis, edges)
    if nx.is_chordal(to_nx(graph)):
        return graph
    rule = "degree" if mode == "approx_min" else "fill"
    return MonomialGraph(graph.basis, set(graph.edges) | reference_elimination_fill(adj, rule))


def reference_maximal_cliques(graph):
    """Cliques {v} | later(v) along peo(graph), minus those inside another."""
    order = peo(graph)
    adj = graph.adjacency()
    pos = {v: p for p, v in enumerate(order)}
    cands = sorted(
        (frozenset({v} | {u for u in adj[v] if pos[u] > pos[v]}) for v in order),
        key=len,
        reverse=True,
    )
    kept = []
    for c in cands:
        if not any(c <= k for k in kept):
            kept.append(c)
    return tuple(sorted(tuple(sorted(c)) for c in kept))


def reference_iterate_single(f, basis, k, mode):
    cur = reference_tsp_graph(f, basis)
    levels = [cur]
    stabilized = None
    for step in range(1, k + 2):
        nxt = reference_chordal_extension(reference_support_extension(cur), mode)
        if nxt.edges == cur.edges:
            stabilized = max(1, step - 1)
            break
        if step <= k:
            levels.append(nxt)
        cur = nxt
    while len(levels) < k + 1:
        levels.append(cur)
    return [[g.edges] for g in levels], stabilized


def reference_seed_edges(graph, seed, level, j):
    """graph plus the level-`level` edges of generator j in seed, matched by monomial."""
    if seed is None:
        return graph
    lv = seed.levels[min(level, len(seed.levels) - 1)]
    if j >= len(lv):
        return graph
    src, basis = lv[j], graph.basis
    edges = set(graph.edges)
    for a, b in src.edges:
        ma, mb = src.basis.monos[a], src.basis.monos[b]
        if ma in basis and mb in basis:
            edges.add((basis.index(ma), basis.index(mb)))
    return MonomialGraph(basis, edges)


def reference_iterate_constrained(pop, d_hat, k, mode, seed=None):
    n = pop.nvars
    b0 = standard_basis(n, d_hat)
    extra = set()
    for g in pop.constraints:
        extra |= g.support()
    loc = [MonomialGraph(standard_basis(n, d_hat - (g.degree() + 1) // 2), ()) for g in pop.constraints]
    levels = [[reference_seed_edges(reference_tsp_graph(pop.objective, b0, extra), seed, 0, 0)] + loc]
    stabilized = None
    for step in range(1, k + 2):
        prev = levels[-1]
        moment_supp = prev[0].support()
        moment = reference_seed_edges(reference_support_extension(prev[0]), seed, step, 0)
        new_level = [reference_chordal_extension(moment, mode)]
        for j, (g, loc_prev) in enumerate(zip(pop.constraints, prev[1:]), start=1):
            graph = reference_localizing_graph(loc_prev, g, moment_supp)
            new_level.append(reference_chordal_extension(reference_seed_edges(graph, seed, step, j), mode))
        if step >= 2 and all(x.edges == y.edges for x, y in zip(new_level, prev)):
            stabilized = step - 1
            break
        if step > k:
            break
        levels.append(new_level)
    return [[g.edges for g in level] for level in levels], stabilized


def edge_levels(seq):
    return [[g.edges for g in level] for level in seq.levels]


FAMILY_CASES = [
    ("broyden_banded", 4, {}),
    ("broyden_tridiagonal", 5, {}),
    ("gen_rosenbrock", 5, {}),
    ("mod_gen_rosenbrock", 4, {}),
    ("mod_chained_singular", 4, {}),
    ("randpoly1", 4, dict(deg=4, terms=10, prob=0.3, seed=1)),
    ("randpoly2", 3, dict(deg=4, terms=8, seed=2)),
]


def test_family_cases_cover_every_bench_family():
    assert sorted(c[0] for c in FAMILY_CASES) == sorted(bench.FAMILIES)


@pytest.mark.parametrize("family,n,kwargs", FAMILY_CASES)
def test_unconstrained_iteration_matches_reference(family, n, kwargs):
    f = getattr(bench, family)(n, **kwargs)
    bases = [standard_basis(n, (f.degree() + 1) // 2), newton_half_basis(f)]
    for basis, mode in itertools.product(bases, EXTENSION_MODES):
        want, stabilized = reference_iterate_single(f, basis, 3, mode)
        for k in (1, 2, 3):
            seq = iterate_constrained(PopProblem(f), [basis], k=k, mode=mode)
            assert edge_levels(seq) == want[: k + 1], (mode, k)
        assert seq.stabilized_at == stabilized
        for level in seq.levels[1:]:
            assert maximal_cliques(level[0]).cliques == reference_maximal_cliques(level[0])


@pytest.mark.parametrize("family,n", [("gen_rosenbrock", 3), ("broyden_tridiagonal", 3)])
@pytest.mark.parametrize("constraint", ["unit_ball", "unit_hypercube"])
def test_constrained_iteration_matches_reference(family, n, constraint):
    pop = PopProblem(getattr(bench, family)(n), bench.constraint_set(constraint, n))
    for d_hat, mode in itertools.product((2, 3), EXTENSION_MODES):
        want, stabilized = reference_iterate_constrained(pop, d_hat, 3, mode)
        for k in (1, 2, 3):
            seq = iterate_constrained(pop, generator_bases(pop, d_hat), k=k, mode=mode)
            got = edge_levels(seq)
            assert got[: len(want)] == want[: k + 1], (d_hat, mode, k)
            assert all(level == want[-1] for level in got[len(want):])
        assert seq.stabilized_at == stabilized
        for g in seq.levels[-1]:
            assert maximal_cliques(g).cliques == reference_maximal_cliques(g)


def test_seeded_iteration_matches_reference():
    pop = parse_pop(
        "vars 2\nx1^4 + x2^4 - x1^3*x2 + 0.5\nsubject to\n1 - x1^2 - x2^2\n"
    )
    # a seed of another objective puts edges outside the tsp targets into
    # level 0, so the moment graph has new support to search at step 1
    other = parse_pop("vars 2\nx1^4 + x2^4 + x1*x2^3\nsubject to\n1 - x1^2 - x2^2\n")
    extra = pop.constraints[0].support()
    for mode in EXTENSION_MODES:
        for k in (1, 2, 3):
            for source in (pop, other):
                low = iterate_constrained(source, generator_bases(source, 2), k=k, mode=mode)
                want, stabilized = reference_iterate_constrained(pop, 3, k, mode, seed=low)
                seq = iterate_constrained(pop, generator_bases(pop, 3), k=k, mode=mode, seed=low)
                got = edge_levels(seq)
                assert got[: len(want)] == want[: k + 1], (mode, k)
                assert all(level == want[-1] for level in got[len(want):])
                assert seq.stabilized_at == stabilized, (mode, k)
            level0 = seq.at(0)[0]  # seeded by other
            assert _new_support(level0, _tsp_targets(pop.objective, level0.basis, extra)) is not None


def test_iteration_searches_only_new_support(monkeypatch):
    f = bench.broyden_tridiagonal(24)
    basis = newton_half_basis(f)
    want, stabilized = reference_iterate_single(f, basis, 2, "approx_min")
    calls = []
    real = tssos.graphs._linked_pairs

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(tssos.graphs, "_linked_pairs", counting)
    seq = iterate_constrained(PopProblem(f), [basis], k=2)
    # the tsp search, then one step whose chordal fill brought new support
    assert len(calls) == 2
    assert edge_levels(seq) == want
    assert seq.stabilized_at == stabilized

    n = 28
    pop = PopProblem(bench.gen_rosenbrock(n), bench.constraint_set("unit_hypercube", n))
    want, stabilized = reference_iterate_constrained(pop, 2, 2, "approx_min")
    calls.clear()
    seq = iterate_constrained(pop, generator_bases(pop, 2), k=2)
    # the tsp search and the 28 first searches of the constraint graphs; the
    # moment graph gains no support outside the tsp targets at step 1, and
    # step 1 brings no new support at all
    assert len(calls) == 1 + n
    assert edge_levels(seq)[: len(want)] == want
    assert seq.stabilized_at == stabilized


def test_localizing_bases_built_once_per_half_degree():
    n = 3
    pop = PopProblem(bench.gen_rosenbrock(n), bench.constraint_set("unit_hypercube", n))
    seq = iterate_constrained(pop, generator_bases(pop, 2), k=1)
    assert all(g.basis is seq.at(1)[1].basis for g in seq.at(1)[1:])


def test_moment_support_built_once_per_step(monkeypatch):
    n = 3
    pop = PopProblem(bench.gen_rosenbrock(n), bench.constraint_set("unit_hypercube", n))
    want, _ = reference_iterate_constrained(pop, 2, 2, "approx_min")
    built = []
    real = tssos.graphs._support_set

    def counting(graph):
        built.append(graph)
        return real(graph)

    monkeypatch.setattr(tssos.graphs, "_support_set", counting)
    for k in (1, 2):
        built.clear()
        seq = iterate_constrained(pop, generator_bases(pop, 2), k=k)
        assert edge_levels(seq)[: len(want)] == want[: k + 1]
        # one support per step, each of the previous level's moment graph; step 2
        # finds the fixed point, and at k = 1 it is the probe one step past k
        assert seq.stabilized_at == 1
        assert built == [level[0] for level in seq.levels[:2]]


@st.composite
def small_supports(draw):
    """A random support, basis and graph in n <= 3 variables."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4) for _ in range(n)])
    supp = draw(st.sets(exps, min_size=1, max_size=8))
    pool = standard_basis(n, 2).monos
    picks = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=len(pool)))
    basis = MonomialBasis(n, picks)
    r = len(basis)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    shifts = draw(st.sets(exps, min_size=1, max_size=3))
    return n, supp, basis, edges, shifts


def _check_against_reference(n, supp, basis, edges, shifts):
    f = Polynomial(n, {a: 1.0 for a in supp})
    extra = sorted(shifts)
    assert tsp_graph(f, basis, extra).edges == reference_tsp_graph(f, basis, extra).edges
    graph = MonomialGraph(basis, edges)
    assert support_extension(graph).edges == reference_support_extension(graph).edges
    # localizing search: graph's support as the moment support, shifts as supp(g)
    g = Polynomial(n, {a: 1.0 for a in shifts})
    shift_rows = np.array(sorted(g.support()), dtype=np.int64).reshape(-1, n)
    prev = MonomialGraph(basis, sorted(edges)[::2])
    found = _linked_pairs(basis, _support_set(graph), shift_rows, known=prev.pairs)
    want = reference_localizing_graph(prev, g, graph.support()).edges - prev.edges
    assert {tuple(p) for p in found.tolist()} == want
    assert len(found) == len(want)


@settings(max_examples=150, deadline=None)
@given(small_supports())
def test_key_engine_matches_tuple_loops(case):
    _check_against_reference(*case)


def test_degenerate_key_weights_keep_edges(monkeypatch):
    """All-ones weights make every key the total degree: collisions everywhere."""
    monkeypatch.setattr(tssos.basis, "_key_weights", lambda nvars: np.ones(nvars, dtype=np.uint64))
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        pool = standard_basis(n, 4).monos
        supp = {pool[i] for i in rng.choice(len(pool), size=6, replace=False)}
        basis = standard_basis(n, 2)
        r = len(basis)
        edges = {(i, j) for i in range(r) for j in range(i + 1, r) if rng.random() < 0.2}
        shifts = {pool[i] for i in rng.choice(len(pool), size=2, replace=False)}
        assert _support_set(MonomialGraph(basis, edges)).sizes.max() > 1
        _check_against_reference(n, supp, basis, edges, shifts)
    pop = PopProblem(bench.gen_rosenbrock(3), bench.constraint_set("unit_ball", 3))
    for mode in EXTENSION_MODES:
        want, _ = reference_iterate_constrained(pop, 2, 2, mode)
        assert edge_levels(iterate_constrained(pop, generator_bases(pop, 2), k=2, mode=mode))[: len(want)] == want


def test_chunked_pair_search_matches_reference(monkeypatch):
    monkeypatch.setattr(tssos.basis, "PAIR_BUDGET", 7)
    f = bench.broyden_tridiagonal(4)
    basis = standard_basis(4, 2)
    for mode in EXTENSION_MODES:
        want, stabilized = reference_iterate_single(f, basis, 3, mode)
        seq = iterate_constrained(PopProblem(f), [basis], k=3, mode=mode)
        assert edge_levels(seq) == want
        assert seq.stabilized_at == stabilized


def reference_linked_pairs(basis, target_rows, shift_rows, known=()):
    """The pairs i < j, not in known, with basis_i + basis_j + s a target row for some shift s."""
    monos = basis.monos
    targets = {tuple(t) for t in target_rows.tolist()}
    shifts = [tuple(s) for s in shift_rows.tolist()]
    known = set(known)
    return [
        (i, j)
        for i in range(len(monos))
        for j in range(i + 1, len(monos))
        if (i, j) not in known and any(_tsum(_tsum(monos[i], monos[j]), s) in targets for s in shifts)
    ]


def _exponents(rng, n, count, low, high):
    """count random exponents in n variables with total degree in [low, high]."""
    pool = [m for m in standard_basis(n, high).monos if sum(m) >= low]
    return np.array([pool[k] for k in rng.choice(len(pool), size=min(count, len(pool)), replace=False)],
                    dtype=np.int64).reshape(-1, n)


def _divisor_case(name, rng):
    """(basis, target rows, shift rows) of one kind of divisor-search input."""
    n = int(rng.integers(2, 5))
    basis = standard_basis(n, 2)
    targets = _exponents(rng, n, 12, 0, 4)
    shifts = np.zeros((1, n), dtype=np.int64)
    if name == "targets_above_twice_the_basis_degree":
        basis = standard_basis(n, 1)
        targets = np.concatenate([_exponents(rng, n, 10, 3, 6), _exponents(rng, n, 3, 2, 2)])
        shifts = np.concatenate([shifts, _exponents(rng, n, 3, 1, 3)])
    elif name == "shifts_that_divide_no_target":
        shifts = 5 * np.eye(n, dtype=np.int64)
    elif name == "basis_without_the_constant":
        pool = standard_basis(n, 3).monos[1:]
        picks = rng.choice(len(pool), size=min(12, len(pool)), replace=False)
        basis = MonomialBasis(n, [pool[k] for k in picks])
        targets = _exponents(rng, n, 20, 1, 6)
        shifts = np.concatenate([shifts, _exponents(rng, n, 2, 1, 2)])
    elif name == "many_shifts":
        targets = _exponents(rng, n, 25, 0, 6)
        shifts = _exponents(rng, n, 30, 0, 3)
    return basis, targets, shifts


DIVISOR_CASES = [
    "targets_above_twice_the_basis_degree",
    "shifts_that_divide_no_target",
    "basis_without_the_constant",
    "many_shifts",
    "colliding_basis_keys",
]


@pytest.mark.parametrize("name", DIVISOR_CASES)
def test_divisor_search_matches_tuple_loop(monkeypatch, name):
    if name == "colliding_basis_keys":  # every key is the total degree
        monkeypatch.setattr(tssos.basis, "_key_weights", lambda nvars: np.ones(nvars, dtype=np.uint64))
    rng = np.random.default_rng(DIVISOR_CASES.index(name))
    for _ in range(12):
        basis, targets, shifts = _divisor_case(name, rng)
        if name == "colliding_basis_keys":
            assert basis.key_set().sizes.max() > 1
        r = len(basis)
        known = [(i, j) for i in range(r) for j in range(i + 1, r) if rng.random() < 0.3]
        known_rows = np.array(known, dtype=np.int64).reshape(-1, 2)
        for budget in (1 << 13, 5):
            monkeypatch.setattr(tssos.basis, "PAIR_BUDGET", budget)
            for drop in ((), known):
                found = _linked_pairs(basis, tssos.basis._rows_set(targets), shifts,
                                      known=known_rows if drop else None)
                assert found.tolist() == [list(p) for p in reference_linked_pairs(basis, targets, shifts, drop)]
        supp = {tuple(t) for t in targets.tolist()}
        _check_against_reference(basis.nvars, supp, basis, set(known), {tuple(s) for s in shifts.tolist()})
        if name == "shifts_that_divide_no_target":
            assert not len(_linked_pairs(basis, tssos.basis._rows_set(targets), shifts))


def test_pair_search_memory_is_far_below_r_squared():
    f = bench.broyden_tridiagonal(100)
    basis = newton_half_basis(f)
    r = len(basis)
    assert r == 5151
    targets = _tsp_targets(f, basis, ())
    tracemalloc.start()
    try:
        pairs = _linked_pairs(basis, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # far below one int64 per basis pair: no r x r array is formed
    assert peak < r * r * 8 / 20
    rows = basis.array
    assert len(pairs) and (pairs[:, 0] < pairs[:, 1]).all()
    sums = rows[pairs[:, 0]] + rows[pairs[:, 1]]
    assert targets.contains(tssos.basis.exponent_keys(sums), sums.__getitem__).all()


def test_mcs_order_matches_reference():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        g = random_monomial_graph(rng, n_nodes=n, p=float(rng.random()))
        adj = g.adjacency()
        assert _mcs_order(adj) == reference_mcs_order(adj)


def test_elimination_fill_matches_reference():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        adj = random_monomial_graph(rng, n_nodes=n, p=float(rng.random())).adjacency()
        for rule in ("degree", "fill"):
            fills, order = _elimination_fill(adj, rule)
            assert fills == reference_elimination_fill(adj, rule), rule
            filled = {v: set(nb) for v, nb in adj.items()}
            for p, q in fills:
                filled[p].add(q)
                filled[q].add(p)
            assert_peo(filled, order)


@pytest.fixture
def peo_calls(monkeypatch):
    calls = []
    real = tssos.graphs._peo

    def counting(adj):
        calls.append(len(adj))
        return real(adj)

    monkeypatch.setattr(tssos.graphs, "_peo", counting)
    return calls


def test_extended_graphs_keep_an_elimination_ordering(peo_calls):
    rng = np.random.default_rng(15)
    for _ in range(50):
        g = random_monomial_graph(rng, n_nodes=int(rng.integers(1, 20)), p=float(rng.random()))
        for mode in ("approx_min", "min_fill"):
            ext = chordal_extension(g, mode)
            assert_peo(ext.adjacency(), ext._order)
            # neither a second extension nor the clique search looks for one again
            want = reference_maximal_cliques(ext)
            peo_calls.clear()
            assert chordal_extension(ext, mode) is ext
            assert maximal_cliques(ext).cliques == want
            assert peo_calls == []


def test_iteration_tests_chordality_once_per_new_graph(peo_calls):
    n = 28
    pop = PopProblem(bench.gen_rosenbrock(n), bench.constraint_set("unit_hypercube", n))
    want, stabilized = reference_iterate_constrained(pop, 2, 2, "approx_min")
    seq = iterate_constrained(pop, generator_bases(pop, 2), k=2)
    assert edge_levels(seq)[: len(want)] == want
    assert seq.stabilized_at == stabilized
    # step 1 tests the moment graph and the 28 new constraint graphs; step 2
    # changes no graph, so it and the clique search test none
    assert len(peo_calls) == 1 + n
    cliques = [maximal_cliques(g) for g in seq.at(2)]
    assert len(peo_calls) == 1 + n
    assert [c.cliques for c in cliques] == [maximal_cliques(MonomialGraph(g.basis, g.edges)).cliques
                                            for g in seq.at(2)]


def test_maximal_cliques_match_reference_on_random_chordal_graphs():
    rng = np.random.default_rng(14)
    for _ in range(100):
        g = random_monomial_graph(rng, n_nodes=int(rng.integers(1, 25)), p=float(rng.random()))
        for mode in EXTENSION_MODES:
            ext = chordal_extension(g, mode)
            assert maximal_cliques(ext).cliques == reference_maximal_cliques(ext)
