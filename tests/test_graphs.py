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
from tssos.basis import (
    MonomialBasis,
    generator_bases,
    newton_half_basis,
    reduce_basis_unconstrained,
    standard_basis,
)
from tssos.graphs import (
    EXTENSION_MODES,
    MonomialGraph,
    _elimination_fill,
    _linked_pairs,
    _mcs_order,
    _new_support,
    _support_items,
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
from tuple_forms import edges, from_terms, graph_support, has_edge, monos, support

EX33 = (
    "x1^2 - 2*x1*x2 + 3*x2^2 - 2*x1^2*x2 + 2*x1^2*x2^2 - 2*x2*x3 + 6*x3^2"
    " + 18*x2^2*x3 - 54*x2*x3^2 + 142*x2^2*x3^2"
)


def to_nx(g: MonomialGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n_nodes))
    h.add_edges_from(edges(g))
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
    assert edges(g) == frozenset({(0, 2)})
    assert has_edge(g, 1, 1)  # implicit self-loop
    assert not has_edge(g, 0, 1)
    with pytest.raises(ValueError):
        MonomialGraph(basis, [(0, 9)])


def _set_model(pairs):
    """The edge set a pair list stands for: self-loops dropped, each pair as (min, max)."""
    return {(min(i, j), max(i, j)) for i, j in pairs if i != j}


def _assert_views_match(graph, model):
    r = graph.n_nodes
    assert edges(graph) == model
    assert graph.n_edges == len(model)
    assert graph.pairs.tolist() == [list(p) for p in sorted(model)]
    assert graph.codes.tolist() == sorted(i * r + j for i, j in model)
    adj = {v: set() for v in range(r)}
    for i, j in model:
        adj[i].add(j)
        adj[j].add(i)
    assert graph.adjacency() == adj
    for i in range(-1, r + 1):
        for j in range(-1, r + 1):
            assert has_edge(graph, i, j) == (i == j or (min(i, j), max(i, j)) in model), (i, j)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monomial_graph_matches_a_set_model(data):
    r = data.draw(st.integers(2, 9))
    basis = MonomialBasis(1, [(i,) for i in range(r)])
    node = st.integers(0, r - 1)
    edge_lists = st.lists(st.tuples(node, node), max_size=25)
    pairs = data.draw(edge_lists)
    # a self-loop, a pair in both orders and repeats, whatever was drawn
    pairs += [(0, 0), (1, 0), (0, 1)] + pairs[:2]
    as_array = data.draw(st.booleans())
    graph = MonomialGraph(basis, np.array(pairs, dtype=np.int64) if as_array else pairs)
    model = _set_model(pairs)
    _assert_views_match(graph, model)
    assert graph == MonomialGraph(basis, sorted(model))
    for bad in [(0, r), (r, 0), (-1, 0), (0, -1)]:
        for bad_pairs in ([*pairs, bad], np.array([*pairs, bad], dtype=np.int64)):
            with pytest.raises(ValueError, match="out of range"):
                MonomialGraph(basis, bad_pairs)
    for _ in range(2):
        other = MonomialGraph(basis, data.draw(edge_lists))
        graph = graph._union(other.codes)
        model |= edges(other)
        _assert_views_match(graph, model)
    h = nx.Graph()
    h.add_nodes_from(range(r))
    h.add_edges_from(model)
    for mode in EXTENSION_MODES:
        ext = chordal_extension(graph, mode)
        if mode == "block_closure":
            want = {p for comp in nx.connected_components(h) for p in itertools.combinations(sorted(comp), 2)}
        elif nx.is_chordal(h):
            want = model
        else:
            adj = {v: set(h[v]) for v in range(r)}
            want = model | reference_elimination_fill(adj, "degree" if mode == "approx_min" else "fill")
        _assert_views_match(ext, want)


def test_graph_support_includes_diagonal():
    basis = MonomialBasis(1, [(0,), (1,), (3,)])
    g = MonomialGraph(basis, [(0, 2)])
    assert graph_support(g) == {(0,), (2,), (6,), (3,)}


def test_tsp_graph_running_example_edges():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    names = {m: i for i, m in enumerate(monos(basis))}
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
    assert edges(g0) == frozenset(want)


def test_tsp_graph_links_all_doubled_basis_sums():
    # beta + gamma = 2*delta with delta a basis member must be an edge even
    # when the support misses it
    f = parse_polynomial("x1^4 + x2^4", 2)
    basis = standard_basis(2, 2)
    g = tsp_graph(f, basis)
    i = basis.index((0, 0))
    j = basis.index((2, 0))
    k = basis.index((0, 2))
    assert has_edge(g, i, j)  # 1 * x1^2 = (x1)^2
    assert has_edge(g, j, k)  # x1^2 * x2^2 = (x1 x2)^2


def test_support_extension_fixed_point_on_tsp_graphs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        pool = monos(standard_basis(n, 2 * d))
        pick = [m for m in pool if rng.random() < 0.3]
        f = Polynomial.zero(n)
        for m in pick:
            f = f + Polynomial.monomial(n, m, 1.0)
        if f.is_zero():
            continue
        g0 = tsp_graph(f, standard_basis(n, d))
        assert edges(support_extension(g0)) == edges(g0)


def test_support_extension_adds_realized_sums():
    basis = MonomialBasis(1, [(0,), (1,), (2,)])
    # only edge 0-2: support holds 2 = 0+2, plus diagonal {0, 2, 4}
    g = MonomialGraph(basis, [(0, 2)])
    se = support_extension(g)
    # 1+1 = 2 is realized, so the pair (1, 1) is a loop (implicit); edge
    # (0, 2) realizes 2 which equals 1+1 -> nothing new between distinct
    # nodes except (0,2) itself; node 1 pairs: 0+1=1 not in support,
    # 1+2=3 not in support
    assert edges(se) == edges(g)
    g2 = MonomialGraph(basis, [(1, 2)])  # support gains 3 = 1+2
    se2 = support_extension(g2)
    # 0+... 0 pairs: 0+1=1 no, 0+2=2 yes via diagonal of node 1
    assert has_edge(se2, 0, 2)


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
            assert edges(ext) == edges(g), mode


def test_chordal_extension_produces_chordal_supergraphs():
    rng = np.random.default_rng(23)
    for trial in range(25):
        g = random_monomial_graph(rng, n_nodes=10, p=0.3)
        for mode in EXTENSION_MODES:
            ext = chordal_extension(g, mode)
            assert edges(g) <= edges(ext)
            assert nx.is_chordal(to_nx(ext)), mode
            assert is_chordal(ext) == nx.is_chordal(to_nx(ext))


def test_six_cycle_gets_three_fills():
    basis = MonomialBasis(1, [(i,) for i in range(6)])
    cycle = MonomialGraph(basis, [(i, (i + 1) % 6) for i in range(6)])
    for mode in ("approx_min", "min_fill"):
        ext = chordal_extension(cycle, mode)
        assert len(edges(ext)) == 9, mode  # 6 cycle edges + 3 fills
    block = chordal_extension(cycle, "block_closure")
    assert len(edges(block)) == 15  # one complete component


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
        assert edges(g1) == edges(g0)
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
        pool = monos(standard_basis(n, 2 * d))
        pick = [m for m in pool if rng.random() < 0.15]
        f = Polynomial.constant(n, 1.0)
        for m in pick:
            f = f + Polynomial.monomial(n, m, 1.0)
        g = tsp_graph(f, basis)
        nodes = monos(basis)
        for i, j in itertools.combinations(range(len(basis)), 2):
            bi, bj = nodes[i], nodes[j]
            if all((a + b) % 2 == 0 for a, b in zip(bi, bj)):
                assert has_edge(g, i, j)


def test_iteration_without_constraints_running_example():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    seq = iterate_constrained(PopProblem(f), [basis], k=3)
    assert seq.stabilized_at == 1
    assert len(seq.at(1)) == 1
    assert edges(seq.at(1)[0]) == edges(seq.at(3)[0])
    assert len(edges(seq.at(1)[0])) == 9  # 7 pattern edges + 2 fills


def test_iteration_without_constraints_monotone_edges():
    rng = np.random.default_rng(6)
    for trial in range(6):
        n = int(rng.integers(2, 4))
        pool = monos(standard_basis(n, 4))
        pick = [m for m in pool if rng.random() < 0.2]
        f = Polynomial.constant(n, 1.0)
        for m in pick:
            f = f + Polynomial.monomial(n, m, float(rng.normal()))
        basis = standard_basis(n, 2)
        seq = iterate_constrained(PopProblem(f), [basis], k=4)
        for k in range(1, 4):
            assert edges(seq.at(k)[0]) <= edges(seq.at(k + 1)[0])
        if seq.stabilized_at is not None:
            s = seq.stabilized_at
            assert edges(seq.at(s)[0]) == edges(seq.at(min(s + 1, 4))[0])


def test_iterate_constrained_shapes_and_nesting():
    pop = parse_pop(
        "vars 2\nx1^4 + x2^4 - x1*x2 + 1\nsubject to\n1 - x1^2 - x2^2\n"
    )
    seq = iterate_constrained(pop, generator_bases(pop, 2), k=3)
    assert all(len(level) == 2 for level in seq.levels)
    for j in (0, 1):
        for k in range(1, 3):
            assert edges(seq.at(k)[j]) <= edges(seq.at(k + 1)[j])
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
            lo_nodes = monos(low.at(k)[j].basis)
            hi_basis = high.at(k)[j].basis
            for a, b in edges(low.at(k)[j]):
                ma, mb = lo_nodes[a], lo_nodes[b]
                ia, ib = hi_basis.index(ma), hi_basis.index(mb)
                assert has_edge(high.at(k)[j], ia, ib)


def test_clique_report_shape():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    seq = iterate_constrained(PopProblem(f), [basis], k=1)
    g = seq.at(1)[0]
    rep = clique_report(g, stabilized=True)
    assert rep["max_clique"] == 3
    assert rep["clique_sizes"] == [3, 3, 3, 3]
    assert rep["n_edges"] == 9
    assert rep["stabilized"] is True


# -- reference implementations: the tuple loops the key engine replaced -------


def _tsum(a, b):
    return tuple(x + y for x, y in zip(a, b))


def reference_tsp_graph(f, basis, extra_support=()):
    monos = tuple(map(tuple, basis.array.tolist()))
    target = set(support(f))
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
    monos = tuple(map(tuple, graph.basis.array.tolist()))
    supp = graph_support(graph)
    linked = set(edges(graph))
    for i in range(len(monos)):
        for j in range(i + 1, len(monos)):
            if (i, j) not in linked and _tsum(monos[i], monos[j]) in supp:
                linked.add((i, j))
    return MonomialGraph(graph.basis, linked)


def reference_localizing_graph(prev, g, moment_supp):
    """prev plus {a, b} whenever a shift of a + b by supp(g) is in moment_supp."""
    monos = tuple(map(tuple, prev.basis.array.tolist()))
    linked = set(edges(prev))
    for a in range(len(monos)):
        for b in range(a + 1, len(monos)):
            if (a, b) in linked:
                continue
            base_sum = _tsum(monos[a], monos[b])
            if any(_tsum(ga, base_sum) in moment_supp for ga in sorted(support(g))):
                linked.add((a, b))
    return MonomialGraph(prev.basis, linked)


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
        linked = set(edges(graph))
        for comp in nx.connected_components(h):
            linked.update(itertools.combinations(sorted(comp), 2))
        return MonomialGraph(graph.basis, linked)
    if nx.is_chordal(to_nx(graph)):
        return graph
    rule = "degree" if mode == "approx_min" else "fill"
    return MonomialGraph(graph.basis, set(edges(graph)) | reference_elimination_fill(adj, rule))


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
        if edges(nxt) == edges(cur):
            stabilized = max(1, step - 1)
            break
        if step <= k:
            levels.append(nxt)
        cur = nxt
    while len(levels) < k + 1:
        levels.append(cur)
    return [[edges(g)] for g in levels], stabilized


def reference_seed_edges(graph, seed, level, j):
    """graph plus the level-`level` edges of generator j in seed, matched by monomial."""
    if seed is None:
        return graph
    lv = seed.levels[min(level, len(seed.levels) - 1)]
    if j >= len(lv):
        return graph
    src, basis = lv[j], graph.basis
    index = {m: i for i, m in enumerate(monos(basis))}
    linked = set(edges(graph))
    src_nodes = monos(src.basis)
    for a, b in edges(src):
        ma, mb = src_nodes[a], src_nodes[b]
        if ma in index and mb in index:
            linked.add((index[ma], index[mb]))
    return MonomialGraph(basis, linked)


def reference_iterate_constrained(pop, d_hat, k, mode, seed=None, bases=None):
    """The graph levels and stabilization step; bases default to generator_bases(pop, d_hat)."""
    n = pop.nvars
    if bases is None:
        bases = [standard_basis(n, d_hat)]
        bases += [standard_basis(n, d_hat - (g.degree() + 1) // 2) for g in pop.constraints]
    b0 = bases[0]
    extra = set()
    for g in pop.constraints:
        extra |= support(g)
    loc = [MonomialGraph(b, ()) for b in bases[1:]]
    levels = [[reference_seed_edges(reference_tsp_graph(pop.objective, b0, extra), seed, 0, 0)] + loc]
    stabilized = None
    for step in range(1, k + 2):
        prev = levels[-1]
        moment_supp = graph_support(prev[0])
        moment = reference_seed_edges(reference_support_extension(prev[0]), seed, step, 0)
        new_level = [reference_chordal_extension(moment, mode)]
        for j, (g, loc_prev) in enumerate(zip(pop.constraints, prev[1:]), start=1):
            graph = reference_localizing_graph(loc_prev, g, moment_supp)
            new_level.append(reference_chordal_extension(reference_seed_edges(graph, seed, step, j), mode))
        if step >= 2 and all(edges(x) == edges(y) for x, y in zip(new_level, prev)):
            stabilized = step - 1
            break
        if step > k:
            break
        levels.append(new_level)
    return [[edges(g) for g in level] for level in levels], stabilized


def edge_levels(seq):
    return [[edges(g) for g in level] for level in seq.levels]


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
    extra = support(pop.constraints[0])
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
            targets = _tsp_targets(pop.objective, level0.basis, sorted(extra))
            assert _new_support(*_support_items(level0), targets) is not None


def test_seed_embedding_skips_monomials_outside_a_reduced_basis():
    pop = parse_pop("vars 2\nx1^4 + x2^4 + 1\nsubject to\n1 - x1^2 - x2^2\n")
    reduced = reduce_basis_unconstrained(pop.objective, standard_basis(2, 4))
    bases = [reduced] + generator_bases(pop, 4)[1:]
    assert len(reduced) < len(generator_bases(pop, 4)[0])
    for mode in EXTENSION_MODES:
        for k in (1, 2, 3):
            low = iterate_constrained(pop, generator_bases(pop, 3), k=k, mode=mode)
            # some seed edges have an endpoint the reduced basis lacks
            src, kept = low.at(k)[0], set(monos(reduced))
            src_nodes = monos(src.basis)
            assert any(src_nodes[a] not in kept or src_nodes[b] not in kept for a, b in edges(src))
            want, stabilized = reference_iterate_constrained(pop, 4, k, mode, seed=low, bases=bases)
            seq = iterate_constrained(pop, bases, k=k, mode=mode, seed=low)
            got = edge_levels(seq)
            assert got[: len(want)] == want[: k + 1], (mode, k)
            assert all(level == want[-1] for level in got[len(want):])
            assert seq.stabilized_at == stabilized, (mode, k)


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
    real = tssos.graphs._support_items

    def counting(graph):
        built.append(graph)
        return real(graph)

    monkeypatch.setattr(tssos.graphs, "_support_items", counting)
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
    pool = monos(standard_basis(n, 2))
    picks = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=len(pool)))
    basis = MonomialBasis(n, sorted(picks))
    r = len(basis)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    shifts = draw(st.sets(exps, min_size=1, max_size=3))
    return n, supp, basis, edges, shifts


def _check_against_reference(n, supp, basis, pairs, shifts):
    f = from_terms(n, {a: 1.0 for a in supp})
    extra = sorted(shifts)
    assert edges(tsp_graph(f, basis, extra)) == edges(reference_tsp_graph(f, basis, extra))
    graph = MonomialGraph(basis, pairs)
    assert edges(support_extension(graph)) == edges(reference_support_extension(graph))
    # localizing search: graph's support as the moment support, shifts as supp(g)
    g = from_terms(n, {a: 1.0 for a in shifts})
    shift_rows = np.array(sorted(support(g)), dtype=np.int64).reshape(-1, n)
    prev = MonomialGraph(basis, sorted(pairs)[::2])
    found = _linked_pairs(basis, _support_set(graph), shift_rows, known=prev.codes)
    want = edges(reference_localizing_graph(prev, g, graph_support(graph))) - edges(prev)
    assert {divmod(c, len(basis)) for c in found.tolist()} == want
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
        pool = monos(standard_basis(n, 4))
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
    monos = tuple(map(tuple, basis.array.tolist()))
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
    pool = [m for m in monos(standard_basis(n, high)) if sum(m) >= low]
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
        pool = monos(standard_basis(n, 3))[1:]
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
        known_codes = np.array([i * r + j for i, j in known], dtype=np.int64)
        for budget in (1 << 13, 5):
            monkeypatch.setattr(tssos.basis, "PAIR_BUDGET", budget)
            for drop in ((), known):
                found = _linked_pairs(basis, tssos.basis._rows_set(targets), shifts,
                                      known=known_codes if drop else None)
                assert found.tolist() == [i * r + j for i, j in reference_linked_pairs(basis, targets, shifts, drop)]
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
        codes = _linked_pairs(basis, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = np.column_stack(np.divmod(codes, r))
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
    assert [c.cliques for c in cliques] == [maximal_cliques(MonomialGraph(g.basis, edges(g))).cliques
                                            for g in seq.at(2)]


def test_maximal_cliques_match_reference_on_random_chordal_graphs():
    rng = np.random.default_rng(14)
    for _ in range(100):
        g = random_monomial_graph(rng, n_nodes=int(rng.integers(1, 25)), p=float(rng.random()))
        for mode in EXTENSION_MODES:
            ext = chordal_extension(g, mode)
            assert maximal_cliques(ext).cliques == reference_maximal_cliques(ext)
