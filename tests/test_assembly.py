import itertools

import numpy as np
import pytest

import tssos.basis

from tssos.assembly import (
    assemble,
    reconstruct_certificate,
    solve_relaxation,
)
from tssos import bench
from tssos.basis import MonomialBasis, generator_bases, newton_half_basis, standard_basis
from tssos.bench import RunOptions, build_relaxation
from tssos.graphs import (
    CliqueDecomposition,
    MonomialGraph,
    iterate_constrained,
    maximal_cliques,
    tsp_graph,
)
from tssos.poly import Polynomial, PopProblem, parse_polynomial, parse_pop
from tssos.sdpa import export_sdpa, import_sdpa
from sdp_tables import assert_same_table, canonical_sdp
from tuple_forms import graph_support, grlex_key, monos, terms

EX33 = (
    "x1^2 - 2*x1*x2 + 3*x2^2 - 2*x1^2*x2 + 2*x1^2*x2^2 - 2*x2*x3 + 6*x3^2"
    " + 18*x2^2*x3 - 54*x2*x3^2 + 142*x2^2*x3^2"
)


def complete_graph(basis):
    n = len(basis)
    return MonomialGraph(basis, itertools.combinations(range(n), 2))


def dense_cliques(pop, d_hat):
    """Whole-basis cliques of the dense relaxation of order d_hat."""
    return build_relaxation(pop, RunOptions(order=d_hat, dense=True)).cliques(1)


def side_sign(side):
    """The moment side negates the constraint entries and their rhs."""
    return 1.0 if side == "sos" else -1.0


def block_rows(sdp):
    """(alpha, entries, rhs) of every row, entries as (block, row, col, coeff) tuples.

    The moment side's sign is undone, so both sides read the same rows.
    """
    prob, sign = sdp.problem, side_sign(sdp.side)
    entries = [[] for _ in range(sdp.n_equalities)]
    for i, *entry, v in zip(*(col.tolist() for col in (prob.k, prob.blk, prob.r, prob.c, prob.v))):
        entries[i].append((*entry, sign * v if i else v))
    rhs = [sdp.offset] + (sign * prob.b).tolist()
    return list(zip(map(tuple, sdp.alphas.tolist()), map(tuple, entries), rhs))


def row_alphas(sdp):
    return set(map(tuple, sdp.alphas.tolist()))


def coeff_gap(p, q):
    diff = p - q
    return max((abs(v) for v in terms(diff).values()), default=0.0)


def test_dense_row_count_matches_pairwise_sums():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    sdp = assemble(PopProblem(f), [CliqueDecomposition.whole(basis)])
    sums = {
        tuple(a + b for a, b in zip(m1, m2))
        for m1 in monos(basis)
        for m2 in monos(basis)
    }
    assert sdp.n_equalities == len(sums)
    assert sdp.block_sizes == [len(basis)]
    assert sdp.scalar_variable_count() == len(basis) * (len(basis) + 1) // 2
    assert sdp.moment_variable_count() == sdp.n_equalities
    assert row_alphas(sdp) == sums
    for alpha, _, rhs in block_rows(sdp):
        assert rhs == f.coeff(alpha)


def test_sparse_rows_are_graph_support():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    seq = iterate_constrained(PopProblem(f), [basis], k=1)
    g1 = seq.at(1)[0]
    for side in ("sos", "moment"):
        sdp = assemble(PopProblem(f), [maximal_cliques(g1)], side=side)
        assert row_alphas(sdp) == graph_support(g1), side
        assert sorted(sdp.block_sizes, reverse=True) == [3, 3, 3, 3]


def test_rows_sorted_and_deterministic():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    a = assemble(PopProblem(f), [CliqueDecomposition.whole(basis)])
    b = assemble(PopProblem(f), [CliqueDecomposition.whole(basis)])
    assert block_rows(a) == block_rows(b)
    degs = a.alphas.sum(axis=1).tolist()
    assert degs == sorted(degs)


def test_missing_constant_rejected():
    f = parse_polynomial("x1^2", 1)
    basis = MonomialBasis(1, [(1,)])
    with pytest.raises(ValueError):
        assemble(PopProblem(f), [CliqueDecomposition.whole(basis)])


def test_cliques_without_the_constant_rejected():
    f = parse_polynomial("x1^2", 1)
    with pytest.raises(ValueError, match="no alpha = 0 row"):
        assemble(PopProblem(f), [CliqueDecomposition(standard_basis(1, 1), ((1,),))])


def test_unrepresentable_support_rejected():
    f = parse_polynomial("x1^6 + 1", 1)
    basis = standard_basis(1, 1)
    with pytest.raises(ValueError):
        assemble(PopProblem(f), [CliqueDecomposition.whole(basis)])
    g = complete_graph(basis)
    with pytest.raises(ValueError):
        assemble(PopProblem(f), [maximal_cliques(g)])


def test_one_decomposition_per_generator_required():
    f = parse_polynomial("x1^2 + 1", 1)
    whole = CliqueDecomposition.whole(standard_basis(1, 1))
    with pytest.raises(ValueError, match="expected 1 clique decompositions, got 2"):
        assemble(PopProblem(f), [whole, whole])
    sdp = assemble(PopProblem(f), [whole])
    res = solve_relaxation(sdp)
    with pytest.raises(ValueError, match="expected 1 clique decompositions, got 0"):
        reconstruct_certificate(sdp, res, [])


def test_constrained_needs_one_graph_per_generator():
    pop = parse_pop("vars 1\nx1^2\nsubject to\n1 - x1^2\n")
    seq = iterate_constrained(pop, generator_bases(pop, 1), k=1)
    with pytest.raises(ValueError):
        assemble(pop, [maximal_cliques(g) for g in seq.at(1)[:1]])


def test_canonical_offset_and_sign_conventions():
    f = parse_polynomial("x1^2 - 2*x1 + 3", 1)
    basis = standard_basis(1, 1)
    sos = assemble(PopProblem(f), [CliqueDecomposition.whole(basis)], side="sos").canonical()
    mom = assemble(PopProblem(f), [CliqueDecomposition.whole(basis)], side="moment").canonical()
    for (prob, offset, side), sign, expect in ((sos, 1.0, "sos"), (mom, -1.0, "moment")):
        assert offset == 3.0
        assert side == expect
        assert sorted(prob.b) == sorted(sign * v for v in (-2.0, 1.0))
        prob.validate()


def test_scalar_quadratic_bound():
    # (x - 1)^2 has minimum 0
    f = parse_polynomial("x1^2 - 2*x1 + 1", 1)
    basis = standard_basis(1, 1)
    for side in ("sos", "moment"):
        res = solve_relaxation(assemble(PopProblem(f), [CliqueDecomposition.whole(basis)], side=side))
        assert res.status == "optimal"
        assert abs(res.bound) < 1e-7, side


def test_sparse_on_complete_graph_equals_dense():
    f = parse_polynomial("x1^4 + x2^4 - x1*x2 + 1", 2)
    basis = standard_basis(2, 2)
    dense = solve_relaxation(assemble(PopProblem(f), [CliqueDecomposition.whole(basis)]))
    sparse_sdp = assemble(PopProblem(f), [maximal_cliques(complete_graph(basis))])
    assert sparse_sdp.block_sizes == [len(basis)]
    dense_sdp = assemble(PopProblem(f), [CliqueDecomposition.whole(basis)])
    assert row_alphas(sparse_sdp) == row_alphas(dense_sdp)
    sparse = solve_relaxation(sparse_sdp)
    assert sparse.status == dense.status == "optimal"
    assert abs(sparse.bound - dense.bound) < 1e-7


def test_moment_and_sos_sides_agree():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    seq = iterate_constrained(PopProblem(f), [basis], k=1)
    g1 = seq.at(1)[0]
    vals = {}
    for side in ("sos", "moment"):
        res = solve_relaxation(assemble(PopProblem(f), [maximal_cliques(g1)], side=side))
        assert res.status == "optimal"
        vals[side] = res.bound
    assert abs(vals["sos"] - vals["moment"]) <= 1e-6 * (1 + abs(vals["sos"]))


def test_constrained_rows_merge_across_generators():
    pop = parse_pop("vars 1\nx1^2\nsubject to\n1 - x1^2\n")
    sdp = assemble(pop, dense_cliques(pop, 1))
    entries = next(ents for alpha, ents, _ in block_rows(sdp) if alpha == (2,))
    touched = {e[0] for e in entries}
    assert touched == {0, 1}
    coeffs = {e[0]: e[3] for e in entries}
    assert coeffs[0] == 1.0  # x * x in the moment block
    assert coeffs[1] == -1.0  # -x^2 shift of the localizing block


def test_constrained_ball_toy_bound():
    pop = parse_pop(
        "vars 2\nx1^2*x2^2 - x1*x2 + 1\nsubject to\n1 - x1^2 - x2^2\n"
    )
    for side in ("sos", "moment"):
        res = solve_relaxation(assemble(pop, dense_cliques(pop, 2), side=side))
        assert res.status == "optimal"
        assert abs(res.bound - 0.75) < 1e-6, side
    seq = iterate_constrained(pop, generator_bases(pop, 2), k=2)
    sres = solve_relaxation(assemble(pop, [maximal_cliques(g) for g in seq.at(2)]))
    assert sres.status == "optimal"
    assert sres.bound <= 0.75 + 1e-7


def test_certificate_matches_objective_unconstrained():
    f = parse_polynomial(EX33, 3)
    basis = newton_half_basis(f)
    seq = iterate_constrained(PopProblem(f), [basis], k=1)
    g1 = seq.at(1)[0]
    sdp = assemble(PopProblem(f), [maximal_cliques(g1)], side="sos")
    res = solve_relaxation(sdp)
    assert res.status == "optimal"
    cert = reconstruct_certificate(sdp, res, [maximal_cliques(g1)])
    assert coeff_gap(cert, f) <= 1e-6
    # PSD Gram blocks back the decomposition
    for x in res.solution.x_blocks:
        assert np.linalg.eigvalsh(x).min() >= -1e-7


def test_certificate_matches_objective_constrained():
    pop = parse_pop(
        "vars 2\nx1^2*x2^2 - x1*x2 + 1\nsubject to\n1 - x1^2 - x2^2\n"
    )
    sdp = assemble(pop, dense_cliques(pop, 2), side="sos")
    res = solve_relaxation(sdp)
    assert res.status == "optimal"
    bases = [standard_basis(2, 2), standard_basis(2, 1)]
    cert = reconstruct_certificate(sdp, res, [CliqueDecomposition.whole(b) for b in bases])
    assert coeff_gap(cert, pop.objective) <= 1e-6


def test_certificate_requires_sos_side_and_solution():
    f = parse_polynomial("x1^2 + 1", 1)
    basis = standard_basis(1, 1)
    sdp = assemble(PopProblem(f), [maximal_cliques(complete_graph(basis))], side="moment")
    res = solve_relaxation(sdp)
    with pytest.raises(ValueError):
        reconstruct_certificate(sdp, res, [maximal_cliques(complete_graph(basis))])
    sos_sdp = assemble(PopProblem(f), [maximal_cliques(complete_graph(basis))])
    bare = solve_relaxation(sos_sdp)
    bare.solution = None
    with pytest.raises(ValueError):
        reconstruct_certificate(sos_sdp, bare, [maximal_cliques(complete_graph(basis))])


def test_certificate_refused_on_a_relaxation_read_from_a_file(tmp_path):
    f = parse_polynomial("x1^2 + 1", 1)
    cliques = [CliqueDecomposition.whole(standard_basis(1, 1))]
    path = str(tmp_path / "p.dat-s")
    export_sdpa(assemble(PopProblem(f), cliques), path)
    back = import_sdpa(path)
    res = solve_relaxation(back)
    assert res.status == "optimal"
    with pytest.raises(ValueError, match="read from a file"):
        reconstruct_certificate(back, res, cliques)


def test_bad_side_rejected():
    f = parse_polynomial("x1^2 + 1", 1)
    with pytest.raises(ValueError):
        assemble(PopProblem(f), [CliqueDecomposition.whole(standard_basis(1, 1))], side="primal")


def reference_sos_rows(pop, graphs):
    """SOS-side rows by the backward search: for each alpha, every generator
    term aprime and the clique entries realizing alpha - aprime."""
    gens = [Polynomial.constant(pop.nvars, 1.0)] + list(pop.constraints)
    realize = [dict() for _ in gens]
    blk = 0
    for j, graph in enumerate(graphs):
        monos = tuple(map(tuple, graph.basis.array.tolist()))
        for clique in maximal_cliques(graph).cliques:
            for a in range(len(clique)):
                for b in range(a, len(clique)):
                    s = tuple(x + y for x, y in zip(monos[clique[a]], monos[clique[b]]))
                    realize[j].setdefault(s, []).append((blk, a, b))
            blk += 1
    alphas = {
        tuple(x + y for x, y in zip(aprime, rho))
        for j, g in enumerate(gens)
        for aprime in terms(g)
        for rho in realize[j]
    }
    rows = []
    for alpha in sorted(alphas, key=grlex_key):
        ents = []
        for j, g in enumerate(gens):
            for aprime, coeff in terms(g).items():
                delta = tuple(x - y for x, y in zip(alpha, aprime))
                if min(delta) >= 0:
                    ents.extend((b, p, q, coeff) for b, p, q in realize[j].get(delta, ()))
        rows.append((alpha, tuple(ents), pop.objective.coeff(alpha)))
    return rows


@pytest.mark.parametrize("n,constraint", [(4, "unit_ball"), (3, "unit_hypercube")])
@pytest.mark.parametrize("d_hat", [2, 3])
def test_sos_scatter_matches_backward_search(n, constraint, d_hat):
    pop = PopProblem(bench.gen_rosenbrock(n), bench.constraint_set(constraint, n))
    graphs = iterate_constrained(pop, generator_bases(pop, d_hat), k=2).at(2)
    sdp = assemble(pop, [maximal_cliques(g) for g in graphs], side="sos")
    assert block_rows(sdp) == reference_sos_rows(pop, graphs)


@pytest.mark.parametrize("family,n,constraint", [
    ("gen_rosenbrock", 4, "none"), ("broyden_tridiagonal", 3, "none"),
    ("gen_rosenbrock", 4, "unit_ball"), ("broyden_tridiagonal", 3, "unit_hypercube"),
])
@pytest.mark.parametrize("dense,k", [(False, 1), (False, 2), (True, 1)])
@pytest.mark.parametrize("side", ["sos", "moment"])
def test_assemble_rows_match_backward_search(family, n, constraint, dense, k, side):
    pop = PopProblem(getattr(bench, family)(n), bench.constraint_set(constraint, n))
    rel = build_relaxation(pop, RunOptions(k_max=2, dense=dense))
    cliques = rel.cliques(k)
    # a dense relaxation is the sparse one on complete graphs
    graphs = [complete_graph(dec.basis) for dec in cliques] if dense else rel.seq.at(k)
    sdp = assemble(pop, cliques, side=side)
    assert block_rows(sdp) == reference_sos_rows(pop, graphs)


def test_certificate_matches_objective_sparse_constrained():
    pop = parse_pop("vars 2\nx1^2*x2^2 - x1*x2 + 1\nsubject to\n1 - x1^2 - x2^2\n")
    cliques = build_relaxation(pop, RunOptions(order=2, k_max=2)).cliques(2)
    sdp = assemble(pop, cliques)
    res = solve_relaxation(sdp)
    assert res.status == "optimal"
    assert coeff_gap(reconstruct_certificate(sdp, res, cliques), pop.objective) <= 1e-6


def reference_forward_rows(pop, cliques):
    """Rows by the tuple forward scatter: each generator term shifts every
    clique cell's sum into its row, generator by generator, term by term."""
    gens = [Polynomial.constant(pop.nvars, 1.0)] + list(pop.constraints)
    realize = [dict() for _ in gens]
    blk = 0
    for j, dec in enumerate(cliques):
        monos = tuple(map(tuple, dec.basis.array.tolist()))
        for clique in dec.cliques:
            for a in range(len(clique)):
                for b in range(a, len(clique)):
                    s = tuple(x + y for x, y in zip(monos[clique[a]], monos[clique[b]]))
                    realize[j].setdefault(s, []).append((blk, a, b))
            blk += 1
    rows = {}
    for j, g in enumerate(gens):
        for aprime, coeff in terms(g).items():
            for rho, cells in realize[j].items():
                alpha = tuple(x + y for x, y in zip(aprime, rho))
                rows.setdefault(alpha, []).extend((b, p, q, coeff) for b, p, q in cells)
    return [(a, tuple(rows[a]), pop.objective.coeff(a)) for a in sorted(rows, key=grlex_key)]


def signed_table(rows, block_sizes, side):
    """The solver's table of the rows (alpha, entries, rhs) by the sign rule:
    on the moment side, the entries of rows > 0 and rhs[1:] are negated."""
    sign = side_sign(side)
    a_entries = [tuple((b, p, q, sign * v) for b, p, q, v in ents) for _, ents, _ in rows[1:]]
    return canonical_sdp(block_sizes, rows[0][1], a_entries, [sign * rhs for *_, rhs in rows[1:]])


@pytest.mark.parametrize("family,n,constraint", [
    ("gen_rosenbrock", 4, "none"), ("broyden_tridiagonal", 3, "none"),
    ("gen_rosenbrock", 4, "unit_ball"), ("broyden_tridiagonal", 3, "unit_hypercube"),
])
@pytest.mark.parametrize("dense,k", [(False, 1), (False, 2), (True, 1)])
@pytest.mark.parametrize("side", ["sos", "moment"])
def test_assembled_table_is_the_signed_rows(family, n, constraint, dense, k, side):
    pop = PopProblem(getattr(bench, family)(n), bench.constraint_set(constraint, n))
    cliques = build_relaxation(pop, RunOptions(k_max=2, dense=dense)).cliques(k)
    sdp = assemble(pop, cliques, side=side)
    rows = reference_forward_rows(pop, cliques)
    assert_same_table(sdp.problem, signed_table(rows, sdp.block_sizes, side))
    assert (sdp.offset, sdp.side) == (rows[0][2], side)
    prob, offset, got_side = sdp.canonical()
    assert prob is sdp.problem and (offset, got_side) == (sdp.offset, side)


@pytest.mark.parametrize("family,n,constraint,dense,side", [
    ("gen_rosenbrock", 5, "none", True, "sos"),
    ("broyden_banded", 4, "none", True, "moment"),
    ("broyden_tridiagonal", 5, "none", False, "sos"),
    ("gen_rosenbrock", 6, "none", False, "moment"),
    ("gen_rosenbrock", 4, "unit_ball", False, "moment"),
    ("broyden_tridiagonal", 3, "unit_hypercube", True, "moment"),
])
def test_rows_and_entry_order_match_forward_scatter(family, n, constraint, dense, side):
    pop = PopProblem(getattr(bench, family)(n), bench.constraint_set(constraint, n))
    cliques = build_relaxation(pop, RunOptions(k_max=2, dense=dense)).cliques(1 if dense else 2)
    sdp = assemble(pop, cliques, side=side)
    assert block_rows(sdp) == reference_forward_rows(pop, cliques)


@pytest.mark.parametrize("n,constraint", [(4, "unit_ball"), (3, "unit_hypercube")])
def test_colliding_keys_keep_rows_apart(monkeypatch, n, constraint):
    """All-ones weights make every key the total degree: rows must be grouped exactly."""
    monkeypatch.setattr(tssos.basis, "_key_weights", lambda nvars: np.ones(nvars, dtype=np.uint64))
    pop = PopProblem(bench.gen_rosenbrock(n), bench.constraint_set(constraint, n))
    for d_hat, dense in [(2, False), (3, False), (2, True)]:
        rel = build_relaxation(pop, RunOptions(order=d_hat, k_max=2, dense=dense))
        cliques = rel.cliques(1 if dense else 2)
        graphs = [complete_graph(dec.basis) for dec in cliques] if dense else rel.seq.at(2)
        sdp = assemble(pop, cliques, side="sos")
        assert block_rows(sdp) == reference_sos_rows(pop, graphs)
