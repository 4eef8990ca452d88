import functools
import hashlib
import importlib.util
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tssos import bench

from tssos.basis import standard_basis
from tssos.poly import (
    ParseError,
    Polynomial,
    PopProblem,
    _parse_terms,
    _polynomial,
    grlex_order,
    parse_polynomial,
    parse_pop,
)
from tuple_forms import (
    dict_add,
    dict_mul,
    dict_polynomial,
    dict_pow,
    dict_scale,
    dict_sub,
    from_terms,
    grlex_key,
    monomials_up_to,
    support,
    terms,
)


def test_zero_and_constant():
    z = Polynomial.zero(3)
    assert z.degree() == -1
    assert support(z) == set()
    c = Polynomial.constant(3, 2.5)
    assert c.degree() == 0
    assert c.coeff((0, 0, 0)) == 2.5
    # exact zero coefficient is dropped at construction
    assert support(Polynomial.constant(3, 0.0)) == set()


def test_variable_indexing_is_one_based():
    x2 = Polynomial.variable(3, 2)
    assert x2.coeff((0, 1, 0)) == 1.0
    with pytest.raises(ValueError):
        Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        Polynomial.variable(3, 4)


def test_arithmetic_small_identity():
    # (x1 + x2)^2 = x1^2 + 2 x1 x2 + x2^2
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    sq = (x1 + x2) ** 2
    assert sq.coeff((2, 0)) == 1.0
    assert sq.coeff((1, 1)) == 2.0
    assert sq.coeff((0, 2)) == 1.0
    assert sq.degree() == 2
    # cancellation drops terms
    diff = sq - x1 * x1 - 2.0 * x1 * x2 - x2 * x2
    assert support(diff) == set()


def test_evaluate_matches_horner_free_oracle():
    rng = np.random.default_rng(5)
    f = parse_polynomial("2 - x1 + 3*x1*x2^2 - 0.5*x2^4", 2)
    for _ in range(50):
        x = rng.normal(size=2)
        direct = 2 - x[0] + 3 * x[0] * x[1] ** 2 - 0.5 * x[1] ** 4
        assert math.isclose(f.evaluate(x), direct, rel_tol=1e-12, abs_tol=1e-12)


def test_parse_basic_forms():
    f = parse_polynomial("x1^2 - 2*x1*x2 + 1", 2)
    assert f.coeff((2, 0)) == 1.0
    assert f.coeff((1, 1)) == -2.0
    assert f.coeff((0, 0)) == 1.0
    g = parse_polynomial("-x1 + +x2", 2)
    assert g.coeff((1, 0)) == -1.0
    assert g.coeff((0, 1)) == 1.0
    h = parse_polynomial("3.5e-1*x1^3", 1)
    assert h.coeff((3,)) == pytest.approx(0.35)


def test_parse_collects_repeated_monomials():
    f = parse_polynomial("x1 + x1 + x1", 1)
    assert f.coeff((1,)) == 3.0


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_polynomial("x1 +", 1)
    with pytest.raises(ParseError):
        parse_polynomial("x0 + 1", 2)  # variables start at x1
    with pytest.raises(ParseError):
        parse_polynomial("x3", 2)  # out of declared range
    with pytest.raises(ParseError):
        parse_polynomial("2 ** x1", 1)


def test_parse_pop_takes_nvars_from_the_largest_index():
    assert parse_pop("x2*x5 + 1").nvars == 5
    with pytest.raises(ParseError, match="could not infer"):
        parse_pop("3.0")


def test_parse_pop_ignores_comments_for_the_variable_count():
    text = "# from the x40 model\nx1^4 + x2^4 - x1*x2\nsubject to\n1 - x1^2 - x2^2\n"
    pop = parse_pop(text)
    assert pop.nvars == 2
    assert pop == parse_pop(text.split("\n", 1)[1])


def test_parse_pop_with_constraints_and_comments():
    text = """
    # objective then constraints, one per line
    vars 2
    x1^2*x2^2 - x1*x2 + 1
    subject to
    1 - x1^2 - x2^2
    x1
    """
    pop = parse_pop(text)
    assert pop.nvars == 2
    assert len(pop.constraints) == 2
    assert pop.constraints[1].coeff((1, 0)) == 1.0


def test_parse_pop_unconstrained_and_nvars_inference():
    pop = parse_pop("x1^4 + x2^2")
    assert pop.nvars == 2
    assert pop.constraints == ()


def test_pop_rejects_mismatched_constraint_arity():
    f = Polynomial.variable(2, 1)
    g = Polynomial.variable(3, 1)
    with pytest.raises(ValueError):
        PopProblem(f, (g,))


def test_monomials_up_to_count():
    for n in (1, 2, 3):
        for d in (0, 1, 2, 3):
            ms = monomials_up_to(n, d)
            assert len(ms) == math.comb(n + d, d)
            assert len(set(ms)) == len(ms)
            assert all(sum(m) <= d for m in ms)
            # graded lex sorted, as the standard basis is
            assert list(ms) == sorted(ms, key=grlex_key)
            assert standard_basis(n, d).array.tolist() == [list(m) for m in ms]


def test_grlex_orders_by_degree_first():
    assert grlex_order([(0, 0), (1, 0), (0, 2)]).tolist() == [0, 1, 2]
    assert grlex_order([(0, 2), (1, 0), (0, 0)]).tolist() == [2, 1, 0]
    # within a degree, earlier variables weigh more
    assert grlex_order([(0, 2), (1, 1), (2, 0)]).tolist() == [2, 1, 0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), max_size=12))
def test_grlex_order_sorts_like_the_tuple_key(rows):
    order = grlex_order(np.array(rows, dtype=np.int64).reshape(-1, 3)).tolist()
    assert order == sorted(range(len(rows)), key=lambda t: grlex_key(rows[t]))


@st.composite
def random_polynomials(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=8))
    terms = {}
    for _ in range(k):
        e = tuple(draw(st.integers(min_value=0, max_value=4)) for _ in range(n))
        c = draw(
            st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
            ).filter(lambda v: abs(v) > 1e-6)
        )
        terms[e] = c
    return from_terms(n, terms)


@settings(max_examples=150, deadline=None)
@given(random_polynomials())
def test_print_parse_round_trip(f):
    if f.is_zero():
        return
    g = parse_polynomial(str(f), f.nvars)
    assert g.allclose(f, tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(random_polynomials(), random_polynomials())
def test_product_evaluates_pointwise(f, g):
    if f.nvars != g.nvars:
        return
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=f.nvars)
    lhs = (f * g).evaluate(x)
    rhs = f.evaluate(x) * g.evaluate(x)
    scale = 1.0 + abs(rhs)
    assert abs(lhs - rhs) <= 1e-8 * scale


def test_vars_zero_is_a_parse_error():
    with pytest.raises(ParseError, match="at least one variable"):
        parse_pop("vars 0\n1\n")


def test_products_need_a_star_between_variables():
    for text in ("x1 x2", "x1x2", "x1^2x2", "x1^2 x2 + 1"):
        with pytest.raises(ParseError, match="products need"):
            parse_polynomial(text, 2)
    want = parse_polynomial("2*x1*x2", 2)
    for text in ("2x1*x2", "2 x1*x2", "2 * x1 * x2", "2\t*x1 *x2"):
        assert parse_polynomial(text, 2) == want


def test_a_coefficient_does_not_reach_across_a_line():
    with pytest.raises(ParseError, match="position"):
        parse_pop("x1^4 + 2\nx2^4")
    with pytest.raises(ParseError):
        parse_pop("x1^4 + x2^4\nx1*x2")
    want = parse_pop("x1^4 + 2*x2^4")
    for text in ("x1^4 + 2*\nx2^4", "x1^4 +\n2 x2^4", "x1^4\n+ 2x2^4", "x1^4 + 2\n*x2^4"):
        assert parse_pop(text) == want


def test_errors_name_the_position():
    with pytest.raises(ParseError, match="position 5"):
        parse_polynomial("x1 + * x2", 2)
    with pytest.raises(ParseError, match="position 3"):
        parse_polynomial("x1 x2", 2)
    with pytest.raises(ParseError, match="empty"):
        parse_polynomial(" \t", 1)


def test_non_finite_coefficients_are_refused():
    for text in ("1e999*x1^2 + 1", "1e308*x1 + 1e308*x1", "1e999*x1 - 1e999*x1"):
        with pytest.raises(ParseError, match="not finite"):
            parse_polynomial(text, 1)


def test_degrees_must_fit_int64():
    assert parse_polynomial(f"x1^{2 ** 63 - 1}", 1).degree() == 2 ** 63 - 1
    for text in ("x1^99999999999999999999", "x1^4611686018427387904*x2^4611686018427387904 + 1",
                 "x1^" + "1" * 5000):
        with pytest.raises(ParseError):
            parse_polynomial(text, 2)
    with pytest.raises(ParseError, match="zero exponent"):
        parse_polynomial("x1^00", 1)


def _perfbench_suite():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "suite.py"
    spec = importlib.util.spec_from_file_location("perfbench_suite", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SUITE = _perfbench_suite()
family = functools.lru_cache(maxsize=None)(lambda name, n: getattr(bench, name)(n))
NAMED = ("broyden_banded", "broyden_tridiagonal", "gen_rosenbrock", "mod_gen_rosenbrock",
         "mod_chained_singular")
INSTANCE_TEXTS = (
    [pytest.param(lambda name=name: SUITE.generate(name), id=name) for name in SUITE.INSTANCES]
    + [pytest.param(lambda fam=fam, con=con, n=n: PopProblem(family(fam, n),
                                                             bench.constraint_set(con, n)),
                    id=f"{fam}_{con}_{n}")
       for fam in NAMED for con in bench.CONSTRAINT_SETS for n in (4, 12, 40)]
    + [pytest.param(lambda seed=seed: PopProblem(bench.randpoly1(8, 8, 30, 0.1, seed)),
                    id=f"randpoly1_seed{seed}") for seed in range(10)]
    + [pytest.param(lambda seed=seed: PopProblem(bench.randpoly2(6, 6, 20, seed)),
                    id=f"randpoly2_seed{seed}") for seed in range(10)]
)


@pytest.mark.parametrize("make", INSTANCE_TEXTS)
def test_instance_texts_parse_to_the_generated_problem(make):
    pop = make()
    got = parse_pop(SUITE.pop_text(pop))
    assert got.nvars == pop.nvars
    assert terms(got.objective) == terms(pop.objective)
    assert [terms(g) for g in got.constraints] == [terms(g) for g in pop.constraints]


# sha256 of the perfbench instance texts as written before polynomials were held as rows
INSTANCE_TEXT_SHA256 = {
    "gen_rosenbrock_14": "563e88c6b6b935f6d4f9c0da4ee326ed85da823a83c0a30bb9d3be649c9d98b6",
    "broyden_tridiagonal_14": "f6111c7114f5ad24ae08fd5dcdb7d9170e2a27a708bbcdf10c090ddf14cb7cd7",
    "randpoly1_8_seed3": "e3fc4797941a946fcd72dbbaa10f702f703d83b578973025ad3f7b804b3a538e",
    "broyden_banded_5_dense": "dec99d4d07ec630f09bc713b900b223b2db70c02d67a1a88de29cfa0c25cff75",
    "broyden_tridiagonal_24_export": "3bb3d8b00ba4818984e2517ed93b5a447f66a54017d92106820eb17bde2d7f6f",
    "gen_rosenbrock_28_cube_export": "256a2360e41f059f7626581d2371a486905cd91daa8e29973be346d72d09ada6",
}


@pytest.mark.parametrize("name", sorted(INSTANCE_TEXT_SHA256))
def test_instance_texts_are_byte_identical(name):
    assert set(INSTANCE_TEXT_SHA256) == set(SUITE.INSTANCES)
    text = SUITE.pop_text(SUITE.generate(name))
    assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_TEXT_SHA256[name]


TERM_PIECES = ["x1", "x2", "x3", "x0", "x4", "x01^02", "x", "^", "^0", "^2", "*", "**", "+", "-",
               " ", "\t", "\n", "(", ")", "1e", "1e5", "1e999", ".5", "3.", "2", "0", "e", "#"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TERM_PIECES), max_size=12).map("".join))
def test_parsers_raise_nothing_but_parse_error(text):
    # the vars line keeps exponent rows short whatever index the text names; without
    # it a large index is refused by the entry cap
    for parse in (lambda: parse_polynomial(text, 3), lambda: parse_pop("vars 3\n" + text),
                  lambda: parse_pop(text)):
        try:
            parse()
        except ParseError:
            pass


def test_a_huge_variable_count_is_refused_before_allocation():
    tracemalloc.start()
    try:
        for text in ("x100000000 + 1", "vars 100000000\nx1 + 1"):
            with pytest.raises(ParseError, match="cap"):
                parse_pop(text)
        with pytest.raises(ParseError, match="cap"):
            parse_polynomial("x1 + 1", 10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_products_and_powers_refuse_degrees_past_int64():
    big = Polynomial.monomial(2, [2 ** 62, 0])
    assert (big * Polynomial.monomial(2, [0, 2 ** 62 - 1])).degree() == 2 ** 63 - 1
    for make in (lambda: big * big, lambda: big ** 2, lambda: big * Polynomial.variable(2, 2) * big):
        with pytest.raises(ValueError, match="2\\^63"):
            make()
    with pytest.raises(ValueError, match="2\\^63"):
        Polynomial(2, [[2 ** 62, 2 ** 62]], [1.0])


# -- rows against the tuple-dict reference --------------------------------------

COEFFS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -2.0, 3.0, 0.1, 0.2, -0.3, 1e-15, -1e-15, 1e-7]),
    st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
)


@st.composite
def dict_polynomials(draw, n):
    """An {exponent tuple: coefficient} dict as the reference arithmetic leaves it: no |c| <= tol."""
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return dict_add({}, draw(st.dictionaries(exps, COEFFS, max_size=6)))


def _bits(by_exponent):
    return [(a, c.hex()) for a, c in by_exponent.items()]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_arithmetic_matches_the_tuple_dict_reference(data):
    n = data.draw(st.integers(1, 3))
    p, q = data.draw(dict_polynomials(n)), data.draw(dict_polynomials(n))
    s = data.draw(COEFFS)
    k = data.draw(st.integers(0, 3))
    fp, fq = from_terms(n, p), from_terms(n, q)
    for got, want in ((fp + fq, dict_add(p, q)), (fp - fq, dict_sub(p, q)), (fp * fq, dict_mul(p, q)),
                      (fp * s, dict_scale(p, s)), (s * fp, dict_scale(p, s)),
                      (fp ** k, dict_pow(p, k, n)), ((fp + fq) * (fp - fq), dict_mul(dict_add(p, q), dict_sub(p, q)))):
        assert _bits(terms(got)) == _bits(want)
        assert got.rows.flags.writeable is False and got.coeffs.flags.writeable is False


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parsed_rows_match_the_tuple_dict_reference(data):
    n = data.draw(st.integers(1, 3))
    factor = st.tuples(st.integers(1, n), st.integers(1, 3))
    parsed = data.draw(st.lists(st.tuples(COEFFS, st.lists(factor, max_size=3)), min_size=1, max_size=10))
    want = dict_polynomial(parsed, n)
    assert _bits(terms(_polynomial(parsed, n))) == _bits(want)
    text = " + ".join(f"{c!r}" + "".join(f"*x{i}^{k}" for i, k in powers) for c, powers in parsed)
    assert _bits(terms(parse_polynomial(text, n))) == _bits(dict_polynomial(_parse_terms(text), n))
