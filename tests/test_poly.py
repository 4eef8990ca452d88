import functools
import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tssos import bench

from tssos.poly import (
    ParseError,
    Polynomial,
    PopProblem,
    count_monomials,
    grlex_key,
    monomials_up_to,
    parse_polynomial,
    parse_pop,
)


def test_zero_and_constant():
    z = Polynomial.zero(3)
    assert z.degree() == -1
    assert z.support() == set()
    c = Polynomial.constant(3, 2.5)
    assert c.degree() == 0
    assert c.coeff((0, 0, 0)) == 2.5
    # exact zero coefficient is dropped at construction
    assert Polynomial.constant(3, 0.0).support() == set()


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
    assert diff.support() == set()


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
            assert len(ms) == math.comb(n + d, d) == count_monomials(n, d)
            assert len(set(ms)) == len(ms)
            assert all(sum(m) <= d for m in ms)
            # graded lex sorted
            assert list(ms) == sorted(ms, key=grlex_key)


def test_grlex_orders_by_degree_first():
    assert grlex_key((0, 0)) < grlex_key((1, 0))
    assert grlex_key((1, 0)) < grlex_key((0, 2))
    # within a degree, earlier variables weigh more
    assert grlex_key((2, 0)) < grlex_key((1, 1)) < grlex_key((0, 2))


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
    return Polynomial(n, terms)


@settings(max_examples=150, deadline=None)
@given(random_polynomials())
def test_print_parse_round_trip(f):
    if not f.support():
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
    assert got.objective.terms == pop.objective.terms
    assert [g.terms for g in got.constraints] == [g.terms for g in pop.constraints]


TERM_PIECES = ["x1", "x2", "x3", "x0", "x4", "x01^02", "x", "^", "^0", "^2", "*", "**", "+", "-",
               " ", "\t", "\n", "(", ")", "1e", "1e5", "1e999", ".5", "3.", "2", "0", "e", "#"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TERM_PIECES), max_size=12).map("".join))
def test_parsers_raise_nothing_but_parse_error(text):
    # the vars line keeps exponent lists short whatever index the text names
    for parse in (lambda: parse_polynomial(text, 3), lambda: parse_pop("vars 3\n" + text)):
        try:
            parse()
        except ParseError:
            pass
