import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tssos.poly import (
    ParseError,
    Polynomial,
    PopProblem,
    count_monomials,
    grlex_key,
    infer_nvars,
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


def test_infer_nvars():
    assert infer_nvars("x2*x5 + 1") == 5
    assert infer_nvars("3.0") == 0


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
