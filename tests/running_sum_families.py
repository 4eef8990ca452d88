"""The benchmark families as they were built before one merge: running sums.

Each builder below adds its parts to a running sum, so every ``+`` re-merges
everything summed so far.  The tests hold the one-merge builders of
tssos.bench to these: the same terms, the same coefficient bits, the same
text, and the same term order wherever no partial sum cancels a term.
"""

import numpy as np

from tssos.basis import standard_basis
from tssos.poly import Polynomial

CONSTRAINT_SETS = ("none", "unit_ball", "unit_hypercube")


def _var(n: int, i: int) -> Polynomial:
    return Polynomial.variable(n, i)


def broyden_banded(n: int) -> Polynomial:
    """Sum of squared Broyden banded residuals; global minimum 0."""
    if n < 2:
        raise ValueError("broyden_banded needs n >= 2")
    total = Polynomial.zero(n)
    for i in range(1, n + 1):
        xi = _var(n, i)
        p = xi * (Polynomial.constant(n, 2.0) + 5.0 * xi * xi) + Polynomial.constant(n, 1.0)
        for j in range(max(1, i - 5), min(n, i + 1) + 1):
            if j == i:
                continue
            xj = _var(n, j)
            p = p - (Polynomial.constant(n, 1.0) + xj) * xj
        total = total + p * p
    return total


def broyden_tridiagonal(n: int) -> Polynomial:
    """Squared tridiagonal residuals with zero boundary neighbors."""
    if n < 2:
        raise ValueError("broyden_tridiagonal needs n >= 2")
    total = Polynomial.zero(n)
    one = Polynomial.constant(n, 1.0)
    three = Polynomial.constant(n, 3.0)
    for i in range(1, n + 1):
        xi = _var(n, i)
        p = (three - 2.0 * xi) * xi + one
        if i > 1:
            p = p - _var(n, i - 1)
        if i < n:
            p = p - 2.0 * _var(n, i + 1)
        total = total + p * p
    return total


def gen_rosenbrock(n: int) -> Polynomial:
    """1 + sum_{i=2..n} 100(x_i - x_{i-1}^2)^2 + (1 - x_i)^2."""
    if n < 2:
        raise ValueError("gen_rosenbrock needs n >= 2")
    total = Polynomial.constant(n, 1.0)
    one = Polynomial.constant(n, 1.0)
    for i in range(2, n + 1):
        xi = _var(n, i)
        prev = _var(n, i - 1)
        t1 = xi - prev * prev
        t2 = one - xi
        total = total + 100.0 * t1 * t1 + t2 * t2
    return total


def _pairwise_coupling(n: int) -> Polynomial:
    total = Polynomial.zero(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            xi2 = _var(n, i) * _var(n, i)
            xj2 = _var(n, j) * _var(n, j)
            total = total + xi2 * xj2
    return total


def mod_gen_rosenbrock(n: int) -> Polynomial:
    return gen_rosenbrock(n) + _pairwise_coupling(n)


def mod_chained_singular(n: int) -> Polynomial:
    """Chained singular terms over odd i plus pairwise coupling."""
    if n < 4 or n % 2:
        raise ValueError("mod_chained_singular needs even n >= 4")
    total = _pairwise_coupling(n)
    for i in range(1, n - 2, 2):
        x0, x1, x2, x3 = (_var(n, i + k) for k in range(4))
        a = x0 + 10.0 * x1
        b = x2 - x3
        c = x1 - 2.0 * x2
        d = x0 - 10.0 * x3
        total = total + a * a + 5.0 * b * b + (c * c) * (c * c) + 10.0 * (d * d) * (d * d)
    return total


def randpoly1(n: int, deg: int, terms: int, prob: float, seed: int) -> Polynomial:
    if deg % 2 or deg < 2:
        raise ValueError("randpoly1 degree must be even and >= 2")
    if not 0 < prob <= 1:
        raise ValueError("prob must be in (0, 1]")
    rng = np.random.default_rng(seed)
    candidates = standard_basis(n, deg // 2).array
    picked = candidates[:0]
    while not len(picked):
        picked = candidates[rng.random(len(candidates)) < prob]
    owner = rng.integers(0, terms, size=len(picked))
    coeffs = rng.uniform(-1.0, 1.0, size=len(picked))
    parts = [Polynomial(n, picked[owner == o], coeffs[owner == o]) for o in range(terms)]
    total = Polynomial.zero(n)
    for p in parts:
        total = total + p * p
    return total


def randpoly2(n: int, deg: int, terms: int, seed: int) -> Polynomial:
    if deg % 2 or deg < 2:
        raise ValueError("randpoly2 degree must be even and >= 2")
    if terms < n + 1:
        raise ValueError("randpoly2 needs at least n + 1 terms")
    rng = np.random.default_rng(seed)
    total = Polynomial.constant(n, float(rng.uniform(0.0, 1.0)))
    for i in range(1, n + 1):
        e = [0] * n
        e[i - 1] = deg
        total = total + Polynomial.monomial(n, e, float(rng.uniform(0.0, 1.0)))
    pool = standard_basis(n, deg - 1).array[1:]  # graded lex: row 0 is the constant
    extra = terms - n - 1
    if extra > len(pool):
        raise ValueError(f"randpoly2 cannot place {extra} extra terms in {len(pool)} slots")
    idx = rng.choice(len(pool), size=extra, replace=False)
    for i in sorted(int(t) for t in idx):
        total = total + Polynomial.monomial(n, pool[i], float(rng.uniform(-1.0, 1.0)))
    return total


def constraint_set(name: str, n: int) -> tuple:
    if name == "none":
        return ()
    one = Polynomial.constant(n, 1.0)
    if name == "unit_ball":
        g = one
        for i in range(1, n + 1):
            g = g - _var(n, i) * _var(n, i)
        return (g,)
    if name == "unit_hypercube":
        return tuple(one - _var(n, i) * _var(n, i) for i in range(1, n + 1))
    raise ValueError(f"unknown constraint set {name!r}; pick one of {CONSTRAINT_SETS}")
