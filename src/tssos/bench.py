"""Benchmark problem families and the end-to-end relaxation pipeline.

The named families are standard unconstrained test polynomials (Broyden
banded and tridiagonal systems as sums of squared residuals, generalized
Rosenbrock with and without pairwise coupling terms, a chained singular
function with coupling) plus two random families:

* randpoly1(n, 2d, t, p): pick each monomial of degree <= d independently
  with probability p, deal the picks onto t polynomials with coefficients
  uniform in [-1, 1], and square-sum them; the result is SOS by
  construction.
* randpoly2(n, 2d, s): a coercive polynomial c_0 + sum_i c_i x_i^{2d} plus
  s - n - 1 distinct lower-degree terms with coefficients in [-1, 1]; its
  Newton polytope is the scaled standard simplex, so the half-polytope
  basis is exactly the degree-d standard basis.

Index conventions for the chain-structured families follow the common
benchmark definitions: sums touching x_{i-1} start at i = 2, and the
tridiagonal boundary residuals drop the out-of-range neighbors.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .assembly import assemble, solve_relaxation
from .basis import generator_bases, min_half_degree, newton_half_basis, reduce_basis_unconstrained, standard_basis
from .graphs import (
    CliqueDecomposition,
    GraphSequence,
    iterate_constrained,
    maximal_cliques,
    reduce_basis_constrained,
)
from .poly import Polynomial, PopProblem

CONSTRAINT_SETS = ("none", "unit_ball", "unit_hypercube")


def _var(n: int, i: int) -> Polynomial:
    return Polynomial.variable(n, i)


def _sum(n: int, parts: Sequence[Polynomial]) -> Polynomial:
    """The sum of parts by one merge: like terms added in the order of the parts."""
    return Polynomial(n, np.concatenate([p.rows for p in parts]), np.concatenate([p.coeffs for p in parts]))


def broyden_banded(n: int) -> Polynomial:
    """Sum of squared Broyden banded residuals; global minimum 0."""
    if n < 2:
        raise ValueError("broyden_banded needs n >= 2")
    parts = []
    for i in range(1, n + 1):
        xi = _var(n, i)
        p = xi * (Polynomial.constant(n, 2.0) + 5.0 * xi * xi) + Polynomial.constant(n, 1.0)
        for j in range(max(1, i - 5), min(n, i + 1) + 1):
            if j == i:
                continue
            xj = _var(n, j)
            p = p - (Polynomial.constant(n, 1.0) + xj) * xj
        parts.append(p * p)
    return _sum(n, parts)


def broyden_tridiagonal(n: int) -> Polynomial:
    """Squared tridiagonal residuals with zero boundary neighbors."""
    if n < 2:
        raise ValueError("broyden_tridiagonal needs n >= 2")
    parts = []
    one = Polynomial.constant(n, 1.0)
    three = Polynomial.constant(n, 3.0)
    for i in range(1, n + 1):
        xi = _var(n, i)
        p = (three - 2.0 * xi) * xi + one
        if i > 1:
            p = p - _var(n, i - 1)
        if i < n:
            p = p - 2.0 * _var(n, i + 1)
        parts.append(p * p)
    return _sum(n, parts)


def gen_rosenbrock(n: int) -> Polynomial:
    """1 + sum_{i=2..n} 100(x_i - x_{i-1}^2)^2 + (1 - x_i)^2."""
    if n < 2:
        raise ValueError("gen_rosenbrock needs n >= 2")
    one = Polynomial.constant(n, 1.0)
    parts = [one]
    for i in range(2, n + 1):
        xi = _var(n, i)
        prev = _var(n, i - 1)
        t1 = xi - prev * prev
        t2 = one - xi
        parts += [100.0 * t1 * t1, t2 * t2]
    return _sum(n, parts)


def _pairwise_coupling(n: int) -> Polynomial:
    """sum_{i<j} x_i^2 x_j^2, its terms in (i, j) order."""
    i, j = np.triu_indices(n, 1)
    rows = np.zeros((len(i), n), dtype=np.int64)
    at = np.arange(len(i))
    rows[at, i] = rows[at, j] = 2
    return Polynomial(n, rows, np.ones(len(i)))


def mod_gen_rosenbrock(n: int) -> Polynomial:
    return gen_rosenbrock(n) + _pairwise_coupling(n)


def mod_chained_singular(n: int) -> Polynomial:
    """Chained singular terms over odd i plus pairwise coupling."""
    if n < 4 or n % 2:
        raise ValueError("mod_chained_singular needs even n >= 4")
    parts = [_pairwise_coupling(n)]
    for i in range(1, n - 2, 2):
        x0, x1, x2, x3 = (_var(n, i + k) for k in range(4))
        a = x0 + 10.0 * x1
        b = x2 - x3
        c = x1 - 2.0 * x2
        d = x0 - 10.0 * x3
        parts += [a * a, 5.0 * b * b, (c * c) * (c * c), 10.0 * (d * d) * (d * d)]
    return _sum(n, parts)


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
    return _sum(n, [p * p for p in parts])


def randpoly2(n: int, deg: int, terms: int, seed: int) -> Polynomial:
    if deg % 2 or deg < 2:
        raise ValueError("randpoly2 degree must be even and >= 2")
    if terms < n + 1:
        raise ValueError("randpoly2 needs at least n + 1 terms")
    rng = np.random.default_rng(seed)
    coercive = rng.uniform(0.0, 1.0, size=n + 1)  # c_0, then c_i of x_i^{2d}
    pool = standard_basis(n, deg - 1).array[1:]  # graded lex: row 0 is the constant
    extra = terms - n - 1
    if extra > len(pool):
        raise ValueError(f"randpoly2 cannot place {extra} extra terms in {len(pool)} slots")
    idx = np.sort(rng.choice(len(pool), size=extra, replace=False))
    rows = np.concatenate([np.zeros((1, n), dtype=np.int64), deg * np.eye(n, dtype=np.int64), pool[idx]])
    return Polynomial(n, rows, np.concatenate([coercive, rng.uniform(-1.0, 1.0, size=extra)]))


def constraint_set(name: str, n: int) -> Tuple[Polynomial, ...]:
    if name == "none":
        return ()
    if name == "unit_ball":
        rows = np.concatenate([np.zeros((1, n), dtype=np.int64), 2 * np.eye(n, dtype=np.int64)])
        return (Polynomial(n, rows, [1.0] + [-1.0] * n),)
    if name == "unit_hypercube":
        one = Polynomial.constant(n, 1.0)
        return tuple(one - _var(n, i) * _var(n, i) for i in range(1, n + 1))
    raise ValueError(f"unknown constraint set {name!r}; pick one of {CONSTRAINT_SETS}")


@dataclass
class BenchSpec:
    family: str
    n: int
    deg: Optional[int] = None  # total degree 2d for the random families
    terms: Optional[int] = None  # t for randpoly1, s for randpoly2
    prob: Optional[float] = None
    constraint: str = "none"
    seed: int = 0


# Each family: its builder, the BenchSpec fields it takes after n, and its
# basis when unconstrained.
FAMILIES = {
    "randpoly1": (randpoly1, ("deg", "terms", "prob", "seed"), "reduced"),
    "randpoly2": (randpoly2, ("deg", "terms", "seed"), "newton"),
    "broyden_banded": (broyden_banded, (), "standard"),
    "broyden_tridiagonal": (broyden_tridiagonal, (), "standard"),
    "gen_rosenbrock": (gen_rosenbrock, (), "standard"),
    "mod_gen_rosenbrock": (mod_gen_rosenbrock, (), "standard"),
    "mod_chained_singular": (mod_chained_singular, (), "standard"),
}


def generate(spec: BenchSpec) -> PopProblem:
    fam = spec.family
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {fam!r}; pick one of {tuple(FAMILIES)}")
    build, fields, _ = FAMILIES[fam]
    kwargs = {name: getattr(spec, name) for name in fields}
    if any(v is None for v in kwargs.values()):
        flags = [f"--{name}" for name in fields if name != "seed"]
        raise ValueError(f"{fam} needs {', '.join(flags[:-1])} and {flags[-1]}")
    return PopProblem(build(spec.n, **kwargs), constraint_set(spec.constraint, spec.n))


@dataclass
class RunOptions:
    # relaxation order of a constrained problem (default: the smallest
    # feasible one), or the half degree of an unconstrained standard basis
    order: Optional[int] = None
    k_max: int = 1
    mode: str = "approx_min"
    # newton | standard | reduced; None picks standard with constraints and
    # newton without
    basis: Optional[str] = None
    side: str = "sos"
    dense: bool = False


@dataclass
class BenchRow:
    instance: str
    k: int
    bs: Optional[int]
    rbs: Optional[int]
    mc: object  # int, or [moment, localizing] for constrained runs
    n_equalities: int
    bound: float
    status: str
    seconds: float
    stabilized: bool

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "k": self.k,
            "bs": self.bs,
            "rbs": self.rbs,
            "mc": self.mc,
            "n_eq": self.n_equalities,
            "opt": self.bound,
            "status": self.status,
            "time": round(self.seconds, 4),
            "stabilized": self.stabilized,
        }


def unconstrained_basis(f: Polynomial, choice: str, order: Optional[int] = None):
    """Resolve the basis flag; returns (basis, bs, rbs)."""
    if choice == "standard":
        half = order if order is not None else (f.degree() + 1) // 2
        b = standard_basis(f.nvars, half)
        return b, len(b), None
    newton = newton_half_basis(f)
    if choice == "newton":
        return newton, len(newton), None
    if choice == "reduced":
        reduced = reduce_basis_unconstrained(f, newton)
        return reduced, len(newton), len(reduced)
    raise ValueError(f"unknown basis choice {choice!r}")


@dataclass
class Relaxation:
    """A relaxation up to its cliques: what assemble needs at any k <= k_max.

    A sparse relaxation keeps its graph sequence; a dense one has no graphs
    and one whole-basis clique per generator instead.  bs is the size of the
    moment basis before any reduction, rbs that of the reduced basis when one
    was asked for, and order the relaxation order of a constrained problem.
    """

    bs: int
    rbs: Optional[int] = None
    order: Optional[int] = None
    seq: Optional[GraphSequence] = None
    dense: Optional[List[CliqueDecomposition]] = None

    def cliques(self, k: int) -> List[CliqueDecomposition]:
        """One clique decomposition per generator at sparse order k."""
        if self.seq is None:
            return self.dense
        return [maximal_cliques(g) for g in self.seq.at(k)]

    def stabilized(self, k: int) -> bool:
        at = self.seq.stabilized_at if self.seq is not None else None
        return at is not None and k >= at


def build_relaxation(pop: PopProblem, opts: RunOptions) -> Relaxation:
    """Choose the bases, check the orders and run the graph iteration to k_max."""
    k = opts.k_max
    if k < 1:
        raise ValueError("--sparse-order must be >= 1")
    basis = opts.basis or ("standard" if pop.constraints else "newton")
    rbs = order = None
    if not pop.constraints:
        if opts.order is not None and basis != "standard":
            raise ValueError("--order needs --basis standard on an unconstrained problem")
        base, bs, rbs = unconstrained_basis(pop.objective, basis, opts.order)
        bases = [base]
    else:
        if basis == "newton":
            raise ValueError("--basis newton applies to unconstrained problems only")
        if basis not in ("standard", "reduced"):
            raise ValueError(f"unknown basis choice {basis!r}")
        order = opts.order if opts.order is not None else min_half_degree(pop)
        bases = generator_bases(pop, order)
        bs = len(bases[0])
        if basis == "reduced":
            if opts.dense:
                raise ValueError("--dense always uses the standard basis; drop --basis reduced")
            # the last reduction round already iterated the graphs on the reduced basis
            seq = reduce_basis_constrained(pop, order, k=k, mode=opts.mode)
            return Relaxation(bs, len(seq.at(0)[0].basis), order, seq=seq)
    if opts.dense:
        return Relaxation(bs, rbs, order, dense=[CliqueDecomposition.whole(b) for b in bases])
    return Relaxation(bs, rbs, order, seq=iterate_constrained(pop, bases, k=k, mode=opts.mode))


def run_pop(pop: PopProblem, opts: RunOptions, instance: str = "problem") -> List[BenchRow]:
    """Assemble and solve the relaxation at every order 1..k_max."""
    rel = build_relaxation(pop, opts)
    rows: List[BenchRow] = []
    for k in range(1, opts.k_max + 1):
        t0 = time.perf_counter()
        cliques = rel.cliques(k)
        sdp = assemble(pop, cliques, side=opts.side)
        res = solve_relaxation(sdp)
        dt = time.perf_counter() - t0
        mc = [dec.max_clique for dec in cliques]
        rows.append(
            BenchRow(
                instance=instance,
                k=k,
                bs=rel.bs,
                rbs=rel.rbs,
                mc=[mc[0], max(mc[1:], default=0)] if pop.constraints else mc[0],
                n_equalities=sdp.n_equalities,
                bound=res.bound,
                status=res.status,
                seconds=dt,
                stabilized=rel.stabilized(k),
            )
        )
    return rows


def run_pipeline(spec: BenchSpec, opts: Optional[RunOptions] = None) -> List[BenchRow]:
    """Generate the instance and run it at every order 1..k_max."""
    pop = generate(spec)
    opts = opts if opts is not None else RunOptions()
    _, fields, basis = FAMILIES[spec.family]
    if opts.basis is None and not pop.constraints:
        opts = replace(opts, basis=basis)
    label = f"{spec.family}(n={spec.n}" + (f", seed={spec.seed})" if "seed" in fields else ")")
    return run_pop(pop, opts, instance=label)


def sample_minimum(pop: PopProblem, count: int = 10000, seed: int = 0) -> float:
    """Smallest objective value over random feasible sample points.

    Any valid relaxation bound must sit below this (up to tolerance); used
    as a sanity check, never as a solver.
    """
    rng = np.random.default_rng(seed)
    n = pop.nvars
    best = np.inf
    found = 0
    tries = 0
    while found < count and tries < 50 * count:
        tries += 1
        if pop.constraints:
            x = rng.uniform(-1.0, 1.0, size=n)
        else:
            x = rng.normal(0.0, 1.5, size=n)
        if all(g.evaluate(x) >= 0 for g in pop.constraints):
            found += 1
            v = pop.objective.evaluate(x)
            if v < best:
                best = v
    if not found:
        raise ValueError("could not sample any feasible point")
    return float(best)


def json_text(obj) -> str:
    """obj as indented JSON, with every non-finite float written as null."""
    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return v

    return json.dumps(finite(obj), indent=2)


def emit_table(rows: Sequence[BenchRow], fmt: str = "markdown") -> str:
    dicts = [r.to_dict() for r in rows]
    if fmt == "json":
        return json_text(dicts)
    headers = ["instance", "k", "bs", "rbs", "mc", "n_eq", "opt", "status", "time", "stabilized"]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=headers)
        writer.writeheader()
        for d in dicts:
            writer.writerow(d)
        return buf.getvalue()
    if fmt == "markdown":
        def cell(v):
            if isinstance(v, float):
                return f"{v:.6g}"
            return str(v)

        lines = ["| " + " | ".join(headers) + " |",
                 "| " + " | ".join("---" for _ in headers) + " |"]
        for d in dicts:
            lines.append("| " + " | ".join(cell(d[h]) for h in headers) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")
