"""Sparse multivariate polynomials with float coefficients.

A polynomial in n variables is stored as a dict mapping exponent tuples to
coefficients.  The exponent tuple ``(2, 0, 1)`` stands for ``x1^2*x3`` when
``nvars = 3``.  The zero polynomial has an empty dict.  The work downstream
(Newton polytopes, term-sparsity graphs, assembly) reads a polynomial as
arrays(): int64 exponent rows and coefficients, free of symbolic machinery.

Monomials are ordered graded lexicographically: first by total degree, then
lexicographically with x1 heaviest, so ``1 < x1 < x2 < x1^2 < x1*x2 < x2^2``.
This single ordering is used everywhere a deterministic node or basis index
is needed.

Text input uses a small grammar.  A polynomial is a sequence of terms, each
after the first opening with a run of ``+``/``-`` signs.  A term is a finite
real coefficient, ``*``-separated factors ``x<i>`` or ``x<i>^<k>`` (1-based
index, k >= 1), or a coefficient glued to its first factor by ``*``, blanks or
nothing (``2*x1``, ``2 x1``, ``2x1``), but not by a line break.  Variables are
never multiplied by juxtaposition, and a term's degree must fit in int64.
A whole problem file is an optional ``vars <n>`` line, an objective that may
span lines, then an optional ``subject to`` line followed by one constraint
polynomial per line, every constraint meaning ``g >= 0``.  ``#`` starts a
comment; without a ``vars`` line the variable count is the largest index in
the parsed terms, so comment text never counts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

Exponent = Tuple[int, ...]

# Coefficients smaller than this (in absolute value) are dropped after
# arithmetic; parsing only drops exact zeros.
COEFF_TOL = 1e-14


def grlex_key(alpha: Exponent) -> tuple:
    """Sort key for graded lex order with x1 heaviest within a degree."""
    return (sum(alpha), tuple(-a for a in alpha))


def _clean(terms: Dict[Exponent, float], tol: float) -> Dict[Exponent, float]:
    return {a: c for a, c in terms.items() if abs(c) > tol}


class Polynomial:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponent, float] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        cleaned = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != nvars or any(a < 0 for a in alpha):
                raise ValueError(f"bad exponent {alpha} for {nvars} variables")
            if c != 0.0:
                cleaned[alpha] = float(c)
        self.terms = cleaned

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars: int, c: float) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        """The monomial x_i, 1-based index."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        e = [0] * nvars
        e[i - 1] = 1
        return Polynomial(nvars, {tuple(e): 1.0})

    @staticmethod
    def monomial(nvars: int, alpha: Exponent, c: float = 1.0) -> "Polynomial":
        return Polynomial(nvars, {tuple(alpha): c})

    @staticmethod
    def from_arrays(nvars: int, rows: np.ndarray, coeffs: np.ndarray) -> "Polynomial":
        """The polynomial with coefficient coeffs[t] on exponent row t (rows distinct)."""
        return Polynomial(nvars, dict(zip(map(tuple, rows.tolist()), coeffs.tolist())))

    # -- basic queries ----------------------------------------------------

    def support(self) -> set:
        return set(self.terms)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The exponents as (len(terms), nvars) int64 rows and the coefficients, in term order."""
        rows = np.array(list(self.terms), dtype=np.int64).reshape(-1, self.nvars)
        return rows, np.array(list(self.terms.values()), dtype=float)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def coeff(self, alpha: Exponent) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, x: Sequence[float]) -> float:
        if len(x) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = 0.0
        for alpha, c in self.terms.items():
            v = c
            for xi, a in zip(x, alpha):
                if a:
                    v *= xi ** a
            total += v
        return total

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0.0) + c
        return Polynomial(self.nvars, _clean(out, COEFF_TOL))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.nvars, _clean({a: c * other for a, c in self.terms.items()}, COEFF_TOL))
        self._check(other)
        out: Dict[Exponent, float] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                k = tuple(x + y for x, y in zip(a, b))
                out[k] = out.get(k, 0.0) + ca * cb
        return Polynomial(self.nvars, _clean(out, COEFF_TOL))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.nvars, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    # -- comparison and printing ------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.nvars == other.nvars and self.terms == other.terms

    def allclose(self, other: "Polynomial", tol: float = 1e-9) -> bool:
        if self.nvars != other.nvars:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.coeff(a) - other.coeff(a)) <= tol for a in keys)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=grlex_key):
            c = self.terms[alpha]
            factors = []
            for i, a in enumerate(alpha):
                if a == 1:
                    factors.append(f"x{i + 1}")
                elif a > 1:
                    factors.append(f"x{i + 1}^{a}")
            mag = abs(c)
            if not factors:
                body = repr(mag)
            elif mag == 1.0:
                body = "*".join(factors)
            else:
                body = repr(mag) + "*" + "*".join(factors)
            parts.append(("-" if c < 0 else "+", body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sgn, body in parts[1:]:
            text += f" {sgn} {body}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self})"


@dataclass(frozen=True)
class PopProblem:
    """min f(x) subject to g_j(x) >= 0 for every constraint g_j."""

    objective: Polynomial
    constraints: Tuple[Polynomial, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for g in self.constraints:
            if g.nvars != self.objective.nvars:
                raise ValueError("constraint variable count mismatch")
        object.__setattr__(self, "constraints", tuple(self.constraints))

    @property
    def nvars(self) -> int:
        return self.objective.nvars


class ParseError(ValueError):
    pass


# One term: a run of signs (required before every term but the first), then a
# coefficient, '*'-separated factors x<i> or x<i>^<k>, or both, the coefficient
# glued to its first factor by '*', blanks or nothing, but not by a line break.
_TERM = re.compile(
    r"(?P<signs>(?:[-+]\s*)+)?"
    r"(?P<coeff>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)?"
    r"(?P<factors>(?(coeff)(?:\s*\*\s*|[^\S\n]*))"
    r"x\d+(?:\s*\^\s*\d+)?(?:\s*\*\s*x\d+(?:\s*\^\s*\d+)?)*)?"
    r"\s*"
)
_INT64_MAX = 2 ** 63 - 1


def _parse_terms(text: str) -> list:
    """The (coefficient, [(variable, power), ...]) terms of a polynomial text, in order."""
    terms = []
    pos = len(text) - len(text.lstrip())
    while pos < len(text):
        m = _TERM.match(text, pos)
        signs, coeff, factors = m.group("signs", "coeff", "factors")
        if coeff is None and factors is None:
            raise ParseError(f"expected a coefficient or x<i> at position {m.end()}")
        if terms and signs is None:
            raise ParseError(f"expected '+' or '-' at position {pos}; products need '*'")
        c = -1.0 if signs is not None and signs.count("-") % 2 else 1.0
        if coeff is not None:
            c *= float(coeff)
        powers = []
        try:
            for factor in (factors or "").split("*"):
                var, _, power = factor.strip().partition("^")
                if var:
                    powers.append((int(var[1:]), int(power) if power else 1))
        except ValueError:  # more digits than int() reads
            raise ParseError(f"number too long at position {pos}") from None
        if any(k == 0 for _, k in powers):
            raise ParseError(f"zero exponent at position {pos}")
        if sum(k for _, k in powers) > _INT64_MAX:
            raise ParseError(f"term degree beyond 2^63 - 1 at position {pos}")
        terms.append((c, powers))
        pos = m.end()
    if not terms:
        raise ParseError("empty polynomial")
    return terms


def _polynomial(terms: list, nvars: int) -> Polynomial:
    """The sum of the terms, like terms added in input order, exact zeros dropped."""
    out: Dict[Exponent, float] = {}
    for c, powers in terms:
        expo = [0] * nvars
        for i, k in powers:
            if not 1 <= i <= nvars:
                raise ParseError(f"variable x{i} out of range 1..x{nvars}")
            expo[i - 1] += k
        key = tuple(expo)
        out[key] = out.get(key, 0.0) + c
    for key, c in out.items():
        if not math.isfinite(c):
            raise ParseError(f"coefficient {c} of {Polynomial.monomial(nvars, key)} is not finite")
    return Polynomial(nvars, {a: c for a, c in out.items() if c != 0.0})


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse a polynomial in the ``3*x1^2*x2 - x3 + 1.5`` style.

    Like terms are merged; terms cancelling exactly disappear.
    """
    return _polynomial(_parse_terms(text), nvars)


def parse_pop(text: str, nvars: int | None = None) -> PopProblem:
    """Parse a whole problem: objective, then constraints under 'subject to'.

    '#' starts a comment to the end of its line.  An optional leading
    ``vars <n>`` line pins the variable count; otherwise it is the largest
    variable index in the objective and constraints.  Every constraint line
    means g(x) >= 0.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if lines and re.fullmatch(r"vars\s+\d+", lines[0], flags=re.IGNORECASE):
        declared = int(lines[0].split()[1])
        if nvars is not None and nvars != declared:
            raise ParseError("vars line contradicts explicit nvars")
        if declared < 1:
            raise ParseError("vars line must declare at least one variable")
        nvars = declared
        lines = lines[1:]
    split = None
    for i, line in enumerate(lines):
        if re.fullmatch(r"subject\s+to:?", line, flags=re.IGNORECASE):
            split = i
            break
    obj_lines = lines if split is None else lines[:split]
    con_lines = [] if split is None else lines[split + 1:]
    if not obj_lines:
        raise ParseError("no objective polynomial found")
    parsed = [_parse_terms("\n".join(obj_lines))] + [_parse_terms(line) for line in con_lines]
    if nvars is None:
        nvars = max((i for terms in parsed for _, powers in terms for i, _ in powers), default=0)
        if nvars == 0:
            raise ParseError("could not infer variable count (no x<i> in input)")
    objective, *constraints = (_polynomial(terms, nvars) for terms in parsed)
    return PopProblem(objective, tuple(constraints))


def monomials_up_to(nvars: int, degree: int) -> list:
    """All exponents in n variables with total degree <= degree, graded lex."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for d in range(remaining + 1):
            rec(prefix + [d], remaining - d, slots - 1)

    rec([], degree, nvars)
    out.sort(key=grlex_key)
    return out


def count_monomials(nvars: int, degree: int) -> int:
    return math.comb(nvars + degree, degree)
