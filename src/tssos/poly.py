"""Sparse multivariate polynomials with float coefficients.

A polynomial in n variables is stored as a dict mapping exponent tuples to
coefficients.  The exponent tuple ``(2, 0, 1)`` stands for ``x1^2*x3`` when
``nvars = 3``.  The zero polynomial has an empty dict.  Supports are plain
sets of exponent tuples, which keeps all the combinatorial work downstream
(Newton polytopes, term-sparsity graphs) free of any symbolic machinery.

Monomials are ordered graded lexicographically: first by total degree, then
lexicographically with x1 heaviest, so ``1 < x1 < x2 < x1^2 < x1*x2 < x2^2``.
This single ordering is used everywhere a deterministic node or basis index
is needed.

Text input uses a small grammar: terms separated by ``+``/``-``, each term an
optional real coefficient and ``*``-separated factors ``x<i>`` or ``x<i>^<k>``
with 1-based variable indices.  A whole problem file is an objective, then an
optional ``subject to`` line followed by one constraint polynomial per line,
every constraint meaning ``g >= 0``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple

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

    # -- basic queries ----------------------------------------------------

    def support(self) -> set:
        return set(self.terms)

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


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.group("num") is not None:
            out.append(("num", m.group("num"), pos))
        elif m.group("var") is not None:
            out.append(("var", m.group("var"), pos))
        else:
            out.append(("op", m.group("op"), pos))
        pos = m.end()
    return out


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse a polynomial in the ``3*x1^2*x2 - x3 + 1.5`` style.

    Terms are separated by + and -, factors inside a term by ``*``.  A term is
    an optional coefficient followed by ``x<i>`` or ``x<i>^<k>`` factors.  Like
    terms are merged; terms cancelling exactly disappear.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    terms: Dict[Exponent, float] = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1.0
        # leading signs (allow a run of +/-)
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("dangling sign at end of input")
        coeff = sign
        expo = [0] * nvars
        saw_factor = False
        expect_factor = True
        while i < n:
            kind, val, pos = tokens[i]
            if kind == "num":
                if saw_factor:
                    raise ParseError(f"coefficient after variable at position {pos}")
                coeff *= float(val)
                saw_factor = True
                expect_factor = False
                i += 1
            elif kind == "var":
                idx = int(val[1:])
                if not 1 <= idx <= nvars:
                    raise ParseError(f"variable {val} out of range 1..x{nvars} at position {pos}")
                power = 1
                if i + 1 < n and tokens[i + 1][:2] == ("op", "^"):
                    if i + 2 >= n or tokens[i + 2][0] != "num":
                        raise ParseError(f"missing exponent after '^' at position {pos}")
                    ptext = tokens[i + 2][1]
                    if not ptext.isdigit():
                        raise ParseError(f"exponent must be a positive integer at position {pos}")
                    power = int(ptext)
                    if power == 0:
                        raise ParseError(f"zero exponent at position {pos}")
                    i += 2
                expo[idx - 1] += power
                saw_factor = True
                expect_factor = False
                i += 1
            elif kind == "op" and val == "*":
                if expect_factor:
                    raise ParseError(f"unexpected '*' at position {pos}")
                expect_factor = True
                i += 1
            elif kind == "op" and val in "+-":
                break
            else:
                raise ParseError(f"unexpected token {val!r} at position {pos}")
        if expect_factor and saw_factor:
            raise ParseError("dangling '*' at end of term")
        if not saw_factor:
            raise ParseError("empty term")
        key = tuple(expo)
        terms[key] = terms.get(key, 0.0) + coeff
    return Polynomial(nvars, {a: c for a, c in terms.items() if c != 0.0})


def infer_nvars(text: str) -> int:
    """Largest variable index mentioned anywhere in the text."""
    best = 0
    for m in re.finditer(r"x(\d+)", text):
        best = max(best, int(m.group(1)))
    return best


def parse_pop(text: str, nvars: int | None = None) -> PopProblem:
    """Parse a whole problem: objective, then constraints under 'subject to'.

    Lines starting with '#' are comments.  An optional leading ``vars <n>``
    line pins the variable count; otherwise it is inferred as the largest
    index used.  Every constraint line means g(x) >= 0.
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
    if nvars is None:
        nvars = infer_nvars(text)
        if nvars == 0:
            raise ParseError("could not infer variable count (no x<i> in input)")
    objective = parse_polynomial(" ".join(obj_lines), nvars)
    constraints = tuple(parse_polynomial(line, nvars) for line in con_lines)
    return PopProblem(objective, constraints)


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
