"""Sparse multivariate polynomials with float coefficients.

A polynomial in n variables is stored as exponent rows and coefficients: a
read-only (terms, n) int64 array whose row ``[2, 0, 1]`` stands for
``x1^2*x3`` when ``nvars = 3``, and a read-only float array with one
coefficient per row.  Rows are distinct, coefficients nonzero, and terms sit
in the order they first occurred; the zero polynomial has no rows.  Every
layer downstream (Newton polytopes, term-sparsity graphs, assembly) reads
these arrays as they are.  Like terms are merged by one exact pass,
np.unique over the rows viewed as raw bytes and np.bincount of the
coefficients, which the constructor, the arithmetic and the parser share.

Monomials are ordered graded lexicographically: first by total degree, then
lexicographically with x1 heaviest, so ``1 < x1 < x2 < x1^2 < x1*x2 < x2^2``.
This single ordering, grlex_order, is used everywhere a deterministic node,
basis or row index is needed.

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
the parsed terms, so comment text never counts.  A problem whose terms times
variables exceed STANDARD_BASIS_CAP exponent entries is refused before its
rows are allocated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

# Coefficients smaller than this (in absolute value) are dropped after
# arithmetic; parsing only drops exact zeros.
COEFF_TOL = 1e-14
# Most exponent entries (or monomials) one problem or basis may hold.
STANDARD_BASIS_CAP = 10 ** 7
_INT64_MAX = 2 ** 63 - 1


def grlex_order(rows) -> np.ndarray:
    """The permutation sorting exponent rows graded lex (x1 heaviest within a degree); stable."""
    rows = np.asarray(rows, dtype=np.int64)
    return np.lexsort(np.vstack([-rows[:, ::-1].T, rows.sum(axis=1)]))


def _merge(rows: np.ndarray, coeffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Like terms summed in input order: the distinct rows, in first-occurrence order, and their sums."""
    if len(rows) < 2:
        return rows, coeffs
    if rows.shape[1]:
        keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    else:
        keys = np.zeros(len(rows), dtype=np.int8)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(inverse.ravel(), weights=coeffs, minlength=len(first))
    order = np.argsort(first)
    return rows[first[order]], sums[order]


class Polynomial:
    """Immutable sparse polynomial: nvars, exponent rows and their coefficients."""

    __slots__ = ("nvars", "rows", "coeffs")

    def __init__(self, nvars: int, rows=(), coeffs=()):
        """The sum of coeffs[t] * x^rows[t]: like terms summed, exact zeros dropped."""
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        coeffs = np.array(coeffs, dtype=float).ravel()
        rows = np.array(rows, dtype=np.int64)  # copies, so the polynomial owns its arrays
        if rows.size != len(coeffs) * nvars or (rows.size and rows.shape[-1] != nvars):
            raise ValueError(f"exponent rows of shape {rows.shape} for {len(coeffs)} terms in {nvars} variables")
        rows = rows.reshape(len(coeffs), nvars)
        bad = rows[(rows < 0).any(axis=1)]
        if len(bad):
            raise ValueError(f"bad exponent {bad[0].tolist()} for {nvars} variables")
        # degree() must not wrap: the float sums flag the rows near 2^63, summed exactly
        near = rows[rows.sum(axis=1, dtype=float) >= 2.0 ** 62]
        if any(sum(row) > _INT64_MAX for row in near.tolist()):
            raise ValueError("exponent row of degree beyond 2^63 - 1")
        rows, coeffs = _merge(rows, coeffs)
        self._hold(nvars, rows, coeffs, coeffs != 0.0)

    def _hold(self, nvars: int, rows: np.ndarray, coeffs: np.ndarray, keep: np.ndarray) -> "Polynomial":
        if not keep.all():
            rows, coeffs = rows[keep], coeffs[keep]
        rows.flags.writeable = coeffs.flags.writeable = False
        self.nvars, self.rows, self.coeffs = nvars, rows, coeffs
        return self

    def _result(self, rows: np.ndarray, coeffs: np.ndarray) -> "Polynomial":
        """The arithmetic result with these distinct rows: terms with |c| <= COEFF_TOL dropped."""
        return Polynomial.__new__(Polynomial)._hold(self.nvars, rows, coeffs, np.abs(coeffs) > COEFF_TOL)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, c: float) -> "Polynomial":
        return Polynomial(nvars, np.zeros((1, nvars), dtype=np.int64), [c])

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        """The monomial x_i, 1-based index."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        row = np.zeros((1, nvars), dtype=np.int64)
        row[0, i - 1] = 1
        return Polynomial(nvars, row, [1.0])

    @staticmethod
    def monomial(nvars: int, alpha: Sequence[int], c: float = 1.0) -> "Polynomial":
        return Polynomial(nvars, [alpha], [c])

    # -- basic queries ----------------------------------------------------

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        return int(self.rows.sum(axis=1).max(initial=-1))

    def coeff(self, alpha: Sequence[int]) -> float:
        hit = np.flatnonzero((self.rows == np.reshape(alpha, (1, self.nvars))).all(axis=1))
        return float(self.coeffs[hit[0]]) if len(hit) else 0.0

    def is_zero(self) -> bool:
        return not len(self.coeffs)

    def evaluate(self, x: Sequence[float]) -> float:
        if len(x) != self.nvars:
            raise ValueError("point dimension mismatch")
        return float(self.coeffs @ np.prod(np.asarray(x, dtype=float) ** self.rows, axis=1))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return self._result(*_merge(np.concatenate([self.rows, other.rows]),
                                    np.concatenate([self.coeffs, other.coeffs])))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._result(self.rows, self.coeffs * other)
        self._check(other)
        if self.degree() + other.degree() > _INT64_MAX:
            raise ValueError("product degree beyond 2^63 - 1")
        rows = (self.rows[:, None, :] + other.rows[None, :, :]).reshape(-1, self.nvars)
        coeffs = np.outer(self.coeffs, other.coeffs).ravel()
        return self._result(*_merge(rows, coeffs))

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
        if not (isinstance(other, Polynomial) and self.nvars == other.nvars
                and len(self.coeffs) == len(other.coeffs)):
            return False
        mine, theirs = grlex_order(self.rows), grlex_order(other.rows)
        return (np.array_equal(self.rows[mine], other.rows[theirs])
                and np.array_equal(self.coeffs[mine], other.coeffs[theirs]))

    def allclose(self, other: "Polynomial", tol: float = 1e-9) -> bool:
        if self.nvars != other.nvars:
            return False
        _, diff = _merge(np.concatenate([self.rows, other.rows]),
                         np.concatenate([self.coeffs, -other.coeffs]))
        return bool((np.abs(diff) <= tol).all())

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        order = grlex_order(self.rows)
        parts = []
        for alpha, c in zip(self.rows[order].tolist(), self.coeffs[order].tolist()):
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


def _fits(n_terms: int, nvars: int):
    """Refuse n_terms exponent rows of nvars entries past STANDARD_BASIS_CAP, before they exist."""
    if n_terms * nvars > STANDARD_BASIS_CAP:
        raise ParseError(f"{n_terms} terms in {nvars} variables need {n_terms * nvars} exponent "
                         f"entries (more than the {STANDARD_BASIS_CAP} cap)")


def _polynomial(terms: list, nvars: int) -> Polynomial:
    """The sum of the terms, like terms added in input order, exact zeros dropped."""
    rows = np.zeros((len(terms), nvars), dtype=np.int64)
    for row, (_, powers) in zip(rows, terms):
        for i, k in powers:
            if not 1 <= i <= nvars:
                raise ParseError(f"variable x{i} out of range 1..x{nvars}")
            row[i - 1] += k
    p = Polynomial(nvars, rows, [c for c, _ in terms])
    bad = np.flatnonzero(~np.isfinite(p.coeffs))
    if len(bad):
        t = bad[0]
        raise ParseError(f"coefficient {p.coeffs[t]} of {Polynomial.monomial(nvars, p.rows[t])} is not finite")
    return p


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse a polynomial in the ``3*x1^2*x2 - x3 + 1.5`` style.

    Like terms are merged; terms cancelling exactly disappear.
    """
    terms = _parse_terms(text)
    _fits(len(terms), nvars)
    return _polynomial(terms, nvars)


def parse_pop(text: str) -> PopProblem:
    """Parse a whole problem: objective, then constraints under 'subject to'.

    '#' starts a comment to the end of its line.  An optional leading
    ``vars <n>`` line pins the variable count; otherwise it is the largest
    variable index in the objective and constraints.  Every constraint line
    means g(x) >= 0.
    """
    nvars = None
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if lines and re.fullmatch(r"vars\s+\d+", lines[0], flags=re.IGNORECASE):
        nvars = int(lines[0].split()[1])
        if nvars < 1:
            raise ParseError("vars line must declare at least one variable")
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
    _fits(sum(map(len, parsed)), nvars)
    objective, *constraints = (_polynomial(terms, nvars) for terms in parsed)
    return PopProblem(objective, tuple(constraints))
