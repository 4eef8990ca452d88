"""Exponent and edge tuples for the tests' loop oracles, and a tuple-dict reference polynomial.

The package holds exponents as int64 rows only, and a graph's edges as
codes i*r + j only.  The oracles in the tests loop over Python tuples,
formed here from those arrays.  The dict functions below are the
arithmetic and the term merge of the dict-keyed polynomial the rows
replaced: like terms added in order into a dict keyed by exponent tuples,
so term order is first occurrence.
"""

import numpy as np

from tssos.poly import COEFF_TOL, ParseError, Polynomial


def monos(basis):
    """The basis elements as tuples, in basis order."""
    return tuple(map(tuple, basis.array.tolist()))


def terms(p):
    """p as a dict {exponent tuple: coefficient}, in term order."""
    return dict(zip(map(tuple, p.rows.tolist()), p.coeffs.tolist()))


def support(p):
    """The exponents of p as a set of tuples."""
    return set(map(tuple, p.rows.tolist()))


def edges(graph):
    """The graph's edges as a frozenset of index pairs (i, j), i < j."""
    return frozenset(map(tuple, graph.pairs.tolist()))


def has_edge(graph, i, j):
    """Whether nodes i and j are linked, looked up among the codes; a node is linked to itself."""
    i, j = min(i, j), max(i, j)
    code = i * graph.n_nodes + j
    at = np.searchsorted(graph.codes, code)
    return i == j or bool(0 <= i and j < graph.n_nodes and at < graph.n_edges and graph.codes[at] == code)


def graph_support(graph):
    """Every sum of two adjacent nodes of the graph, the diagonal 2*beta included."""
    nodes = monos(graph.basis)
    out = {tuple(2 * a for a in beta) for beta in nodes}
    for i, j in edges(graph):
        out.add(tuple(a + b for a, b in zip(nodes[i], nodes[j])))
    return out


def from_terms(nvars, by_exponent):
    """The Polynomial with the coefficients of a {exponent tuple: coefficient} dict."""
    return Polynomial(nvars, list(by_exponent), list(by_exponent.values()))


def grlex_key(alpha):
    """Sort key for graded lex order with x1 heaviest within a degree."""
    return (sum(alpha), tuple(-a for a in alpha))


def monomials_up_to(nvars, degree):
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


# -- the tuple-dict reference --------------------------------------------------


def _clean(by_exponent):
    return {a: c for a, c in by_exponent.items() if abs(c) > COEFF_TOL}


def dict_add(p, q):
    out = dict(p)
    for a, c in q.items():
        out[a] = out.get(a, 0.0) + c
    return _clean(out)


def dict_scale(p, s):
    return _clean({a: c * s for a, c in p.items()})


def dict_sub(p, q):
    return dict_add(p, dict_scale(q, -1.0))


def dict_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            k = tuple(x + y for x, y in zip(a, b))
            out[k] = out.get(k, 0.0) + ca * cb
    return _clean(out)


def dict_pow(p, k, nvars):
    out = {(0,) * nvars: 1.0}
    for _ in range(k):
        out = dict_mul(out, p)
    return out


def dict_polynomial(parsed, nvars):
    """Parsed (coefficient, [(variable, power), ...]) terms summed in input order, exact zeros dropped."""
    out = {}
    for c, powers in parsed:
        expo = [0] * nvars
        for i, k in powers:
            if not 1 <= i <= nvars:
                raise ParseError(f"variable x{i} out of range 1..x{nvars}")
            expo[i - 1] += k
        key = tuple(expo)
        out[key] = out.get(key, 0.0) + c
    return {a: c for a, c in out.items() if c != 0.0}
