"""Monomial bases for Gram matrix representations.

Three ways to pick the rows/columns of a Gram matrix for f:

* the standard basis, all monomials of degree <= d (generator_bases gives
  each generator of a constrained relaxation its own);
* the Newton half-polytope basis, lattice points beta with 2*beta inside the
  convex hull of supp(f) together with the origin (the origin participates
  because we always represent f - lambda, which has a constant term);
* a shrunken basis obtained by repeatedly discarding monomials that can never
  pair up into the support, optionally interleaved with the sparsity-graph
  machinery for constrained problems.

Every Newton membership decision rests on a proof checked in exact
arithmetic: 2*beta as the average of two or three hull points, a convex
combination read off an LP and checked in fractions, or an integer
hyperplane that separates 2*beta from the hull.  LPs only propose the last
two; a candidate that no proof decides gets its own feasibility LP.

Sets of exponents are searched by linear 64-bit exponent keys, and every key
hit is confirmed on the exponent rows (_ExponentSet, _linked_pairs); the
basis shrinking here and the graph module share that engine.

Bases are value objects: a sorted tuple of exponents plus an index lookup.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .poly import Exponent, Polynomial, PopProblem, grlex_key, monomials_up_to

STANDARD_BASIS_CAP = 10 ** 7
NEWTON_LP_TOL = 1e-9
# candidates per phase-1 LP in newton_half_basis; bounds the LP's size and memory
NEWTON_LP_CHUNK = 32
# only a candidate whose phase-1 L1 residual is at most this gets its LP weights checked
NEWTON_RESIDUAL_TOL = 1e-7
# point pairs whose sums newton_half_basis searches at once; bounds its memory
NEWTON_PAIR_BUDGET = 1 << 20
# largest denominator an LP's convex weights are rounded to before the exact check
NEWTON_DENOMINATOR = 10 ** 6
# basis pairs (or target items) one key search holds at a time; bounds its memory
PAIR_BUDGET = 1 << 13
_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=None)
def _key_weights(nvars: int) -> np.ndarray:
    """Odd, well-mixed 64-bit weights: the first outputs of splitmix64 from seed 0, low bit set.

    Fixed so that keys repeat from run to run.  Weights in arithmetic
    progression would not do: c*(i+1) collapses every key to c*sum((i+1)*a_i),
    so exponents of equal weighted degree collide.  Built once per nvars and
    returned read-only.
    """
    out = []
    for i in range(nvars):
        z = ((i + 1) * 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append((z ^ (z >> 31)) | 1)
    weights = np.array(out, dtype=np.uint64)
    weights.flags.writeable = False
    return weights


def exponent_keys(rows: np.ndarray) -> np.ndarray:
    """Linear 64-bit keys of exponent rows: sum_i a_i*w_i mod 2**64.

    key(a + b) = key(a) + key(b), so keys of sums are sums of keys.  Distinct
    exponents may share a key: a key match is a candidate, never a proof.
    """
    rows = np.asarray(rows, dtype=np.int64)
    return rows.astype(np.uint64) @ _key_weights(rows.shape[1])


class MonomialBasis:
    """An ordered set of exponents, graded lex, with O(1) index lookup."""

    __slots__ = ("nvars", "monos", "_index", "_array")

    def __init__(self, nvars: int, monos: Iterable[Exponent]):
        dedup = {tuple(int(a) for a in m) for m in monos}
        for m in dedup:
            if len(m) != nvars or any(a < 0 for a in m):
                raise ValueError(f"bad exponent {m} for {nvars} variables")
        self.nvars = nvars
        self.monos: Tuple[Exponent, ...] = tuple(sorted(dedup, key=grlex_key))
        self._index: Dict[Exponent, int] = {m: i for i, m in enumerate(self.monos)}
        self._array = None

    @property
    def array(self) -> np.ndarray:
        """The exponents as a read-only (len, nvars) int64 array, in basis order."""
        if self._array is None:
            arr = np.array(self.monos, dtype=np.int64).reshape(len(self.monos), self.nvars)
            arr.flags.writeable = False
            self._array = arr
        return self._array

    def __len__(self) -> int:
        return len(self.monos)

    def __iter__(self):
        return iter(self.monos)

    def __contains__(self, alpha) -> bool:
        return tuple(alpha) in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialBasis)
            and self.nvars == other.nvars
            and self.monos == other.monos
        )

    def __hash__(self):
        return hash((self.nvars, self.monos))

    def index(self, alpha: Exponent) -> int:
        return self._index[tuple(alpha)]

    def exponent_set(self) -> Set[Exponent]:
        return set(self.monos)

    def __repr__(self) -> str:
        return f"MonomialBasis(nvars={self.nvars}, size={len(self)})"


# -- exponent search by keys ---------------------------------------------------

RowsOf = Callable[[np.ndarray], np.ndarray]


class _ExponentSet:
    """A set of exponents searched by their exponent_keys, decided exactly.

    Members are given as item keys plus rows_of(idx), the exponent rows of
    the items idx, which the set keeps: rows are formed, a bounded chunk at
    a time, for one check (whether distinct members share a key, which only
    items of a repeated key can do) and later for the members a key match
    points to.  A key match is confirmed on the rows; when members do share
    a key, searchsorted sees only one of them, and a candidate failing that
    confirmation is looked up in an exact set of tuples instead.
    """

    def __init__(self, keys: np.ndarray, rows_of: RowsOf):
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        head = np.ones(len(keys), dtype=bool)  # first of its key in key order
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        self.keys = ranked[head]
        heads = np.flatnonzero(head)
        self._first, self._rows_of = order[heads], rows_of
        self.exact: Optional[Set[Exponent]] = None
        later = np.flatnonzero(~head)  # key order positions of items after their key's first
        if not len(later):
            return
        lead = order[heads[np.searchsorted(heads, later) - 1]]
        later = order[later]
        # compare at most PAIR_BUDGET exponent entries per side at a time
        step = max(1, PAIR_BUDGET // max(1, rows_of(later[:1]).shape[1]))
        if any((rows_of(later[lo:lo + step]) != rows_of(lead[lo:lo + step])).any()
               for lo in range(0, len(later), step)):
            items = np.arange(len(keys))
            self.exact = {
                tuple(row)
                for lo in range(0, len(keys), PAIR_BUDGET)
                for row in rows_of(items[lo:lo + PAIR_BUDGET]).tolist()
            }

    def contains(self, keys: np.ndarray, rows_of: RowsOf) -> np.ndarray:
        """Mask of the candidates, keys plus rows_of(idx), that are members.

        Key hits are confirmed PAIR_BUDGET at a time, so however many
        candidates are passed, no more rows are formed at once than in a
        pair search.
        """
        found = np.zeros(len(keys), dtype=bool)
        if not len(self.keys):
            return found
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        hits = np.flatnonzero(self.keys[pos] == keys)
        for lo in range(0, len(hits), PAIR_BUDGET):
            idx = hits[lo:lo + PAIR_BUDGET]
            rows = rows_of(idx)
            ok = (rows == self._rows_of(self._first[pos[idx]])).all(axis=1)
            if self.exact is not None:
                miss = np.flatnonzero(~ok)
                ok[miss] = [tuple(row) in self.exact for row in rows[miss].tolist()]
            found[idx[ok]] = True
        return found


def _rows_set(rows: np.ndarray) -> _ExponentSet:
    """The exponent rows as an _ExponentSet."""
    return _ExponentSet(exponent_keys(rows), rows.__getitem__)


def _linked_pairs(
    basis: MonomialBasis,
    targets: _ExponentSet,
    shifts: Optional[np.ndarray] = None,
    known: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pairs i < j, not in known, with basis_i + basis_j + s in targets.

    s runs over the rows of shifts (default: the zero exponent only).  The
    pair sums are formed through exponent_keys for a chunk of rows of at
    most PAIR_BUDGET pairs at a time; the result is an (m, 2) int64 array
    sorted by (i, j).
    """
    rows = basis.array
    r = len(rows)
    if shifts is None:
        shifts = np.zeros((1, basis.nvars), dtype=np.int64)
    keys = exponent_keys(rows)
    shift_keys = exponent_keys(shifts)
    if known is not None:
        known = known[np.argsort(known[:, 0], kind="stable")]
    cols = np.arange(r)
    step = max(1, PAIR_BUDGET // max(r, 1))
    found = [np.zeros((0, 2), dtype=np.int64)]
    for lo in range(0, r - 1, step):
        hi = min(lo + step, r)
        free = cols[lo:hi, None] < cols
        if known is not None:
            a, b = np.searchsorted(known[:, 0], [lo, hi])
            free[known[a:b, 0] - lo, known[a:b, 1]] = False
        i, j = np.nonzero(free)
        i += lo
        sums = keys[i] + keys[j]
        hit = np.zeros(len(i), dtype=bool)
        for shift, shift_key in zip(shifts, shift_keys):
            todo = np.flatnonzero(~hit)
            ti, tj = i[todo], j[todo]
            hit[todo] = targets.contains(
                sums[todo] + shift_key, lambda idx: rows[ti[idx]] + rows[tj[idx]] + shift
            )
        found.append(np.column_stack([i[hit], j[hit]]))
    return np.concatenate(found)


# -- standard and Newton bases -------------------------------------------------


def standard_basis(nvars: int, degree: int) -> MonomialBasis:
    """All monomials of total degree <= degree."""
    if nvars < 1 or degree < 0:
        raise ValueError("need nvars >= 1 and degree >= 0")
    count = math.comb(nvars + degree, degree)
    if count > STANDARD_BASIS_CAP:
        raise ValueError(
            f"standard basis would have {count} monomials "
            f"(more than the {STANDARD_BASIS_CAP} cap); "
            "reduce the degree or variable count"
        )
    return MonomialBasis(nvars, monomials_up_to(nvars, degree))


def min_half_degree(pop: PopProblem) -> int:
    """The smallest relaxation order: max over f and every g_j of ceil(deg/2)."""
    return max((p.degree() + 1) // 2 for p in (pop.objective, *pop.constraints))


def generator_bases(pop: PopProblem, d_hat: int) -> List[MonomialBasis]:
    """The standard bases of a relaxation of order d_hat, one per generator.

    Generator g_j (g_0 = 1) gets the monomials of degree at most
    d_hat - ceil(deg(g_j)/2); generators of equal half degree share one
    basis object.
    """
    d_min = min_half_degree(pop)
    if d_hat < d_min:
        raise ValueError(f"relaxation order {d_hat} is below the minimum feasible order {d_min}")
    half = [0] + [(g.degree() + 1) // 2 for g in pop.constraints]
    by_half = {h: standard_basis(pop.nvars, d_hat - h) for h in dict.fromkeys(half)}
    return [by_half[h] for h in half]


def _in_half_polytope(beta: Exponent, points: np.ndarray) -> bool:
    """Is 2*beta a convex combination of the rows of points?

    Decided by LP feasibility: find lambda >= 0 with sum(lambda) = 1 and
    points^T lambda = 2*beta.
    """
    target = 2 * np.asarray(beta, dtype=float)
    npts = points.shape[0]
    a_eq = np.vstack([points.T, np.ones((1, npts))])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(
        c=np.zeros(npts),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": NEWTON_LP_TOL},
    )
    return res.status == 0


def _box_count(upper: Sequence[int], degree: int) -> int:
    """Number of lattice points 0 <= beta <= upper with |beta| <= degree."""
    ways = [1] + [0] * degree  # ways[d]: points of total degree d so far
    for u in upper:
        if u:
            ways = [sum(ways[max(0, d - u):d + 1]) for d in range(degree + 1)]
    return sum(ways)


def _box_points(upper: np.ndarray, degree: int) -> np.ndarray:
    """The lattice points counted by _box_count, one integer row each."""
    rows = np.zeros((1, len(upper)), dtype=np.int64)
    for i in np.flatnonzero(upper):
        deg = rows.sum(axis=1)
        grown = [rows]
        for a in range(1, int(upper[i]) + 1):
            more = rows[deg + a <= degree]
            more[:, i] = a
            grown.append(more)
        rows = np.concatenate(grown)
    return rows


def _newton_candidates(f: Polynomial) -> Tuple[np.ndarray, np.ndarray]:
    """The hull points supp(f) + {0} (graded lex) and the candidates to decide.

    The candidates are the beta with 2*beta inside the bounding box and the
    degree bound of the hull; more than STANDARD_BASIS_CAP of them is refused.
    """
    pts = sorted(f.support() | {(0,) * f.nvars}, key=grlex_key)
    points = np.array(pts, dtype=np.int64)
    upper = points.max(axis=0) // 2
    half_deg = int(points.sum(axis=1).max()) // 2
    count = _box_count(upper.tolist(), half_deg)
    if count > STANDARD_BASIS_CAP:
        raise ValueError(
            f"Newton basis would test {count} candidate monomials "
            f"(more than the {STANDARD_BASIS_CAP} cap); reduce the degree or variable count"
        )
    return points, _box_points(upper, half_deg)


def _average_certified(cands: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask of the candidates beta with 2k*beta = p_1 + ... + p_k, k = 2 or 3.

    The p_i are rows of points; 2*beta is then their average, an exact
    certificate in integer arithmetic.  The pair sums p + q (p = q allowed)
    form one _ExponentSet per chunk of at most NEWTON_PAIR_BUDGET pairs.
    The origin is a point, so k = 2 looks 4*beta up among them, and k = 3
    looks up 6*beta - r for every point r, about PAIR_BUDGET lookups at a
    time.  The set confirms every key hit on the rows, so a key
    collision can only cost a candidate its certificate, never grant one.
    """
    npts = len(points)
    keys = exponent_keys(points)
    found = np.zeros(len(cands), dtype=bool)
    cols = np.arange(npts)
    step = max(1, NEWTON_PAIR_BUDGET // npts)
    for lo in range(0, npts, step):
        i, j = np.nonzero(cols[lo:lo + step, None] <= cols)
        i += lo
        pairs = _ExponentSet(keys[i] + keys[j], lambda idx: points[i[idx]] + points[j[idx]])
        todo = np.flatnonzero(~found)
        four = 4 * cands[todo]
        found[todo] = pairs.contains(exponent_keys(four), four.__getitem__)
        todo = np.flatnonzero(~found)
        six = 6 * cands[todo]
        six_keys = exponent_keys(six)
        per = max(1, PAIR_BUDGET // npts)  # candidates per lookup
        for c_lo in range(0, len(todo), per):
            c, r = np.divmod(np.arange(min(per, len(todo) - c_lo) * npts), npts)
            c += c_lo
            hit = pairs.contains(six_keys[c] - keys[r], lambda idx: six[c[idx]] - points[r[idx]])
            found[todo[c[hit]]] = True
    return found


def _chunk_lp(cands: np.ndarray, points: np.ndarray):
    """One block-diagonal phase-1 LP for the candidates, or None if not optimal.

    Each candidate gets its own block: lambda in the simplex and slacks
    s+, s- >= 0 with points^T lambda + s+ - s- = 2*beta, and the LP
    minimizes the sum of all slacks.  A block's optimal dual y on the
    points^T rows has |y_i| <= 1 and y.(2*beta) - max_p y.p equal to the
    block's L1 residual.
    """
    npts, nvars = points.shape
    eye = np.eye(nvars)
    block = sparse.csr_matrix(np.block([
        [points.T, eye, -eye],
        [np.ones((1, npts)), np.zeros((1, 2 * nvars))],
    ]))
    count = len(cands)
    res = linprog(
        c=np.tile(np.r_[np.zeros(npts), np.ones(2 * nvars)], count),
        A_eq=sparse.kron(sparse.identity(count, format="csr"), block, format="csr"),
        b_eq=np.hstack([2.0 * cands, np.ones((count, 1))]).ravel(),
        bounds=(0, None),
        method="highs",
    )
    return res if res.status == 0 else None


def _convex_proof(lam: np.ndarray, beta: np.ndarray, points: np.ndarray) -> bool:
    """Do the positive weights of lam, rounded to fractions, put 2*beta in conv(points)?

    The rounded weights are nonnegative; the check that they sum to 1 and
    combine the points to 2*beta runs in integers over their common
    denominator.
    """
    support = np.flatnonzero(lam > 0)
    weights = [Fraction(float(v)).limit_denominator(NEWTON_DENOMINATOR) for v in lam[support]]
    den = math.lcm(*(w.denominator for w in weights))
    num = np.array([w.numerator * (den // w.denominator) for w in weights], dtype=object)
    return num.sum() == den and (
        num @ points[support].astype(object) == 2 * den * beta.astype(object)
    ).all()


def _cut_off(cands: np.ndarray, cut_w: np.ndarray, cut_b: np.ndarray) -> np.ndarray:
    """Mask of the candidates with w.(2*beta) > b for some cut (w, b)."""
    return (2 * cands @ cut_w.T > cut_b).any(axis=1)


def _newton_members(cands: np.ndarray, points: np.ndarray):
    """Which candidates beta have 2*beta in conv(points), and the cuts used.

    After _average_certified, the rest go to chunked phase-1 LPs in an order
    that spreads every chunk over the whole candidate list.  From each LP,
    a candidate is accepted when _convex_proof confirms its weights, and
    rejected when its dual, scaled and rounded to an integer w, satisfies
    w.(2*beta) > b = max_p w.p in exact integer arithmetic.  Each such
    (w, b) is kept as a cut and rejects every candidate still waiting that
    it separates too.  A candidate neither proof decides, and every
    candidate of a chunk whose LP does not end optimal, is decided by
    _in_half_polytope.  Returns the member mask and the cuts (w, b).
    """
    nvars = points.shape[1]
    hull = points.astype(float)
    # |w_i| <= scale and every point has degree <= max_deg: products stay below 2**62
    max_deg = max(1, int(points.sum(axis=1).max()))
    scale = min(1 << 52, (1 << 61) // max_deg)
    member = _average_certified(cands, points)
    rest = np.flatnonzero(~member)
    spread = -(-len(rest) // NEWTON_LP_CHUNK)
    rest = rest[np.argsort(np.arange(len(rest)) % max(spread, 1), kind="stable")]
    cut_w = np.zeros((0, nvars), dtype=np.int64)
    cut_b = np.zeros(0, dtype=np.int64)
    while len(rest):
        chunk, rest = rest[:NEWTON_LP_CHUNK], rest[NEWTON_LP_CHUNK:]
        res = _chunk_lp(cands[chunk], points)
        if res is not None:
            count = len(chunk)
            lam, slack = np.split(res.x.reshape(count, -1), [len(points)], axis=1)
            near = np.flatnonzero(slack.sum(axis=1) <= NEWTON_RESIDUAL_TOL)
            accepted = np.zeros(count, dtype=bool)
            accepted[near] = [_convex_proof(lam[i], cands[chunk[i]], points) for i in near]
            member[chunk[accepted]] = True
            duals = res.eqlin.marginals.reshape(count, nvars + 1)[:, :nvars]
            w = np.rint(np.clip(duals, -1.0, 1.0) * scale).astype(np.int64)
            b = (points @ w.T).max(axis=0)
            proven = ~accepted & ((2 * cands[chunk] * w).sum(axis=1) > b)
            cut_w = np.concatenate([cut_w, w[proven]])
            cut_b = np.concatenate([cut_b, b[proven]])
            chunk = chunk[~accepted & ~proven]
            rest = rest[~_cut_off(cands[rest], w[proven], b[proven])]
        for c in chunk:
            member[c] = _in_half_polytope(cands[c], hull)
    return member, (cut_w, cut_b)


def newton_half_basis(f: Polynomial) -> MonomialBasis:
    """Lattice points of half the Newton polytope of f (origin included).

    The members are all beta with 2*beta in conv(supp(f) union {0}); the
    origin joins the hull because the representation target is always
    f - lambda with a constant present.  A single-monomial objective is
    handled separately: x^alpha is a square exactly when alpha is even.

    Only the beta inside the bounding box and the degree bound of the hull
    are tested (at most STANDARD_BASIS_CAP of them).  Each is decided by an
    exact proof: 2*beta as the average of two or three hull points; else
    the convex weights or the separating dual that a chunked phase-1 LP
    proposes, checked in exact arithmetic, where each separating dual also
    cuts the candidates still waiting.  Only a candidate no proof decides
    gets its own feasibility LP (_in_half_polytope).
    """
    supp = f.support()
    if not supp:
        raise ValueError("zero polynomial has no Newton polytope")
    if len(supp) == 1:
        (alpha,) = supp
        if any(a % 2 for a in alpha):
            raise ValueError("objective cannot be SOS: single monomial of odd exponent")
        return MonomialBasis(f.nvars, [tuple(a // 2 for a in alpha)])
    points, cands = _newton_candidates(f)
    member, _ = _newton_members(cands, points)
    return MonomialBasis(f.nvars, cands[member].tolist())


# -- shrinking -------------------------------------------------------------------


def generate_basis(support: Iterable[Exponent] | np.ndarray, base: MonomialBasis) -> List[MonomialBasis]:
    """Increasing chain of sub-bases that can still reach the support.

    Starting from B_0 empty, step p keeps every pair {beta, gamma} of the
    base whose sum lies in the support or in 2*B_{p-1}.  The chain B_1,
    B_2, ... is returned up to stabilization (B_p == B_{p-1}).  The last
    element is the useful shrunken basis.

    The support is given as exponents or as an integer array of exponent
    rows.  Each step is one _linked_pairs search of the base's pair sums
    over that target set, plus a lookup of the doubled base elements.
    """
    if not isinstance(support, np.ndarray):
        support = np.array(sorted({tuple(a) for a in support}), dtype=np.int64)
    support = support.reshape(-1, base.nvars)
    rows = base.array
    diag_keys = exponent_keys(2 * rows)
    chain: List[MonomialBasis] = []
    prev = np.zeros(0, dtype=np.int64)  # indices of B_{p-1} in base
    while True:
        targets = _rows_set(np.concatenate([support, 2 * rows[prev]]))
        pairs = _linked_pairs(base, targets)
        diag = np.flatnonzero(targets.contains(diag_keys, lambda idx: 2 * rows[idx]))
        cur = np.unique(np.concatenate([pairs.ravel(), diag]))
        same = np.array_equal(cur, prev)
        if same and chain:
            break
        chain.append(MonomialBasis(base.nvars, rows[cur].tolist()))
        if same:
            break
        prev = cur
    return chain


def reduce_basis_unconstrained(f: Polynomial, base: MonomialBasis | None = None) -> MonomialBasis:
    """Stabilized shrunken basis for representing f - lambda.

    Defaults to shrinking the Newton half-polytope basis against
    supp(f) plus the origin.
    """
    if base is None:
        base = newton_half_basis(f)
    support = f.support() | {(0,) * f.nvars}
    chain = generate_basis(support, base)
    return chain[-1]


def reduce_basis_constrained(
    pop: PopProblem,
    d_hat: int,
    k: int = 1,
    mode: str = "approx_min",
    rounds: List | None = None,
) -> MonomialBasis:
    """Shrink the moment basis of a constrained relaxation to a fixed point.

    Alternates two steps until the basis stops changing: run the sparsity
    graph iteration at order k with the current moment basis, then keep only
    basis elements that can pair into supp(f), or into supp(g_j) shifted by
    products within some clique of g_j's graph.  Only the j = 0 basis is
    shrunk; localizing bases stay the generator_bases ones.  A rounds list,
    when given, receives each round's GraphSequence; the last one is the
    iteration on the returned basis.

    g_j's graph is chordal, so the products within its maximal cliques are
    exactly its support: the doubled nodes and the sums along its edges.
    """
    from .graphs import _support_pairs, iterate_constrained

    n = pop.nvars
    basis0, *loc_bases = generator_bases(pop, d_hat)
    fixed = np.array(sorted(pop.objective.support() | {(0,) * n}), dtype=np.int64).reshape(-1, n)
    shifts = [np.array(sorted(g.support()), dtype=np.int64).reshape(-1, n) for g in pop.constraints]
    while True:
        seq = iterate_constrained(pop, [basis0] + loc_bases, k=k, mode=mode)
        if rounds is not None:
            rounds.append(seq)
        targets = [fixed]
        for graph, shift in zip(seq.levels[-1][1:], shifts):
            a, b = _support_pairs(graph)
            sums = np.unique(graph.basis.array[a] + graph.basis.array[b], axis=0)
            targets.append((sums[:, None, :] + shift).reshape(-1, n))
        new_basis = generate_basis(np.concatenate(targets), basis0)[-1]
        if new_basis == basis0:
            return basis0
        basis0 = new_basis
