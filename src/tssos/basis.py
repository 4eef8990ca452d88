"""Monomial bases for Gram matrix representations.

Three ways to pick the rows/columns of a Gram matrix for f:

* the standard basis, all monomials of degree <= d (generator_bases gives
  each generator of a constrained relaxation its own);
* the Newton half-polytope basis, lattice points beta with 2*beta inside the
  convex hull of supp(f) together with the origin (the origin participates
  because we always represent f - lambda, which has a constant term);
* a shrunken basis obtained by repeatedly discarding monomials that can never
  pair up into the support (for constrained problems the graphs module
  interleaves it with the sparsity-graph iteration: reduce_basis_constrained).

Every Newton membership decision rests on a proof checked in exact
arithmetic: 2*beta as the average of two or three hull points, a convex
combination checked in fractions, or an integer hyperplane that separates
2*beta from the hull.  One nonnegative least squares fit per candidate
proposes the last two (its weights, or its residual); a candidate that no
proof decides gets its own feasibility LP.

Every exponent set is one _ExponentSet: its distinct exponents, grouped by
linear 64-bit keys and grouped exactly only where distinct exponents share
a key.  One key search, confirmed on the rows, serves the basis shrinking
here, the graph module and assembly's row matching.  The pairs of basis
elements whose sums (shifted by s) hit a target set are found by divisor
enumeration: for each target t and shift s, the sub-exponents beta of
d = t - s are counted out in mixed radix over d's nonzero positions and
looked up, with d - beta, in the basis's own set.  That costs
O(|targets| * |shifts| * prod(d_k + 1)), whatever the basis size r.

Bases are value objects: a graded lex sorted int64 array of exponents.
Positions are looked up in the rows' _ExponentSet.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog, nnls

from .poly import STANDARD_BASIS_CAP, Polynomial, PopProblem, grlex_order

NEWTON_LP_TOL = 1e-9
# only a candidate whose NNLS residual has L1 norm at most this gets its weights checked
NEWTON_RESIDUAL_TOL = 1e-7
# point pairs whose sums newton_half_basis searches at once; bounds its memory
NEWTON_PAIR_BUDGET = 1 << 20
# largest denominator proposed convex weights are rounded to before the exact check
NEWTON_DENOMINATOR = 10 ** 6
# sub-exponents (or target items) one key search holds at a time; bounds its memory
PAIR_BUDGET = 1 << 13
# seed of the generator the exponent key weights are drawn from
KEY_SEED = 0x7553


@functools.lru_cache(maxsize=None)
def _key_weights(nvars: int) -> np.ndarray:
    """Odd 64-bit weights: the first outputs of numpy's PCG64 from KEY_SEED, low bit set.

    Fixed so that keys repeat from run to run.  Weights with structure do
    not do: c*(i+1) collapses every key to c*sum((i+1)*a_i), so exponents of
    equal weighted degree collide, and the splitmix64 outputs of seeds s and
    2s obey short integer relations that make distinct pair sums collide
    from about 46 variables on.  Built once per nvars and returned read-only.
    """
    weights = np.random.default_rng(KEY_SEED).integers(2 ** 64, size=nvars, dtype=np.uint64)
    weights |= np.uint64(1)
    weights.flags.writeable = False
    return weights


def exponent_keys(rows: np.ndarray) -> np.ndarray:
    """Linear 64-bit keys of exponent rows: sum_i a_i*w_i mod 2**64.

    key(a + b) = key(a) + key(b), so keys of sums are sums of keys.  Distinct
    exponents may share a key: a key match is a candidate, never a proof.
    """
    rows = np.asarray(rows, dtype=np.int64)
    return rows.view(np.uint64) @ _key_weights(rows.shape[1])


def _grlex_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct exponent rows in graded lex order (x1 heaviest within a degree)."""
    if not len(rows):
        return rows
    rows = rows[grlex_order(rows)]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows if keep.all() else rows[keep]


class MonomialBasis:
    """An ordered set of exponents, graded lex.

    Held as a read-only (len, nvars) int64 array, built from exponent rows
    (an array or a sequence of rows).  The _ExponentSet of the rows
    (key_set) is formed on first use and answers find, index and in.
    """

    __slots__ = ("nvars", "array", "_set")

    def __init__(self, nvars: int, rows):
        rows = np.array(rows, dtype=np.int64)  # a copy, so the basis owns its array
        if not rows.size:
            rows = rows.reshape(0, nvars)
        if rows.ndim != 2 or rows.shape[1] != nvars:
            raise ValueError(f"exponent rows of shape {rows.shape} for {nvars} variables")
        negative = rows[(rows < 0).any(axis=1)]
        if len(negative):
            raise ValueError(f"bad exponent {negative[0].tolist()} for {nvars} variables")
        rows = _grlex_rows(rows)
        rows.flags.writeable = False
        self.nvars = nvars
        self.array = rows
        self._set: Optional[_ExponentSet] = None

    def __len__(self) -> int:
        return len(self.array)

    def __contains__(self, alpha) -> bool:
        return len(alpha) == self.nvars and self.find([alpha])[0] >= 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialBasis)
            and self.nvars == other.nvars
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.nvars, self.array.tobytes()))

    def index(self, alpha: Sequence[int]) -> int:
        if alpha not in self:
            raise KeyError(alpha)
        return int(self.find([alpha])[0])

    def find(self, rows) -> np.ndarray:
        """The index of every exponent row in the basis, -1 where it is not an element."""
        rows = np.asarray(rows, dtype=np.int64)
        members = self.key_set().find(exponent_keys(rows), rows.__getitem__)
        return np.append(self.key_set().items, -1)[members]  # member -1 picks the -1

    def key_set(self) -> "_ExponentSet":
        """The rows as an _ExponentSet, whose item i is basis element i."""
        if self._set is None:
            self._set = _rows_set(self.array)
        return self._set

    def __repr__(self) -> str:
        return f"MonomialBasis(nvars={self.nvars}, size={len(self)})"


# -- exponent search by keys ---------------------------------------------------

RowsOf = Callable[[np.ndarray], np.ndarray]


class _ExponentSet:
    """A set of exponents searched by their exponent_keys, decided exactly.

    Built from items, given as keys plus rows_of(idx), the exponent rows of
    the items idx, which the set keeps and forms a bounded chunk at a time.
    Each distinct exponent is one member.  The items are sorted by key once;
    an item with the rows of its key's first item is that item's member, and
    only the items of keys whose rows really differ go through one exact
    np.unique over their rows, so members sharing a key sit in one group.

    keys are the distinct keys, sorted; keys[g] is carried by the members
    first[g] .. first[g] + sizes[g] - 1, or by member g alone when no key
    repeats (first and sizes None).  items[m] is member m's first item and
    member_of[i] item i's member.  One search, candidates, maps query keys
    to the members carrying them; the caller confirms a hit on the rows.
    """

    def __init__(self, keys: np.ndarray, rows_of: RowsOf):
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        head = np.ones(len(keys), dtype=bool)  # first of its key in key order
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        self.keys = ranked[head]
        del ranked
        self.items = order[head]
        group = np.cumsum(head)  # the key of every key order position, as its member so far
        group -= 1
        self.member_of = np.empty(len(keys), dtype=np.intp)
        self.member_of[order] = group
        del group
        self.first = self.sizes = None
        self._rows_of = rows_of
        self._members: Optional[Tuple[np.ndarray, ...]] = None
        # compare each later item with its key's first, PAIR_BUDGET exponent entries per side at a time
        self.nvars = rows_of(order[:1]).shape[1]
        step = max(1, PAIR_BUDGET // max(1, self.nvars))
        later = order[~head]
        differ = np.zeros(len(later), dtype=bool)
        for lo in range(0, len(later), step):
            at = later[lo:lo + step]
            differ[lo:lo + step] = (rows_of(at) != self.rows(self.member_of[at])).any(axis=1)
        if not differ.any():
            return
        split = self.member_of[later[differ]]  # the keys whose items really differ
        at = order[np.isin(self.member_of[order], split)]  # their items, in key order
        group = self.member_of[at]
        uniq, first_at, inverse = np.unique(np.column_stack([group, rows_of(at)]), axis=0,
                                            return_index=True, return_inverse=True)
        # uniq is sorted by key, then by exponent: a member's rank within its key
        rank = np.arange(len(uniq)) - np.searchsorted(uniq[:, 0], uniq[:, 0])
        self.sizes = np.maximum(np.bincount(uniq[:, 0], minlength=len(self.keys)), 1)
        self.first = np.cumsum(self.sizes) - self.sizes
        self.member_of = self.first[self.member_of]
        self.member_of[at] += rank[inverse.ravel()]
        items = np.empty(int(self.sizes.sum()), dtype=np.intp)
        items[self.first] = self.items
        items[self.first[uniq[:, 0]] + rank] = at[first_at]
        self.items = items

    def __len__(self) -> int:
        return len(self.items)

    def rows(self, members: np.ndarray) -> np.ndarray:
        """The exponent rows of the members."""
        return self._rows_of(self.items[members])

    def candidates(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Pairs (q, m) of a query q and a member m carrying its key, sorted by q.

        The keys are searched in sorted order; a key several members carry
        gives a pair with each of them.
        """
        if not len(self.keys):
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        order = np.argsort(keys)
        group = np.empty(len(keys), dtype=np.intp)
        group[order] = np.searchsorted(self.keys, keys[order])
        np.minimum(group, len(self.keys) - 1, out=group)
        q = np.flatnonzero(self.keys[group] == keys)
        group = group[q]
        if self.sizes is None:
            return q, group
        size = self.sizes[group]
        src = np.repeat(np.arange(len(q)), size)
        rank = np.arange(len(src)) - np.repeat(np.cumsum(size) - size, size)
        return q[src], self.first[group][src] + rank

    def members(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The members as sparse patterns (positions, values), their degrees and keys.

        Row m of positions lists member m's nonzero positions, left-aligned
        and padded with -1, and values the exponents there (0 on the pad).
        Formed on first use, PAIR_BUDGET members at a time.
        """
        if self._members is None:
            entries = [(np.zeros(0, dtype=np.int64),) * 3]
            for lo in range(0, len(self), PAIR_BUDGET):
                rows = self.rows(np.arange(lo, min(lo + PAIR_BUDGET, len(self))))
                at, var = np.nonzero(rows)
                entries.append((at + lo, var, rows[at, var]))
            at, var, value = (np.concatenate(col) for col in zip(*entries))
            count = np.bincount(at, minlength=len(self))
            slot = np.arange(len(at)) - np.repeat(np.cumsum(count) - count, count)
            pos = np.full((len(self), count.max(initial=0)), -1, dtype=np.int64)
            val = np.zeros(pos.shape, dtype=np.int64)
            pos[at, slot] = var
            val[at, slot] = value
            keys = self.keys if self.sizes is None else np.repeat(self.keys, self.sizes)
            self._members = (pos, val, val.sum(axis=1), keys)
        return self._members

    def find(self, keys: np.ndarray, rows_of: RowsOf) -> np.ndarray:
        """The member each query, keys plus rows_of(idx), is, or -1 where it is none.

        Key hits are confirmed PAIR_BUDGET // nvars at a time, like the
        constructor's comparisons, however many queries are passed.
        """
        found = np.full(len(keys), -1, dtype=np.intp)
        q, m = self.candidates(keys)
        step = max(1, PAIR_BUDGET // max(1, self.nvars))
        for lo in range(0, len(q), step):
            at, mem = q[lo:lo + step], m[lo:lo + step]
            hit = (rows_of(at) == self.rows(mem)).all(axis=1)
            found[at[hit]] = mem[hit]
        return found

    def contains(self, keys: np.ndarray, rows_of: RowsOf) -> np.ndarray:
        """Mask of the queries, keys plus rows_of(idx), that are members."""
        return self.find(keys, rows_of) >= 0


def _rows_set(rows: np.ndarray) -> _ExponentSet:
    """The exponent rows as an _ExponentSet."""
    return _ExponentSet(exponent_keys(rows), rows.__getitem__)


def _linked_pairs(
    basis: MonomialBasis,
    targets: _ExponentSet,
    shifts: Optional[np.ndarray] = None,
    known: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Codes i*r + j of the pairs i < j with basis_i + basis_j + s in targets.

    s runs over the rows of shifts (default: the zero exponent only).  The
    search runs over divisors, not over basis pairs: for every distinct
    target t and shift s with d = t - s >= 0 and |d| in the degree range of
    basis pair sums, it enumerates the sub-exponents beta <= d by one
    mixed-radix count over d's nonzero positions, keyed straight from the
    digits, and looks key(beta), then key(d) - key(beta) for every hit, up
    in the basis's own _ExponentSet (key_set).  Every hit (i, j) is
    confirmed as basis_i + basis_j = d on d's positions and the total
    degree; a repeated basis key yields every basis element that carries
    it.  The cost is O(|targets| * |shifts| *
    prod(d_k + 1)), at most PAIR_BUDGET sub-exponents at a time, and no
    r x r or sub-exponent x nvars array is formed.  The result is a sorted
    int64 array of distinct codes, less those in known (sorted codes too).
    """
    rows = basis.array
    r, n = rows.shape
    if shifts is None:
        shifts = np.zeros((1, n), dtype=np.int64)
    pos, val, deg, key = targets.members()
    degs = rows.sum(axis=1)
    parts = [(pos[:0], val[:0], deg[:0], key[:0])]
    for shift, s_key in zip(shifts, exponent_keys(shifts)) if r else ():
        # d = t - s for the targets s divides and whose |d| a pair sum can
        # have: the basis is in graded lex order, so that is 2|b_0|..2|b_r-1|
        s_deg = int(shift.sum())
        sel = np.flatnonzero((deg >= 2 * degs[0] + s_deg) & (deg <= 2 * degs[-1] + s_deg))
        d_val = val[sel]
        for v in np.flatnonzero(shift):
            row, col = np.nonzero(pos[sel] == v)
            fits = d_val[row, col] >= shift[v]
            row, col = row[fits], col[fits]
            sel, d_val = sel[row], d_val[row]
            d_val[np.arange(len(row)), col] -= shift[v]
        parts.append((pos[sel], d_val, deg[sel] - s_deg, key[sel] - s_key))
    d = [np.concatenate(col) for col in zip(*parts)]
    d_val = d[1]
    if not len(d_val):
        return np.zeros(0, dtype=np.int64)
    count = np.prod(d_val + 1, axis=1)
    ends = np.cumsum(count)
    found = []
    lo = 0
    while lo < len(count):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - count[lo] + PAIR_BUDGET, "right")))
        found.append(_divisor_pairs(basis, degs, [col[lo:hi] for col in d], count[lo:hi]))
        lo = hi
    codes = np.unique(np.concatenate(found))
    if known is not None and len(known):
        codes = codes[~np.isin(codes, known)]
    return codes


def _divisor_pairs(basis: MonomialBasis, degs: np.ndarray, d, count) -> np.ndarray:
    """Codes i*r + j of the pairs i < j with basis_i + basis_j = d, over the exponents d.

    degs holds the basis degrees; d holds the positions, values, degrees and
    keys of the exponents, and count[t] = prod(d_val[t] + 1) is the number
    of sub-exponents beta <= d_t.  The basis is in graded lex order, so
    i < j needs |basis_i| <= |basis_j|, and only the beta with
    |beta| <= |d - beta| are looked up: beta among the basis keys, then
    d - beta for every basis element beta's key hit.
    """
    rows, basis_set = basis.array, basis.key_set()
    d_pos, d_val, d_deg, d_key = d
    d_w = _key_weights(rows.shape[1])[d_pos]  # a pad position (-1) has value 0: adds nothing
    radix = d_val + 1
    owner = np.repeat(np.arange(len(count)), count)
    rest = np.arange(len(owner)) - (np.cumsum(count) - count)[owner]
    key = np.zeros(len(owner), dtype=np.uint64)
    deg = np.zeros(len(owner), dtype=np.int64)
    for k in range(d_val.shape[1]):
        rest, digit = np.divmod(rest, radix[owner, k])
        key += digit.astype(np.uint64) * d_w[owner, k]
        deg += digit
    total = d_deg[owner]
    ok = (deg >= degs[0]) & (2 * deg <= total) & (total - deg <= degs[-1])
    owner, key = owner[ok], key[ok]
    at, m_i = basis_set.candidates(key)
    at_j, m_j = basis_set.candidates(d_key[owner[at]] - key[at])
    owner, i, j = owner[at[at_j]], basis_set.items[m_i[at_j]], basis_set.items[m_j]
    # rows_i + rows_j = d: equal on d's nonzero positions and in total degree
    at, want = d_pos[owner], d_val[owner]
    ok = ((rows[i[:, None], at] + rows[j[:, None], at] == want) | (want == 0)).all(axis=1)
    ok &= (i < j) & (degs[i] + degs[j] == d_deg[owner])
    return i[ok] * len(rows) + j[ok]


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
    return MonomialBasis(nvars, _box_points(np.full(nvars, degree), degree))


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


def _in_half_polytope(beta: Sequence[int], points: np.ndarray) -> bool:
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


def _with_origin(f: Polynomial) -> np.ndarray:
    """The exponent rows of supp(f), then the origin."""
    return np.vstack([f.rows, np.zeros((1, f.nvars), dtype=np.int64)])


def _newton_candidates(f: Polynomial) -> Tuple[np.ndarray, np.ndarray]:
    """The hull points supp(f) + {0} (graded lex) and the candidates to decide.

    The candidates are the beta with 2*beta inside the bounding box and the
    degree bound of the hull; more than STANDARD_BASIS_CAP of them is refused.
    Each point p alone puts its half box 0 <= beta <= p // 2, at least
    1 + sum(p // 2) candidates, among them, so a point past the cap is refused
    before the count, whose work grows with the degree.
    """
    points = _grlex_rows(_with_origin(f))
    upper = points.max(axis=0) // 2
    half_deg = int(points.sum(axis=1).max()) // 2
    least = 1 + int((points // 2).sum(axis=1).max())
    count = least if least > STANDARD_BASIS_CAP else _box_count(upper.tolist(), half_deg)
    if count > STANDARD_BASIS_CAP:
        raise ValueError(
            f"Newton basis would test at least {count} candidate monomials "
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
        del pairs, i, j  # free this chunk's set before the next one is built
    return found


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

    After _average_certified, the rest are taken in order.  A candidate
    that a kept cut separates is rejected; any other gets one NNLS,
    min ||A lam - t|| over lam >= 0 with A = [points^T; 1] and
    t = [2*beta; 1], and its residual r = t - A lam is recomputed from
    lam.  When r vanishes, beta is accepted if _convex_proof confirms
    lam.  Otherwise the NNLS optimality conditions give
    r.(p, 1) <= 0 < r.(2*beta, 1) for every point p, so r's first entries,
    scaled and rounded to an integer w, separate 2*beta from the hull when
    w.(2*beta) > b = max_p w.p holds in exact integer arithmetic; beta is
    then rejected and (w, b) kept as a cut.  A candidate neither proof
    decides, or whose NNLS stops at its iteration limit, is decided by
    _in_half_polytope.  Returns the member mask and the cuts (w, b).
    """
    nvars = points.shape[1]
    hull = points.astype(float)
    a = np.vstack([hull.T, np.ones(len(points))])
    # |w_i| <= scale and every point has degree <= max_deg: products stay below 2**62
    max_deg = max(1, int(points.sum(axis=1).max()))
    scale = min(1 << 52, (1 << 61) // max_deg)
    member = _average_certified(cands, points)
    rest = np.flatnonzero(~member)
    cuts = []
    while len(rest):
        c, rest = rest[0], rest[1:]
        beta = cands[c]
        target = np.append(2.0 * beta, 1.0)
        try:
            lam, _ = nnls(a, target)
        except RuntimeError:
            member[c] = _in_half_polytope(beta, hull)
            continue
        r = target - a @ lam
        top = np.abs(r[:nvars]).max()
        if np.abs(r).sum() <= NEWTON_RESIDUAL_TOL:
            if _convex_proof(lam, beta, points):
                member[c] = True
                continue
        elif top > 0:
            w = np.rint(r[:nvars] / top * scale).astype(np.int64)
            b = (points @ w).max()
            if 2 * beta @ w > b:
                cuts.append((w, b))
                rest = rest[~_cut_off(cands[rest], w[None], np.array([b]))]
                continue
        member[c] = _in_half_polytope(beta, hull)
    cut_w = np.array([w for w, _ in cuts], dtype=np.int64).reshape(-1, nvars)
    cut_b = np.array([b for _, b in cuts], dtype=np.int64)
    return member, (cut_w, cut_b)


def newton_half_basis(f: Polynomial) -> MonomialBasis:
    """Lattice points of half the Newton polytope of f (origin included).

    The members are all beta with 2*beta in conv(supp(f) union {0}); the
    origin joins the hull because the representation target is always
    f - lambda with a constant present, so a single monomial x^alpha gets
    the lattice points of the segment from 0 to alpha/2.  A single monomial
    with an odd exponent is refused: it is not a sum of squares.

    Only the beta inside the bounding box and the degree bound of the hull
    are tested (at most STANDARD_BASIS_CAP of them).  Each is decided by an
    exact proof: 2*beta as the average of two or three hull points; else
    the convex weights or the separating hyperplane that one NNLS fit
    proposes, checked in exact arithmetic, where each separating hyperplane
    also cuts the candidates still waiting.  Only a candidate no proof
    decides gets its own feasibility LP (_in_half_polytope).
    """
    supp = f.rows
    if not len(supp):
        raise ValueError("zero polynomial has no Newton polytope")
    if len(supp) == 1 and (supp % 2).any():
        raise ValueError("objective cannot be SOS: single monomial of odd exponent")
    points, cands = _newton_candidates(f)
    member, _ = _newton_members(cands, points)
    return MonomialBasis(f.nvars, cands[member])


# -- shrinking -------------------------------------------------------------------


def generate_basis(support, base: MonomialBasis) -> List[MonomialBasis]:
    """Increasing chain of sub-bases that can still reach the support.

    Starting from B_0 empty, step p keeps every pair {beta, gamma} of the
    base whose sum lies in the support or in 2*B_{p-1}.  The chain B_1,
    B_2, ... is returned up to stabilization (B_p == B_{p-1}).  The last
    element is the useful shrunken basis.

    The support is given as exponent rows.  Each step is one _linked_pairs
    search of the base's pair sums over that target set, plus a lookup of
    the doubled base elements.
    """
    support = np.asarray(support, dtype=np.int64).reshape(-1, base.nvars)
    rows = base.array
    diag_keys = exponent_keys(2 * rows)
    chain: List[MonomialBasis] = []
    prev = np.zeros(0, dtype=np.int64)  # indices of B_{p-1} in base
    while True:
        targets = _rows_set(np.concatenate([support, 2 * rows[prev]]))
        pairs = np.divmod(_linked_pairs(base, targets), len(rows))
        diag = np.flatnonzero(targets.contains(diag_keys, lambda idx: 2 * rows[idx]))
        cur = np.unique(np.concatenate([*pairs, diag]))
        same = np.array_equal(cur, prev)
        if same and chain:
            break
        chain.append(MonomialBasis(base.nvars, rows[cur]))
        if same:
            break
        prev = cur
    return chain


def reduce_basis_unconstrained(f: Polynomial, base: MonomialBasis) -> MonomialBasis:
    """base shrunk against supp(f) plus the origin: the stabilized basis for f - lambda."""
    return generate_basis(_with_origin(f), base)[-1]
