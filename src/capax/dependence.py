"""Comonotonicity and positive-dependence detection, plus the uniform
driver construction where a non-comonotone pair is positively dependent
with respect to the Lukasiewicz operator.

Both checks run on stacks of rows (``comonotone_rows``,
``positive_dependence_rows``); checking one pair is a stack of one row.
Positive dependence reads each point's rank among the levels of f and of
g (``level_ranks``, so a function checked against two others is ranked
once).  One ragged walk checks every row of a stack: the rows' level
cross products lie side by side in one table, tallest row first, which
``CapacityStack.level_bands`` measures band by band (whole rows that fit
a band together, a row too wide for one in bands of its own), summing in
a fixed order with no BLAS call, in O(n + a b) time and O(n + a + b +
POSDEP_BLOCK_CELLS) memory for the stack."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import Capacity, CapacityStack, along, grid_rows
from .integrals import SampleFunction, Values, _check_compat, one_row, sample_function
from .operators import AggOperator, row_groups
from .xreal import DomainError

POSDEP_TOL = 1e-12
#: level cross-product cells per band of the walk, which holds whole rows
#: or a run of g ranks of a row wider than that, so that a band holds a
#: few arrays of about 64 KiB (a wide row's memory does not grow as a b)
POSDEP_BLOCK_CELLS = 1 << 13


@dataclass
class DependenceReport:
    kind: str  # "comonotone" | "positively_dependent"
    holds: bool
    witness: Optional[tuple] = None
    op: Optional[str] = None
    slack: float = float("inf")  # worst margin found (posdep)


def comonotone_rows(F: Values, G: Values):
    """Per row, whether (f(x)-f(y))(g(x)-g(y)) >= 0 for all point pairs,
    exactly and in O(n log n): a pair is comonotone iff sorting the points
    by (f, g) leaves g nondecreasing.  Returns (holds, witnesses), a
    witness being a pair (x, y) with f(x) > f(y) and g(x) < g(y), or
    None."""
    # padding sorts last and drops below nothing
    f = np.where(F.valid, F.v, np.inf)
    g = np.where(F.valid, G.v, np.inf)
    order = np.lexsort((g, f), axis=1)
    gs = along(g, order)
    drops = np.zeros_like(f, dtype=bool)  # a last column that never drops
    drops[:, :-1] = gs[:, 1:] < gs[:, :-1]
    holds = ~drops.any(1)
    first = drops.argmax(1)
    witnesses = [None if ok else (int(o[d + 1]), int(o[d]))
                 for ok, o, d in zip(holds.tolist(), order, first.tolist())]
    return holds, witnesses


def is_comonotone(f: SampleFunction, g: SampleFunction) -> DependenceReport:
    """Check (f(x)-f(y))(g(x)-g(y)) >= 0 for all point pairs (see
    ``comonotone_rows``)."""
    (F, G), _, _ = one_row([f, g])
    holds, witnesses = comonotone_rows(F, G)
    return DependenceReport("comonotone", holds=bool(holds[0]), witness=witnesses[0])


def _level_rows(F: Values, A: np.ndarray):
    """Per row, the ascending distinct values of f on A together with 0
    (a +0.0), left-aligned, their count, and each point's rank among
    them, -1 outside A: the level set A n {f >= levels[r]} is the points
    of rank r or more."""
    k, N = F.v.shape
    x = np.empty((k, N + 1))
    x[:, 0] = 0.0
    x[:, 1:] = np.where(A, F.v, np.inf)  # padding sorts last
    order = np.argsort(x, axis=1, kind="stable")
    xs = along(x, order)
    # the first of each run of equal sorted values, among the 1 + |A| live ones
    first = np.ones((k, N + 1), dtype=bool)
    first[:, 1:] = xs[:, 1:] != xs[:, :-1]
    rank = np.empty((k, N + 1), dtype=np.int64)
    rank[np.arange(k)[:, None], order] = np.cumsum(first, axis=1) - 1
    first &= np.arange(N + 1) < A.sum(1)[:, None] + 1
    count = first.sum(1)
    r, j = np.nonzero(first)
    col = np.arange(len(r)) - np.repeat(np.cumsum(count) - count, count)
    levels = np.zeros((k, int(count.max())))
    levels[r, col] = xs[r, j]
    return levels, count, np.where(A, rank[:, 1:], -1)


@dataclass
class DependenceRows:
    """Per-row positive-dependence verdicts: worst margins, and the
    witness cell (levels of f and g, joint measure, rhs) of each row."""

    slack: list
    witness: list

    @property
    def holds(self) -> list:
        return [w >= -POSDEP_TOL for w in self.slack]


def level_ranks(X: Values, A: np.ndarray) -> tuple:
    """One side of a positive-dependence check: per row, the levels of x
    on A and their count (``_level_rows``), and each point's rank plus one,
    -1 for none, so that rank 0 is the whole space and one level meet
    holds the marginals in its first column and row."""
    levels, count, rank = _level_rows(X, A)
    return levels, count, np.where(X.valid, rank + 1, -1)


def positive_dependence_rows(F: Values, A: np.ndarray, G: Values, B: np.ndarray,
                             C: CapacityStack, tris: Sequence[AggOperator]) -> DependenceRows:
    """Per row, mu({f|_A >= a} n {g|_B >= b}) >= mu({f|_A >= a}) tri
    mu({g|_B >= b}) on the distinct-value cross product (plus level 0),
    which is exact, not sampled: both sides are step functions constant
    between consecutive function values.  A cell where both sides are
    infinite holds with equality.  See ``level_dependence_rows``."""
    return level_dependence_rows(level_ranks(F, A), level_ranks(G, B), C, tris)


def level_dependence_rows(f: tuple, g: tuple, C: CapacityStack,
                          tris: Sequence[AggOperator]) -> DependenceRows:
    """``positive_dependence_rows`` from the two sides' ``level_ranks``,
    so that a side checked against several others is ranked once.  All
    rows are checked in one walk (``_Walk``): their level cross products
    side by side, tallest first, in bands of at most POSDEP_BLOCK_CELLS
    cells (``CapacityStack.level_bands``), so the memory is O(n + a + b +
    POSDEP_BLOCK_CELLS) per stack, a and b being the rows' level counts
    summed.  Among equal margins the first cell in C order is the witness,
    as in one pass over each row's cross product.  A unit-domain operator
    needs a unit-range capacity, checked as the integrals check it."""
    _check_compat(None, C, tris)
    (levels_a, na, RF), (levels_b, nb, RG) = f, g
    rows = np.argsort(-na, kind="stable")
    walk = _Walk(na[rows] + 1, nb[rows] + 1, [tris[i] for i in rows.tolist()])
    for c0, m in C.level_bands(RF, RG, rows, walk.a, walk.b, POSDEP_BLOCK_CELLS):
        walk.band(c0, m)
    col, i = walk.witnesses()
    at = np.empty_like(rows)
    at[rows] = np.arange(len(rows))  # each stack row's place in the walk
    col, i, j = col[at], i[at], walk.s[col[at]] - 1
    return DependenceRows(walk.val[col].tolist(), list(zip(
        levels_a[np.arange(len(rows)), i].tolist(), levels_b[np.arange(len(rows)), j].tolist(),
        walk.joint[col].tolist(), walk.rhs[col].tolist())))


class _Walk:
    """The margins joint - tri(f-marginal, g-marginal) of rows laid side by
    side, a[j] f ranks and b[j] g ranks each (heights not increasing),
    band by band.  A band of one row keeps its first minimum in C order; a
    band of several keeps each column's first minimum along f, over the
    f ranks of the column's row.  ``witnesses`` reduces them to each row's
    first minimum in C order, by value, then by (f rank, g rank), a NaN
    margin first, as argmin takes it.  Column 0 of a row holds its
    f-marginal; a row walked in several bands carries it from band to
    band.  Each band evaluates each of its rows' operators once."""

    def __init__(self, a, b, tris):
        self.a, self.b = a, b
        self.off = np.cumsum(b) - b
        width = int(self.off[-1] + b[-1])
        self.row = np.repeat(np.arange(len(a)), b)  # each column's row
        self.s = np.arange(width) - self.off[self.row]  # and g rank
        groups = row_groups(map(id, tris))  # operator objects, each evaluated alone
        by_id = {id(t): t for t in tris}
        self.tris = [by_id[key] for key, _ in groups]
        self.op = np.empty(len(a), dtype=np.int64)
        for t, (_, at) in enumerate(groups):
            self.op[at] = t
        self.op = self.op[self.row]
        self.val, self.joint, self.rhs = np.full(width, np.inf), np.empty(width), np.empty(width)
        self.arg = np.empty(width, dtype=np.int64)
        self.best = np.zeros(width, dtype=bool)  # the columns that keep a cell
        self.buf = np.empty(max(POSDEP_BLOCK_CELLS, 2 * int(a[0])))  # each band's margins

    def band(self, c0: int, m: np.ndarray):
        h, w = m.shape
        c1 = c0 + w
        j0, j1 = self.row[c0], self.row[c1 - 1]
        one = j0 == j1
        lo = int(one and self.s[c0] == 0)  # a row's column 0 has no margin
        if not one:  # whole rows, each one's marginal over its columns
            fa = np.repeat(m[1:, self.off[j0:j1 + 1] - c0], self.b[j0:j1 + 1], axis=1)
        elif lo:
            fa = self.carry = m[1:, :1]
        else:
            fa = self.carry
        J, gm = m[1:, lo:], m[:1, lo:]
        ops = self.op[c0:c1]
        if one or ops.min() == ops.max():
            tri = self.tris[ops[0]]  # along the longer axis: fewer loops in numpy
            R = tri.vec(fa, gm) if w >= h else tri.vec(fa.T, gm.T).T
        else:
            R = np.empty(J.shape)
            for t in np.unique(ops).tolist():
                at = np.flatnonzero(ops == t)
                R[:, at] = self.tris[t].vec(fa[:, at], gm[:, at])
        with np.errstate(invalid="ignore"):
            M = np.subtract(J, R, out=self.buf[:J.size].reshape(J.shape))
        if one:
            i = int(M.argmin())
            if np.isnan(M.flat[i]):  # inf - inf: both sides infinite, so equal
                M[np.isnan(M) & (J == R)] = 0.0
                i = int(M.argmin())
            i, c = divmod(i, w - lo)
            at = c0 + lo + c
            self.val[at], self.arg[at], self.joint[at], self.rhs[at] = M[i, c], i, J[i, c], R[i, c]
            self.best[at] = True
            return
        high = self.a[self.row[c0:c1]] - 1
        if high[-1] < h - 1:  # cells above a row's own f ranks never win
            M[np.arange(h - 1)[:, None] >= high] = np.inf
        cols = np.arange(w)
        i = M.argmin(0)
        if np.isnan(M[i, cols]).any():
            M[np.isnan(M) & (J == R)] = 0.0
            i = M.argmin(0)
        self.val[c0:c1], self.arg[c0:c1] = M[i, cols], i
        self.joint[c0:c1], self.rhs[c0:c1] = J[i, cols], R[i, cols]
        self.best[c0:c1] = True

    def witnesses(self) -> tuple:
        """Each row's witness column and f rank index (f rank - 1)."""
        off, val = self.off, self.val
        val[off], self.best[off] = np.inf, False
        low = np.minimum.reduceat(val, off)[self.row]
        first = self.best & ((val == low) | (np.isnan(val) & np.isnan(low)))
        bmax = int(self.b.max())
        key = np.where(first, self.arg * bmax + self.s, np.iinfo(np.int64).max)
        i, s = np.divmod(np.minimum.reduceat(key, off), bmax)
        return off + s, i


def check_positive_dependence(f: SampleFunction, A: int, g: SampleFunction,
                              B: int, c: Capacity, tri: AggOperator) -> DependenceReport:
    """Check mu({f|_A >= a} n {g|_B >= b}) >= mu({f|_A >= a}) tri mu({g|_B >= b})
    exactly (see ``positive_dependence_rows``)."""
    (F, G), (A, B), C = one_row([f, g], c, [A, B])
    rows = positive_dependence_rows(F, A, G, B, C, [tri])
    holds = rows.holds[0]
    return DependenceReport("positively_dependent", holds=holds,
                            witness=None if holds else rows.witness[0],
                            op=tri.name, slack=rows.slack[0])


INCREASING_BIJECTIONS = {
    "identity": lambda t: t,
    "square": lambda t: t**2,
    "sqrt": np.sqrt,
}


def make_uniform_example(phi_id: str, psi_id: str, n: int):
    """Discretized uniform driver U on [0,1] with f = phi(U) and
    h = 1 - psi(U): not comonotone, but positively dependent with respect
    to the Lukasiewicz operator (``uniform_example_rows``' one row)."""
    F, H, (P,) = uniform_example_rows([phi_id], [psi_id], [n])
    return sample_function(P.space, F.v[0]), sample_function(P.space, H.v[0]), P


def uniform_example_rows(phi_ids: Sequence[str], psi_ids: Sequence[str],
                         n: Sequence[int]) -> tuple:
    """The uniform-driver examples of k rows at once: f and h as the
    Values of k rows on the grids of n[i] cells of [0, 1], and the grids'
    Lebesgue capacities, each row with the bits it has alone."""
    try:
        bijections = [(INCREASING_BIJECTIONS[phi], INCREASING_BIJECTIONS[psi])
                      for phi, psi in zip(phi_ids, psi_ids)]
    except KeyError as e:
        raise DomainError(f"unknown bijection id {e.args[0]!r}")
    U, caps = grid_rows(0.0, 1.0, n)
    f, h = np.empty_like(U), np.empty_like(U)
    for (phi, psi), rows in row_groups(bijections):
        f[rows] = np.clip(phi(U[rows]), 0.0, 1.0)
        h[rows] = np.clip(1.0 - psi(U[rows]), 0.0, 1.0)
    n = np.array(n)
    valid = np.arange(U.shape[1]) < n[:, None]
    spaces = tuple(c.space for c in caps)
    return (Values(np.where(valid, f, 0.0), n, valid, spaces),
            Values(np.where(valid, h, 0.0), n, valid, spaces), caps)
