"""Comonotonicity and positive-dependence detection, plus the uniform
driver construction where a non-comonotone pair is positively dependent
with respect to the Lukasiewicz operator.

Both checks run on stacks of rows (``comonotone_rows``,
``positive_dependence_rows``); checking one pair is a stack of one row.
Positive dependence reads each point's rank among the levels of f and of
g (``level_ranks``, so a function checked against two others is ranked
once), from which ``CapacityStack.level_meet`` (a row whole) or
``level_bands`` (a wide row in bands of g ranks) measures all joint level
sets in O(n + a b) time per row, summing in a fixed order with no BLAS
call."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import Capacity, CapacityStack, along, make_grid_lebesgue
from .integrals import SampleFunction, Values, one_row, sample_function
from .operators import AggOperator, row_groups, rows_vec
from .xreal import UNIT, DomainError

POSDEP_TOL = 1e-12
#: level cross-product cells per block of packed rows, and per band of a
#: row wider than that, so that a block or band holds a few arrays of
#: about 64 KiB (a wide row's memory no longer grows as a b)
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
    so that a side checked against several others is ranked once.  Rows
    of at most POSDEP_BLOCK_CELLS cross-product cells go through packed in
    blocks of about that many cells; a wider row is walked alone in bands
    of g ranks (``CapacityStack.level_bands``), so its memory is O(n + a +
    b + POSDEP_BLOCK_CELLS).  Among equal margins the first cell in C
    order is the witness, as in one pass over the whole cross product."""
    size = f[1] * g[1]
    if size.sum() <= POSDEP_BLOCK_CELLS:
        return _positive_dependence_block(f, g, C, tris)
    slack, witness = [None] * len(size), [None] * len(size)
    for i in np.flatnonzero(size > POSDEP_BLOCK_CELLS).tolist():
        at = slice(i, i + 1)
        slack[i], witness[i] = _positive_dependence_bands(
            [x[at] for x in f], [x[at] for x in g], C.take(np.array([i])), tris[i])
    # blocks of rows of similar size, so that little of a block is padding
    packed = np.flatnonzero(size <= POSDEP_BLOCK_CELLS)
    order = packed[np.argsort(size[packed], kind="stable")]
    block = np.cumsum(size[order]) // POSDEP_BLOCK_CELLS
    for _, at in row_groups(block.tolist()):
        rows = order[at]
        part = _positive_dependence_block([x[rows] for x in f], [x[rows] for x in g],
                                          C.take(rows), [tris[i] for i in rows.tolist()])
        for i, s, w in zip(rows.tolist(), part.slack, part.witness):
            slack[i], witness[i] = s, w
    return DependenceRows(slack, witness)


def _positive_dependence_block(f, g, C, tris) -> DependenceRows:
    (levels_a, na, RF), (levels_b, nb, RG) = f, g
    m = C.level_meet(RF, na + 1, RG, nb + 1)
    joint = m[:, 1:, 1:]
    k, a, b = joint.shape
    rhs = rows_vec(tris, m[:, 1:, :1], m[:, :1, 1:])
    with np.errstate(invalid="ignore"):
        margin = joint - rhs
    nan = np.isnan(margin)
    if nan.any():  # inf - inf: both sides infinite, so equal
        margin[nan & (joint == rhs)] = 0.0
    # cells past a row's level counts never win; among equals, the first
    # cell in C order does
    if (na < a).any() or (nb < b).any():
        live = ((np.arange(a) < na[:, None])[:, :, None]
                & (np.arange(b) < nb[:, None])[:, None, :])
        margin = np.where(live, margin, np.inf)
    flat = margin.reshape(k, -1).argmin(1)
    i, j = np.divmod(flat, b)
    rows = np.arange(k)
    worst = margin[rows, i, j].tolist()
    witness = list(zip(levels_a[rows, i].tolist(), levels_b[rows, j].tolist(),
                       joint[rows, i, j].tolist(), rhs[rows, i, j].tolist()))
    return DependenceRows(worst, witness)


def _positive_dependence_bands(f, g, C, tri) -> tuple:
    """One row's worst margin and witness (see ``_positive_dependence_block``),
    its level meet walked in bands of g ranks, each at most
    POSDEP_BLOCK_CELLS cells: the bands' first minima are combined by
    value, then by (f level, g level), so that the first minimum in C order
    wins as in one pass (a NaN margin first, as argmin takes it)."""
    (levels_a, na, RF), (levels_b, nb, RG) = f, g
    a, b = int(na[0]) + 1, int(nb[0]) + 1
    width = max(1, POSDEP_BLOCK_CELLS // a // 2 * 2)  # even: see CapacityStack._meet
    col, bands = C.level_bands(RF, a, RG, b, width)
    fm = col[1:, None]
    best = None
    buf = np.empty((a - 1) * min(b, width))  # the margins of each band in turn
    for s0, m in bands:
        lo = int(s0 == 0)  # column 0 is the whole space, no level cell
        joint = m[1:, lo:]
        if not joint.size:
            continue
        rhs = tri.vec(fm, m[:1, lo:])
        with np.errstate(invalid="ignore"):
            margin = np.subtract(joint, rhs, out=buf[:joint.size].reshape(joint.shape))
        j = int(margin.argmin())
        v = margin.item(j)
        if math.isnan(v):  # inf - inf: both sides infinite, so equal
            margin[np.isnan(margin) & (joint == rhs)] = 0.0
            j = int(margin.argmin())
            v = margin.item(j)
        i, j = divmod(j, margin.shape[1])
        key = (not math.isnan(v), 0.0 if math.isnan(v) else v, i, s0 + lo + j - 1)
        if best is None or key < best:
            best = key
            witness = (levels_a.item(0, i), levels_b.item(0, key[3]), joint.item(i, j),
                       rhs.item(i, j))
    return best[1] if best[0] else math.nan, witness


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
    to the Lukasiewicz operator."""
    try:
        phi = INCREASING_BIJECTIONS[phi_id]
        psi = INCREASING_BIJECTIONS[psi_id]
    except KeyError as e:
        raise DomainError(f"unknown bijection id {e.args[0]!r}")
    space, P = make_grid_lebesgue(0.0, 1.0, n)
    u = space.coord_array()
    f = sample_function(space, np.clip(phi(u), 0.0, 1.0), UNIT)
    h = sample_function(space, np.clip(1.0 - psi(u), 0.0, 1.0), UNIT)
    return f, h, P
