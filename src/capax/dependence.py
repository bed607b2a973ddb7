"""Comonotonicity and positive-dependence detection, plus the uniform
driver construction where a non-comonotone pair is positively dependent
with respect to the Lukasiewicz operator.

Both checks run on stacks of rows (``comonotone_rows``,
``positive_dependence_rows``); checking one pair is a stack of one row.
Positive dependence reads each point's rank among the levels of f and of
g, from which ``CapacityStack.level_meet`` measures all joint level sets
in O(n + a b) per row, summing in a fixed order with no BLAS call."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import Capacity, CapacityStack, along, make_grid_lebesgue
from .integrals import SampleFunction, Values, one_row, sample_function
from .operators import AggOperator, row_groups, rows_vec
from .xreal import UNIT, DomainError

POSDEP_TOL = 1e-12
#: the rows of a positive-dependence check go through in blocks of at
#: most this many level cross-product cells (a block holds a few arrays of
#: that many floats): on 100 uniform-example rows of 50 to 200 points,
#: blocks of 2^12 to 2^14 cells were fastest and larger blocks, which
#: leave the CPU cache, up to twice as slow (measurements in CHANGES.md)
POSDEP_BLOCK_CELLS = 1 << 14


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


def positive_dependence_rows(F: Values, A: np.ndarray, G: Values, B: np.ndarray,
                             C: CapacityStack, tris: Sequence[AggOperator]) -> DependenceRows:
    """Per row, mu({f|_A >= a} n {g|_B >= b}) >= mu({f|_A >= a}) tri
    mu({g|_B >= b}) on the distinct-value cross product (plus level 0),
    which is exact, not sampled: both sides are step functions constant
    between consecutive function values.  A cell where both sides are
    infinite holds with equality.  Rows go through in blocks of at most
    POSDEP_BLOCK_CELLS cross-product cells, but one row is one block: its
    memory grows with its a b cells (+96 MB for 2000 levels per side)."""
    # per side: levels, counts and point ranks plus one (rank 0 is the whole
    # space), so one level meet holds the marginals in its first column and row
    f, g = ((levels, count, np.where(X.valid, rank + 1, -1))
            for X, (levels, count, rank) in ((F, _level_rows(F, A)), (G, _level_rows(G, B))))
    size = f[1] * g[1]
    if size.sum() <= POSDEP_BLOCK_CELLS:
        return _positive_dependence_block(f, g, C, tris)
    # blocks of rows of similar size, so that little of a block is padding
    order = np.argsort(size, kind="stable")
    block = np.cumsum(size[order]) // POSDEP_BLOCK_CELLS
    slack, witness = [None] * len(size), [None] * len(size)
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
