"""Generalized Sugeno, Sugeno, Shilkret and Choquet integral evaluators,
plus a dense-grid brute-force oracle.

The candidate-set evaluator is exact for operators that are declared
left-continuous and right-zero-absorbing: between consecutive distinct
values of f the level-set measure is constant, so the supremum sits at the
right endpoint.  The candidates are level 0 with mu(A), the distinct
values of f on A with their level-set measures and, for an operator that
does not absorb 0 on the right, the top of the range with the empty set;
one vectorized operator call evaluates them all.

The evaluators run on stacks: ``Values`` (k sample functions), (k, N)
boolean subset rows and a ``CapacityStack``, row i of each belonging to
one integral, and each row gives what it gives alone, bit for bit.  Both
integrals read their levels from ``distinct_levels``.  A single integral
is a stack of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .capacity import Capacity, CapacityStack, GroundSpace, along, subset_rows
from .xreal import DEFAULT_CAP, EXTENDED, INF, UNIT, DomainError, sup_of
from .operators import AggOperator, min_op, prod_op, rows_pow, rows_vec


@dataclass(frozen=True)
class SampleFunction:
    """Nonnegative (possibly infinite) value per point of a ground space."""

    space: GroundSpace
    values: np.ndarray = field(compare=False)
    range: str = EXTENDED

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # a copy: instances are immutable
        if len(v) != self.space.n:
            raise DomainError("value count must match the space")
        if not v.min() >= 0:  # NaN fails this comparison too
            raise DomainError("sample values must be nonnegative")
        if self.range == UNIT and v.max() > 1:
            raise DomainError("unit-range sample has a value above 1")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])


def sample_function(space: GroundSpace, values, range_tag: str = None) -> SampleFunction:
    v = np.asarray(values, dtype=float)
    if range_tag is None:
        range_tag = UNIT if v.size and v.max() <= 1.0 else EXTENDED
    return SampleFunction(space, v, range_tag)


FORMULAS = {
    "x": lambda x: x,
    "x^2": lambda x: x**2,
    "1/(1+x^2)": lambda x: 1.0 / (1.0 + x**2),
}


def from_formula(space: GroundSpace, formula: str, range_tag: str = None) -> SampleFunction:
    """Sample one of the named formulas ("x", "x^2", "1/(1+x^2)", "const:k")
    on the space coordinates."""
    if formula.startswith("const:"):
        k = float(formula.split(":", 1)[1])
        return sample_function(space, np.full(space.n, k), range_tag)
    try:
        f = FORMULAS[formula]
    except KeyError:
        raise DomainError(f"unknown formula {formula!r}")
    return sample_function(space, f(space.coord_array()), range_tag)


@dataclass(frozen=True)
class IntegralResult:
    """Integral value with the level achieving it and an exactness tag."""

    value: float
    argmax_level: Optional[float]
    exact: bool
    bound: float = 0.0  # grid resolution when not exact
    cap_hit: bool = False

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class Values:
    """k sample functions evaluated together: row i holds the n[i] values
    of its function, then padding that no kernel reads, its range tag
    (``unit``) and its ground space."""

    v: np.ndarray
    unit: np.ndarray
    n: np.ndarray
    valid: np.ndarray
    spaces: tuple

    @classmethod
    def build(cls, fns: Sequence[SampleFunction]) -> "Values":
        n = np.array([f.space.n for f in fns])
        if len(fns) == 1:  # one row uses its function's values in place
            v = fns[0].values[None, :]
            valid = np.ones(v.shape, dtype=bool)
        else:
            valid = np.arange(n.max()) < n[:, None]
            v = np.zeros(valid.shape)
            v[valid] = np.concatenate([f.values for f in fns])
        return cls(v, np.array([f.range == UNIT for f in fns]), n, valid,
                   tuple(f.space for f in fns))

    @cached_property
    def coords(self) -> Optional[np.ndarray]:
        """The rows' space coordinates, or None when a space has none."""
        if any(space.coords is None for space in self.spaces):
            return None
        coords = np.zeros(self.v.shape)
        coords[self.valid] = np.concatenate([space.coord_array() for space in self.spaces])
        return coords

    def like(self, v: np.ndarray, tags=None) -> "Values":
        """Values ``v`` on the same spaces, checked as ``sample_function``
        checks them; ``tags`` holds a range tag or None (inferred) per row."""
        live = np.where(self.valid, v, 0.0)
        if not (live.min(1) >= 0).all():  # NaN fails this comparison too
            raise DomainError("sample values must be nonnegative")
        unit = live.max(1) <= 1.0
        if tags is not None:
            for i, tag in enumerate(tags):
                if tag == UNIT and not unit[i]:
                    raise DomainError("unit-range sample has a value above 1")
                if tag is not None:
                    unit[i] = tag == UNIT
        return Values(v, unit, self.n, self.valid, self.spaces)

    def take(self, rows: np.ndarray) -> "Values":
        return Values(self.v[rows], self.unit[rows], self.n[rows], self.valid[rows],
                      tuple(self.spaces[i] for i in rows.tolist()))

    def row(self, i: int) -> np.ndarray:
        return self.v[i, :self.n[i]]


def one_row(fns: Sequence[SampleFunction], c: Optional[Capacity] = None,
            subsets: Sequence[Optional[int]] = ()):
    """The one-row stacks of a single call: the functions' values, the
    subsets' (1, n) rows (None is the whole space) and the capacity (None
    without one)."""
    n = fns[0].space.n
    if any(f.space.n != n for f in fns) or (c is not None and c.space.n != n):
        raise DomainError("functions and capacity must share a space")
    full = fns[0].space.full_mask
    masks = [full if m is None else m for m in subsets]
    subs = subset_rows(masks, np.full(len(masks), n), n)[:, None]
    return [Values.build([f]) for f in fns], subs, None if c is None else CapacityStack([c])


def _check_compat(F: Values, C: CapacityStack, ops: Sequence[AggOperator]):
    for i, op in enumerate(ops):
        if op is not None and op.domain == UNIT:
            if not C.unit[i]:
                raise DomainError(f"operator {op.name} needs a unit-range capacity")
            # a unit-range sample was checked against 1 when it was built
            if not F.unit[i] and float(F.row(i).max()) > 1.0:
                raise DomainError(f"operator {op.name} needs unit-range function values")


def distinct_levels(F: Values, A: np.ndarray, C: CapacityStack):
    """Per row, the distinct values of f on A in descending order with the
    measures of their level sets mu(A n {f >= v}), left-aligned in (k, N)
    arrays, and their count per row.  The values of f on A are sorted in
    descending order (points outside A last); the last point of each run
    of equal values ends the prefix of points with value >= that value,
    so its measure is entry j + 1 of the prefix chain."""
    k, N = F.v.shape
    x = np.where(A, F.v, -1.0)
    order = np.argsort(-x, axis=1, kind="stable")
    sorted_desc = along(x, order)
    chain = C.chain(order)
    run_end = np.empty((k, N), dtype=bool)
    run_end[:, :-1] = sorted_desc[:, 1:] != sorted_desc[:, :-1]
    run_end[:, -1] = True
    run_end &= sorted_desc >= 0  # the points of A
    kd = run_end.sum(1)
    if (kd == N).all():  # every point of every row is its own level
        return sorted_desc, chain[:, 1:], kd
    src = np.flatnonzero(run_end)
    dst = np.flatnonzero(np.arange(N) < kd[:, None])
    distinct = np.zeros((k, N))
    measures = np.zeros((k, N))
    distinct.ravel()[dst] = sorted_desc.ravel()[src]
    measures.ravel()[dst] = chain.ravel()[src + src // N + 1]
    return distinct, measures, kd


@dataclass
class IntegralRows:
    """Per-row integral values with their levels and exactness tags."""

    value: np.ndarray
    level: list
    exact: np.ndarray
    bound: np.ndarray
    cap_hit: np.ndarray

    def result(self, i: int) -> IntegralResult:
        return IntegralResult(float(self.value[i]), self.level[i], bool(self.exact[i]),
                              bound=float(self.bound[i]), cap_hit=bool(self.cap_hit[i]))


def generalized_sugeno_rows(F: Values, A: np.ndarray, C: CapacityStack,
                            ops: Sequence[AggOperator],
                            cap: float = DEFAULT_CAP) -> IntegralRows:
    """sup over alpha of alpha o mu(A n {f >= alpha}) per row, with row i's
    operator ops[i], evaluated on the candidate levels {0} u {distinct
    values of f on A} plus the tail, all rows in one candidate matrix."""
    _check_compat(F, C, ops)
    distinct, measures, kd = distinct_levels(F, A, C)
    k, N = distinct.shape
    top = np.where(C.unit, 1.0, cap)
    tail = np.array([not op.zero_absorbing_right for op in ops])
    # the candidates in tie-break order, since the first index of the max
    # wins: level 0 with mu(A), the distinct values descending with their
    # level-set measures (the first kd), then the tail (alpha above max f,
    # where mu(empty set) = 0) at the top of the range if op does not
    # absorb 0
    alphas = np.empty((k, N + 2))
    alphas[:, 0] = 0.0
    alphas[:, 1:N + 1] = distinct
    alphas[:, N + 1] = top
    # an infinite value, necessarily the highest, is evaluated at the top
    capped = (kd > 0) & np.isinf(distinct[:, 0])
    if capped.any():
        inf = np.isinf(alphas)
        alphas[inf] = np.broadcast_to(top[:, None], alphas.shape)[inf]
    level_measures = np.zeros((k, N + 2))
    level_measures[:, 0] = C.measure(A)
    level_measures[:, 1:N + 1] = measures
    unit_dom = np.array([op.domain == UNIT for op in ops])
    x = alphas if not unit_dom.any() else np.where(unit_dom[:, None],
                                                   np.minimum(alphas, 1.0), alphas)
    t = rows_vec(ops, x, level_measures)
    live = np.empty((k, N + 2), dtype=bool)
    live[:, 0] = True
    live[:, 1:N + 1] = np.arange(N) < kd[:, None]
    live[:, N + 1] = tail
    i = np.where(live, t, -np.inf).argmax(1)
    rows = np.arange(k)
    tail_won = tail & (i == N + 1)
    exact = np.array([op.zero_absorbing_right and op.left_continuous for op in ops]) & ~capped
    return IntegralRows(t[rows, i], alphas[rows, i].tolist(), exact,
                        np.where(exact, 0.0, cap), (capped | tail_won) & ~C.unit)


def generalized_sugeno(f: SampleFunction, c: Capacity, A: Optional[int] = None,
                       op: AggOperator = None, cap: float = DEFAULT_CAP) -> IntegralResult:
    """sup over alpha of alpha o mu(A n {f >= alpha}), evaluated on the
    candidate level set {0} u {distinct values of f on A} plus the tail."""
    if op is None:
        op = min_op(c.range)
    (F,), (A,), C = one_row([f], c, [A])
    return generalized_sugeno_rows(F, A, C, [op], cap).result(0)


def sugeno(f: SampleFunction, c: Capacity, A: Optional[int] = None) -> IntegralResult:
    """Sugeno integral: sup over alpha of min(alpha, mu(A n {f >= alpha}))."""
    return generalized_sugeno(f, c, A, min_op(c.range))


def shilkret(f: SampleFunction, c: Capacity, A: Optional[int] = None) -> IntegralResult:
    """Shilkret integral: sup over alpha of alpha * mu(A n {f >= alpha})."""
    return generalized_sugeno(f, c, A, prod_op(c.range))


def choquet_rows(F: Values, A: np.ndarray, C: CapacityStack):
    """Choquet integral per row, by telescoping over the distinct values
    of f on A: (values, rows whose value is an infinite top level of
    positive measure).  Each level's step above the next lower one (the
    lowest steps up from 0) times its measure, +0.0 where either is 0 (so
    0 * inf = 0), summed left to right in ascending level order; the zero
    padding adds exact +0.0 terms first, so each row gives what it gives
    alone."""
    distinct, measures, kd = distinct_levels(F, A, C)
    steps = distinct.copy()
    steps[:, :-1] -= distinct[:, 1:]
    with np.errstate(invalid="ignore"):  # 0 * inf
        terms = steps * measures
    terms[(steps == 0.0) | (measures == 0.0)] = 0.0  # 0 * inf = 0: no weight
    infinite = (kd > 0) & np.isinf(distinct[:, 0]) & (measures[:, 0] > 0)
    out = np.cumsum(terms[:, ::-1], axis=1)[:, -1]
    out[infinite] = INF
    return out, infinite


def choquet(f: SampleFunction, c: Capacity, A: Optional[int] = None) -> IntegralResult:
    """Choquet integral: integral over t of mu(A n {f >= t}), by
    telescoping over the distinct values of f on A."""
    (F,), (A,), C = one_row([f], c, [A])
    values, infinite = choquet_rows(F, A, C)
    if infinite[0]:
        return IntegralResult(INF, INF, True)
    return IntegralResult(float(values[0]), None, True)


def brute_force_generalized_sugeno(f: SampleFunction, c: Capacity,
                                   A: Optional[int] = None,
                                   op: AggOperator = None,
                                   alpha_grid_size: int = 10_000,
                                   cap: float = DEFAULT_CAP) -> IntegralResult:
    """Independent oracle: dense uniform alpha grid union the candidate
    set; reported bound is the grid spacing."""
    if alpha_grid_size < 2:
        raise DomainError("alpha grid needs at least two points")
    if op is None:
        op = min_op(c.range)
    (F,), (A,), C = one_row([f], c, [A])
    _check_compat(F, C, [op])
    distinct, measures, kd = distinct_levels(F, A, C)
    distinct, measures = distinct[0, :kd[0]], measures[0, :kd[0]]
    idx = np.flatnonzero(A[0])

    finite_vals = f.values[idx][np.isfinite(f.values[idx])] if len(idx) else np.array([])
    if c.range == UNIT:
        top = 1.0
    elif op.zero_absorbing_right:
        top = float(finite_vals.max()) if len(finite_vals) else 0.0
        top = max(top, 1.0)
    else:
        top = cap
    grid = np.linspace(0.0, top, alpha_grid_size)
    spacing = top / (alpha_grid_size - 1)

    # measure of {f >= alpha}: count points with value >= alpha
    vals_desc = np.sort(f.values[idx])[::-1] if len(idx) else np.array([])
    counts = np.searchsorted(-vals_desc, -grid, side="right")
    chain_all = C.chain(idx[np.argsort(-f.values[idx], kind="stable")][None])[0]
    grid_measures = chain_all[counts]

    alphas = np.concatenate([grid, distinct[np.isfinite(distinct)]])
    meas = np.concatenate([grid_measures, measures[np.isfinite(distinct)]])
    if len(distinct) and math.isinf(distinct[0]):
        alphas = np.concatenate([alphas, [sup_of(c.range, cap)]])
        meas = np.concatenate([meas, [measures[0]]])

    best, best_level = op(0.0, float(C.measure(A)[0])), 0.0
    vec = op.vec(np.minimum(alphas, 1.0) if op.domain == UNIT else alphas, meas)
    i = int(np.argmax(vec)) if len(vec) else -1
    if i >= 0 and vec[i] > best:
        best, best_level = float(vec[i]), float(alphas[i])
    if not op.zero_absorbing_right:
        t = op(top, 0.0)
        if t > best:
            best, best_level = t, top
    return IntegralResult(best, best_level, False, bound=spacing)


def pointwise_rows(ops: Sequence[AggOperator], F: Values, G: Values) -> Values:
    """Row i of F combined pointwise with row i of G by ops[i]."""
    return F.like(rows_vec(ops, F.v, G.v))


def pointwise(op: AggOperator, f: SampleFunction, g: SampleFunction,
              range_tag: str = None) -> SampleFunction:
    """Pointwise combination of two sample functions."""
    if f.space.n != g.space.n:
        raise DomainError("pointwise combination needs a common space")
    out = pointwise_rows([op], Values.build([f]), Values.build([g]))
    return sample_function(f.space, out.v[0], range_tag)


def power_rows(F: Values, s: Sequence[float]) -> Values:
    """Row i raised pointwise to s[i] by ``rows_pow``, with the 0**s = 0,
    inf**s = inf conventions (s > 0)."""
    if any(e <= 0 for e in s):
        raise DomainError("power exponent must be positive")
    v = F.v
    with np.errstate(invalid="ignore"):
        out = np.where(v == 0, 0.0, np.where(np.isinf(v), INF, rows_pow(v, s)))
    return F.like(out, [UNIT if e >= 1 and u else None
                        for e, u in zip(s, F.unit.tolist())])


def power(f: SampleFunction, s: float) -> SampleFunction:
    """Pointwise f**s with the 0**s = 0, inf**s = inf conventions (s > 0)."""
    out = power_rows(Values.build([f]), [s])
    return SampleFunction(f.space, out.v[0], UNIT if out.unit[0] else EXTENDED)
