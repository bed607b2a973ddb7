"""Generalized Sugeno, Sugeno, Shilkret and Choquet integral evaluators,
plus a dense-grid brute-force oracle.

The candidate-set evaluator is exact for every nondecreasing operator:
between consecutive distinct values of f the level-set measure is
constant, so the supremum over that interval sits at its right endpoint.
The candidates are level 0 with mu(A), the distinct values of f on A with
their level-set measures and the tail alpha = inf with the empty set, all
over the operator's domain ([0, 1] clips inf to 1, and [0, inf] evaluates
it as it stands); one vectorized operator call evaluates them all.

A function's range is its values: a unit-domain operator needs sup f <= 1
on its row, which ``_check_compat`` checks with the capacity's range.

The evaluators run on stacks: ``Values`` (k sample functions), (k, N)
boolean subset rows and a ``CapacityStack``, row i of each belonging to
one integral, and each row gives what it gives alone, bit for bit.  Both
integrals read their levels from ``distinct_levels``.  A single integral
is a stack of one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .capacity import Capacity, CapacityStack, GroundSpace, along, subset_rows
from .xreal import INF, UNIT, DomainError
from .operators import AggOperator, min_op, prod_op, rows_pow, rows_vec


@dataclass(frozen=True)
class SampleFunction:
    """Nonnegative (possibly infinite) value per point of a ground space;
    its range is read from its values where an operator needs it."""

    space: GroundSpace
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # a copy: instances are immutable
        if len(v) != self.space.n:
            raise DomainError("value count must match the space")
        if not v.min() >= 0:  # NaN fails this comparison too
            raise DomainError("sample values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])


def sample_function(space: GroundSpace, values) -> SampleFunction:
    return SampleFunction(space, values)


FORMULAS = {
    "x": lambda x: x,
    "x^2": lambda x: x**2,
    "1/(1+x^2)": lambda x: 1.0 / (1.0 + x**2),
}


def from_formula(space: GroundSpace, formula: str) -> SampleFunction:
    """Sample one of the named formulas ("x", "x^2", "1/(1+x^2)", "const:k")
    on the space coordinates."""
    if formula.startswith("const:"):
        try:
            k = float(formula.split(":", 1)[1])
        except ValueError:  # a constant that is not a number
            raise DomainError(f"unknown formula {formula!r}")
        return sample_function(space, np.full(space.n, k))
    if formula not in FORMULAS:
        raise DomainError(f"unknown formula {formula!r}")
    return sample_function(space, FORMULAS[formula](space.coord_array()))


@dataclass(frozen=True)
class IntegralResult:
    """Integral value with the level achieving it and the largest error it
    may carry: 0.0 from an exact evaluator, the grid spacing from the
    brute-force oracle."""

    value: float
    argmax_level: Optional[float]
    bound: float = 0.0

    @property
    def exact(self) -> bool:
        return self.bound == 0.0

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class Values:
    """k sample functions evaluated together: row i holds the n[i] values
    of its function, then padding that no kernel reads, and its ground
    space."""

    v: np.ndarray
    n: np.ndarray
    valid: np.ndarray
    spaces: tuple

    @classmethod
    def build(cls, fns: Sequence[SampleFunction]) -> "Values":
        v = fns[0].values if len(fns) == 1 else np.concatenate([f.values for f in fns])
        return cls.rows(v, [f.space for f in fns])

    @classmethod
    def rows(cls, v: np.ndarray, spaces: Sequence[GroundSpace]) -> "Values":
        """The stack of k sample functions whose values are concatenated in
        ``v``, row i holding spaces[i].n of them."""
        n = np.array([space.n for space in spaces])
        if len(n) == 1:  # one row uses the values in place
            v = v[None, :]
            valid = np.ones(v.shape, dtype=bool)
        else:
            valid = np.arange(n.max()) < n[:, None]
            flat, v = v, np.zeros(valid.shape)
            v[valid] = flat
        return cls(v, n, valid, tuple(spaces))

    @cached_property
    def coords(self) -> Optional[np.ndarray]:
        """The rows' space coordinates, or None when a space has none."""
        if any(space.coords is None for space in self.spaces):
            return None
        coords = np.zeros(self.v.shape)
        coords[self.valid] = np.concatenate([space.coord_array() for space in self.spaces])
        return coords

    def like(self, v: np.ndarray) -> "Values":
        """Values ``v`` on the same spaces, checked as ``sample_function``
        checks them."""
        if not (np.where(self.valid, v, 0.0).min(1) >= 0).all():  # NaN fails too
            raise DomainError("sample values must be nonnegative")
        return Values(v, self.n, self.valid, self.spaces)


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


def _check_compat(F: Optional[Values], C: CapacityStack,
                  ops: Sequence[AggOperator]) -> np.ndarray:
    """The rows whose operator has the unit domain, each checked to have a
    unit-range capacity and, given F, values at most 1 (one masked maximum
    over the stack); the first failing row raises, its capacity checked first."""
    unit_dom = np.array([op.domain == UNIT for op in ops])
    if unit_dom.any():
        bad = ~C.unit
        if F is not None:
            bad = bad | (np.maximum.reduce(F.v, axis=1, where=F.valid, initial=0.0) > 1.0)
        if len(bad := np.flatnonzero(unit_dom & bad)):
            i = bad[0]
            what = "unit-range function values" if C.unit[i] else "a unit-range capacity"
            raise DomainError(f"operator {ops[i].name} needs {what}")
    return unit_dom


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
    """Per-row integral values with their levels."""

    value: np.ndarray
    level: list

    def result(self, i: int) -> IntegralResult:
        return IntegralResult(float(self.value[i]), self.level[i])


def generalized_sugeno_rows(F: Values, A: np.ndarray, C: CapacityStack,
                            ops: Sequence[AggOperator]) -> IntegralRows:
    """sup over alpha of alpha o mu(A n {f >= alpha}) per row, with row i's
    operator ops[i], evaluated on the candidate levels {0} u {distinct
    values of f on A} u {inf}, all rows in one candidate matrix."""
    unit_dom = _check_compat(F, C, ops)
    distinct, measures, kd = distinct_levels(F, A, C)
    k, N = distinct.shape
    # the candidates in tie-break order, since the first index of the max
    # wins: level 0 with mu(A), the distinct values descending with their
    # level-set measures (the first kd), then the tail alpha = inf with
    # mu(empty set) = 0, which a zero-absorbing operator takes to 0
    alphas = np.empty((k, N + 2))
    alphas[:, 0] = 0.0
    alphas[:, 1:N + 1] = distinct
    alphas[:, N + 1] = INF
    level_measures = np.zeros((k, N + 2))
    level_measures[:, 0] = C.measure(A)
    level_measures[:, 1:N + 1] = measures
    x = alphas if not unit_dom.any() else np.where(unit_dom[:, None],
                                                   np.minimum(alphas, 1.0), alphas)
    t = rows_vec(ops, x, level_measures)
    live = np.ones((k, N + 2), dtype=bool)
    live[:, 1:N + 1] = np.arange(N) < kd[:, None]
    i = np.where(live, t, -np.inf).argmax(1)
    rows = np.arange(k)
    return IntegralRows(t[rows, i], x[rows, i].tolist())


def generalized_sugeno(f: SampleFunction, c: Capacity, A: Optional[int] = None,
                       op: AggOperator = None) -> IntegralResult:
    """sup over alpha of alpha o mu(A n {f >= alpha}), evaluated exactly on
    the candidate level set {0} u {distinct values of f on A} u {inf}.  Its
    one hypothesis is that op is nondecreasing, which
    ``check_nondecreasing`` samples."""
    if op is None:
        op = min_op(c.range)
    (F,), (A,), C = one_row([f], c, [A])
    return generalized_sugeno_rows(F, A, C, [op]).result(0)


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
        return IntegralResult(INF, INF)
    return IntegralResult(float(values[0]), None)


def brute_force_generalized_sugeno(f: SampleFunction, c: Capacity,
                                   A: Optional[int] = None,
                                   op: AggOperator = None,
                                   alpha_grid_size: int = 10_000) -> IntegralResult:
    """Independent oracle: a uniform alpha grid on [0, g] (g = 1 for a
    unit-domain operator, else the largest finite value of f on A or 1,
    whichever is larger) union the candidate set and, for an extended
    operator, alpha = inf with the empty set.  The grid approaches the
    value from below; the reported bound is its spacing."""
    if alpha_grid_size < 2:
        raise DomainError("alpha grid needs at least two points")
    if op is None:
        op = min_op(c.range)
    (F,), (A,), C = one_row([f], c, [A])
    _check_compat(F, C, [op])
    distinct, measures, kd = distinct_levels(F, A, C)
    distinct, measures = distinct[0, :kd[0]], measures[0, :kd[0]]
    idx = np.flatnonzero(A[0])

    finite_vals = distinct[np.isfinite(distinct)]
    top = 1.0 if op.domain == UNIT else max(float(finite_vals.max(initial=0.0)), 1.0)
    grid = np.linspace(0.0, top, alpha_grid_size)
    spacing = top / (alpha_grid_size - 1)

    # measure of {f >= alpha}: count points with value >= alpha
    vals_desc = np.sort(f.values[idx])[::-1] if len(idx) else np.array([])
    counts = np.searchsorted(-vals_desc, -grid, side="right")
    chain_all = C.chain(idx[np.argsort(-f.values[idx], kind="stable")][None])[0]
    grid_measures = chain_all[counts]

    tail = [] if op.domain == UNIT else [INF]
    alphas = np.concatenate([grid, distinct, tail])
    meas = np.concatenate([grid_measures, measures, np.zeros(len(tail))])

    best, best_level = op(0.0, float(C.measure(A)[0])), 0.0
    vec = op.vec(np.minimum(alphas, 1.0) if op.domain == UNIT else alphas, meas)
    i = int(np.argmax(vec))
    if vec[i] > best:
        best, best_level = float(vec[i]), float(alphas[i])
    return IntegralResult(best, best_level, spacing)


def pointwise_rows(ops: Sequence[AggOperator], F: Values, G: Values) -> Values:
    """Row i of F combined pointwise with row i of G by ops[i]."""
    return F.like(rows_vec(ops, F.v, G.v))


def pointwise(op: AggOperator, f: SampleFunction, g: SampleFunction) -> SampleFunction:
    """Pointwise combination of two sample functions."""
    if f.space.n != g.space.n:
        raise DomainError("pointwise combination needs a common space")
    out = pointwise_rows([op], Values.build([f]), Values.build([g]))
    return SampleFunction(f.space, out.v[0])


def power_rows(F: Values, s: Sequence[float]) -> Values:
    """Row i raised pointwise to s[i] by ``rows_pow`` (s > 0): 0**s = 0,
    inf**s = inf, and a power beyond the largest double is inf."""
    if not all(e > 0 for e in s):  # NaN fails too
        raise DomainError("power exponent must be positive")
    v = F.v
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.where(v == 0, 0.0, np.where(np.isinf(v), INF, rows_pow(v, s)))
    return F.like(out)


def power(f: SampleFunction, s: float) -> SampleFunction:
    """Pointwise f**s with the 0**s = 0, inf**s = inf conventions (s > 0)."""
    out = power_rows(Values.build([f]), [s])
    return SampleFunction(f.space, out.v[0])
