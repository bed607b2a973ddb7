"""Generalized Sugeno, Sugeno, Shilkret and Choquet integral evaluators,
plus a dense-grid brute-force oracle.

The candidate-set evaluator is exact for operators that are declared
left-continuous and right-zero-absorbing: between consecutive distinct
values of f the level-set measure is constant, so the supremum sits at the
right endpoint.  The candidates are level 0 with mu(A), the distinct
values of f on A with their level-set measures and, for an operator that
does not absorb 0 on the right, the top of the range with the empty set;
one vectorized operator call evaluates them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .capacity import Capacity, GroundSpace, mask_bools
from .xreal import DEFAULT_CAP, EXTENDED, INF, UNIT, DomainError, sup_of
from .operators import AggOperator, min_op, prod_op


@dataclass(frozen=True)
class SampleFunction:
    """Nonnegative (possibly infinite) value per point of a ground space."""

    space: GroundSpace
    values: np.ndarray = field(compare=False)
    range: str = EXTENDED

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
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


def _check_compat(f: SampleFunction, c: Capacity, op: AggOperator = None):
    if f.space.n != c.space.n:
        raise DomainError("function and capacity live on different spaces")
    if op is not None and op.domain == UNIT:
        if c.range == EXTENDED:
            raise DomainError(f"operator {op.name} needs a unit-range capacity")
        # a unit-range sample was checked against 1 when it was built
        if f.range != UNIT and float(np.max(f.values, initial=0)) > 1.0:
            raise DomainError(f"operator {op.name} needs unit-range function values")


def _level_sets(f: SampleFunction, c: Capacity, A: int):
    """Distinct values of f on A in descending order with the measures of
    their level sets mu(A n {f >= v})."""
    idx = mask_bools(A, f.space.n).nonzero()[0]
    if len(idx) == 0:
        return np.array([]), np.array([]), idx
    vals = f.values[idx]
    order = np.argsort(-vals, kind="stable")
    chain = c.chain_measures(idx[order])
    sorted_desc = vals[order]
    # the last point of each run of equal values ends the prefix of points
    # with value >= that value; the prefix length indexes the chain
    run_end = np.concatenate((sorted_desc[1:] != sorted_desc[:-1], [True]))
    ends = run_end.nonzero()[0]
    return sorted_desc[ends], chain[ends + 1], idx


def generalized_sugeno(f: SampleFunction, c: Capacity, A: Optional[int] = None,
                       op: AggOperator = None, cap: float = DEFAULT_CAP) -> IntegralResult:
    """sup over alpha of alpha o mu(A n {f >= alpha}), evaluated on the
    candidate level set {0} u {distinct values of f on A} plus the tail."""
    if op is None:
        op = min_op(c.range)
    _check_compat(f, c, op)
    if A is None:
        A = f.space.full_mask
    distinct, measures, idx = _level_sets(f, c, A)
    k = len(distinct)
    top = sup_of(c.range, cap)
    # the candidates in tie-break order, since the first index of the max
    # wins: level 0 with mu(A), the distinct values descending with their
    # level-set measures, then the tail (alpha above max f, where
    # mu(empty set) = 0) at the top of the range if op does not absorb 0
    tail = not op.zero_absorbing_right
    alphas = np.zeros(k + 1 + tail)
    alphas[1:k + 1] = distinct
    alphas[k + 1:] = top
    level_measures = np.zeros(k + 1 + tail)
    level_measures[0] = c(A)
    level_measures[1:k + 1] = measures
    # an infinite value, necessarily the highest, is evaluated at the top
    capped = k > 0 and math.isinf(distinct[0])
    if capped:
        alphas[1] = top
    t = op.vec(np.minimum(alphas, 1.0) if op.domain == UNIT else alphas,
               level_measures)
    i = int(np.argmax(t))
    tail_won = tail and i == k + 1

    exact = op.zero_absorbing_right and op.left_continuous and not capped
    return IntegralResult(float(t[i]), float(alphas[i]), exact,
                          bound=0.0 if exact else cap,
                          cap_hit=(capped or tail_won) and c.range == EXTENDED)


def sugeno(f: SampleFunction, c: Capacity, A: Optional[int] = None) -> IntegralResult:
    """Sugeno integral: sup over alpha of min(alpha, mu(A n {f >= alpha}))."""
    return generalized_sugeno(f, c, A, min_op(c.range))


def shilkret(f: SampleFunction, c: Capacity, A: Optional[int] = None) -> IntegralResult:
    """Shilkret integral: sup over alpha of alpha * mu(A n {f >= alpha})."""
    return generalized_sugeno(f, c, A, prod_op(c.range))


def choquet(f: SampleFunction, c: Capacity, A: Optional[int] = None) -> IntegralResult:
    """Choquet integral: integral over t of mu(A n {f >= t}), by
    telescoping over the distinct values of f on A."""
    _check_compat(f, c)
    if A is None:
        A = f.space.full_mask
    distinct, measures, idx = _level_sets(f, c, A)
    if len(distinct) == 0:
        return IntegralResult(0.0, None, True)
    if math.isinf(distinct[0]):
        if measures[0] > 0:
            return IntegralResult(INF, INF, True)
        distinct, measures = distinct[1:], measures[1:]
        if len(distinct) == 0:
            return IntegralResult(0.0, None, True)
    asc_v = distinct[::-1]
    asc_m = measures[::-1]
    prev = np.concatenate(([0.0], asc_v[:-1]))
    value = float(np.dot(asc_v - prev, asc_m))
    return IntegralResult(value, None, True)


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
    _check_compat(f, c, op)
    if A is None:
        A = f.space.full_mask
    distinct, measures, idx = _level_sets(f, c, A)

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
    chain_all = c.chain_measures(idx[np.argsort(-f.values[idx], kind="stable")])
    grid_measures = chain_all[counts]

    alphas = np.concatenate([grid, distinct[np.isfinite(distinct)]])
    meas = np.concatenate([grid_measures, measures[np.isfinite(distinct)]])
    if len(distinct) and math.isinf(distinct[0]):
        alphas = np.concatenate([alphas, [sup_of(c.range, cap)]])
        meas = np.concatenate([meas, [measures[0]]])

    best, best_level = op(0.0, c(A)), 0.0
    vec = op.vec(np.minimum(alphas, 1.0) if op.domain == UNIT else alphas, meas)
    i = int(np.argmax(vec)) if len(vec) else -1
    if i >= 0 and vec[i] > best:
        best, best_level = float(vec[i]), float(alphas[i])
    if not op.zero_absorbing_right:
        t = op(top, 0.0)
        if t > best:
            best, best_level = t, top
    return IntegralResult(best, best_level, False, bound=spacing)


def pointwise(op: AggOperator, f: SampleFunction, g: SampleFunction,
              range_tag: str = None) -> SampleFunction:
    """Pointwise combination of two sample functions."""
    if f.space.n != g.space.n:
        raise DomainError("pointwise combination needs a common space")
    return sample_function(f.space, op.vec(f.values, g.values), range_tag)


def power(f: SampleFunction, s: float) -> SampleFunction:
    """Pointwise f**s with the 0**s = 0, inf**s = inf conventions (s > 0)."""
    if s <= 0:
        raise DomainError("power exponent must be positive")
    with np.errstate(invalid="ignore"):
        v = np.where(f.values == 0, 0.0,
                     np.where(np.isinf(f.values), INF, f.values**s))
    return sample_function(f.space, v, f.range if s >= 1 and f.range == UNIT else None)
