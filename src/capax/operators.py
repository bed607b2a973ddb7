"""Binary aggregation operators on [0,1] or [0,inf], the named systems
used by the Carlson-type theorems, and samplers for the operator
hypotheses.

Condition checkers are samplers, not proofs: a "holds" verdict means zero
violations on the reported grid plus random points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .xreal import INF, UNIT, DomainError, in_range, xmul

COND_TOL = 1e-12


@dataclass(frozen=True)
class AggOperator:
    """Nondecreasing binary operator on the range.

    ``fn`` is the scalar evaluation, ``vec`` a numpy-vectorized twin.
    ``zero_absorbing_right`` declares a o 0 = 0 for all a; ``left_continuous``
    is a declared flag (pointwise limits are not grid-decidable) and gates
    exactness claims in the integral evaluators.
    """

    name: str
    domain: str
    fn: Callable[[float, float], float] = field(compare=False)
    vec: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(compare=False)
    zero_absorbing_right: bool = True
    left_continuous: bool = True

    def __call__(self, a: float, b: float) -> float:
        return self.fn(a, b)


def eval_op(op: AggOperator, a: float, b: float) -> float:
    """Evaluate with domain validation."""
    if not (in_range(a, op.domain) and in_range(b, op.domain)):
        raise DomainError(f"inputs ({a}, {b}) outside {op.domain} domain of {op.name}")
    return op.fn(a, b)


def _prod_scalar(a: float, b: float) -> float:
    return xmul(a, b)


def _prod_vec(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        out = a * b
    return np.where((a == 0) | (b == 0), 0.0, out)


def _dombi_scalar(a: float, b: float) -> float:
    d = a + b - a * b
    if d == 0.0:  # only at (0, 0); continuous extension
        return 0.0
    return a * b / d


def _dombi_vec(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a + b - a * b
    with np.errstate(invalid="ignore", divide="ignore"):
        out = a * b / d
    return np.where(d == 0, 0.0, out)


def min_op(domain: str = UNIT) -> AggOperator:
    return AggOperator("min", domain, min, np.minimum)


def prod_op(domain: str = UNIT) -> AggOperator:
    return AggOperator("prod", domain, _prod_scalar, _prod_vec)


def lukasiewicz_op() -> AggOperator:
    return AggOperator(
        "lukasiewicz", UNIT,
        lambda a, b: max(a + b - 1.0, 0.0),
        lambda a, b: np.maximum(np.asarray(a) + np.asarray(b) - 1.0, 0.0),
    )


def dombi_op() -> AggOperator:
    return AggOperator("dombi", UNIT, _dombi_scalar, _dombi_vec)


def project_first_op(domain: str = UNIT) -> AggOperator:
    return AggOperator(
        "project_first", domain,
        lambda a, b: a,
        lambda a, b: np.broadcast_arrays(np.asarray(a, dtype=float), b)[0].copy(),
        zero_absorbing_right=False,
    )


def table_op(values: Sequence[Sequence[float]], name: str = "custom") -> AggOperator:
    """Operator from a k x k lookup table over the uniform grid of [0,1]
    (nearest-node lookup). Not assumed left-continuous."""
    t = np.asarray(values, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 2:
        raise ValueError("table must be square with at least 2 nodes per axis")
    k = t.shape[0]

    def idx(x):
        return np.clip(np.rint(np.asarray(x, dtype=float) * (k - 1)).astype(int), 0, k - 1)

    def fn(a: float, b: float) -> float:
        return float(t[idx(a), idx(b)])

    def vec(a, b):
        return t[idx(a), idx(b)]

    return AggOperator(name, UNIT, fn, vec,
                       zero_absorbing_right=bool((t[:, 0] == 0).all()),
                       left_continuous=False)


BUILTIN_OPS = {
    "min": min_op,
    "prod": prod_op,
    "lukasiewicz": lambda domain=UNIT: lukasiewicz_op(),
    "dombi": lambda domain=UNIT: dombi_op(),
    "project_first": project_first_op,
}


def get_op(name: str, domain: str = UNIT) -> AggOperator:
    try:
        factory = BUILTIN_OPS[name]
    except KeyError:
        raise DomainError(f"unknown operator {name!r}")
    if name in ("lukasiewicz", "dombi") and domain != UNIT:
        raise DomainError(f"{name} requires the unit domain")
    return factory(domain)


@dataclass(frozen=True)
class OperatorSystem:
    """The operator tuple (circ, box, star, lhd, tri) plus exponents of
    the generalized-Sugeno Carlson inequality."""

    name: str
    circ: AggOperator
    box: AggOperator
    star: AggOperator
    lhd: AggOperator
    tri: AggOperator
    p: float = 2.0
    q: float = 2.0
    r: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        doms = {o.domain for o in (self.circ, self.box, self.star, self.lhd, self.tri)}
        if len(doms) != 1:
            raise DomainError("all five operators must share one domain")
        if self.p < 1 or self.q < 1:
            raise DomainError("exponents p, q must be >= 1")
        if self.r <= 0 or self.s <= 0:
            raise DomainError("exponents r, s must be positive")

    @property
    def domain(self) -> str:
        return self.circ.domain

    def with_exponents(self, p=None, q=None, r=None, s=None) -> "OperatorSystem":
        return OperatorSystem(
            self.name, self.circ, self.box, self.star, self.lhd, self.tri,
            p=self.p if p is None else p, q=self.q if q is None else q,
            r=self.r if r is None else r, s=self.s if s is None else s,
        )


def builtin_systems() -> list[OperatorSystem]:
    """The six named operator systems known to satisfy both conditions."""
    mn, pr, lk, db = min_op(), prod_op(), lukasiewicz_op(), dombi_op()
    pf = project_first_op()
    return [
        OperatorSystem("min", circ=mn, box=mn, star=mn, lhd=mn, tri=mn),
        OperatorSystem("product", circ=pr, box=pr, star=pr, lhd=pr, tri=pr),
        OperatorSystem("min_prod", circ=mn, box=pr, star=pr, lhd=pr, tri=pr),
        OperatorSystem("min_luk", circ=mn, box=lk, star=pr, lhd=lk, tri=lk),
        OperatorSystem("dombi", circ=db, box=db, star=pr, lhd=db, tri=db),
        OperatorSystem("project_first", circ=pf, box=pr, star=pr, lhd=pr, tri=mn),
    ]


def get_system(name: str) -> OperatorSystem:
    for sys in builtin_systems():
        if sys.name == name:
            return sys
    raise DomainError(f"unknown operator system {name!r}")


@dataclass
class ConditionReport:
    """Sampler verdict for a universally-quantified operator condition."""

    condition: str
    grid_resolution: int
    random_trials: int
    seed: int
    violations: list
    holds_on_grid: bool
    note: str = ""


def _domain_grid(domain: str, resolution: int) -> np.ndarray:
    if domain == UNIT:
        return np.linspace(0.0, 1.0, resolution)
    # orders of magnitude plus the boundary cases the sup touches
    return np.concatenate(([0.0], 2.0 ** np.arange(-6, 7), [INF]))


def _random_points(domain: str, rng: np.random.Generator, k: int) -> np.ndarray:
    if domain == UNIT:
        return rng.uniform(size=k)
    return np.exp(rng.uniform(math.log(2.0**-6), math.log(2.0**6), size=k))


def check_nondecreasing(op: AggOperator, grid_resolution: int = 33,
                        seed: int = 0, random_trials: int = 2000) -> ConditionReport:
    """Check monotonicity in each argument on the grid plus random
    comparable pairs (componentwise monotone iff monotone per argument)."""
    g = _domain_grid(op.domain, grid_resolution)
    g = np.sort(g)
    violations = []
    vals = op.vec(g[:, None], g[None, :])
    with np.errstate(invalid="ignore"):  # inf - inf on extended grids
        rows_bad = np.argwhere(np.diff(vals, axis=1) < -COND_TOL)
        cols_bad = np.argwhere(np.diff(vals, axis=0) < -COND_TOL)
    for i, j in rows_bad[:20]:
        violations.append(((g[i], g[j]), (g[i], g[j + 1]),
                           float(vals[i, j]), float(vals[i, j + 1])))
    for i, j in cols_bad[:20]:
        violations.append(((g[i], g[j]), (g[i + 1], g[j]),
                           float(vals[i, j]), float(vals[i + 1, j])))
    rng = np.random.default_rng(seed)
    for _ in range(random_trials):
        a, b = _random_points(op.domain, rng, 2)
        da, db = rng.uniform(0, 0.5, size=2)
        hi = op.fn(min(a + da, 1.0) if op.domain == UNIT else a + da,
                   min(b + db, 1.0) if op.domain == UNIT else b + db)
        lo = op.fn(a, b)
        if hi < lo - COND_TOL:
            violations.append(((a, b), (a + da, b + db), lo, hi))
    return ConditionReport("nondecreasing", grid_resolution, random_trials,
                           seed, violations, not violations)


def check_power_condition(op: AggOperator, s_values: Sequence[float],
                          grid_resolution: int = 33, seed: int = 0,
                          random_trials: int = 2000) -> ConditionReport:
    """Sample a**s o b >= (a o b)**s over the domain grid plus random points."""
    g = _domain_grid(op.domain, grid_resolution)
    rng = np.random.default_rng(seed)
    ra = _random_points(op.domain, rng, random_trials)
    rb = _random_points(op.domain, rng, random_trials)
    aa = np.concatenate([np.repeat(g, len(g)), ra])
    bb = np.concatenate([np.tile(g, len(g)), rb])
    violations = []
    trivial = []
    for s in s_values:
        if s < 1:
            raise DomainError("power condition is stated for s >= 1")
        if s == 1:
            trivial.append(s)
            continue
        with np.errstate(invalid="ignore"):
            a_pow = np.where(aa == 0, 0.0, np.where(np.isinf(aa), INF, aa**s))
            lhs = op.vec(a_pow, bb)
            base = op.vec(aa, bb)
            rhs = np.where(base == 0, 0.0, np.where(np.isinf(base), INF, base**s))
        bad = np.flatnonzero(lhs < rhs - COND_TOL)
        for i in bad[:20]:
            violations.append(((float(aa[i]), float(bb[i]), s),
                               float(lhs[i]), float(rhs[i])))
    note = f"s={trivial} trivially satisfied (identity)" if trivial else ""
    return ConditionReport("power", grid_resolution, random_trials, seed,
                           violations, not violations, note=note)


def check_chebyshev_condition(system: OperatorSystem, grid_resolution: int = 17,
                              seed: int = 0, random_trials: int = 10_000
                              ) -> ConditionReport:
    """Sample (a box b) circ (c tri d) >= (a circ c) lhd (b circ d) on a
    4-d grid plus random points."""
    g = _domain_grid(system.domain, grid_resolution)
    A, B, C, D = (x.ravel() for x in np.meshgrid(g, g, g, g, indexing="ij"))
    rng = np.random.default_rng(seed)
    ra = _random_points(system.domain, rng, 4 * random_trials).reshape(4, -1)
    A = np.concatenate([A, ra[0]])
    B = np.concatenate([B, ra[1]])
    C = np.concatenate([C, ra[2]])
    D = np.concatenate([D, ra[3]])
    lhs = system.circ.vec(system.box.vec(A, B), system.tri.vec(C, D))
    rhs = system.lhd.vec(system.circ.vec(A, C), system.circ.vec(B, D))
    bad = np.flatnonzero(lhs < rhs - COND_TOL)
    violations = [((float(A[i]), float(B[i]), float(C[i]), float(D[i])),
                   float(lhs[i]), float(rhs[i])) for i in bad[:20]]
    return ConditionReport("chebyshev", grid_resolution, random_trials, seed,
                           violations, not violations)
