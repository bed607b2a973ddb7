"""Binary aggregation operators on [0,1] or [0,inf], the named systems
used by the Carlson-type theorems, and samplers for the operator
hypotheses.

Every operator is one numpy-vectorized function; a scalar evaluation is
the same function on 0-d arrays, so array and scalar results agree bit
for bit.  Condition checkers are samplers, not proofs: a "holds" verdict
means zero violations on the reported grid plus random points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .xreal import INF, UNIT, DomainError

COND_TOL = 1e-12
#: points per block of the Chebyshev condition sampler
COND_BLOCK_POINTS = 1 << 13


@dataclass(frozen=True)
class AggOperator:
    """Nondecreasing binary operator on the range.

    ``vec`` is the one evaluation: it takes arrays (or scalars) and
    broadcasts; calling the operator on two scalars returns
    ``float(vec(a, b))``.  On the extended domain it takes inf as it stands.
    """

    name: str
    domain: str
    vec: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(compare=False)

    def __call__(self, a: float, b: float) -> float:
        return float(self.vec(a, b))


def row_groups(keys) -> list:
    """(key, row indices) per distinct key, in order of first appearance;
    the indices are ``slice(None)`` when every row has the same key, which
    one scan finds without hashing a key (``list.count`` compares by
    identity first, and a tuple compares its items so)."""
    keys = list(keys)
    if keys and keys.count(keys[0]) == len(keys):
        return [(keys[0], slice(None))]
    rows: dict = {}
    for i, key in enumerate(keys):
        rows.setdefault(key, []).append(i)
    return [(key, np.array(ix)) for key, ix in rows.items()]


def rows_vec(ops: Sequence["AggOperator"], a, b) -> np.ndarray:
    """ops[i] applied to row i of the broadcast arrays a and b, one
    vectorized call per distinct operator."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    groups = row_groups(zip(ops, [op.vec for op in ops]))
    if len(groups) == 1:
        return groups[0][0][0].vec(a, b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for (op, _), rows in groups:
        out[rows] = op.vec(a[rows], b[rows])
    return out


def rows_pow(x, e: Sequence[float]) -> np.ndarray:
    """Row i of x raised to e[i]: the one power rule.  Numpy's array power,
    one call per distinct exponent, each a Python float; its bits do not
    depend on the row's length or position.  An exponent array (numpy
    takes 0.5 and 2 by other ufuncs only for a scalar one) or a 0-d
    operand (libm's pow) can round otherwise."""
    x = np.asarray(x, dtype=float)
    groups = row_groups(map(float, e))
    if len(groups) == 1:
        return x ** groups[0][0]
    out = np.empty_like(x)
    for g, rows in groups:
        out[rows] = x[rows] ** g
    return out


def _prod_vec(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # 0 * inf is fixed below; a finite product beyond the largest double is inf
    with np.errstate(invalid="ignore", over="ignore"):
        out = a * b
    return np.where((a == 0) | (b == 0), 0.0, out)


def _dombi_vec(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a + b - a * b
    with np.errstate(invalid="ignore", divide="ignore"):
        out = a * b / d
    return np.where(d == 0, 0.0, out)


def _luk_vec(a, b):
    return np.maximum(np.asarray(a) + np.asarray(b) - 1.0, 0.0)


def _first_vec(a, b):
    return np.broadcast_arrays(np.asarray(a, dtype=float), b)[0].copy()


def min_op(domain: str = UNIT) -> AggOperator:
    return AggOperator("min", domain, np.minimum)


def prod_op(domain: str = UNIT) -> AggOperator:
    return AggOperator("prod", domain, _prod_vec)


def lukasiewicz_op() -> AggOperator:
    return AggOperator("lukasiewicz", UNIT, _luk_vec)


def dombi_op() -> AggOperator:
    return AggOperator("dombi", UNIT, _dombi_vec)


def project_first_op(domain: str = UNIT) -> AggOperator:
    return AggOperator("project_first", domain, _first_vec)


def table_op(values: Sequence[Sequence[float]], name: str = "custom") -> AggOperator:
    """Operator from a k x k lookup table over the uniform grid of [0,1]
    (nearest-node lookup)."""
    t = np.asarray(values, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 2:
        raise ValueError("table must be square with at least 2 nodes per axis")
    if not ((t >= 0) & (t <= 1)).all():  # also rejects NaN
        raise ValueError("table entries must be numbers in [0, 1]")
    return AggOperator(name, UNIT, _TableLookup(len(t), t.tobytes()))


@dataclass(frozen=True)
class _TableLookup:
    """The ``vec`` of a table operator: nearest-node lookup in a k x k
    table kept as its bytes, so that lookups in equal tables compare and
    hash equal and share the verdicts cached per ``vec``."""

    k: int
    table: bytes

    def _node(self, x):
        k = self.k
        return np.clip(np.rint(np.asarray(x, dtype=float) * (k - 1)).astype(int), 0, k - 1)

    def __call__(self, a, b):
        t = np.frombuffer(self.table).reshape(self.k, self.k)
        return t[self._node(a), self._node(b)]


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
        if not (self.p >= 1 and self.q >= 1):  # NaN fails too
            raise DomainError("exponents p, q must be >= 1")
        if not (self.r > 0 and self.s > 0):
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


def _builtin_systems() -> dict[str, OperatorSystem]:
    mn, pr, lk, db = min_op(), prod_op(), lukasiewicz_op(), dombi_op()
    pf = project_first_op()
    systems = [
        OperatorSystem("min", circ=mn, box=mn, star=mn, lhd=mn, tri=mn),
        OperatorSystem("product", circ=pr, box=pr, star=pr, lhd=pr, tri=pr),
        OperatorSystem("min_prod", circ=mn, box=pr, star=pr, lhd=pr, tri=pr),
        OperatorSystem("min_luk", circ=mn, box=lk, star=pr, lhd=lk, tri=lk),
        OperatorSystem("dombi", circ=db, box=db, star=pr, lhd=db, tri=db),
        OperatorSystem("project_first", circ=pf, box=pr, star=pr, lhd=pr, tri=mn),
    ]
    return {s.name: s for s in systems}


#: built once: the systems are immutable
_SYSTEMS = _builtin_systems()


def builtin_systems() -> list[OperatorSystem]:
    """The six named operator systems known to satisfy both conditions."""
    return list(_SYSTEMS.values())


def get_system(name: str) -> OperatorSystem:
    try:
        return _SYSTEMS[name]
    except KeyError:
        raise DomainError(f"unknown operator system {name!r}")


@dataclass
class ConditionReport:
    """Sampler verdict for a universally-quantified operator condition."""

    condition: str
    grid_resolution: int
    random_trials: int
    seed: int
    violations: list  # the first 20 of each kind found
    violation_count: int  # all of them
    holds_on_grid: bool
    note: str = ""


def _domain_grid(domain: str, resolution: int) -> np.ndarray:
    if domain == UNIT:
        return np.linspace(0.0, 1.0, resolution)
    # orders of magnitude plus the boundary cases the sup touches
    return np.concatenate(([0.0], 2.0 ** np.arange(-6, 7), [INF]))


def _draw_bounds(domain: str) -> tuple[float, float]:
    """Bounds of the uniform draw behind a random point: the point itself
    on the unit domain, its logarithm on the extended one."""
    if domain == UNIT:
        return 0.0, 1.0
    return math.log(2.0**-6), math.log(2.0**6)


def _random_points(domain: str, rng: np.random.Generator, k: int) -> np.ndarray:
    x = rng.uniform(*_draw_bounds(domain), size=k)
    return x if domain == UNIT else np.exp(x, out=x)


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
    pts = g.tolist()  # as floats
    for i, j in rows_bad[:20]:
        violations.append(((pts[i], pts[j]), (pts[i], pts[j + 1]),
                           float(vals[i, j]), float(vals[i, j + 1])))
    for i, j in cols_bad[:20]:
        violations.append(((pts[i], pts[j]), (pts[i + 1], pts[j]),
                           float(vals[i, j]), float(vals[i + 1, j])))
    # one row per trial: two points, then two steps in [0, 0.5), the draws
    # of a per-trial loop in the same order
    low, high = _draw_bounds(op.domain)
    draws = np.random.default_rng(seed).uniform(
        [low, low, 0.0, 0.0], [high, high, 0.5, 0.5], size=(random_trials, 4))
    if op.domain != UNIT:
        draws[:, :2] = np.exp(draws[:, :2])
    a, b, da, db = draws.T
    a2, b2 = a + da, b + db
    if op.domain == UNIT:  # the second point stays on the domain
        a2, b2 = np.minimum(a2, 1.0), np.minimum(b2, 1.0)
    hi = op.vec(a2, b2)
    lo = op.vec(a, b)
    random_bad = np.flatnonzero(hi < lo - COND_TOL)
    for i in random_bad[:20]:  # first 20 in draw order, at the points evaluated
        violations.append(((float(a[i]), float(b[i])), (float(a2[i]), float(b2[i])),
                           float(lo[i]), float(hi[i])))
    return ConditionReport("nondecreasing", grid_resolution, random_trials, seed, violations,
                           len(rows_bad) + len(cols_bad) + len(random_bad), not violations)


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
    found = 0
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
        found += len(bad)
        for i in bad[:20]:
            violations.append(((float(aa[i]), float(bb[i]), s),
                               float(lhs[i]), float(rhs[i])))
    note = f"s={trivial} trivially satisfied (identity)" if trivial else ""
    return ConditionReport("power", grid_resolution, random_trials, seed,
                           violations, found, not violations, note=note)


def check_chebyshev_condition(system: OperatorSystem, grid_resolution: int = 17,
                              seed: int = 0, random_trials: int = 10_000
                              ) -> ConditionReport:
    """Sample (a box b) circ (c tri d) >= (a circ c) lhd (b circ d) on a
    4-d grid plus random points, COND_BLOCK_POINTS at a time: grid point t
    (in C order) is read off t's base-G digits, so no block holds more.
    Violations are counted and the first 20 kept, in draw order (the grid,
    then the random points)."""
    g = _domain_grid(system.domain, grid_resolution)
    G = len(g)
    rng = np.random.default_rng(seed)
    ra = _random_points(system.domain, rng, 4 * random_trials).reshape(4, -1)

    def blocks():
        for t0 in range(0, G**4, COND_BLOCK_POINTS):
            t = np.arange(t0, min(t0 + COND_BLOCK_POINTS, G**4))
            yield g[t // G**3], g[t // G**2 % G], g[t // G % G], g[t % G]
        for t0 in range(0, random_trials, COND_BLOCK_POINTS):
            yield ra[:, t0:t0 + COND_BLOCK_POINTS]

    violations, count = [], 0
    for A, B, C, D in blocks():
        lhs = system.circ.vec(system.box.vec(A, B), system.tri.vec(C, D))
        rhs = system.lhd.vec(system.circ.vec(A, C), system.circ.vec(B, D))
        bad = np.flatnonzero(lhs < rhs - COND_TOL)
        count += len(bad)
        violations += [((float(A[i]), float(B[i]), float(C[i]), float(D[i])),
                        float(lhs[i]), float(rhs[i])) for i in bad[:20 - len(violations)]]
    return ConditionReport("chebyshev", grid_resolution, random_trials, seed,
                           violations, count, not violations)
