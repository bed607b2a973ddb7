"""Per-scenario evaluators, kept as oracles for the row-wise kernels.

These are the one-scenario implementations the stacked kernels replaced:
the kind-switched measure of one mask, level sets from sorted run ends,
the generalized Sugeno candidate evaluation, Choquet as a plain-Python
sum taken left to right over the ascending levels (no ``np.dot``, whose
bits depend on the BLAS kernel, and no ``sum()``, which compensates on
Python 3.12), the kind-switched measures of pairwise intersections
(weighted ones as a plain-Python histogram and suffix sums, in the
kernel's order), positive dependence on the level cross product, the
sorted comonotonicity test, and the exhaustive structural checks in one
pass (every pair of the 4^n grid at once, and monotonicity as a gather
of the sets without each bit). The kernels must give what these give,
bit for bit.
"""

import math

import numpy as np

from capax.capacity import mask_bools
from capax.dependence import DependenceReport
from capax.integrals import IntegralResult
from capax.operators import min_op
from capax.xreal import DEFAULT_CAP, INF, UNIT, DomainError, sup_of


def measure(c, mask):
    """Measure of the subset ``mask``, per capacity kind: weighted ones add
    the selected weights left to right and raise the sum to gamma by the
    one power rule, ``rows_pow``'s: numpy's array power on a one-element
    array."""
    mask &= c.space.full_mask
    k = c.kind
    if k == "sup":
        return 0.0 if mask == 0 else 1.0
    if k == "explicit":
        return float(c.table[mask])
    if k == "derived":
        return measure(c.base, mask & c.given) / measure(c.base, c.given)
    sel = c.weights[mask_bools(mask, c.space.n)]
    # left to right, as a point-by-point sum adds (np.sum is pairwise)
    t = float(np.add.accumulate(sel)[-1]) if sel.size else 0.0
    return t if c.gamma == 1.0 else float((np.array([t]) ** c.gamma)[0])


def chain_measures(c, order):
    """Measures of the nested prefixes of ``order``, per capacity kind."""
    order = np.asarray(order, dtype=int)
    k = c.kind
    if k in ("additive", "grid"):
        return np.concatenate(([0.0], np.cumsum(c.weights[order])))
    if k == "distorted":
        return np.concatenate(([0.0], np.cumsum(c.weights[order]) ** c.gamma))
    if k == "sup":
        out = np.ones(len(order) + 1)
        out[0] = 0.0
        return out
    if k == "explicit":
        return np.concatenate(([0.0], c.table[np.cumsum(1 << order)]))
    inside = mask_bools(c.given, c.space.n)[order]
    chain = chain_measures(c.base, order[inside])
    return chain[np.concatenate(([0], np.cumsum(inside)))] / measure(c.base, c.given)


def measure_meet(c, R, S):
    """Measures of the pairwise intersections of two stacks of subsets
    given as boolean rows: entry (i, j) is mu(R[i] n S[j]).  Weighted
    capacities need nested stacks (R[i + 1] inside R[i], S likewise),
    as upper level sets are."""
    k = c.kind
    if c.weights is not None:
        return _weighted_meet(c, R, S)
    if k == "sup":
        return (R.astype(float) @ S.T.astype(float) > 0).astype(float)
    if k == "explicit":  # n <= 20, so table indices fit in int64
        bits = R.astype(np.int64) << np.arange(c.space.n)
        return c.table[bits @ S.T.astype(np.int64)]
    given = mask_bools(c.given, c.space.n)
    return measure_meet(c.base, R & given, S) / measure(c.base, c.given)


def _weighted_meet(c, R, S):
    """The weights summed over the cells of the two nesting depths, point
    by point in index order, then suffix sums along S and then along R."""
    assert (R[1:] <= R[:-1]).all() and (S[1:] <= S[:-1]).all()
    a, b = len(R), len(S)
    depth_r, depth_s = R.sum(0).tolist(), S.sum(0).tolist()
    cells = [[0.0] * b for _ in range(a)]
    for x, w in enumerate(c.weights.tolist()):
        if depth_r[x] and depth_s[x]:
            cells[depth_r[x] - 1][depth_s[x] - 1] += w
    for row in cells:
        for j in reversed(range(b - 1)):
            row[j] += row[j + 1]
    for i in reversed(range(a - 1)):
        for j in range(b):
            cells[i][j] += cells[i + 1][j]
    out = np.array(cells).reshape(a, b)
    return out if c.gamma == 1.0 else out**c.gamma


def check_compat(f, c, op=None):
    if f.space.n != c.space.n:
        raise DomainError("function and capacity live on different spaces")
    if op is not None and op.domain == UNIT:
        if c.range != UNIT:
            raise DomainError(f"operator {op.name} needs a unit-range capacity")
        if f.range != UNIT and float(np.max(f.values, initial=0)) > 1.0:
            raise DomainError(f"operator {op.name} needs unit-range function values")


def level_sets(f, c, A):
    """Distinct values of f on A in descending order with the measures of
    their level sets mu(A n {f >= v})."""
    idx = mask_bools(A, f.space.n).nonzero()[0]
    if len(idx) == 0:
        return np.array([]), np.array([]), idx
    vals = f.values[idx]
    order = np.argsort(-vals, kind="stable")
    chain = chain_measures(c, idx[order])
    sorted_desc = vals[order]
    run_end = np.concatenate((sorted_desc[1:] != sorted_desc[:-1], [True]))
    ends = run_end.nonzero()[0]
    return sorted_desc[ends], chain[ends + 1], idx


def generalized_sugeno(f, c, A=None, op=None, cap=DEFAULT_CAP):
    if op is None:
        op = min_op(c.range)
    check_compat(f, c, op)
    if A is None:
        A = f.space.full_mask
    distinct, measures, idx = level_sets(f, c, A)
    k = len(distinct)
    top = sup_of(c.range, cap)
    tail = not op.zero_absorbing_right
    alphas = np.zeros(k + 1 + tail)
    alphas[1:k + 1] = distinct
    alphas[k + 1:] = top
    level_measures = np.zeros(k + 1 + tail)
    level_measures[0] = measure(c, A)
    level_measures[1:k + 1] = measures
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
                          cap_hit=(capped or tail_won) and c.range != UNIT)


def choquet(f, c, A=None):
    check_compat(f, c)
    if A is None:
        A = f.space.full_mask
    distinct, measures, idx = level_sets(f, c, A)
    if len(distinct) == 0:
        return IntegralResult(0.0, None, True)
    if math.isinf(distinct[0]) and measures[0] > 0:
        return IntegralResult(INF, INF, True)
    total, prev = 0.0, 0.0
    for v, m in zip(distinct[::-1].tolist(), measures[::-1].tolist()):
        # 0 * inf = 0: a zero step or a zero measure adds nothing
        total = total + (0.0 if v == prev or m == 0 else (v - prev) * m)
        prev = v
    return IntegralResult(total, None, True)


def is_comonotone(f, g):
    order = np.lexsort((g.values, f.values))
    gs = g.values[order]
    drops = np.flatnonzero(gs[1:] < gs[:-1])
    w = None if len(drops) == 0 else (int(order[drops[0] + 1]), int(order[drops[0]]))
    return DependenceReport("comonotone", holds=w is None, witness=w)


def levels(values):
    """Ascending distinct values of ``values`` together with 0."""
    v = np.concatenate(([0.0], values))
    v.sort()
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def check_positive_dependence(f, A, g, B, c, tri, tol=1e-12):
    n = c.space.n
    selA = mask_bools(A, n)
    selB = mask_bools(B, n)
    levels_a = levels(f.values[selA])
    levels_b = levels(g.values[selB])
    # the level sets after the whole space: the marginals are the first
    # column and row of their meets
    everything = np.ones((1, n), dtype=bool)
    FA = np.vstack((everything, (f.values >= levels_a[:, None]) & selA))
    GB = np.vstack((everything, (g.values >= levels_b[:, None]) & selB))
    meets = measure_meet(c, FA, GB)
    joint_w = meets[1:, 1:]
    rhs = tri.vec(meets[1:, :1], meets[:1, 1:])
    with np.errstate(invalid="ignore"):  # both sides infinite: equality
        margin = np.where(joint_w == rhs, 0.0, joint_w - rhs)
    i, j = np.unravel_index(np.argmin(margin), margin.shape)
    worst = float(margin[i, j])
    holds = worst >= -tol
    witness = None if holds else (float(levels_a[i]), float(levels_b[j]),
                                  float(joint_w[i, j]), float(rhs[i, j]))
    return DependenceReport("positively_dependent", holds=holds,
                            witness=witness, op=tri.name, slack=worst)


def _worst_pair(prop, value, a, b):
    """Smallest margin over the pairs of the broadcast arrays a and b
    (the first in C order among equals, NaN skipped) and, if it is below
    -1e-12, its pair."""
    with np.errstate(invalid="ignore"):
        va, vb = value(a), value(b)
        if prop == "monotone":
            margins = vb - va
        elif prop == "subadditive":
            margins = va + vb - value(a | b)
        else:
            margins = va + vb - value(a & b) - value(a | b)
            if prop == "modular":
                margins = 1e-12 - np.abs(margins)
    if margins.size == 0:
        return math.inf, None
    j = int(np.argmin(margins))
    if np.isnan(margins.flat[j]):  # argmin stops at the first NaN
        margins[np.isnan(margins)] = math.inf
        j = int(np.argmin(margins))
    slack = float(margins.flat[j])
    if slack >= -1e-12:
        return slack, None
    a, b = np.broadcast_arrays(a, b)
    return slack, (int(a.flat[j]), int(b.flat[j]))


def check_property(prop, c):
    """(holds, slack, witness) of the exhaustive check of ``prop``: every
    (set, set with bit i) pair bit by bit, or all 4^n pairs at once."""
    value = c.values().__getitem__
    masks = np.arange(2**c.space.n)
    if prop == "monotone":
        slack, witness = math.inf, None
        for i in range(c.space.n):
            a = masks[(masks >> i) & 1 == 0]
            m, w = _worst_pair(prop, value, a, a | (1 << i))
            if m < slack:
                slack, witness = m, w
    else:
        slack, witness = _worst_pair(prop, value, masks[:, None], masks[None, :])
    return witness is None, slack, witness
