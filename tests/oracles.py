"""Per-scenario evaluators, kept as oracles for the row-wise kernels.

These are the one-scenario implementations the stacked kernels replaced:
the kind-switched measure of one mask, level sets from sorted run ends,
the generalized Sugeno candidate evaluation, Choquet as a plain-Python
sum taken left to right over the ascending levels (no ``np.dot``, whose
bits depend on the BLAS kernel, and no ``sum()``, which compensates on
Python 3.12), the kind-switched measures of pairwise intersections
(weighted ones as a plain-Python histogram and suffix sums, in the
kernel's order), positive dependence on the level cross product (per
scenario, and row-wise as one pass over every row's whole cross product),
the sorted comonotonicity test, the exhaustive
structural checks in one pass (every pair of the 4^n grid at once, and
monotonicity as a gather of the sets without each bit), the Chebyshev
condition sampler with every point at once, the scenario decoder one
scenario at a time (each list validated alone, then each capacity and
space by its constructor's checks, and the stack filled row by row), and
the shrink candidates of a scenario built dict by dict. The kernels must
give what these give, bit for bit.
"""

import math

import numpy as np

from capax.capacity import (Capacity, GroundSpace, InvalidCapacityError, make_grid_lebesgue,
                            make_sup_capacity, mask_bools, subset_rows)
from capax.dependence import DependenceReport, DependenceRows, _level_rows
from capax.falsifier import Scenario
from capax.integrals import IntegralResult, from_formula, sample_function
from capax.operators import (COND_TOL, ConditionReport, _domain_grid, _random_points,
                             min_op, rows_vec)
from capax.scenario import (CAPACITY_KEYS, GRID_KEYS, SPACE_KEYS, SchemaError, _int, _num,
                            _require_keys)
from capax.xreal import EXTENDED, INF, UNIT, DomainError


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
        if float(np.max(f.values, initial=0)) > 1.0:
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


def generalized_sugeno(f, c, A=None, op=None):
    if op is None:
        op = min_op(c.range)
    check_compat(f, c, op)
    if A is None:
        A = f.space.full_mask
    distinct, measures, idx = level_sets(f, c, A)
    k = len(distinct)
    # level 0, the distinct values descending, then the tail alpha = inf
    # with the empty set, each clipped to 1 on a unit domain
    alphas = np.zeros(k + 2)
    alphas[1:k + 1] = distinct
    alphas[k + 1] = INF
    level_measures = np.zeros(k + 2)
    level_measures[0] = measure(c, A)
    level_measures[1:k + 1] = measures
    x = np.minimum(alphas, 1.0) if op.domain == UNIT else alphas
    t = op.vec(x, level_measures)
    i = int(np.argmax(t))
    return IntegralResult(float(t[i]), float(x[i]))


def choquet(f, c, A=None):
    check_compat(f, c)
    if A is None:
        A = f.space.full_mask
    distinct, measures, idx = level_sets(f, c, A)
    if len(distinct) == 0:
        return IntegralResult(0.0, None)
    if math.isinf(distinct[0]) and measures[0] > 0:
        return IntegralResult(INF, INF)
    total, prev = 0.0, 0.0
    for v, m in zip(distinct[::-1].tolist(), measures[::-1].tolist()):
        # 0 * inf = 0: a zero step or a zero measure adds nothing
        total = total + (0.0 if v == prev or m == 0 else (v - prev) * m)
        prev = v
    return IntegralResult(total, None)


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


def check_chebyshev_condition(system, grid_resolution=17, seed=0, random_trials=10_000):
    """The Chebyshev condition sampler in one pass: the 4-d grid as a
    meshgrid and every random point evaluated at once."""
    g = _domain_grid(system.domain, grid_resolution)
    A, B, C, D = (x.ravel() for x in np.meshgrid(g, g, g, g, indexing="ij"))
    ra = _random_points(system.domain, np.random.default_rng(seed),
                        4 * random_trials).reshape(4, -1)
    A, B, C, D = (np.concatenate([x, r]) for x, r in zip((A, B, C, D), ra))
    lhs = system.circ.vec(system.box.vec(A, B), system.tri.vec(C, D))
    rhs = system.lhd.vec(system.circ.vec(A, C), system.circ.vec(B, D))
    bad = np.flatnonzero(lhs < rhs - COND_TOL)
    violations = [((float(A[i]), float(B[i]), float(C[i]), float(D[i])),
                   float(lhs[i]), float(rhs[i])) for i in bad[:20]]
    return ConditionReport("chebyshev", grid_resolution, random_trials, seed,
                           violations, len(bad), not violations)


def level_meet(C, RF, na, RG, nb):
    """Per row i of the stack C, entry (r, s) is the measure of {RF >= r}
    n {RG >= s} for r < na[i] and s < nb[i] (other entries unspecified),
    RF and RG being (k, N) rows of level ranks, -1 for none, in one dense
    pass: each point's weight goes into the cell of its two ranks, points
    in index order, and suffix sums along g and then f sum the weights of
    the sets, finished by the stack's rule per family."""
    if C.base is not None:
        inside = np.where(C.given, RF, -1)
        return level_meet(C.base, inside, na, RG, nb) / C.base_given[:, None, None]
    k = len(RF)
    a, b = int(max(na)), int(max(nb))
    r, x = np.nonzero((RF >= 0) & (RG >= 0))
    cells = (r * a + RF[r, x]) * b + RG[r, x]
    out = np.bincount(cells, C.W[r, x], k * a * b).reshape(k, a, b)
    rev = out[:, ::-1, ::-1]  # suffix sums in place, as prefix sums of this view
    np.cumsum(rev, axis=2, out=rev)
    np.cumsum(rev, axis=1, out=rev)
    return C._finish(C._distort(out))


def banded_level_meet(C, RF, na, RG, nb, cells=10**6):
    """``level_meet``'s layout filled from the kernel under test,
    ``CapacityStack.level_bands``: the rows side by side, tallest first,
    walked in bands of at most ``cells`` cells."""
    na, nb = np.asarray(na), np.asarray(nb)
    rows = np.argsort(-na, kind="stable")
    a, b = na[rows], nb[rows]
    off = np.cumsum(b) - b
    table = np.zeros((a[0], b.sum()))
    for c0, m in C.level_bands(RF, RG, rows, a, b, cells):
        table[:len(m), c0:c0 + m.shape[1]] = m
    out = np.zeros((len(na), na.max(), nb.max()))
    for j, i in enumerate(rows.tolist()):
        out[i, :a[j], :b[j]] = table[:a[j], off[j]:off[j] + b[j]]
    return out


def positive_dependence_rows(F, A, G, B, C, tris):
    """Row-wise positive dependence in one pass over every row's whole
    level cross product (``level_meet``), padded to the widest row: the
    first minimum in C order is each row's witness, and a cell infinite on
    both sides holds with equality."""
    (levels_a, na, RF), (levels_b, nb, RG) = (
        (levels, count, np.where(X.valid, rank + 1, -1))
        for X, (levels, count, rank) in ((F, _level_rows(F, A)), (G, _level_rows(G, B))))
    m = level_meet(C, RF, na + 1, RG, nb + 1)
    joint = m[:, 1:, 1:]
    k, a, b = joint.shape
    rhs = rows_vec(tris, m[:, 1:, :1], m[:, :1, 1:])
    with np.errstate(invalid="ignore"):
        margin = joint - rhs
    nan = np.isnan(margin)
    margin[nan & (joint == rhs)] = 0.0
    live = ((np.arange(a) < na[:, None])[:, :, None]
            & (np.arange(b) < nb[:, None])[:, None, :])
    margin = np.where(live, margin, np.inf)
    i, j = np.divmod(margin.reshape(k, -1).argmin(1), b)
    rows = np.arange(k)
    return DependenceRows(margin[rows, i, j].tolist(), list(zip(
        levels_a[rows, i].tolist(), levels_b[rows, j].tolist(),
        joint[rows, i, j].tolist(), rhs[rows, i, j].tolist())))


# ---------------------------------------------------------------------------
# the scenario decoder, one scenario at a time


def _nums(seq, where, allow_inf=False):
    """One list of numbers: a list of ints and floats as one array, else
    ``_num`` per element, which raises its error."""
    if not isinstance(seq, (list, tuple)):
        raise SchemaError(f"{where}: expected a list of numbers, got {seq!r}")
    if type(seq) is list and set(map(type, seq)) <= {int, float}:
        try:
            a = np.array(seq, dtype=float)
        except OverflowError:
            pass
        else:
            if a.min(initial=0.0) >= 0 and (allow_inf or a.max(initial=0.0) < INF):
                return a
    return [_num(v, where, allow_inf) for v in seq]


def ground_space(n, coords=None, widths=None):
    if n < 1:
        raise ValueError("a ground space needs at least one point")
    if (coords is None) != (widths is None):
        raise ValueError("coords and widths must be given together")
    if coords is not None:
        cs, ws = np.array(coords, dtype=float), np.array(widths, dtype=float)
        if cs.shape != (n,) or ws.shape != (n,):
            raise ValueError("coords/widths length must equal n")
        if not (cs >= 0).all():
            raise ValueError("coordinates must be nonnegative numbers")
        if not (np.diff(cs) > 0).all():
            raise ValueError("coordinates must be strictly increasing")
        if not (ws > 0).all():
            raise ValueError("cell widths must be positive")
    return GroundSpace(n, coords=coords, widths=widths)


def _infer_range(total):
    return UNIT if total <= 1.0 + 1e-15 else EXTENDED


def additive(weights, space):
    w = np.array(weights, dtype=float)
    if w.ndim != 1 or len(w) == 0:
        raise InvalidCapacityError("weights must be a nonempty 1-d sequence")
    if not (w >= 0).all():
        raise InvalidCapacityError("weights must be nonnegative numbers")
    if w.sum() == 0:
        raise InvalidCapacityError("all-zero weights: the whole space must have positive measure")
    if space.n != len(w):
        raise InvalidCapacityError("weight count must match the space")
    return Capacity(space=space, range=_infer_range(float(w.sum())), kind="additive",
                    weights=w)


def distorted(weights, gamma, space):
    if not (gamma > 0) or not math.isfinite(gamma):
        raise InvalidCapacityError("distortion exponent must be positive and finite")
    base = additive(weights, space)
    return Capacity(space=space, range=_infer_range(float(base.weights.sum() ** gamma)),
                    kind="distorted", weights=base.weights, gamma=gamma)


def explicit(table, space):
    t = np.array(table, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvalidCapacityError(f"a table must be a nonempty 1-d sequence, "
                                   f"got shape {t.shape}")
    n = int(round(math.log2(len(t))))
    if 2**n != len(t):
        raise InvalidCapacityError("table length must be a power of two")
    if n > 20:
        raise InvalidCapacityError("explicit tables are capped at n=20")
    if t[0] != 0.0:
        raise InvalidCapacityError("the empty set must have measure 0")
    if not t[-1] > 0.0:
        raise InvalidCapacityError("the whole space must have positive measure")
    if not (t >= 0).all():
        raise InvalidCapacityError("capacity values must be nonnegative numbers")
    if space.n != n:
        raise InvalidCapacityError("table size must match the space")
    return Capacity(space=space, range=UNIT if float(t.max()) <= 1.0 else EXTENDED,
                    kind="explicit", table=t)


def space_from_spec(spec):
    _require_keys(spec, SPACE_KEYS, "space")
    if "grid" in spec:
        g = spec["grid"]
        _require_keys(g, GRID_KEYS, "space.grid")
        try:
            return make_grid_lebesgue(_num(g["a"], "grid.a"), _num(g["b"], "grid.b"),
                                      _int(g["steps"], "grid.steps", 1))
        except (KeyError, ValueError) as e:
            raise SchemaError(f"space.grid: {e}")
    if "n" not in spec:
        raise SchemaError("space needs either n or grid")
    try:
        coords, widths = (None if spec.get(k) is None else _nums(spec[k], k)
                          for k in ("coords", "widths"))
        return ground_space(_int(spec["n"], "n", 1), coords, widths), None
    except ValueError as e:
        raise SchemaError(f"space: {e}")


def capacity_from_spec(spec, space, grid_capacity=None):
    _require_keys(spec, CAPACITY_KEYS, "capacity")
    ctype = spec.get("type")
    try:
        if ctype == "additive":
            return additive(_nums(spec["weights"], "weights"), space)
        if ctype == "distorted":
            return distorted(_nums(spec["weights"], "weights"), _num(spec["gamma"], "gamma"),
                             space)
        if ctype == "sup":
            return make_sup_capacity(space)
        if ctype == "explicit":
            return explicit(_nums(spec["table"], "table"), space)
        if ctype == "grid":
            if grid_capacity is not None:
                return grid_capacity
            if space.coords is not None:
                raise SchemaError("capacity type grid requires a grid space or a space "
                                  "of n points alone")
            return make_grid_lebesgue(0.0, 1.0, space.n)[1]
    except KeyError as e:
        raise SchemaError(f"capacity: missing {e.args[0]!r}")
    except ValueError as e:
        raise SchemaError(f"capacity: {e}")
    raise SchemaError(f"unknown capacity type {ctype!r}")


def function_from_spec(spec, space):
    if isinstance(spec, str):
        return from_formula(space, spec)
    if isinstance(spec, list):
        vals = _nums(spec, "function values", allow_inf=True)
        if len(vals) != space.n:
            raise SchemaError(f"function has {len(vals)} values for a {space.n}-point space")
        return sample_function(space, vals)
    raise SchemaError("a function must be a formula id or a value list")


def subset_from_spec(spec, space):
    if spec == "all" or spec is None:
        return space.full_mask
    if isinstance(spec, list):
        mask = 0
        for i in spec:
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < space.n:
                raise SchemaError(f"subset index {i!r} out of range")
            mask |= 1 << i
        return mask
    raise SchemaError("a subset must be \"all\" or a list of point indices")


def context_from_specs(space, capacity, functions, subsets):
    space, cap = space_from_spec(space)
    if capacity is not None:
        cap = capacity_from_spec(capacity, space, cap)
        space = cap.space  # a grid capacity's own space
    return (space, cap,
            {name: function_from_spec(spec, space) for name, spec in functions.items()},
            {name: subset_from_spec(spec, space) for name, spec in subsets.items()})


def stack_arrays(caps):
    """A stack's point weights W and value tables, filled row by row."""
    n = [c.space.n for c in caps]
    N = max(n)
    W = np.zeros((len(caps), N))
    explicit = any(c.kind == "explicit" for c in caps)
    tables = np.zeros((len(caps), 2**N if explicit else 0))
    for i, c in enumerate(caps):
        W[i, :n[i]] = (2.0 ** np.arange(n[i]) if c.kind == "explicit"
                       else 1.0 if c.kind == "sup" else c.weights)
        if c.kind == "explicit":
            tables[i, :len(c.table)] = c.table
    return W, tables


def decode(scenarios):
    """Scenarios decoded one by one and stacked: each function's Values,
    the A and B rows, the capacities and their W and tables."""
    spaces, caps, fns, masks = zip(*(
        context_from_specs(scn.space, scn.capacity, scn.functions, scn.subsets)
        for scn in scenarios))
    n = np.array([space.n for space in spaces])
    N = int(n.max())
    A = subset_rows([m.get("A", space.full_mask) for m, space in zip(masks, spaces)], n, N)
    B = subset_rows([m["B"] for m in masks], n, N) if "B" in masks[0] else A
    return ({k: values([f[k] for f in fns]) for k in fns[0]}, A, B, caps,
            stack_arrays(caps))


def values(fns):
    """(v, n, valid) of the sample functions stacked row by row."""
    n = np.array([f.space.n for f in fns])
    if len(fns) == 1:
        v = fns[0].values[None, :]
        valid = np.ones(v.shape, dtype=bool)
    else:
        valid = np.arange(n.max()) < n[:, None]
        v = np.zeros(valid.shape)
        v[valid] = np.concatenate([f.values for f in fns])
    return v, n, valid


def _snap(v):
    return round(v * 8.0) / 8.0


def shrink_candidates(scn):
    """A scenario's shrink candidates, built dict by dict: for a weighted
    capacity on a space without coordinates, the scenario without each
    point in turn (skipped if a subset loses its last point), then its
    values snapped to eighths, if that changes any."""
    n = scn.space.get("n", 0)
    if "coords" not in scn.space and scn.capacity["type"] in ("additive", "distorted") and n > 1:
        for drop in range(n):
            keep = [i for i in range(n) if i != drop]
            cap = dict(scn.capacity)
            cap["weights"] = [cap["weights"][i] for i in keep]
            fns = {k: [v[i] for i in keep] for k, v in scn.functions.items()}
            subs = {}
            for k, v in scn.subsets.items():
                subs[k] = "all" if v == "all" else [keep.index(i) for i in v if i in keep]
            if all(subs.values()):
                yield Scenario(scn.theorem, scn.seed, {"n": n - 1}, cap, fns, subs, scn.params)
    snapped = {k: [_snap(x) for x in v] for k, v in scn.functions.items()}
    if snapped != scn.functions:
        yield Scenario(scn.theorem, scn.seed, dict(scn.space), dict(scn.capacity), snapped,
                       dict(scn.subsets), scn.params)
