"""Comonotonicity detection and positive dependence."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capax import (GroundSpace, check_positive_dependence, from_formula, is_comonotone,
                   lukasiewicz_op, make_additive, make_explicit, make_grid_lebesgue,
                   make_sup_capacity, make_uniform_example, min_op, normalize, prod_op,
                   sample_function)
from capax.capacity import CapacityStack, subset_rows
from capax.dependence import INCREASING_BIJECTIONS, _level_rows, positive_dependence_rows
from capax.integrals import Values
from capax.xreal import DomainError


def _fn(vals):
    return sample_function(GroundSpace(len(vals)), vals)


def test_comonotone_basic_verdicts():
    assert is_comonotone(_fn([0.1, 0.5, 0.9]), _fn([0.2, 0.2, 0.7])).holds
    rep = is_comonotone(_fn([0.1, 0.9]), _fn([0.8, 0.2]))
    assert not rep.holds
    x, y = rep.witness
    assert {x, y} == {0, 1}


def test_constant_function_comonotone_with_anything():
    assert is_comonotone(_fn([0.4, 0.4, 0.4]), _fn([0.9, 0.1, 0.5])).holds


def _comonotone_by_definition(f, g):
    """O(n^2) oracle: no pair (x, y) with f and g strictly ordered in
    opposite directions (comparisons, so infinite values are exact)."""
    n = len(f)
    return not any((f[x] > f[y] and g[x] < g[y]) or (f[x] < f[y] and g[x] > g[y])
                   for x in range(n) for y in range(n))


def _random_pair(rng, n, comonotone):
    # few distinct values so that ties are common, plus some infinities
    pool = np.array([0.0, 0.25, 0.5, 1.0, 3.0, np.inf])
    f = rng.choice(pool, size=n)
    g = rng.choice(pool, size=n)
    if comonotone:  # give g the order of f, ties broken arbitrarily
        g = np.empty(n)
        g[np.argsort(f, kind="stable")] = np.sort(rng.choice(pool, size=n))
    return f, g


def test_comonotone_methods_agree():
    rng = np.random.default_rng(1)
    seen = set()
    for i in range(400):
        n = int(rng.integers(1, 9))
        f, g = _random_pair(rng, n, comonotone=i % 2 == 0)
        expected = _comonotone_by_definition(f, g)
        rep = is_comonotone(_fn(f), _fn(g))
        assert rep.holds == expected, (f, g)
        if not expected:
            x, y = rep.witness
            assert f[x] > f[y] and g[x] < g[y]
        seen.add((i % 2 == 0, expected))
    assert seen == {(True, True), (False, True), (False, False)}


def test_comonotone_ties_and_infinities():
    inf = np.inf
    # ties in f allow any order of g; ties in g allow any order of f
    assert is_comonotone(_fn([0.5, 0.5, 1.0]), _fn([0.9, 0.1, 0.9])).holds
    assert is_comonotone(_fn([0.1, 0.7, 0.3]), _fn([0.2, 0.2, 0.2])).holds
    assert is_comonotone(_fn([inf, inf, 1.0]), _fn([0.3, 0.9, 0.1])).holds
    assert is_comonotone(_fn([1.0, inf]), _fn([2.0, inf])).holds
    rep = is_comonotone(_fn([inf, 1.0]), _fn([0.0, 1.0]))
    assert not rep.holds and rep.witness == (0, 1)
    assert not is_comonotone(_fn([1.0, 2.0]), _fn([inf, 5.0])).holds
    # differences whose product underflows to zero still count
    assert not is_comonotone(_fn([0.0, 1e-200]), _fn([1e-200, 0.0])).holds


def test_comonotone_rejects_mismatched_spaces():
    with pytest.raises(DomainError):
        is_comonotone(_fn([0.1, 0.2]), _fn([0.1, 0.2, 0.3]))


@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                min_size=2, max_size=8),
       st.integers(min_value=0, max_value=10**6))
def test_same_order_functions_are_comonotone(vals, seed):
    rng = np.random.default_rng(seed)
    order = np.argsort(vals, kind="stable")
    g = np.empty(len(vals))
    g[order] = np.sort(rng.uniform(size=len(vals)))
    assert is_comonotone(_fn(vals), _fn(g)).holds


def test_comonotone_pair_positively_dependent_for_min():
    # comonotone pairs always satisfy the min-form of positive dependence
    c = make_additive([0.25, 0.25, 0.5])
    f = _fn([0.2, 0.5, 0.9])
    g = _fn([0.1, 0.6, 0.6])
    A = c.space.full_mask
    rep = check_positive_dependence(f, A, g, A, c, min_op())
    assert rep.holds
    assert rep.slack >= -1e-12


def test_countermonotone_pair_fails_min_dependence():
    c = make_additive([0.5, 0.5])
    f = _fn([0.1, 0.9])
    g = _fn([0.9, 0.1])
    A = c.space.full_mask
    rep = check_positive_dependence(f, A, g, A, c, min_op())
    assert not rep.holds
    a_level, b_level, joint, marg = rep.witness
    assert joint < marg


def test_positive_dependence_explicit_capacity_slow_path():
    # a table capacity measures the joint level sets by their masks
    from capax import make_random_monotone
    rng = np.random.default_rng(7)
    c = make_random_monotone(4, rng)
    f = _fn(np.sort(rng.uniform(size=4)))
    g = _fn(np.sort(rng.uniform(size=4)))
    rep = check_positive_dependence(f, c.space.full_mask, g,
                                    c.space.full_mask, c, min_op())
    assert rep.holds


def test_uniform_example_lukasiewicz_dependence_is_exact():
    # f = phi(U), h = 1 - psi(U): countermonotone, yet the joint measure
    # matches the Lukasiewicz combination of the marginals on the grid
    for phi, psi in (("identity", "identity"), ("square", "sqrt")):
        f, h, P = make_uniform_example(phi, psi, 64)
        assert not is_comonotone(f, h).holds
        X = f.space.full_mask
        rep = check_positive_dependence(f, X, h, X, P, lukasiewicz_op())
        assert rep.holds
        assert abs(rep.slack) <= 1e-12  # equality, not just dominance


def test_uniform_example_unknown_bijection():
    with pytest.raises(DomainError):
        make_uniform_example("cube", "identity", 16)
    assert set(INCREASING_BIJECTIONS) == {"identity", "square", "sqrt"}


def test_sup_capacity_dependence_for_comonotone_pair():
    # comonotone upper level sets are nested, so the joint sup-measure
    # equals the min of the marginals; a rank reversal breaks this
    c = make_sup_capacity(GroundSpace(3))
    f = _fn([0.9, 0.1, 0.5])
    assert check_positive_dependence(f, 0b111, _fn([0.7, 0.1, 0.3]),
                                     0b111, c, min_op()).holds
    assert not check_positive_dependence(f, 0b111, _fn([0.2, 0.8, 0.4]),
                                         0b111, c, min_op()).holds


def _levels(values):
    """The levels of the row-wise kernel for one row holding ``values``
    (padded with a point outside the subset when empty)."""
    n = max(len(values), 1)
    f = sample_function(GroundSpace(n), list(values) + [0.5] * (n - len(values)))
    F = Values.build([f])
    levels, count, rank = _level_rows(F, subset_rows([(1 << len(values)) - 1], F.n, n))
    # each point of the subset sits at its own level, the others at none
    assert rank[0, len(values):].tolist() == [-1] * (n - len(values))
    assert levels[0, rank[0, :len(values)]].tolist() == list(values)
    return levels[0, :count[0]]


@pytest.mark.parametrize("values", [
    [], [0.4], [0.3, 0.7, 0.3, 0.1, 0.7], [0.0, 0.5, 0.0], [-0.0, 0.2, -0.0],
    [float("inf"), 0.2, float("inf")], [0.4, 0.4, 0.4],
])
def test_positive_dependence_levels_match_unique(values):
    v = np.array(values, dtype=float)
    want = np.unique(np.concatenate(([0.0], v)))
    # ==, not repr: np.unique's sort leaves the sign of a zero to chance
    assert _levels(v).tolist() == want.tolist()


@given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, float("inf")]),
                max_size=12))
def test_positive_dependence_levels_match_unique_on_ties(values):
    v = np.array(values, dtype=float)
    assert _levels(v).tolist() == np.unique(np.concatenate(([0.0], v))).tolist()


@pytest.mark.parametrize("c", [make_additive([np.inf, 1.0]),
                               make_explicit([0.0, np.inf, 1.0, np.inf])],
                         ids=["additive", "explicit"])
def test_positive_dependence_cells_infinite_on_both_sides_hold_with_equality(c):
    f = _fn([0.5, 0.9])
    # f with itself is comonotone, so dependent for min: mu(X) is inf on both sides
    rep = check_positive_dependence(f, 0b11, f, 0b11, c, min_op("extended"))
    assert (rep.holds, rep.slack, rep.witness) == (True, 0.0, None)
    # for the product, mu(X) * mu({1}) = inf exceeds the joint measure 1
    rep = check_positive_dependence(f, 0b11, f, 0b11, c, prod_op("extended"))
    assert (rep.holds, rep.slack, rep.witness) == (False, -np.inf, (0.0, 0.9, 1.0, np.inf))


def test_positive_dependence_on_a_grid_past_1024_cells_raises_no_warning():
    # the explicit rows' bit weights 2^x overflow at 1024 points, so they
    # must not be computed for a stack that has no explicit row
    space, P = make_grid_lebesgue(0.0, 1.0, 1100)
    f, g = from_formula(space, "x"), from_formula(space, "x^2")
    rep = check_positive_dependence(f, space.full_mask, g, space.full_mask, P, min_op())
    assert (rep.holds, rep.slack) == (True, 0.0)


def _weighted_cases(rng):
    """(f, g, capacity, A, B): uniform examples on grids, and additive
    capacities with random functions and subsets."""
    for n in (7, 64, 200):
        f, h, P = make_uniform_example("square", "sqrt", n)
        yield f, h, P, f.space.full_mask, f.space.full_mask
    for _ in range(20):
        n = int(rng.integers(1, 30))
        c = make_additive(rng.uniform(0.0, 1.0, size=n) / n)
        f = sample_function(c.space, np.round(rng.uniform(size=n), 1))  # ties
        g = sample_function(c.space, np.round(rng.uniform(size=n), 1))
        yield f, g, c, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n))


@pytest.mark.parametrize("seed", range(3))
def test_weighted_posdep_agrees_with_a_matmul(seed):
    # the joint measures as a matrix product of level-set rows, which
    # sums in another order: within n * 2^-52 * sum(w) per cell, and the
    # same verdicts
    rng = np.random.default_rng(seed)
    for f, g, c, A, B in _weighted_cases(rng):
        n, w = c.space.n, c.weights
        F, G = Values.build([f]), Values.build([g])
        _, na, RF = _level_rows(F, subset_rows([A], F.n, n))
        _, nb, RG = _level_rows(G, subset_rows([B], F.n, n))
        joint = CapacityStack([c]).level_meet(RF, na, RG, nb)[0]
        R = RF[0] >= np.arange(na[0])[:, None]
        S = RG[0] >= np.arange(nb[0])[:, None]
        product = R.astype(float) @ (w[:, None] * S.T)
        assert np.abs(joint - product).max() <= n * 2.0**-52 * w.sum()
        for tri in (min_op(), prod_op(), lukasiewicz_op()):
            margin = product - tri.vec((R @ w)[:, None], (S @ w)[None, :])
            rep = check_positive_dependence(f, A, g, B, c, tri)
            assert rep.holds == (margin.min() >= -1e-12)


def _pinned_batches():
    """Stacks of uniform-example rows (g = 1 and g = h, n = 64 and 200),
    additive rows under three operators, and those rows normalized."""
    luk = lukasiewicz_op()
    uniform = []
    for phi, psi, n in [("identity", "identity", 64), ("square", "sqrt", 200)]:
        f, h, P = make_uniform_example(phi, psi, n)
        ones = sample_function(f.space, np.ones(n))
        uniform += [(f, g, P, f.space.full_mask, f.space.full_mask, luk) for g in (ones, h)]
    c = make_additive([0.1, 0.3, 0.05, 0.25, 0.2, 0.1])
    f = sample_function(c.space, [0.9, 0.2, 0.5, 0.2, 0.7, 0.4])
    g = sample_function(c.space, [0.3, 0.8, 0.6, 0.1, 0.3, 0.9])
    additive = [(f, g, c, 0b111011, 0b101111, t) for t in (min_op(), prod_op(), luk)]
    derived = [(f, g, normalize(c, 0b011110), A, B, t) for f, g, c, A, B, t in additive]
    return uniform, additive, derived


PINNED_ROWS = [
    ["(0.0, (0.0, 0.0, 1.0, 1.0))", "(0.0, (0.0, 0.0, 1.0, 1.0))",
     "(-7.771561172376096e-16, (0.00015625000000000003, 0.0, 0.9900000000000008, "
     "0.9900000000000015))",
     "(-8.881784197001252e-16, (5.625e-05, 0.006269654282410442, 0.9850000000000008, "
     "0.9850000000000017))"],
    ["(-0.30000000000000004, (0.4, 0.6, 0.1, 0.4))",
     "(-0.14000000000000004, (0.7, 0.0, 0.1, 0.24000000000000005))",
     "(-1.6653345369377348e-16, (0.4, 0.0, 0.2, 0.20000000000000018))"],
    ["(-0.25, (0.4, 0.0, 0.0, 0.25))",
     "(-0.18750000000000003, (0.4, 0.0, 0.0, 0.18750000000000003))",
     "(-5.551115123125783e-17, (0.0, 0.3, 0.37499999999999994, 0.375))"],
]


def test_posdep_rows_are_pinned_bit_for_bit():
    # sums in a fixed order with no BLAS call (and no power at gamma 1): the
    # same bits whatever the OpenBLAS kernel or numpy's CPU dispatch
    for batch, want in zip(_pinned_batches(), PINNED_ROWS):
        fs, gs, cs, As, Bs, tris = zip(*batch)
        F, G = Values.build(fs), Values.build(gs)
        A, B = (subset_rows(masks, F.n, F.v.shape[1]) for masks in (As, Bs))
        rows = positive_dependence_rows(F, A, G, B, CapacityStack(cs), tris)
        assert [repr((s, w)) for s, w in zip(rows.slack, rows.witness)] == want
