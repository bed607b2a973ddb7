"""Comonotonicity detection and positive dependence."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from capax import (GroundSpace, check_positive_dependence, dependence, dombi_op,
                   from_formula, is_comonotone, lukasiewicz_op, make_additive,
                   make_distorted, make_explicit, make_grid_lebesgue, make_random_monotone,
                   make_sup_capacity, make_uniform_example, min_op, normalize, prod_op,
                   project_first_op, sample_function, table_op)
from capax.capacity import CapacityStack, subset_rows
from capax.dependence import (INCREASING_BIJECTIONS, _level_rows, level_dependence_rows,
                              level_ranks, positive_dependence_rows)
from capax.integrals import Values
from capax.operators import AggOperator
from capax.xreal import EXTENDED, DomainError


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


def test_unit_domain_operator_needs_a_unit_range_capacity():
    # the integrals refuse this pair too: Lukasiewicz of measures up to 5 means nothing
    f, g = _fn([0.2, 0.9]), _fn([0.9, 0.2])
    c = make_additive([2.0, 3.0])
    with pytest.raises(DomainError, match="^operator lukasiewicz needs a unit-range capacity$"):
        check_positive_dependence(f, 3, g, 3, c, lukasiewicz_op())
    assert check_positive_dependence(f, 3, g, 3, c, min_op(EXTENDED)).op == "min"


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


def test_posdep_on_a_2000_cell_grid_walks_in_bounded_bands(peak_of_second_call):
    # f = x, g = x^2: 2001 levels a side, whose whole cross product in one
    # pass traced 96 MB
    space, P = make_grid_lebesgue(0.0, 1.0, 2000)
    f, g = from_formula(space, "x"), from_formula(space, "x^2")
    X = space.full_mask
    rep, peak = peak_of_second_call(lambda: check_positive_dependence(f, X, g, X, P, min_op()))
    assert (rep.holds, rep.slack) == (True, 0.0)
    assert peak <= 8e6


def test_posdep_of_many_rows_and_a_wide_one_walks_in_bounded_bands(peak_of_second_call):
    # 100 Lukasiewicz-example rows and f = x, g = x^2 on a 10^4-cell grid
    # (10^8 level cells) in one stack, ranked beforehand
    rng = np.random.default_rng(3)
    rows = [make_uniform_example(*rng.choice(list(INCREASING_BIJECTIONS), 2),
                                 int(rng.integers(50, 201))) for _ in range(100)]
    space, P = make_grid_lebesgue(0.0, 1.0, 10**4)
    fs, hs, caps = map(list, zip(*rows, (from_formula(space, "x"), from_formula(space, "x^2"),
                                         P)))
    F, H = Values.build(fs), Values.build(hs)
    f, h = level_ranks(F, F.valid), level_ranks(H, H.valid)
    C, tris = CapacityStack(caps), [lukasiewicz_op()] * len(caps)
    rep, peak = peak_of_second_call(lambda: level_dependence_rows(f, h, C, tris))
    assert all(rep.holds)
    assert peak <= 8e6


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
        joint = oracles.banded_level_meet(CapacityStack([c]), RF, na, RG, nb)[0]
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


TIE_VALUES = [0.0, 0.25, 0.5, 0.75, 1.0]
#: every built-in tri on the unit range, and a table operator
UNIT_TRIS = [min_op(), prod_op(), lukasiewicz_op(), dombi_op(), project_first_op(),
             table_op(np.clip(np.add.outer(np.linspace(0, 1, 5), np.linspace(0, 1, 5)) - 0.8,
                              0.0, 1.0), "luk5")]
#: the extended ones, and one that is NaN above 1/2 (no built-in is NaN on
#: its domain): a NaN margin is the minimum, the first in C order, as
#: argmin takes it
EXT_TRIS = [min_op("extended"), prod_op("extended"), project_first_op("extended"),
            AggOperator("half_nan", "extended",
                        lambda a, b: np.where(np.asarray(b) > 0.5, np.nan, np.minimum(a, b)))]


def _band_stacks(rng):
    """(functions f and g, subsets A and B, capacities, tris) of stacks of
    every family: weighted (a -0.0 weight, gamma 1, 0.6 and 2.5), sup and
    explicit rows on the unit range, derived rows over them, and weighted
    and explicit rows with infinite measures under the extended tris, each
    family at n = 1 to 30 points; then each family's rows of n = 1 to 13 in
    one stack, shuffled, its first row twice, so that narrow and wide rows,
    and equal ones, share bands.  The functions are tie-rich or continuous, with
    infinite values on the extended rows."""
    def fn(n, extended):
        v = rng.choice(TIE_VALUES, size=n) if rng.uniform() < 0.5 else rng.uniform(size=n)
        if extended:
            v[rng.uniform(size=n) < 0.2] = np.inf
        return sample_function(GroundSpace(n), v)

    def plain(n):
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        w[1:2] = -0.0
        return [make_additive(w), make_distorted(w, 0.6), make_distorted(w, 2.5),
                make_sup_capacity(GroundSpace(n)),
                make_random_monotone(n, rng) if n <= 8 else make_additive(w)]

    def extended(n):
        table = make_random_monotone(min(n, 8), rng).table * 3.0
        table[-(len(table) // 4 or 1):] = np.inf
        return [make_additive(np.r_[rng.uniform(0.1, 1.0, size=n - 1), np.inf]),
                make_explicit(table) if n <= 8 else make_additive(np.full(n, np.inf))]

    mixed = [[], [], []]
    for n in (1, 3, 6, 8, 13, 30):
        unit = plain(n)
        derived = [normalize(c, int(rng.integers(0, 2**c.space.n)) | 1) for c in unit]
        for rows, caps, tris, ext in zip(mixed, (unit, derived, extended(n)),
                                         (UNIT_TRIS, UNIT_TRIS, EXT_TRIS), (False, False, True)):
            k = len(caps)
            fs = [fn(c.space.n, ext) for c in caps]
            gs = [fn(c.space.n, ext) for c in caps]
            masks = [[int(rng.integers(0, 2**c.space.n)) | 1 for c in caps] for _ in range(2)]
            tris = [tris[int(t)] for t in rng.integers(0, len(tris), k)]
            yield fs, gs, masks, caps, tris
            if n <= 13:  # a stack's tables span 2^n of its widest row
                rows += zip(fs, gs, *masks, caps, tris)
    for rows in mixed:
        rows = [rows[i] for i in rng.permutation(len(rows))]
        fs, gs, As, Bs, caps, tris = map(list, zip(rows[0], *rows))
        yield fs, gs, [As, Bs], caps, tris


@pytest.mark.parametrize("seed", range(4))
def test_band_walk_equals_the_one_pass_oracle_bit_for_bit(seed, monkeypatch):
    # rows wider than the band size are walked in bands of g ranks, down to
    # one rank per band; each row's slack and witness are the one pass's
    rng = np.random.default_rng([seed, 18])
    for fs, gs, (As, Bs), caps, tris in _band_stacks(rng):
        F, G, C = Values.build(fs), Values.build(gs), CapacityStack(caps)
        A, B = (subset_rows(m, F.n, F.v.shape[1]) for m in (As, Bs))
        want = oracles.positive_dependence_rows(F, A, G, B, C, tris)
        for cells in (1, 2, 3, 16, 40, 10**6):
            monkeypatch.setattr(dependence, "POSDEP_BLOCK_CELLS", cells)
            got = positive_dependence_rows(F, A, G, B, C, tris)
            assert ([repr(r) for r in zip(got.slack, got.witness)]
                    == [repr(r) for r in zip(want.slack, want.witness)]), (seed, cells)


def test_rows_of_infinite_margins_take_their_first_cell_as_witness(monkeypatch):
    # infinite joint measures against a capped rhs: every margin is +inf, in
    # a band of its own or shared, so each row's witness is its first cell
    capped = AggOperator("capped", "extended", lambda a, b: np.minimum(np.minimum(a, b), 1.0))
    caps = [make_additive([np.inf] * 3), make_additive([np.inf] * 2), make_additive([1.0, 2.0])]
    fs = [_fn([0.2, 0.5, 0.9]), _fn([0.3, 0.3]), _fn([0.1, 0.6])]
    gs = [_fn([0.4, 0.1, 0.7]), _fn([0.8, 0.2]), _fn([0.5, 0.5])]
    F, G, C = Values.build(fs), Values.build(gs), CapacityStack(caps)
    want = oracles.positive_dependence_rows(F, F.valid, G, F.valid, C, [capped] * 3)
    assert want.slack[:2] == [np.inf, np.inf]
    for cells in (1, 16, 10**6):
        monkeypatch.setattr(dependence, "POSDEP_BLOCK_CELLS", cells)
        got = positive_dependence_rows(F, F.valid, G, F.valid, C, [capped] * 3)
        assert repr((got.slack, got.witness)) == repr((want.slack, want.witness)), cells


@pytest.mark.parametrize("seed", range(3))
def test_level_bands_equal_the_dense_level_meet_bit_for_bit(seed):
    # every stack's rows side by side, tallest first, in bands of every size
    # down to two columns: whole rows, or columns of one row too wide
    rng = np.random.default_rng([seed, 1984])
    for fs, gs, (As, Bs), caps, _ in _band_stacks(rng):
        F, G, C = Values.build(fs), Values.build(gs), CapacityStack(caps)
        A, B = (subset_rows(m, F.n, F.v.shape[1]) for m in (As, Bs))
        (_, na, RF), (_, nb, RG) = _level_rows(F, A), _level_rows(G, B)
        RF, RG = np.where(F.valid, RF + 1, -1), np.where(F.valid, RG + 1, -1)
        want = oracles.level_meet(C, RF, na + 1, RG, nb + 1)
        rows = np.argsort(-na, kind="stable")
        a, b = na[rows] + 1, nb[rows] + 1
        off = np.cumsum(b) - b
        for cells in (1, 2, 3, 16, 40, 10**6):
            got = np.full((a[0], b.sum()), np.nan)
            for c0, m in C.level_bands(RF, RG, rows, a, b, cells):
                h, w = m.shape
                assert h * w <= max(cells, 2 * h) and h == a[np.searchsorted(off, c0, "right") - 1]
                got[:h, c0:c0 + w] = m
            for j, i in enumerate(rows.tolist()):
                block = got[:, off[j]:off[j] + b[j]]
                assert block[:a[j]].tobytes() == want[i, :a[j], :b[j]].tobytes(), (seed, i, cells)
                assert not np.nan_to_num(block[a[j]:]).any(), (seed, i, cells)  # 0 if held
