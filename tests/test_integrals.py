"""Integral evaluators against hand values, closed forms and independent
brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capax import (DomainError, GroundSpace, INF, brute_force_generalized_sugeno,
                   choquet, dombi_op, from_formula, generalized_sugeno,
                   lukasiewicz_op, make_additive, make_explicit, make_grid_lebesgue,
                   make_random_monotone, make_sup_capacity, min_op, pointwise,
                   power, prod_op, project_first_op, sample_function, shilkret,
                   sugeno, table_op)
from capax.capacity import CapacityStack, mask_bools
from capax.integrals import Values, distinct_levels, generalized_sugeno_rows, one_row
from oracles import (choquet as oracle_choquet, generalized_sugeno as oracle_gs,
                     level_sets as oracle_level_sets, measure)


def uniform3():
    return make_additive([1 / 3, 1 / 3, 1 / 3])


def f3():
    return sample_function(GroundSpace(3), [0.2, 0.6, 0.9])


def test_three_point_landmark_values():
    c, f = uniform3(), f3()
    # sup min(alpha, mu{f >= alpha}): alpha = 0.6 with mass 2/3
    assert sugeno(f, c).value == pytest.approx(0.6)
    # sup alpha * mu{f >= alpha}: 0.6 * 2/3
    assert shilkret(f, c).value == pytest.approx(0.4)
    # telescoped sum 0.2*1 + 0.4*(2/3) + 0.3*(1/3)
    assert choquet(f, c).value == pytest.approx(17 / 30)


def test_sugeno_achieving_level_reported():
    res = sugeno(f3(), uniform3())
    assert res.argmax_level == pytest.approx(0.6)
    assert res.exact


def test_choquet_additive_equals_weighted_sum():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.1, 1.0, size=6)
    c = make_additive(w)
    v = rng.uniform(size=6)
    f = sample_function(c.space, v)
    assert choquet(f, c).value == pytest.approx(float(np.dot(w, v)))


def test_choquet_on_subset_ignores_outside_points():
    c = make_additive([0.5, 0.3, 0.2])
    f = sample_function(c.space, [1.0, 2.0, 3.0])
    # A = {1, 2}: 2 * mu{1,2} + 1 * mu{2}
    assert choquet(f, c, A=0b110).value == pytest.approx(2 * 0.5 + 1 * 0.2)


def test_choquet_infinite_value_on_positive_mass():
    c = make_additive([0.5, 0.5])
    f = sample_function(c.space, [1.0, INF])
    assert choquet(f, c).value == INF


@pytest.mark.parametrize("c", [make_explicit([0.0, 1.0, 1.0, INF]), make_additive([INF, 1.0])],
                         ids=["explicit", "additive"])
def test_choquet_zero_step_on_infinite_measure_adds_nothing(c):
    # the level 0 has an infinite level set and a zero step: 0 * inf = 0
    f = sample_function(GroundSpace(2), [0.0, 0.5])
    assert choquet(f, c).value == 0.5
    assert oracle_choquet(f, c).value == 0.5


def test_sample_function_copies_its_values():
    a = np.array([0.25, 0.5])
    f = sample_function(GroundSpace(2), a)
    assert a.flags.writeable
    a[0] = 0.75
    assert f[0] == 0.25 and not f.values.flags.writeable


def test_sup_capacity_integrals_are_suprema():
    c = make_sup_capacity(GroundSpace(4))
    f = sample_function(c.space, [0.1, 0.8, 0.3, 0.5])
    assert sugeno(f, c).value == pytest.approx(0.8)
    assert shilkret(f, c).value == pytest.approx(0.8)
    assert choquet(f, c).value == pytest.approx(0.8)


def test_empty_subset_integrates_to_zero():
    c, f = uniform3(), f3()
    assert choquet(f, c, A=0).value == 0.0
    assert sugeno(f, c, A=0).value == 0.0


def test_midpoint_grid_sugeno_of_identity():
    space, cap = make_grid_lebesgue(0.0, 1.0, 1000)
    res = sugeno(from_formula(space, "x"), cap)
    assert res.value == pytest.approx(0.5, abs=5e-4)


def test_midpoint_grid_choquet_of_identity():
    space, cap = make_grid_lebesgue(0.0, 1.0, 1000)
    # midpoint rule is exact for linear integrands
    assert choquet(from_formula(space, "x"), cap).value == pytest.approx(0.5)


def _direct_sugeno_style(f, c, A, op):
    """Independent oracle: loop over candidate levels with raw mask calls,
    then the empty tail at the top of op's domain (1, or inf on the
    extended one, where an infinite value is evaluated as it stands)."""
    top = 1.0 if op.domain == "unit" else INF
    idx = [i for i in range(f.space.n) if (A >> i) & 1]
    best = op(0.0, measure(c, A))
    for alpha in sorted({f[i] for i in idx}):
        mask = 0
        for i in idx:
            if f[i] >= alpha:
                mask |= 1 << i
        lvl = min(alpha, 1.0) if op.domain == "unit" else alpha
        best = max(best, op(lvl, measure(c, mask)))
    return max(best, op(top, 0.0))


def _per_level_loop(f, c, A, op):
    """The scalar evaluation order generalized_sugeno must reproduce:
    level 0, then descending levels, then the empty tail at the top of
    op's domain, each a strict > against the running best.  Returns
    (value, level)."""
    distinct, measures, _ = oracle_level_sets(f, c, A)
    top = 1.0 if op.domain == "unit" else INF
    best, best_level = op(0.0, measure(c, A)), 0.0
    for v, m in zip(distinct, measures):
        lvl = min(v, 1.0) if op.domain == "unit" else v
        t = op(lvl, m)
        if t > best:
            best, best_level = t, float(lvl)
    if op(top, 0.0) > best:
        best, best_level = op(top, 0.0), top
    return best, best_level


def _coarse_table_op():
    # a 3-node product table: the max is often reached at several levels
    return table_op([[0.0, 0.0, 0.0], [0.0, 0.25, 0.5], [0.0, 0.5, 1.0]],
                    name="coarse")


def _lifted_table_op():
    # nondecreasing, with a o 0 = a / 2 at the nodes: the empty tail at
    # alpha = 1 gives 0.5 and wins when f and mu are small
    return table_op([[0.0, 0.0, 0.0], [0.25, 0.25, 0.5], [0.5, 0.5, 1.0]],
                    name="lifted")


OPERATORS = {
    "min": lambda rng: min_op(rng), "prod": lambda rng: prod_op(rng),
    "lukasiewicz": lambda rng: lukasiewicz_op(), "dombi": lambda rng: dombi_op(),
    "project_first": lambda rng: project_first_op(rng),
    "table": lambda rng: _coarse_table_op(),
    "lifted_table": lambda rng: _lifted_table_op(),
}


@pytest.mark.parametrize("opname, extended", [(name, False) for name in OPERATORS]
                         + [(name, True) for name in ("min", "prod", "project_first")])
def test_vectorized_sugeno_matches_oracles(opname, extended):
    op = OPERATORS[opname]("extended" if extended else "unit")
    pool = [0.0, 0.1, 0.5, 0.5, 0.9, 1.0] + ([2.5, 7.0, INF] if extended else [])
    for seed in range(40):
        rng = np.random.default_rng([seed, len(opname)])
        n = int(rng.integers(1, 7))
        if extended:
            c = make_additive(rng.uniform(0.2, 1.5, size=n) + 1.0)
        else:
            c = make_random_monotone(n, rng)
        f = sample_function(c.space, rng.choice(pool, size=n))
        A = int(rng.integers(0, 2**n))
        res = generalized_sugeno(f, c, A, op)
        assert res.value == pytest.approx(_direct_sugeno_style(f, c, A, op),
                                          rel=1e-12, abs=1e-14)
        best, level = _per_level_loop(f, c, A, op)
        assert (res.value, res.argmax_level) == (float(best), level)
        assert res.exact


def test_infinite_level_is_evaluated_at_infinity():
    c = make_additive([1.0, 1.0])
    res = shilkret(sample_function(c.space, [INF, 1.0]), c)
    assert res.value == INF  # inf times mu({f = inf}) = 1
    assert res.argmax_level == INF
    assert res.exact
    finite = shilkret(sample_function(c.space, [3.0, 1.0]), c)
    assert (finite.value, finite.argmax_level, finite.exact) == (3.0, 3.0, True)


def test_extended_operators_on_a_unit_capacity_reach_past_one():
    # alpha ranges over the operator's domain [0, inf], not over the
    # capacity's [0, 1]: an infinite level stays infinite, and a o 0 = a
    # grows without bound above max f
    c = make_additive([0.5, 0.5])
    f_inf = sample_function(c.space, [2.5, INF])
    f_fin = sample_function(c.space, [2.5, 3.0])
    for op, f in [(prod_op("extended"), f_inf), (project_first_op("extended"), f_inf),
                  (project_first_op("extended"), f_fin)]:
        res = generalized_sugeno(f, c, op=op)
        assert (res.value, res.argmax_level, res.exact) == (INF, INF, True), op.name
    # min(alpha, mu) never exceeds mu(A) = 1, first reached at alpha = 2.5
    res = generalized_sugeno(f_inf, c, op=min_op("extended"))
    assert (res.value, res.argmax_level) == (1.0, 2.5)


@pytest.mark.parametrize("opname", ["min", "prod", "lukasiewicz", "dombi"])
def test_generalized_sugeno_matches_direct_enumeration(opname):
    ops = {"min": min_op(), "prod": prod_op(), "lukasiewicz": lukasiewicz_op(),
           "dombi": dombi_op()}
    op = ops[opname]
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        c = make_random_monotone(n, rng)
        f = sample_function(c.space, rng.uniform(size=n))
        A = int(rng.integers(1, 2**n))
        res = generalized_sugeno(f, c, A, op)
        assert res.exact
        assert res.value == pytest.approx(_direct_sugeno_style(f, c, A, op),
                                          abs=1e-14)


def test_brute_force_agrees_within_reported_bound():
    rng = np.random.default_rng(42)
    c = make_random_monotone(5, rng)
    f = sample_function(c.space, rng.uniform(size=5))
    for op in (min_op(), prod_op(), lukasiewicz_op(), dombi_op()):
        exact = generalized_sugeno(f, c, op=op)
        approx = brute_force_generalized_sugeno(f, c, op=op)
        assert approx.value <= exact.value  # the grid approaches from below
        assert exact.value - approx.value <= approx.bound


def test_non_absorbing_operator_takes_its_tail_at_infinity():
    # a o b = a is maximized at the top of the domain, above every f value
    space, cap = make_grid_lebesgue(0.0, 2.0, 10)
    f = from_formula(space, "x")
    res = generalized_sugeno(f, cap, op=project_first_op("extended"))
    assert (res.value, res.argmax_level, res.exact) == (INF, INF, True)


def test_unit_operator_rejects_extended_inputs():
    space, cap = make_grid_lebesgue(0.0, 2.0, 10)  # total mass 2 > 1
    f = from_formula(space, "x")
    with pytest.raises(DomainError):
        generalized_sugeno(f, cap, op=lukasiewicz_op())


def test_sample_function_validation():
    sp = GroundSpace(2)
    with pytest.raises(DomainError):
        sample_function(sp, [0.5])  # length mismatch
    with pytest.raises(DomainError):
        sample_function(sp, [-0.1, 0.5])


@pytest.mark.parametrize("values", [
    [math.nan, 0.5],
    [0.5, math.nan],
    [math.nan, math.nan],
    [0.5, -0.0, -1e-300],
    [-INF, 0.5],
])
def test_sample_function_errors_are_unchanged(values):
    sp = GroundSpace(len(values))
    with pytest.raises(DomainError, match="^sample values must be nonnegative$"):
        sample_function(sp, values)


def test_unit_operator_reads_the_range_from_the_values():
    sp = GroundSpace(3)
    c = make_additive([0.2, 0.3, 0.5])
    luk = lukasiewicz_op()
    values_above_1 = "^operator lukasiewicz needs unit-range function values$"
    with pytest.raises(DomainError, match=values_above_1):
        generalized_sugeno(sample_function(sp, [0.2, 1.5, 0.0]), c, op=luk)
    f = sample_function(sp, [0.2, 1.0, 0.0])
    assert generalized_sugeno(f, c, op=luk) == oracle_gs(f, c, op=luk)
    # in a stack, the first failing row raises, its capacity checked first
    rows = [[0.2, 1.0, 0.0], [0.2, 1.5, 0.0], [0.5, 0.5, 0.5]]
    F = Values.build([sample_function(sp, v) for v in rows])
    A = np.ones((3, 3), dtype=bool)
    heavy = make_additive([1.0, 1.0, 1.0])
    with pytest.raises(DomainError, match=values_above_1):
        generalized_sugeno_rows(F, A, CapacityStack([c, c, heavy]), [luk] * 3)
    with pytest.raises(DomainError, match="^operator dombi needs a unit-range capacity$"):
        generalized_sugeno_rows(F, A, CapacityStack([c, heavy, c]), [luk, dombi_op(), luk])
    # padding is no value of f: inf there passes the scan
    G = Values.build([sample_function(GroundSpace(2), [0.2, 1.0]), f])
    G = G.like(np.where(G.valid, G.v, INF))
    got = generalized_sugeno_rows(G, G.valid, CapacityStack([make_additive([0.5, 0.5]), c]),
                                  [luk, luk])
    assert got.value.tolist() == [0.5, oracle_gs(f, c, op=luk).value]
    # a row whose operator is extended is not scanned
    ops = [luk, min_op("extended"), luk]
    got = generalized_sugeno_rows(F, A, CapacityStack([c] * 3), ops)
    assert got.value.tolist() == [generalized_sugeno(sample_function(sp, v), c, op=op).value
                                  for v, op in zip(rows, ops)]


def _level_sets_unique(f, c, A):
    """The level-set step the run-end rule replaced: np.unique for the levels
    and a searchsorted for their prefix lengths."""
    idx = np.flatnonzero(mask_bools(A, f.space.n))
    if len(idx) == 0:
        return np.array([]), np.array([]), idx
    vals = f.values[idx]
    order = np.argsort(-vals, kind="stable")
    chain = c.chain_measures(idx[order])
    sorted_desc = vals[order]
    distinct = -np.unique(-sorted_desc)
    counts = np.searchsorted(-sorted_desc, -distinct, side="right")
    return distinct, chain[counts], idx


LEVEL_SET_VALUES = [
    [0.3, 0.7, 0.3, 0.1, 0.7, 0.7],  # ties
    [INF, 0.2, INF, 0.0, 5.0, 0.2],  # infinite values
    [0.4, 0.4, 0.4, 0.4, 0.4, 0.4],  # all equal
    [0.0, -0.0, 0.5, -0.0, 0.0, 0.5],  # mixed signs of zero
    [-0.0, -0.0, 0.0, 0.0, -0.0, 0.0],
    [0.9, 0.1, 0.5, 0.3, 0.7, 0.2],  # all distinct
    [0.6],  # one point
]


@pytest.mark.parametrize("values", LEVEL_SET_VALUES)
def test_level_sets_match_unique_searchsorted(values):
    space = GroundSpace(len(values))
    f = sample_function(space, values)
    rng = np.random.default_rng(8)
    caps = [make_random_monotone(space.n, rng),
            make_additive(rng.uniform(0.1, 1.0, size=space.n), space)]
    masks = [space.full_mask, 0b000001, 0b100000, 0b010110, 0b101011, 0]
    for c in caps:
        for A in masks:
            (F,), (A_rows,), C = one_row([f], c, [A])
            distinct, measures, kd = distinct_levels(F, A_rows, C)
            got = (distinct[0, :kd[0]], measures[0, :kd[0]],
                   np.flatnonzero(mask_bools(A, space.n)))
            want = _level_sets_unique(f, c, A)
            # ==, not repr: np.unique's sort leaves the sign of a zero
            # level to chance
            for g, w in zip(got, want):
                assert g.tolist() == w.tolist()


def test_from_formula_and_power_and_pointwise():
    space, _ = make_grid_lebesgue(0.0, 1.0, 4)
    x = from_formula(space, "x")
    assert np.allclose(power(x, 2.0).values, x.values**2)
    assert np.allclose(pointwise(prod_op(), x, x).values, x.values**2)
    const = from_formula(space, "const:0.3")
    assert np.allclose(const.values, 0.3)
    with pytest.raises(DomainError):
        from_formula(space, "cos")


def test_a_formula_on_a_space_without_coordinates_says_so():
    # a known formula needs coordinates; it is not an unknown formula
    with pytest.raises(DomainError, match="^space has no coordinates$"):
        from_formula(GroundSpace(2), "x")
    assert from_formula(GroundSpace(2), "const:2").values.tolist() == [2.0, 2.0]
    for formula in ("cos", "const:abc"):
        with pytest.raises(DomainError, match=f"^unknown formula '{formula}'$"):
            from_formula(GroundSpace(2), formula)


def test_power_conventions_at_zero_and_infinity():
    sp = GroundSpace(3)
    f = sample_function(sp, [0.0, 2.0, INF])
    out = power(f, 0.5).values
    assert out[0] == 0.0
    assert out[1] == pytest.approx(math.sqrt(2.0))
    assert out[2] == INF


values = st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                  min_size=2, max_size=6)


@given(values, st.integers(min_value=0, max_value=10**6))
def test_integrals_monotone_in_the_integrand(vals, seed):
    rng = np.random.default_rng(seed)
    n = len(vals)
    c = make_random_monotone(n, rng)
    f = sample_function(c.space, vals)
    g = sample_function(c.space, np.minimum(np.array(vals) + 0.1, 1.0))
    for integral in (sugeno, shilkret, choquet):
        assert integral(f, c).value <= integral(g, c).value + 1e-12


@given(values, st.integers(min_value=0, max_value=10**6))
def test_sugeno_bounded_by_level_and_mass(vals, seed):
    rng = np.random.default_rng(seed)
    c = make_random_monotone(len(vals), rng)
    f = sample_function(c.space, vals)
    v = sugeno(f, c).value
    assert v <= max(vals) + 1e-12
    assert v <= c.total + 1e-12


@given(values, st.integers(min_value=0, max_value=10**6))
def test_choquet_comonotone_additive(vals, seed):
    rng = np.random.default_rng(seed)
    n = len(vals)
    c = make_random_monotone(n, rng)
    # g shares the order of f, so f and g are comonotone
    order = np.argsort(vals, kind="stable")
    g_vals = np.empty(n)
    g_vals[order] = np.sort(rng.uniform(size=n))
    f = sample_function(c.space, vals)
    g = sample_function(c.space, g_vals)
    fg = sample_function(c.space, np.array(vals) + g_vals)
    assert choquet(fg, c).value == pytest.approx(
        choquet(f, c).value + choquet(g, c).value, abs=1e-10)


def test_pointwise_needs_a_common_space():
    f = sample_function(GroundSpace(2), [0.1, 0.2])
    g = sample_function(GroundSpace(3), [0.1, 0.2, 0.3])
    with pytest.raises(DomainError, match="common space"):
        pointwise(prod_op(), f, g)


def test_small_accessors_and_guards():
    space = GroundSpace(2)
    f = sample_function(space, [0.25, 0.5])
    res = sugeno(f, make_additive([0.5, 0.5]))
    assert float(res) == res.value == 0.5
    F = Values.build([f])
    assert F.coords is None  # a space without coordinates
    with pytest.raises(DomainError, match="nonnegative"):
        F.like(np.array([[-1.0, 0.5]]))
    with pytest.raises(DomainError, match="at least two points"):
        brute_force_generalized_sugeno(f, make_additive([0.5, 0.5]), alpha_grid_size=1)
