"""Aggregation operators, operator systems and the condition samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capax import (DomainError, INF, builtin_systems, check_chebyshev_condition,
                   check_nondecreasing, check_power_condition, dombi_op,
                   get_op, get_system, lukasiewicz_op, min_op,
                   prod_op, project_first_op, table_op)
from capax.operators import OperatorSystem

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_lukasiewicz_values():
    luk = lukasiewicz_op()
    assert luk(0.7, 0.5) == pytest.approx(0.2)
    assert luk(0.3, 0.5) == 0.0
    assert luk(1.0, 1.0) == 1.0


def test_dombi_values():
    db = dombi_op()
    assert db(0.5, 0.5) == pytest.approx(1.0 / 3.0)
    assert db(0.0, 0.0) == 0.0  # continuous extension at the corner
    assert db(1.0, 0.4) == pytest.approx(0.4)


def test_product_zero_times_infinity_is_zero():
    pr = prod_op("extended")
    assert pr(0.0, INF) == 0.0
    assert pr(INF, 0.0) == 0.0
    assert pr(2.0, INF) == INF
    assert np.array_equal(pr.vec(np.array([0.0, 2.0]), np.array([INF, 3.0])),
                          np.array([0.0, 6.0]))


def test_project_first_is_not_zero_absorbing():
    pf = project_first_op()
    assert pf(0.7, 0.0) == 0.7
    assert not pf.zero_absorbing_right


def test_get_op_rejects_unknown_and_bad_domain():
    with pytest.raises(DomainError):
        get_op("nope")
    with pytest.raises(DomainError):
        get_op("lukasiewicz", "extended")


def test_table_op_lookup_and_flags():
    t = [[0.0, 0.0], [0.0, 1.0]]  # min on {0,1} nodes
    op = table_op(t)
    assert op(1.0, 1.0) == 1.0
    assert op(0.9, 0.1) == 0.0
    assert op.zero_absorbing_right
    assert not op.left_continuous


@pytest.mark.parametrize("table", [[[0.0, 0.0], [0.0, float("nan")]],
                                   [[0.0, -5.0], [0.0, 3.0]],
                                   [[0.0, 0.0], [0.0, 1.5]]])
def test_table_op_rejects_nan_and_entries_outside_the_unit_interval(table):
    with pytest.raises(ValueError):
        table_op(table)


def test_system_requires_shared_domain_and_valid_exponents():
    mn = min_op("unit")
    with pytest.raises(DomainError):
        OperatorSystem("bad", circ=mn, box=min_op("extended"), star=mn,
                       lhd=mn, tri=mn)
    with pytest.raises(DomainError):
        OperatorSystem("bad", circ=mn, box=mn, star=mn, lhd=mn, tri=mn, p=0.5)


def test_with_exponents_returns_updated_copy():
    sys = get_system("min_prod")
    sys2 = sys.with_exponents(p=3.0, r=0.5)
    assert (sys2.p, sys2.q, sys2.r, sys2.s) == (3.0, sys.q, 0.5, sys.s)
    assert sys.p == 2.0  # original untouched


def test_builtin_systems_names():
    names = [s.name for s in builtin_systems()]
    assert names == ["min", "product", "min_prod", "min_luk", "dombi",
                     "project_first"]
    with pytest.raises(DomainError):
        get_system("unknown")


def test_builtin_systems_and_operators_keep_one_identity():
    assert get_system("min_luk") is get_system("min_luk")
    systems = builtin_systems()
    systems.clear()  # a caller's list, not the table get_system reads
    assert get_system("dombi") in builtin_systems()
    for make in (min_op, prod_op, lukasiewicz_op, dombi_op, project_first_op):
        assert make().vec is make().vec


@pytest.mark.parametrize("op", [min_op(), prod_op(), lukasiewicz_op(),
                                dombi_op(), project_first_op(),
                                min_op("extended"), prod_op("extended")])
def test_builtin_operators_are_nondecreasing(op):
    rep = check_nondecreasing(op)
    assert rep.holds_on_grid, rep.violations[:3]


def test_power_condition_trivial_at_one():
    rep = check_power_condition(min_op(), [1.0])
    assert rep.holds_on_grid
    assert "trivially" in rep.note


def test_power_condition_fails_for_lukasiewicz():
    # a**s + b - 1 can drop below (a + b - 1)**s, e.g. a = b = 0.9, s = 2
    rep = check_power_condition(lukasiewicz_op(), [2.0])
    assert not rep.holds_on_grid
    (a, b, s), lhs, rhs = rep.violations[0]
    luk = lukasiewicz_op()
    assert luk(a**s, b) < luk(a, b) ** s - 1e-12


def test_chebyshev_condition_detects_violating_system():
    mn, pr = min_op(), prod_op()
    # product circ with min lhd: (ab)(cd) can fall below min(ac, bd)
    bad = OperatorSystem("bad", circ=pr, box=pr, star=pr, lhd=mn, tri=pr)
    rep = check_chebyshev_condition(bad)
    assert not rep.holds_on_grid


def test_condition_checkers_are_seed_deterministic():
    sys = get_system("dombi")
    r1 = check_chebyshev_condition(sys, seed=3)
    r2 = check_chebyshev_condition(sys, seed=3)
    assert r1.violations == r2.violations
    assert r1.holds_on_grid == r2.holds_on_grid


@given(unit, unit)
def test_unit_tnorms_bounded_by_min(a, b):
    m = min(a, b)
    for op in (prod_op(), lukasiewicz_op(), dombi_op()):
        assert op(a, b) <= m + 1e-12


@given(unit)
def test_one_is_neutral_for_tnorms(a):
    for op in (min_op(), prod_op(), lukasiewicz_op(), dombi_op()):
        assert op(a, 1.0) == pytest.approx(a)
        assert op(1.0, a) == pytest.approx(a)


# The scalar twins every operator once carried beside its vectorized
# evaluation; a scalar call must still return exactly what they returned.
def _twin_prod(a, b):
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _twin_dombi(a, b):
    d = a + b - a * b
    if d == 0.0:
        return 0.0
    return a * b / d


def _twin_lukasiewicz(a, b):
    return max(a + b - 1.0, 0.0)


def _twin_project_first(a, b):
    return a


SCALAR_TWINS = {"min": min, "prod": _twin_prod, "lukasiewicz": _twin_lukasiewicz,
                "dombi": _twin_dombi, "project_first": _twin_project_first}
EXTENDED_NAMES = ["min", "prod", "project_first"]
extended = st.floats(min_value=0.0, allow_nan=False) | st.sampled_from([0.0, INF])


@given(unit, unit)
def test_scalar_call_equals_the_old_scalar_twin(a, b):
    for name, twin in SCALAR_TWINS.items():
        assert get_op(name)(a, b) == twin(a, b), name


@given(extended, extended)
def test_extended_scalar_call_equals_the_old_scalar_twin(a, b):
    for name in EXTENDED_NAMES:
        assert get_op(name, "extended")(a, b) == SCALAR_TWINS[name](a, b), name


@pytest.mark.parametrize("name", EXTENDED_NAMES)
def test_extended_scalar_call_at_zero_and_infinity(name):
    op, twin = get_op(name, "extended"), SCALAR_TWINS[name]
    for a, b in [(0.0, INF), (INF, 0.0), (INF, INF), (INF, 2.0), (2.0, INF),
                 (0.0, 0.0)]:
        assert op(a, b) == twin(a, b), (a, b)


def _per_trial_random_part(op, seed, random_trials=2000):
    """The per-trial loop check_nondecreasing ran before it drew all its
    trials at once: the random-pair violations, in order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(random_trials):
        if op.domain == "unit":
            a, b = rng.uniform(size=2)
        else:
            a, b = np.exp(rng.uniform(math.log(2.0**-6), math.log(2.0**6), size=2))
        da, db = rng.uniform(0, 0.5, size=2)
        hi = op(min(a + da, 1.0) if op.domain == "unit" else a + da,
                min(b + db, 1.0) if op.domain == "unit" else b + db)
        lo = op(a, b)
        if hi < lo - 1e-12:
            out.append(((a, b), (a + da, b + db), lo, hi))
    return out


DECREASING = table_op([[1.0, 0.5, 0.0], [0.6, 0.4, 0.2], [0.3, 0.2, 0.1]],
                      name="decreasing")


@pytest.mark.parametrize("op", [min_op(), prod_op(), project_first_op(),
                                min_op("extended"), prod_op("extended"),
                                project_first_op("extended"), DECREASING],
                         ids=lambda op: f"{op.name}-{op.domain}")
@pytest.mark.parametrize("seed", range(4))
def test_batched_nondecreasing_matches_per_trial_loop(op, seed):
    grid_part = check_nondecreasing(op, seed=seed, random_trials=0).violations
    random_part = _per_trial_random_part(op, seed)
    if op is DECREASING:
        assert len(random_part) > 1000
    rep = check_nondecreasing(op, seed=seed)
    # each part keeps its first 20 violations, in draw order
    assert rep.violations == grid_part + random_part[:20]
    assert rep.holds_on_grid == (not rep.violations)


def test_condition_reports_count_the_violations_they_do_not_keep():
    # a decreasing table fails almost everywhere; each report keeps at most
    # 20 violations per kind but counts them all, as point-by-point loops do
    g = np.linspace(0.0, 1.0, 33)
    op = DECREASING
    rep = check_nondecreasing(op, seed=0)
    grid = sum(op(a, c) < op(a, b) - 1e-12 for a in g for b, c in zip(g, g[1:]))
    grid += sum(op(c, a) < op(b, a) - 1e-12 for a in g for b, c in zip(g, g[1:]))
    assert rep.violation_count == grid + len(_per_trial_random_part(op, 0))
    assert len(rep.violations) == 60 < rep.violation_count

    rep = check_power_condition(op, [2.0, 3.0], random_trials=0)
    assert rep.violation_count == sum(op(a**s, b) < op(a, b)**s - 1e-12
                                      for s in (2.0, 3.0) for a in g for b in g)
    assert len(rep.violations) == 40 < rep.violation_count

    g = np.linspace(0.0, 1.0, 5)
    system = OperatorSystem("decreasing_box", circ=min_op(), box=op, star=prod_op(),
                            lhd=min_op(), tri=min_op())
    rep = check_chebyshev_condition(system, grid_resolution=5, random_trials=0)
    assert rep.violation_count == sum(min(op(a, b), min(c, d)) < min(min(a, c), min(b, d)) - 1e-12
                                      for a in g for b in g for c in g for d in g)
    assert len(rep.violations) == 20 < rep.violation_count
