"""Inequality checkers: hypothesis verification, both-sides computation,
degenerate handling, sharpness and the no-universal-constant table."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from capax import (DomainError, GroundSpace, INF, check_chebyshev_condition,
                   check_power_condition, choquet, from_formula, get_system,
                   lukasiewicz_op, make_additive, make_distorted, make_explicit,
                   make_grid_lebesgue, make_random_monotone, make_sup_capacity, min_op,
                   normalize, power, prod_op, sample_function, table_op)
from capax import inequalities
from capax.operators import OperatorSystem
from capax.inequalities import (HpqResult, _cheb_ok, _power_ok, carlson_choquet_comonotone,
                                carlson_choquet_subadditive,
                                carlson_choquet_submodular, carlson_sugeno,
                                carlson_sugeno_wang, carlson_sugeno_xu,
                                chebyshev_choquet, chebyshev_sugeno, h_pq,
                                holder_choquet, impossibility_demo,
                                jensen_choquet, jensen_sugeno,
                                lukasiewicz_carlson_example,
                                shilkret_carlson_example, sharpness_demo)
from oracles import choquet as oracle_choquet


def _como_triple(seed, n, low=0.2):
    """Three functions sharing one point order (pairwise comonotone)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    out = []
    for _ in range(3):
        v = np.empty(n)
        v[perm] = np.sort(low + (1 - low) * rng.uniform(size=n))
        out.append(v)
    return out


def test_jensen_sugeno_holds_and_validates_exponent():
    rng = np.random.default_rng(0)
    c = make_random_monotone(4, rng)
    f = sample_function(c.space, rng.uniform(size=4))
    rep = jensen_sugeno(f, c, None, min_op(), 2.0)
    assert rep.holds and rep.hypotheses_pass
    assert rep.lhs <= rep.rhs + 1e-12
    with pytest.raises(DomainError):
        jensen_sugeno(f, c, None, min_op(), 0.5)


def test_jensen_choquet_holds_and_degenerates_on_null_set():
    c = make_additive([0.4, 0.0, 0.6])
    f = sample_function(c.space, [0.3, 0.9, 0.7])
    rep = jensen_choquet(f, c, None, 3.0)
    assert rep.holds
    rep0 = jensen_choquet(f, c, 0b010, 2.0)  # mu(A) = 0
    assert rep0.degenerate is not None
    assert not rep0.holds


def test_jensen_choquet_degenerate_row_with_an_overflowing_power():
    # the row's kernels run, and f**2 = inf raises no overflow warning
    c = make_additive([0.5, 0.0])
    f = sample_function(c.space, [1e200, 1e200])
    assert jensen_choquet(f, c, 0b10, 2.0).degenerate == "normalize needs 0 < mu(A) < inf"


def test_jensen_choquet_with_a_power_beyond_the_largest_double():
    # (int f dm)**2 = (1e200)**2 overflows: inf, not OverflowError
    c = make_additive([0.5, 0.0])
    f = sample_function(c.space, [1e200, 1e200])
    rep = jensen_choquet(f, c, 0b01, 2.0)
    assert (rep.lhs, rep.rhs, rep.holds) == (INF, INF, True)


def test_chebyshev_choquet_comonotone_holds():
    c = make_random_monotone(5, np.random.default_rng(1))
    f, g, _ = _como_triple(2, 5)
    rep = chebyshev_choquet(sample_function(c.space, f),
                            sample_function(c.space, g), c, None)
    assert rep.holds and rep.hypotheses_pass


def test_chebyshev_choquet_still_computes_when_hypothesis_fails():
    c = make_additive([0.5, 0.5])
    f = sample_function(c.space, [0.1, 0.9])
    g = sample_function(c.space, [0.9, 0.1])
    rep = chebyshev_choquet(f, g, c, None)
    assert not rep.hypotheses_pass
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
    # product of averages 0.25 vs average product 0.09: a real violation
    assert rep.lhs > rep.rhs
    assert not rep.holds


@pytest.mark.parametrize("name", ["min", "product", "min_prod", "min_luk",
                                  "dombi", "project_first"])
def test_carlson_sugeno_all_systems_on_comonotone_triples(name):
    system = get_system(name)
    c = make_random_monotone(5, np.random.default_rng(3))
    f, g, h = (sample_function(c.space, v) for v in _como_triple(4, 5))
    A = c.space.full_mask
    rep = carlson_sugeno(system, f, g, h, A, A, c)
    assert rep.hypotheses_pass, [h_.name for h_ in rep.hypotheses if not h_.passed]
    assert rep.holds


def test_chebyshev_sugeno_holds():
    c = make_random_monotone(4, np.random.default_rng(5))
    f1, f2, _ = _como_triple(6, 4)
    A = c.space.full_mask
    rep = chebyshev_sugeno(get_system("min"), sample_function(c.space, f1),
                           sample_function(c.space, f2), A, A, c)
    assert rep.holds and rep.hypotheses_pass


def test_xu_specialization_matches_general_form():
    c = make_random_monotone(4, np.random.default_rng(8))
    f, g, h = (sample_function(c.space, v) for v in _como_triple(9, 4))
    A = c.space.full_mask
    rep = carlson_sugeno_xu(f, g, h, A, c, 2.0, 2.0)
    assert rep.holds
    # the display form is the same inequality scaled by C > 0
    dl, dr = rep.extra["display_lhs"], rep.extra["display_rhs"]
    C = rep.extra["C"]
    assert dl == pytest.approx(rep.extra["If"])
    assert dl <= dr + 1e-9 * max(1.0, dr)
    # general-form lhs (If Ig)(If Ih) is the display lhs squared times C
    assert rep.lhs == pytest.approx(dl**2 * C)


def test_choquet_checkers_on_a_normalized_capacity_normalize_it_again():
    # the stack of m is derived, and normalizing it derives it again
    c = make_additive([0.5, 0.3, 0.2])
    m = normalize(c, 0b011)
    f = sample_function(c.space, [0.2, 0.5, 0.9])
    degenerate = "normalize needs 0 < mu(A) < inf"
    assert jensen_choquet(f, m, 0b100, 2.0).degenerate == degenerate  # m({2}) = 0
    assert chebyshev_choquet(f, f, m, 0b100).degenerate == degenerate
    for A in (0b001, 0b011, 0b111):
        rep = jensen_choquet(f, m, A, 2.0)
        mA = normalize(m, A)
        assert rep.degenerate is None
        assert rep.lhs == oracle_choquet(f, mA, A).value ** 2
        assert rep.rhs == oracle_choquet(power(f, 2.0), mA, A).value


def test_xu_degenerate_when_normalizer_vanishes():
    c = make_additive([0.5, 0.5])
    f = sample_function(c.space, [0.5, 0.5])
    zero = sample_function(c.space, [0.0, 0.0])
    rep = carlson_sugeno_xu(f, zero, f, c.space.full_mask, c, 2.0, 2.0)
    assert rep.degenerate is not None


def test_wang_specialization_display_form():
    c = make_random_monotone(5, np.random.default_rng(10))
    f, g, h = (sample_function(c.space, v) for v in _como_triple(11, 5))
    A = c.space.full_mask
    rep = carlson_sugeno_wang(f, g, h, A, c, 2.0, 3.0)
    assert rep.holds
    assert rep.extra["display_lhs"] <= rep.extra["display_rhs"] + 1e-9


def test_wang_with_equal_exponents_is_xu_rearranged():
    # with p = q the two specializations carry the same content: the
    # (r, s) = (1/2, 1/2) sides are the square roots of the (1, 1) sides
    c = make_random_monotone(4, np.random.default_rng(16))
    f, g, h = (sample_function(c.space, v) for v in _como_triple(17, 4))
    A = c.space.full_mask
    xu = carlson_sugeno_xu(f, g, h, A, c, 2.0, 2.0)
    wang = carlson_sugeno_wang(f, g, h, A, c, 2.0, 2.0)
    assert wang.lhs**2 == pytest.approx(xu.lhs)
    assert wang.rhs**2 == pytest.approx(xu.rhs)


def test_shilkret_example_on_grid():
    space, cap = make_grid_lebesgue(0.0, 1.0, 500)
    rep = shilkret_carlson_example(from_formula(space, "x"), None, cap)
    assert rep.holds and rep.hypotheses_pass
    assert rep.extra["K"] > 0


def test_shilkret_example_requires_nondecreasing():
    space, cap = make_grid_lebesgue(0.0, 1.0, 8)
    f = sample_function(space, np.linspace(1.0, 0.1, 8))
    with pytest.raises(DomainError):
        shilkret_carlson_example(f, None, cap)


def test_shilkret_example_degenerate_row_meets_no_domain_check():
    # K = 0 decides the row: f > 1 on a unit-range capacity is not integrated
    space = GroundSpace(2, coords=(0.0, 1.0), widths=(0.5, 0.5))
    c = make_additive([0.5, 0.5], space)
    f = sample_function(space, [0.5, 2.0])
    for A in (0b00, 0b01):  # mu(A) = 0, then N(x) = 0 on A
        assert shilkret_carlson_example(f, A, c).degenerate == "K = mu(A) N(x) = 0"
    with pytest.raises(DomainError, match="unit-range function values"):
        shilkret_carlson_example(f, 0b10, c)


def test_lukasiewicz_example_holds():
    rep = lukasiewicz_carlson_example("identity", "identity", 100, 2.0, 2.0)
    assert rep.holds and rep.hypotheses_pass
    rep2 = lukasiewicz_carlson_example("square", "sqrt", 150, 1.5, 3.0)
    assert rep2.holds


def test_carlson_choquet_comonotone_holds_with_constants():
    c = make_random_monotone(5, np.random.default_rng(12))
    f, g, h = (sample_function(c.space, v) for v in _como_triple(13, 5))
    rep = carlson_choquet_comonotone(f, g, h, None, c, 2.0, 2.0, 1.0, 1.0)
    assert rep.holds and rep.hypotheses_pass
    assert rep.extra["K"] > 0
    # d = 2 - (r/p + s/q)/(r+s) with p=q=2, r=s=1
    assert rep.extra["d"] == pytest.approx(1.5)


def test_carlson_choquet_comonotone_squared_display_variant():
    c = make_random_monotone(4, np.random.default_rng(14))
    f, _, h = (sample_function(c.space, v) for v in _como_triple(15, 4))
    one = sample_function(c.space, np.ones(4))
    rep = carlson_choquet_comonotone(f, one, h, None, c, 2.0, 2.0, 1.0, 1.0)
    assert "ouyang_lhs" in rep.extra
    assert rep.extra["ouyang_lhs"] <= rep.extra["ouyang_rhs"] + 1e-9


def test_carlson_choquet_comonotone_parameter_validation():
    c = make_additive([0.5, 0.5])
    f = sample_function(c.space, [0.5, 0.6])
    with pytest.raises(DomainError):
        carlson_choquet_comonotone(f, f, f, None, c, 0.5, 2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        carlson_choquet_comonotone(f, f, f, None, c, 2.0, 2.0, -1.0, 1.0)


def test_sharpness_equality_for_comonotone_triples():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        f, g, h = (sample_function(GroundSpace(n), v)
                   for v in _como_triple(seed + 100, n))
        r, s = rng.uniform(0.5, 2.0, size=2)
        rep = sharpness_demo(f, g, h, None, float(r), float(s))
        assert rep.hypotheses_pass
        assert abs(rep.slack) <= 1e-12


def test_sharpness_gap_without_comonotonicity():
    sp = GroundSpace(2)
    f = sample_function(sp, [0.9, 0.1])
    g = sample_function(sp, [0.1, 0.9])
    rep = sharpness_demo(f, g, g, None, 1.0, 1.0)
    assert not rep.hypotheses_pass
    assert rep.slack != 0.0


def test_holder_choquet_against_direct_computation():
    c = make_distorted([0.2, 0.3, 0.5], gamma=0.5)
    phi = sample_function(c.space, [0.4, 0.9, 0.2])
    psi = sample_function(c.space, [0.7, 0.3, 0.8])
    rep = holder_choquet(phi, psi, c, None, 2.0)
    assert rep.holds and rep.hypotheses_pass
    # recompute both sides from raw integrals
    lhs = choquet(sample_function(c.space, phi.values * psi.values), c).value
    rhs = (choquet(power(phi, 2.0), c).value ** 0.5
           * choquet(power(psi, 2.0), c).value ** 0.5)
    assert rep.lhs == pytest.approx(lhs)
    assert rep.rhs == pytest.approx(rhs)
    with pytest.raises(DomainError):
        holder_choquet(phi, psi, c, None, 1.0)


def test_holder_choquet_flags_nonsubmodular_capacity():
    c = make_distorted([0.5, 0.5], gamma=2.0)
    phi = sample_function(c.space, [0.5, 0.5])
    rep = holder_choquet(phi, phi, c, None, 2.0)
    assert not rep.hypotheses_pass


def test_h_pq_edge_cases():
    c = make_additive([0.5, 0.5])
    g = sample_function(c.space, [1.0, 1.0])
    h = sample_function(c.space, [0.5, 2.0])
    assert h_pq(0.0, 0.0, g, h, None, c, 2.0).degenerate == "a = b = 0"
    assert h_pq(INF, 1.0, g, h, None, c, 2.0).value == INF
    res = h_pq(1.0, 2.0, g, h, None, c, 2.0)
    assert res.degenerate is None
    # inner integrand (2g + h)**(1-q) with q = 2
    inner = choquet(sample_function(c.space, 1.0 / (2 * g.values + h.values)), c).value
    assert res.inner_integral == pytest.approx(inner)
    assert res.value == pytest.approx(math.sqrt(2.0) * math.sqrt(inner))
    with pytest.raises(DomainError):
        h_pq(1.0, 1.0, g, h, None, c, 1.0)
    with pytest.raises(DomainError):
        h_pq(-1.0, 1.0, g, h, None, c, 2.0)


def test_h_pq_zero_denominator_gives_infinite_inner_integral():
    c = make_additive([0.5, 0.5])
    zero = sample_function(c.space, [0.0, 0.0])
    res = h_pq(1.0, 1.0, zero, zero, None, c, 2.0)
    assert math.isinf(res.inner_integral)
    assert res.value == INF  # inf**(1/q) times 1


def test_h_pq_takes_zero_times_inf_to_zero():
    # a = 0 against h = inf (or b = 0 against g = inf) adds nothing to b g + a h
    c = make_additive([0.5, 0.5])
    g = sample_function(c.space, [0.5, 1.0])
    h = sample_function(c.space, [INF, 1.0])
    want = HpqResult(value=0.0, degenerate="ab = 0", inner_integral=0.75)
    assert h_pq(0.0, 2.0, g, h, None, c, 2.0) == want
    assert h_pq(2.0, 0.0, h, g, None, c, 2.0) == want


def test_submodular_and_subadditive_rows_take_zero_times_inf_to_zero():
    # each of these warned (an error under this suite's filterwarnings)
    c = make_additive([0.5, 0.5])
    f, g, h = (sample_function(c.space, v) for v in ([0.3, 0.6], [0.5, 1.0], [INF, 1.0]))
    rep = carlson_choquet_submodular(f, g, h, None, c, 2.0)  # b = inf
    assert rep.holds and rep.rhs == INF and "equality_condition" not in rep.extra
    # A = 0 gives a = b = 0, and f = inf on {f > 0}: (g b + h a)**q f**p = 0
    c = make_explicit([0.0, 3.0])
    f, g = sample_function(c.space, [INF]), sample_function(c.space, [0.25])
    rep = carlson_choquet_submodular(f, g, g, 0, c, 1.5)
    assert rep.degenerate == "both inner integrals are 0"
    assert rep.extra["equality_condition"] is True
    # b g + a h is so small that its power 1 - q overflows to inf
    c = make_explicit([0, 0.88672166, 0.13466976, 0.88672166, 2.6730165, 3, 2.6730165, 3])
    g = np.array([0.0027385, 0.85740428, 0.03358558])
    f, g, h = (sample_function(c.space, v) for v in ([0, 0, 4.03172191e-178], g, g[::-1]))
    for checker in (carlson_choquet_submodular, carlson_choquet_subadditive):
        rep = checker(f, g, h, 0b100, c, 1.5)
        assert rep.degenerate == "ab = 0 against infinite inner integral"
        assert rep.extra["inner_integral"] == INF


def _nan_calls():
    c = make_additive([0.5, 0.5])
    f = sample_function(c.space, [0.3, 0.6])
    nan = math.nan
    return {
        "h_pq_a": (lambda: h_pq(nan, 1.0, f, f, None, c, 2.0), "a, b >= 0"),
        "h_pq_b": (lambda: h_pq(1.0, nan, f, f, None, c, 2.0), "a, b >= 0"),
        "h_pq_p": (lambda: h_pq(1.0, 1.0, f, f, None, c, nan), "p > 1"),
        "jensen_sugeno": (lambda: jensen_sugeno(f, c, None, min_op(), nan), "s >= 1"),
        "jensen_choquet": (lambda: jensen_choquet(f, c, None, nan), "exponent >= 1"),
        "comonotone_p": (lambda: carlson_choquet_comonotone(f, f, f, None, c, nan, 2.0, 1.0,
                                                            1.0), "p,q >= 1"),
        "comonotone_r": (lambda: carlson_choquet_comonotone(f, f, f, None, c, 2.0, 2.0, nan,
                                                            1.0), "r,s > 0"),
        "holder": (lambda: holder_choquet(f, f, c, None, nan), "p > 1"),
        "submodular": (lambda: carlson_choquet_submodular(f, f, f, None, c, nan), "p > 1"),
        "subadditive": (lambda: carlson_choquet_subadditive(f, f, f, None, c, nan), "p > 1"),
        "power": (lambda: power(f, nan), "must be positive"),
        "system_p": (lambda: get_system("min").with_exponents(nan), "p, q must be >= 1"),
        "system_r": (lambda: get_system("min").with_exponents(r=nan), "r, s must be positive"),
    }


@pytest.mark.parametrize("name", list(_nan_calls()))
def test_nan_parameters_are_rejected_with_their_own_message(name):
    call, message = _nan_calls()[name]
    with pytest.raises(DomainError, match=message):
        call()


def test_carlson_choquet_submodular_classical_grid():
    # f = 1/(1+x^2), g = 1, h = x^2, p = 2 on [0, 100]; both sides near
    # the closed form pi/2 (truncation-corrected via quadrature)
    space, cap = make_grid_lebesgue(0.0, 100.0, 20_000)
    f = from_formula(space, "1/(1+x^2)")
    g = from_formula(space, "const:1")
    h = from_formula(space, "x^2")
    rep = carlson_choquet_submodular(f, g, h, None, cap, 2.0)
    assert rep.holds and rep.hypotheses_pass
    truncated, _ = quad(lambda x: 1.0 / (1.0 + x * x), 0.0, 100.0)
    assert rep.lhs == pytest.approx(truncated, rel=1e-4)
    assert abs(rep.lhs - math.pi / 2) < 0.01 * math.pi / 2
    assert 1.0 <= rep.rhs / rep.lhs <= 1.02
    # truncation perturbs the normalizing integrals by ~1%, so the strict
    # equality-condition flag is reported but not attained here
    assert rep.extra["equality_condition"] is False


def test_carlson_choquet_submodular_equality_condition_for_constants():
    c = make_additive([0.25, 0.25, 0.5])
    const = sample_function(c.space, [0.7, 0.7, 0.7])
    rep = carlson_choquet_submodular(const, const, const, None, c, 2.0)
    assert rep.holds
    assert rep.extra["equality_condition"] is True


@pytest.mark.parametrize("outside", [0.2, 0.0])
def test_carlson_choquet_submodular_equality_condition_reads_only_A(outside):
    # f = g = h = 0.7 on A = {0, 1}: the point outside A does not count
    c = make_additive([0.25, 0.25, 0.5])
    f = sample_function(c.space, [0.7, 0.7, outside])
    g = sample_function(c.space, [0.7, 0.7, 0.7])
    rep = carlson_choquet_submodular(f, g, g, 0b011, c, 2.0)
    assert rep.extra["equality_condition"] is True


def test_carlson_choquet_submodular_strict_member_off_family():
    space, cap = make_grid_lebesgue(0.0, 50.0, 5_000)
    f = from_formula(space, "1/(1+x^2)")
    fskew = sample_function(space, f.values * (1.0 + space.coord_array() / 50.0))
    g = from_formula(space, "const:1")
    h = from_formula(space, "x^2")
    rep = carlson_choquet_submodular(fskew, g, h, None, cap, 2.0)
    assert rep.holds
    assert not rep.extra["equality_condition"]
    assert rep.rhs / rep.lhs > 1.0


def test_carlson_choquet_subadditive_with_auxiliary_reports():
    coords = tuple(np.linspace(0.1, 1.0, 5))
    space = GroundSpace(5, coords=coords, widths=(0.2,) * 5)
    c = make_distorted([0.2] * 5, gamma=0.6, space=space)
    rng = np.random.default_rng(21)
    f, g, h = (sample_function(space, rng.uniform(0.1, 1.0, 5)) for _ in range(3))
    rep = carlson_choquet_subadditive(f, g, h, None, c, 2.0)
    assert rep.holds and rep.hypotheses_pass
    assert rep.extra["aux_holder_variant"]["holds"]
    assert rep.extra["aux_doubling"]["holds"]
    # the subadditive multiplier dominates the submodular one
    assert rep.extra["multiplier"] >= 2.0 ** 0.5


def test_impossibility_required_constant_is_quarter_power():
    coords = tuple(10.0 ** -k for k in reversed(range(8)))
    space = GroundSpace(8, coords=coords, widths=(1.0,) * 8)
    g = from_formula(space, "const:1")
    h = from_formula(space, "x^2")
    rows = impossibility_demo(g, h)
    by_coord = {row["coord"]: row["required_c"] for row in rows}
    assert by_coord[1e-4] == pytest.approx(100.0)
    assert by_coord[1e-6] >= 1e3 * (1 - 1e-12)
    assert by_coord[1e-7] > 1e3
    # required constant grows without bound as g h -> 0
    assert impossibility_demo(sample_function(space, np.zeros(8)), h)[0][
        "required_c"] == INF


def test_reports_are_orientation_normalized():
    # every checker reports holds exactly when lhs <= rhs (up to tolerance)
    c = make_random_monotone(4, np.random.default_rng(30))
    f, g, h = (sample_function(c.space, v) for v in _como_triple(31, 4))
    reps = [
        jensen_choquet(f, c, None, 2.0),
        chebyshev_choquet(f, g, c, None),
        carlson_choquet_comonotone(f, g, h, None, c, 2.0, 2.0, 1.0, 1.0),
    ]
    for rep in reps:
        assert rep.holds == (rep.lhs <= rep.rhs + 1e-9 * max(1.0, abs(rep.rhs)))
        assert rep.slack == pytest.approx(rep.rhs - rep.lhs)


def test_power_verdict_is_not_shared_by_operators_with_one_name():
    g = np.linspace(0.0, 1.0, 9)
    passing = table_op(np.zeros((9, 9)), name="t")
    failing = table_op(np.clip(np.add.outer(g, g), 0.0, 1.0), name="t")
    assert _power_ok(passing, 2.0).passed
    assert not check_power_condition(failing, [2.0], seed=7).holds_on_grid
    assert not _power_ok(failing, 2.0).passed
    assert _power_ok(passing, 2.0).passed


def _box_system(box_table, name="t"):
    return OperatorSystem("s", circ=min_op(), box=table_op(box_table, name=name),
                          star=prod_op(), lhd=min_op(), tri=min_op())


def test_chebyshev_verdict_is_not_shared_by_systems_with_one_name():
    passing, failing = _box_system(np.ones((5, 5))), _box_system(np.zeros((5, 5)))
    assert _cheb_ok(passing).passed
    assert not check_chebyshev_condition(failing, seed=7).holds_on_grid
    assert not _cheb_ok(failing).passed


def test_condition_details_count_every_violation():
    # a report keeps at most 20 violations per kind; the detail counts them all
    luk = lukasiewicz_op()
    rep = check_power_condition(luk, [2.0], seed=7)
    assert rep.violation_count == 721 and len(rep.violations) == 20
    assert _power_ok(luk, 2.0).detail == "721 grid violations"
    system = _box_system(np.zeros((5, 5)))
    rep = check_chebyshev_condition(system, seed=7)
    assert len(rep.violations) == 20 < rep.violation_count
    assert _cheb_ok(system).detail == f"{rep.violation_count} grid violations"


def _count_sampler_runs(monkeypatch) -> list:
    """Empty verdict caches, and the names of the samplers run from now on."""
    monkeypatch.setattr(inequalities, "_POWER_CACHE", {})
    monkeypatch.setattr(inequalities, "_CHEB_CACHE", {})
    runs = []

    def counting(sampler):
        def run(*args, **kwargs):
            runs.append(sampler.__name__)
            return sampler(*args, **kwargs)
        return run

    for name in ("check_power_condition", "check_chebyshev_condition"):
        monkeypatch.setattr(inequalities, name,
                            counting(getattr(inequalities, name)))
    return runs


def test_equal_tables_share_one_cached_verdict(monkeypatch):
    runs = _count_sampler_runs(monkeypatch)
    g = np.linspace(0.0, 1.0, 33)
    table = np.zeros((33, 33))
    first, second = table_op(table, name="a"), table_op(table.copy(), name="b")
    assert _power_ok(first, 2.0).passed
    again = _power_ok(second, 2.0)
    assert again.passed and again.name == "power_condition[b,s=2.0]"
    assert len(inequalities._POWER_CACHE) == 1
    assert _cheb_ok(_box_system(np.ones((33, 33)))).passed
    assert _cheb_ok(_box_system(np.ones((33, 33)), name="u")).passed
    assert len(inequalities._CHEB_CACHE) == 1
    assert runs == ["check_power_condition", "check_chebyshev_condition"]
    # different tables still get verdicts of their own
    assert not _power_ok(table_op(np.clip(np.add.outer(g, g), 0.0, 1.0), name="a"), 2.0).passed
    assert not _cheb_ok(_box_system(np.zeros((33, 33)))).passed
    assert len(inequalities._POWER_CACHE) == len(inequalities._CHEB_CACHE) == 2
    assert len(runs) == 4


def test_builtin_operator_verdicts_are_sampled_once(monkeypatch):
    runs = _count_sampler_runs(monkeypatch)
    # each call builds its operators afresh; they share one identity
    lukasiewicz_carlson_example("identity", "square", 60, 2.0, 2.0)
    assert "check_chebyshev_condition" in runs
    first = len(runs)
    lukasiewicz_carlson_example("sqrt", "identity", 80, 2.0, 2.0)
    assert len(runs) == first


@pytest.mark.parametrize("lhs, rhs, slack, holds", [
    (math.nan, INF, math.nan, False), (INF, math.nan, math.nan, False),
    (1.0, -INF, -INF, False), (INF, -INF, -INF, False), (INF, 1.0, -INF, False),
    (-INF, INF, INF, True), (-INF, 1.0, INF, True), (1.0, INF, INF, True),
    (INF, INF, 0.0, True), (-INF, -INF, 0.0, True)])
def test_slack_of_infinite_and_nan_sides(lhs, rhs, slack, holds):
    # a NaN side is undecided, equal infinite sides tie, and any other pair
    # is rhs - lhs, whatever the signs of its infinities
    rep = inequalities._report("t", [], lhs, rhs)
    assert (repr(rep.slack), rep.holds) == (repr(slack), holds)


def test_a_vanishing_normalizing_integral_is_a_degenerate_row():
    space = GroundSpace(3)
    c = make_additive([0.2, 0.3, 0.5])
    f, h = (sample_function(space, v) for v in ([0.2, 0.5, 0.9], [0.1, 0.4, 0.6]))
    zero = sample_function(space, [0.0, 0.0, 0.0])
    rep = carlson_sugeno_wang(f, zero, h, space.full_mask, c, 2.0, 3.0)
    assert rep.degenerate == "K = 0 (a normalizing integral vanishes)" and rep.extra["K"] == 0
    rep = carlson_choquet_comonotone(f, zero, h, space.full_mask, c, 2.0, 2.0, 1.0, 1.0)
    assert rep.degenerate.startswith("normalizing integrals int g = 0.0, int h = ")
    assert math.isnan(rep.rhs)
    rep = sharpness_demo(f, zero, h, None, 1.0, 2.0)
    assert (rep.degenerate, math.isnan(rep.rhs)) == ("sup g = 0.0, sup h = 0.6", True)


def test_demos_need_their_inputs_on_one_space():
    g = sample_function(GroundSpace(2), [0.5, 0.5])
    h = sample_function(GroundSpace(3), [0.5, 0.5, 0.5])
    with pytest.raises(DomainError, match="share a space"):
        impossibility_demo(g, h)
    with pytest.raises(DomainError, match="^space has no coordinates$"):
        shilkret_carlson_example(g, None, make_additive([0.5, 0.5]))
