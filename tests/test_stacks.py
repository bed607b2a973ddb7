"""Row-wise kernels: each row of a stack gives what the row gives alone,
and what the per-scenario oracles give, bit for bit; plus the standard
properties of the integrals (Denneberg, Non-Additive Measure and
Integral, 1994)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from capax import (GroundSpace, brute_force_generalized_sugeno, builtin_systems,
                   choquet, generalized_sugeno, make_additive, make_distorted,
                   make_explicit, make_grid_lebesgue, make_random_monotone,
                   make_sup_capacity, min_op, normalize, prod_op, project_first_op,
                   sample_function, shilkret, sugeno)
from capax.capacity import CapacityStack, subset_rows
from capax.dependence import (check_positive_dependence, comonotone_rows,
                              is_comonotone, positive_dependence_rows)
from capax import inequalities as ineq
from capax.inequalities import carlson_sugeno_rows, carlson_sugeno
from capax.integrals import (Values, choquet_rows, generalized_sugeno_rows)
from capax.xreal import EXTENDED, INF, DomainError

SYSTEMS = builtin_systems()
EXT_OPS = [min_op(EXTENDED), prod_op(EXTENDED), project_first_op(EXTENDED)]
TIE_VALUES = [0.0, 0.25, 0.5, 0.75, 1.0]


def _capacities(rng, n):
    w = rng.uniform(0.1, 1.0, size=n)
    explicit = make_random_monotone(n, rng)
    return [explicit, make_additive(w / w.sum()), make_distorted(w / w.sum(), 0.6),
            make_sup_capacity(GroundSpace(n)), normalize(explicit, int(rng.integers(1, 2**n)))]


def _stack(fns, masks, caps):
    F = Values.build(fns)
    return F, subset_rows(masks, F.n, F.v.shape[1]), CapacityStack(caps)


def _oracle_cases(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        vals = rng.choice(TIE_VALUES, size=n) if rng.uniform() < 0.5 else rng.uniform(size=n)
        f = sample_function(GroundSpace(n), vals)
        g = sample_function(GroundSpace(n), rng.uniform(size=n))
        for c in _capacities(rng, n):
            yield f, g, c, int(rng.integers(0, 2**n))


@pytest.mark.parametrize("seed", range(4))
def test_one_row_kernels_match_the_per_scenario_oracles(seed):
    for f, g, c, A in _oracle_cases(seed):
        if c.range == "unit":
            for s in SYSTEMS:
                assert (repr(generalized_sugeno(f, c, A, s.circ))
                        == repr(oracles.generalized_sugeno(f, c, A, s.circ)))
                got = check_positive_dependence(f, A, g, A, c, s.tri)
                want = oracles.check_positive_dependence(f, A, g, A, c, s.tri)
                # ==, not repr: the sign of a zero level is left to the sort
                assert got == want and repr(got.slack) == repr(want.slack)
        assert repr(choquet(f, c, A)) == repr(oracles.choquet(f, c, A))
        assert repr(is_comonotone(f, g)) == repr(oracles.is_comonotone(f, g))


def _meet_families(rng):
    """Stacks of every family: mixed-width plain rows (weighted with a -0.0
    weight and gamma 1, below and above 1, sup, explicit with infinite
    entries), derived rows over them and derived rows of derived ones."""
    w = rng.uniform(0.1, 1.0, size=6)
    w[2] = -0.0
    table = make_random_monotone(4, rng).table.copy()
    table[[5, 7, 13, 15]] = INF
    plain = [make_additive(w), make_grid_lebesgue(0.0, 2.0, 3)[1],
             make_distorted(w[:5], 0.6), make_distorted(w[:4], 1.0),
             make_distorted(w, 2.5), make_sup_capacity(GroundSpace(2)),
             make_explicit(table), make_random_monotone(6, rng)]
    derived = [normalize(c, (1 << c.space.n) - 2) for c in plain]
    twice = [normalize(c, 0b0110) for c in derived]
    return plain, derived, twice


@pytest.mark.parametrize("seed", range(3))
def test_meet_equals_the_kind_switched_oracle_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for caps in _meet_families(rng):
        C = CapacityStack(caps)
        k, n = len(caps), C.n
        na, nb = rng.integers(1, 6, size=k), rng.integers(1, 5, size=k)
        points = np.arange(C.N) < n[:, None]  # padding holds no point
        RF = np.where(points, rng.integers(-1, na[:, None], size=(k, C.N)), -1)
        RG = np.where(points, rng.integers(0, nb[:, None], size=(k, C.N)), -1)
        got = C.level_meet(RF, na, RG, nb)
        for i, c in enumerate(caps):
            R = RF[i, :n[i]] >= np.arange(na[i])[:, None]
            S = RG[i, :n[i]] >= np.arange(nb[i])[:, None]
            want = oracles.measure_meet(c, R, S)
            assert got[i, :na[i], :nb[i]].tobytes() == want.tobytes(), (seed, i)


def _wide_families(rng):
    """Stacks at least 63 points wide (the per-row branch of subset_rows):
    weighted rows with a -0.0 and an infinite weight and gamma 0.6 and
    2.5, a grid, sup rows, and derived rows over them."""
    w = rng.uniform(0.1, 1.0, size=70)
    w[2] = -0.0
    plain = [make_grid_lebesgue(0.0, 1.0, 70)[1], make_additive(w),
             make_additive(np.r_[w[:4], INF]), make_distorted(w[:65], 0.6),
             make_distorted(w[:9], 2.5), make_sup_capacity(GroundSpace(64))]
    # the given sets leave out the infinite weight (point 4)
    return plain, [normalize(c, _random_mask(rng) & ~0b10000 | 1) for c in plain]


def _random_mask(rng):
    """128 random bits: the high ones fall outside every stack row."""
    return int.from_bytes(rng.bytes(16), "little")


@pytest.mark.parametrize("seed", range(3))
def test_row_wise_measure_equals_the_scalar_call_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for caps in (*_meet_families(rng), *_wide_families(rng)):
        C = CapacityStack(caps)
        full = [(1 << n) - 1 for n in C.n.tolist()]
        draws = [[_random_mask(rng) for _ in caps] for _ in range(4)]
        # random, empty, full and the -0.0 weight alone
        for masks in (*draws, [0] * len(caps), full, [0b100] * len(caps)):
            got = C.measure(subset_rows(masks, C.n, C.N))
            want = np.array([oracles.measure(c, m) for c, m in zip(caps, masks)])
            assert got.tobytes() == want.tobytes(), (seed, masks)


def test_a_tall_stack_with_a_gamma_per_row_measures_each_row_as_alone():
    rng = np.random.default_rng(11)
    k = 300
    caps = [make_distorted(rng.uniform(0.1, 1.0, size=int(rng.integers(1, 9))), 0.3 + i / 100)
            for i in range(k)]
    C = CapacityStack(caps)
    n, N = C.n.tolist(), C.N
    order = np.array([np.r_[rng.permutation(m), m:N] for m in n])
    chain = C.chain(order)
    masks = [int(rng.integers(0, 2**m)) for m in n]
    measure = C.measure(subset_rows(masks, C.n, N))
    na, nb = rng.integers(1, 6, size=k), rng.integers(1, 5, size=k)
    points = np.arange(N) < C.n[:, None]
    RF = np.where(points, rng.integers(-1, na[:, None], size=(k, N)), -1)
    RG = np.where(points, rng.integers(0, nb[:, None], size=(k, N)), -1)
    meet = C.level_meet(RF, na, RG, nb)
    for i, (c, m) in enumerate(zip(caps, n)):
        one = CapacityStack([c])
        assert (chain[i, :m + 1].tobytes()
                == one.chain(order[i:i + 1, :m])[0].tobytes()), i
        assert (measure[i:i + 1].tobytes()
                == one.measure(subset_rows(masks[i:i + 1], C.n[i:i + 1], m)).tobytes()), i
        alone = one.level_meet(RF[i:i + 1, :m], na[i:i + 1], RG[i:i + 1, :m], nb[i:i + 1])
        assert (meet[i, :na[i], :nb[i]].tobytes()
                == alone[0, :na[i], :nb[i]].tobytes()), i


def _calls_across_two_spaces():
    """Every public one-row call, with a function on 3 points and the
    capacity (or the other functions) on 4."""
    f = sample_function(GroundSpace(3), [0.2, 0.5, 0.9])
    g = sample_function(GroundSpace(4), [0.1, 0.2, 0.3, 0.4])
    c = make_additive([0.25] * 4)
    s = SYSTEMS[0]
    return {
        "generalized_sugeno": lambda: generalized_sugeno(f, c),
        "sugeno": lambda: sugeno(f, c),
        "shilkret": lambda: shilkret(f, c),
        "choquet": lambda: choquet(f, c),
        "brute_force_generalized_sugeno": lambda: brute_force_generalized_sugeno(f, c),
        "check_positive_dependence": lambda: check_positive_dependence(f, 1, g, 1, c, min_op()),
        "is_comonotone": lambda: is_comonotone(f, g),
        "jensen_sugeno": lambda: ineq.jensen_sugeno(f, c, None, min_op(), 2.0),
        "chebyshev_sugeno": lambda: ineq.chebyshev_sugeno(s, f, f, 1, 1, c),
        "carlson_sugeno": lambda: ineq.carlson_sugeno(s, f, f, f, 1, 1, c),
        "carlson_sugeno_xu": lambda: ineq.carlson_sugeno_xu(f, f, f, 1, c, 2.0, 2.0),
        "carlson_sugeno_wang": lambda: ineq.carlson_sugeno_wang(f, f, f, 1, c, 2.0, 2.0),
        "shilkret_carlson_example": lambda: ineq.shilkret_carlson_example(f, None, c),
        "jensen_choquet": lambda: ineq.jensen_choquet(f, c, None, 2.0),
        "chebyshev_choquet": lambda: ineq.chebyshev_choquet(f, f, c, None),
        "carlson_choquet_comonotone":
            lambda: ineq.carlson_choquet_comonotone(f, f, f, None, c, 2.0, 2.0, 1.0, 1.0),
        "sharpness_demo": lambda: ineq.sharpness_demo(f, g, g, None, 1.0, 1.0),
        "holder_choquet": lambda: ineq.holder_choquet(f, f, c, None, 2.0),
        "h_pq": lambda: ineq.h_pq(1.0, 1.0, f, f, None, c, 2.0),
        "carlson_choquet_submodular":
            lambda: ineq.carlson_choquet_submodular(f, f, f, None, c, 2.0),
        "carlson_choquet_subadditive":
            lambda: ineq.carlson_choquet_subadditive(f, f, f, None, c, 2.0),
    }


@pytest.mark.parametrize("name", list(_calls_across_two_spaces()))
def test_one_row_calls_reject_functions_and_capacities_on_different_spaces(name):
    with pytest.raises(DomainError, match="must share a space"):
        _calls_across_two_spaces()[name]()


def test_stacked_choquet_matches_the_left_to_right_oracle_on_padded_rows():
    rng = np.random.default_rng(16)
    fns, masks, caps = [], [], []
    for _ in range(400):
        n = int(rng.integers(1, 13))
        vals = rng.uniform(size=n)
        if rng.uniform() < 0.3:
            vals = np.round(vals * 4) / 4  # ties
        fns.append(sample_function(GroundSpace(n), vals))
        masks.append(int(rng.integers(0, 2**n)))
        caps.append(make_random_monotone(n, rng) if rng.uniform() < 0.5
                    else make_additive(rng.uniform(0.1, 1.0, size=n)))
    for _ in range(200):  # an infinite top level in A, of measure 0 half the time
        n = int(rng.integers(2, 13))
        vals = rng.uniform(size=n)
        top = rng.uniform(size=n) < 0.3
        top[0], top[-1] = True, False
        vals[top] = INF
        w = rng.uniform(0.1, 1.0, size=n)
        if rng.uniform() < 0.5:
            w[top] = 0.0
        fns.append(sample_function(GroundSpace(n), vals))
        masks.append(int(rng.integers(0, 2**n)) | 1)
        caps.append(make_additive(w))
    values, infinite = choquet_rows(*_stack(fns, masks, caps))
    assert 0 < infinite.sum() < 200
    for v, inf, f, A, c in zip(values.tolist(), infinite.tolist(), fns, masks, caps):
        one = oracles.choquet(f, c, A)
        assert (repr(v), inf) == (repr(one.value), one.argmax_level == INF)


# --- a k-row stack is its k one-row stacks ---------------------------------

def _row(draw, extended):
    """One row: f (ties, and infinite values when extended), g, a capacity
    of any plain family (weighted with gamma 1, below and above it; extended
    range when extended) and a subset."""
    n = draw(st.integers(1, 6))
    pool = TIE_VALUES + ([2.0, 7.5, INF] if extended else [])
    vals = draw(st.lists(st.one_of(st.sampled_from(pool),
                                   st.floats(0.0, 1.0, allow_nan=False)),
                         min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 3.0 if extended else 1.0
    table = make_random_monotone(n, rng).table * scale
    if extended and draw(st.booleans()):
        table[-1] = INF  # an infinite measure on the whole space
    w = rng.uniform(0.1, 1.0, size=n)
    w *= scale / w.sum()
    c = draw(st.sampled_from([make_explicit(table), make_additive(w),
                              make_grid_lebesgue(0.0, scale, n)[1],
                              make_distorted(w, 0.6), make_distorted(w, 2.5),
                              make_sup_capacity(GroundSpace(n))]))
    space = GroundSpace(n)
    return (sample_function(space, vals), sample_function(space, rng.uniform(size=n)),
            c, draw(st.integers(0, 2**n - 1)))


@st.composite
def rows(draw, extended):
    """1 to 6 rows of mixed widths; half the time every row's capacity is
    normalized over a drawn subset (a stack holds derived rows only with
    each other)."""
    batch = [_row(draw, extended) for _ in range(draw(st.integers(1, 6)))]
    givens = [draw(st.integers(1, 2**c.space.n - 1)) for _, _, c, _ in batch]
    if draw(st.booleans()) and all(0.0 < c(m) < INF for (_, _, c, _), m in zip(batch, givens)):
        batch = [(f, g, normalize(c, m), A) for (f, g, c, A), m in zip(batch, givens)]
    return batch


@given(rows(extended=True), st.data())
def test_stacked_integrals_equal_one_row_stacks(batch, data):
    fns, gs, caps, masks = zip(*batch)
    ops = [data.draw(st.sampled_from(EXT_OPS)) for _ in batch]
    F, A, C = _stack(fns, masks, caps)
    got = generalized_sugeno_rows(F, A, C, ops)
    values, infinite = choquet_rows(F, A, C)
    holds, witnesses = comonotone_rows(F, Values.build(gs))
    for i, (f, g, c, m, op) in enumerate(zip(fns, gs, caps, masks, ops)):
        assert repr(got.result(i)) == repr(generalized_sugeno(f, c, m, op))
        one = choquet(f, c, m)
        assert (repr(float(values[i])), bool(infinite[i])) == (repr(one.value),
                                                               one.argmax_level == INF)
        rep = is_comonotone(f, g)
        assert (holds[i], witnesses[i]) == (rep.holds, rep.witness)


@given(rows(extended=False), st.data())
def test_stacked_checkers_equal_one_row_stacks_under_all_six_systems(batch, data):
    fns, gs, caps, masks = zip(*batch)
    hs = [sample_function(g.space, g.values[::-1]) for g in gs]
    systems = [data.draw(st.sampled_from(SYSTEMS)).with_exponents(
        data.draw(st.sampled_from([1.0, 2.0, 3.0])), data.draw(st.sampled_from([1.0, 1.5])),
        data.draw(st.sampled_from([0.5, 1.0])), data.draw(st.sampled_from([1.0, 2.0])))
        for _ in batch]
    F, A, C = _stack(fns, masks, caps)
    G, H = Values.build(gs), Values.build(hs)
    reports = carlson_sugeno_rows(systems, F, G, H, A, A, C)
    dep = positive_dependence_rows(F, A, G, A, C, [s.tri for s in systems])
    for i, (s, f, g, h, c, m) in enumerate(zip(systems, fns, gs, hs, caps, masks)):
        assert repr(reports[i]) == repr(carlson_sugeno(s, f, g, h, m, m, c))
        one = check_positive_dependence(f, m, g, m, c, s.tri)
        assert (repr(dep.slack[i]), dep.holds[i]) == (repr(one.slack), one.holds)


# --- properties of the integrals -------------------------------------------

def _pair_of_capacities(rng, n):
    """mu <= nu setwise, both monotone: nu adds a second monotone capacity."""
    mu = make_random_monotone(n, rng)
    rho = make_random_monotone(n, rng)
    return mu, make_explicit(mu.table + float(rng.uniform(0.0, 0.5)) * rho.table)


@pytest.mark.parametrize("seed", range(3))
def test_integrals_are_monotone_in_the_capacity(seed):
    rng = np.random.default_rng([seed, 1994])
    for _ in range(50):
        n = int(rng.integers(1, 8))
        mu, nu = _pair_of_capacities(rng, n)
        f = sample_function(GroundSpace(n), rng.uniform(size=n))
        A = int(rng.integers(0, 2**n))
        for integral in (sugeno, shilkret, choquet):
            assert integral(f, mu, A).value <= integral(f, nu, A).value
        for op in (prod_op(EXTENDED), min_op(EXTENDED)):
            assert (generalized_sugeno(f, mu, A, op).value
                    <= generalized_sugeno(f, nu, A, op).value)


@pytest.mark.parametrize("seed", range(3))
def test_choquet_is_positively_homogeneous(seed):
    rng = np.random.default_rng([seed, 7])
    for _ in range(50):
        n = int(rng.integers(1, 8))
        c = make_random_monotone(n, rng)
        f = rng.uniform(size=n)
        a = float(rng.uniform(0.1, 10.0))
        A = int(rng.integers(0, 2**n))
        lhs = choquet(sample_function(c.space, a * f), c, A).value
        rhs = a * choquet(sample_function(c.space, f), c, A).value
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("k", [0.0, 0.3, 1.0])
def test_sugeno_and_shilkret_of_a_constant(k):
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        c = make_random_monotone(n, rng)
        f = sample_function(c.space, np.full(n, k))
        A = int(rng.integers(0, 2**n))
        muA = c(A)
        assert sugeno(f, c, A).value == min(k, muA)
        assert shilkret(f, c, A).value == k * muA


@pytest.mark.parametrize("op", EXT_OPS[:2], ids=lambda op: op.name)
def test_exact_evaluator_matches_brute_force_on_extended_capacities(op):
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        c = make_explicit(make_random_monotone(n, rng).table * 4.0)  # extended range
        vals = rng.uniform(0.0, 3.0, size=n)
        vals[rng.uniform(size=n) < 0.3] = INF
        f = sample_function(c.space, vals)
        A = int(rng.integers(0, 2**n))
        exact = generalized_sugeno(f, c, A, op)
        approx = brute_force_generalized_sugeno(f, c, A, op, alpha_grid_size=2000)
        assert abs(exact.value - approx.value) <= approx.bound, (exact, approx)
