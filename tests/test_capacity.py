"""Capacity builders, bitmask helpers and structural property checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capax import (GroundSpace, InvalidCapacityError, check_modular,
                   check_monotone, check_subadditive, check_submodular,
                   indices_mask, make_additive, make_distorted, make_explicit,
                   make_grid_lebesgue, make_random_monotone, make_sup_capacity,
                   mask_indices, normalize)
from capax.capacity import mask_bools
from capax.xreal import DegenerateInputError, DomainError


def test_mask_helpers_roundtrip():
    assert mask_indices(0b1011) == [0, 1, 3]
    assert indices_mask([0, 1, 3]) == 0b1011
    assert mask_indices(0) == []
    assert indices_mask([]) == 0


def _bit_walk(mask, n):
    """Set bits below n, read off the binary digits (linear in n)."""
    return [i for i, d in enumerate(bin(mask)[:1:-1][:n]) if d == "1"]


@pytest.mark.parametrize("mask, n", [
    (0, 0), (0, 5), (1, 1), (0b10110101, 8), (0b110110101, 9),
    (1 << 999, 1000), ((1 << 999) | 1, 1000),
    (int.from_bytes(np.random.default_rng(4).bytes(12_500), "little"), 100_000),
], ids=["empty", "empty5", "one", "8bits", "9bits", "high", "high_low", "1e5bits"])
def test_mask_helpers_match_bit_walk(mask, n):
    expected = _bit_walk(mask, n)
    sel = mask_bools(mask, n)
    assert sel.dtype == bool and sel.shape == (n,)
    assert np.flatnonzero(sel).tolist() == expected
    assert mask_indices(mask) == expected
    assert indices_mask(expected) == mask


def test_mask_bools_ignores_bits_beyond_the_space():
    assert mask_bools(0b111111111, 3).tolist() == [True, True, True]
    assert mask_bools((1 << 20) | 0b101, 10).tolist() == [True, False, True] + [False] * 7


def _capacity_of_each_kind(rng):
    n = 5
    w = rng.uniform(0.1, 1.0, size=n)
    _, grid = make_grid_lebesgue(0.0, 2.0, n)
    explicit = make_random_monotone(n, rng)
    return {
        "additive": make_additive(w),
        "grid": grid,
        "distorted": make_distorted(w, gamma=0.6),
        "sup": make_sup_capacity(GroundSpace(n)),
        "explicit": explicit,
        "derived": normalize(explicit, 0b01101),
        "derived_additive": normalize(make_additive(w), 0b10110),
    }


@pytest.mark.parametrize("kind", ["additive", "grid", "distorted", "sup",
                                  "explicit", "derived", "derived_additive"])
def test_measure_meet_matches_per_subset_calls(kind):
    rng = np.random.default_rng(9)
    c = _capacity_of_each_kind(rng)[kind]
    n = c.space.n
    R = rng.uniform(size=(6, n)) < 0.5
    S = rng.uniform(size=(4, n)) < 0.5
    R[0] = False
    S[1] = True
    meet = c.measure_meet(R, S)
    assert meet.shape == (6, 4)
    for i in range(6):
        for j in range(4):
            assert meet[i, j] == pytest.approx(
                c(indices_mask(np.flatnonzero(R[i] & S[j]))), abs=1e-15)
    for row in R:
        assert c.measure_bools(row) == pytest.approx(
            c(indices_mask(np.flatnonzero(row))), abs=1e-15)


def test_weighted_call_sums_left_to_right():
    # np.sum adds pairwise; a measure must equal the point-by-point sum.
    # Added one at a time, each 2**-53 rounds away against the leading 1.0.
    w = np.array([1.0] + [2.0**-53] * 15 + list(np.random.default_rng(2).uniform(size=24)))
    c = make_additive(w)
    d = make_distorted(w, gamma=0.7)
    assert c((1 << 16) - 1) == 1.0
    for mask in (0, 1, (1 << 16) - 1, (1 << 40) - 1, 0xF0F0F0F0F0, 1 << 39 | 1 << 3):
        t = 0.0
        for i in _bit_walk(mask, 40):
            t += float(w[i])
        assert c(mask) == t
        assert d(mask) == t**0.7


def test_additive_measures_sum_of_weights():
    c = make_additive([0.1, 0.2, 0.3])
    assert c(0) == 0.0
    assert c(0b111) == pytest.approx(0.6)
    assert c(0b101) == pytest.approx(0.4)


def test_constructors_reject_nan():
    nan = float("nan")
    with pytest.raises(InvalidCapacityError):
        make_additive([0.5, nan])
    with pytest.raises(InvalidCapacityError):
        make_distorted([nan, 0.5], gamma=0.5)
    with pytest.raises(InvalidCapacityError):
        make_explicit([0.0, nan, 0.5, 1.0])
    with pytest.raises(ValueError):
        GroundSpace(2, coords=(0.1, nan), widths=(0.5, 0.5))
    with pytest.raises(ValueError):
        GroundSpace(2, coords=(nan, 0.2), widths=(0.5, 0.5))
    with pytest.raises(ValueError):
        GroundSpace(2, coords=(0.1, 0.2), widths=(0.5, nan))


def test_ground_space_coordinate_checks():
    GroundSpace(3, coords=(0.0, 0.5, 2.0), widths=(1.0, 1.0, 1.0))
    for coords, widths in [((-0.1, 0.5), (1.0, 1.0)), ((0.5, 0.5), (1.0, 1.0)),
                           ((0.5, 0.4), (1.0, 1.0)), ((0.1, 0.2), (1.0, 0.0))]:
        with pytest.raises(ValueError):
            GroundSpace(2, coords=coords, widths=widths)


def test_additive_rejects_empty_and_zero_total():
    with pytest.raises(InvalidCapacityError):
        make_additive([])
    with pytest.raises(InvalidCapacityError):
        make_additive([0.0, 0.0])


def test_sup_capacity_is_one_on_every_nonempty_set():
    c = make_sup_capacity(GroundSpace(4))
    assert c(0) == 0.0
    for mask in range(1, 16):
        assert c(mask) == 1.0


def test_grid_lebesgue_total_mass_and_cell_measure():
    space, c = make_grid_lebesgue(0.0, 2.0, 4)
    assert space.n == 4
    # midpoints of [0, 0.5), [0.5, 1.0), ...
    assert np.allclose(space.coord_array(), [0.25, 0.75, 1.25, 1.75])
    assert c(space.full_mask) == pytest.approx(2.0)
    assert c(0b0011) == pytest.approx(1.0)


def test_distorted_applies_power_to_additive_mass():
    c = make_distorted([0.25, 0.25, 0.5], gamma=0.5)
    assert c(0b011) == pytest.approx(math.sqrt(0.5))
    assert c(0b111) == pytest.approx(1.0)


def test_explicit_table_requires_power_of_two_and_zero_empty():
    with pytest.raises(InvalidCapacityError):
        make_explicit([0.0, 0.5, 1.0])
    with pytest.raises(InvalidCapacityError):
        make_explicit([0.1, 0.5, 0.5, 1.0])  # mu(empty) != 0
    c = make_explicit([0.0, 0.5, 0.5, 1.0])
    assert c(0b01) == 0.5


def test_normalize_sets_unit_mass_on_conditioning_set():
    c = make_additive([1.0, 2.0, 3.0])
    m = normalize(c, 0b011)
    assert m(0b011) == pytest.approx(1.0)
    assert m(0b001) == pytest.approx(1.0 / 3.0)
    # intersection with the conditioning set is implicit
    assert m(0b111) == pytest.approx(1.0)


def test_normalize_rejects_null_set():
    c = make_additive([1.0, 1.0])
    with pytest.raises(DegenerateInputError):
        normalize(c, 0)


def test_chain_measures_match_direct_evaluation():
    rng = np.random.default_rng(3)
    c = make_random_monotone(5, rng)
    order = np.array([3, 0, 4, 1, 2])
    chain = c.chain_measures(order)
    mask = 0
    for k, i in enumerate(order):
        mask |= 1 << int(i)
        assert chain[k + 1] == pytest.approx(c(mask))
    assert chain[0] == 0.0


# --- structural property checks -------------------------------------------


def test_additive_is_modular_submodular_subadditive():
    c = make_additive([0.3, 0.2, 0.5])
    for check in (check_monotone, check_modular, check_submodular,
                  check_subadditive):
        rep = check(c, mode="exhaustive")
        assert rep.holds, rep


def test_concave_distortion_is_submodular_not_modular():
    c = make_distorted([0.2, 0.3, 0.5, 0.1], gamma=0.5)
    assert check_submodular(c, mode="exhaustive").holds
    assert check_subadditive(c, mode="exhaustive").holds
    assert not check_modular(c, mode="exhaustive").holds


def test_square_distortion_yields_submodularity_witness():
    c = make_distorted([0.5, 0.5], gamma=2.0)
    rep = check_submodular(c, mode="exhaustive")
    assert not rep.holds
    a, b = rep.witness
    assert c(a) + c(b) < c(a & b) + c(a | b) - 1e-12


def test_sup_capacity_submodular_exhaustive():
    c = make_sup_capacity(GroundSpace(4))
    assert check_submodular(c, mode="exhaustive").holds


def test_structural_mode_shortcuts():
    c = make_additive([0.5, 0.5])
    rep = check_submodular(c, mode="structural")
    assert rep.holds and rep.mode == "structural"


def test_broken_monotone_table_caught_with_witness():
    c = make_explicit([0.0, 0.8, 0.3, 0.5])  # {0} heavier than {0,1}
    rep = check_monotone(c, mode="exhaustive")
    assert not rep.holds
    small, big = rep.witness
    assert small & big == small
    assert c(small) > c(big)


def test_sampled_mode_is_seed_deterministic():
    # pinned: a seed keeps giving the pairs that one-pair-at-a-time draws gave
    c = make_random_monotone(6, np.random.default_rng(11))
    for check, expected in [
        (check_submodular, (False, "-0.32788127500935693", (3, 6))),
        (check_subadditive, (False, "-0.31467097459251103", (32, 1))),
        (check_modular, (False, "-0.9517205036171176", (20, 40))),
    ]:
        for _ in range(2):
            rep = check(c, mode="sampled", seed=5, trials=2000)
            assert (rep.holds, repr(rep.slack), rep.witness) == expected


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_random_monotone_is_monotone(n, seed):
    c = make_random_monotone(n, np.random.default_rng(seed))
    assert check_monotone(c, mode="exhaustive").holds
    assert c(c.space.full_mask) == pytest.approx(1.0)


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_modular_implies_submodular_implies_subadditive(n, seed):
    c = make_random_monotone(n, np.random.default_rng(seed))
    modular = check_modular(c, mode="exhaustive").holds
    submod = check_submodular(c, mode="exhaustive").holds
    subadd = check_subadditive(c, mode="exhaustive").holds
    if modular:
        assert submod
    if submod:
        assert subadd


# --- oracles for the vectorized value tables and checkers ------------------

INF = math.inf


def _reference_random_monotone(n, rng):
    """The per-mask bit loop: raise each set to each subset one bit smaller."""
    t = rng.uniform(size=2**n)
    t[0] = 0.0
    for mask in range(1, 2**n):
        m = mask
        while m:
            bit = m & -m
            prev = t[mask ^ bit]
            if prev > t[mask]:
                t[mask] = prev
            m ^= bit
    t /= t[-1]
    return t


@pytest.mark.parametrize("n", range(1, 13))
def test_random_monotone_matches_bit_loop(n):
    for seed in (0, 1, 7, 2024):
        c = make_random_monotone(n, np.random.default_rng(seed))
        expected = _reference_random_monotone(n, np.random.default_rng(seed))
        assert c.table.tobytes() == expected.tobytes()


def _margin(prop, c, a, b):
    if prop == "monotone":  # b = a | single extra point
        return c(b) - c(a)
    va, vb = c(a), c(b)
    vi, vu = c(a & b), c(a | b)
    if prop == "submodular":
        return va + vb - vi - vu
    if prop == "subadditive":
        return va + vb - vu
    return 1e-12 - abs(va + vb - vi - vu)


def _random_mask(rng, n):
    return int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)


def _scalar_check(prop, c, mode, seed=0, trials=0):
    """One pair at a time: every pair in order, or the per-pair draws of
    sampled mode.  A NaN margin (inf - inf) fails ``m < worst``."""
    n = c.space.n
    if mode == "exhaustive" and prop == "monotone":
        pairs = [(a, a | 1 << i) for i in range(n) for a in range(2**n)
                 if not (a >> i) & 1]
    elif mode == "exhaustive":
        pairs = [(a, b) for a in range(2**n) for b in range(2**n)]
    else:
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(trials):
            if prop == "monotone":
                a = _random_mask(rng, n)
                free = [i for i in range(n) if not (a >> i) & 1]
                if free:
                    pairs.append((a, a | 1 << free[int(rng.integers(len(free)))]))
            else:
                pairs.append((_random_mask(rng, n), _random_mask(rng, n)))
    worst, witness = INF, None
    for a, b in pairs:
        m = _margin(prop, c, a, b)
        if m < worst:
            worst = m
            if m < -1e-12:
                witness = (a, b)
    return witness is None, repr(float(worst)), witness


def _oracle_capacities():
    rng = np.random.default_rng(21)
    n = 5
    w = rng.uniform(0.1, 1.0, size=n)
    broken = rng.uniform(size=2**n)
    broken[0] = 0.0
    with_inf = rng.uniform(size=2**n)
    with_inf[[0, 5, 12, 30]] = [0.0, INF, INF, INF]
    random = make_random_monotone(n, rng)
    return {
        "random": random,
        "broken": make_explicit(broken),
        "with_inf": make_explicit(with_inf),
        "distorted_convex": make_distorted(w, gamma=2.5),
        "sup": make_sup_capacity(GroundSpace(n)),
        "derived": normalize(random, 0b10111),
    }


@pytest.mark.parametrize("kind", ["random", "broken", "with_inf",
                                  "distorted_convex", "sup", "derived"])
@pytest.mark.parametrize("prop", ["monotone", "submodular", "subadditive", "modular"])
def test_vectorized_checks_match_scalar_loop(kind, prop):
    c = _oracle_capacities()[kind]
    check = {"monotone": check_monotone, "submodular": check_submodular,
             "subadditive": check_subadditive, "modular": check_modular}[prop]
    rep = check(c, mode="exhaustive")
    assert (rep.holds, repr(rep.slack), rep.witness) == _scalar_check(prop, c, "exhaustive")
    for seed, trials in ((0, 0), (3, 1), (4, 3000)):
        rep = check(c, mode="sampled", seed=seed, trials=trials)
        assert (rep.holds, repr(rep.slack), rep.witness) == _scalar_check(
            prop, c, "sampled", seed, trials)


@pytest.mark.parametrize("prop, c", [
    ("monotone", make_random_monotone(17, np.random.default_rng(5))),
    ("monotone", normalize(make_distorted(np.linspace(1.0, 2.0, 21), 1.5), (1 << 21) - 2)),
    ("submodular", make_distorted(np.linspace(0.1, 1.0, 40), 1.5)),
    ("modular", make_sup_capacity(GroundSpace(33))),
], ids=["explicit_n17", "derived_n21", "distorted_n40", "sup_n33"])
def test_sampled_checks_beyond_exhaustive_sizes_match_scalar_loop(prop, c):
    check = {"monotone": check_monotone, "submodular": check_submodular,
             "modular": check_modular}[prop]
    for trials in (0, 300):
        rep = check(c, mode="sampled", seed=8, trials=trials)
        assert (rep.holds, repr(rep.slack), rep.witness) == _scalar_check(
            prop, c, "sampled", 8, trials)


def _capacity_kinds_for_values():
    rng = np.random.default_rng(6)
    w = rng.uniform(0.0, 1.0, size=7)
    w[2] = -0.0  # the singleton {2} must keep its sign, as in __call__
    table = rng.uniform(size=2**7)
    table[0] = 0.0
    table[9] = INF
    distorted = make_distorted(w, gamma=2.3)
    return {
        "additive": make_additive(w),
        "grid": make_grid_lebesgue(0.0, 3.0, 7)[1],
        "distorted": distorted,
        "sup": make_sup_capacity(GroundSpace(7)),
        "explicit": make_explicit(table),
        "derived": normalize(make_additive(w), 0b1101101),
        "derived_distorted": normalize(distorted, 0b0111110),
    }


@pytest.mark.parametrize("kind", ["additive", "grid", "distorted", "sup",
                                  "explicit", "derived", "derived_distorted"])
def test_values_match_per_mask_calls(kind):
    c = _capacity_kinds_for_values()[kind]
    expected = np.array([c(m) for m in range(2**c.space.n)])
    got = c.values()
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()  # bit for bit, signs of zero too


def test_values_are_capped_like_explicit_tables():
    with pytest.raises(DomainError):
        make_sup_capacity(GroundSpace(21)).values()


def test_monotone_violation_next_to_inf_minus_inf_is_found():
    # mu({2}) = 0.6 > mu({0, 2}) = 0.4, while bit 0 also pairs inf with inf
    c = make_explicit([0, 0.1, INF, INF, 0.6, 0.4, INF, INF])
    for mode in ("exhaustive", "sampled"):
        rep = check_monotone(c, mode=mode)
        assert not rep.holds
        assert rep.witness == (4, 5)
        assert rep.slack == pytest.approx(-0.2)


def test_inf_minus_inf_margins_are_skipped():
    c = make_explicit([0, 1, INF, INF])
    for mode in ("exhaustive", "sampled"):
        rep = check_submodular(c, mode=mode)
        assert rep.holds and rep.slack == 0.0
