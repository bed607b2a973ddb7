"""Capacity builders, bitmask helpers and structural property checks."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capax import (GroundSpace, InvalidCapacityError, check_modular,
                   check_monotone, check_subadditive, check_submodular,
                   indices_mask, make_additive, make_distorted, make_explicit,
                   make_grid_lebesgue, make_random_monotone, make_sup_capacity,
                   mask_indices, normalize)
import oracles
from capax import capacity
from capax.capacity import CapacityStack, mask_bools
from capax.xreal import DegenerateInputError, DomainError


def test_mask_helpers_roundtrip():
    assert mask_indices(0b1011) == [0, 1, 3]
    assert indices_mask([0, 1, 3]) == 0b1011
    assert mask_indices(0) == []
    assert indices_mask([]) == 0


def test_indices_mask_matches_a_loop_of_shifts():
    rng = np.random.default_rng(5)
    for _ in range(200):
        ix = rng.integers(0, int(rng.integers(1, 300)), size=int(rng.integers(0, 40))).tolist()
        m = 0
        for i in ix:  # unsorted, with repeats, sometimes empty
            m |= 1 << i
        assert indices_mask(ix) == m
    with pytest.raises(ValueError):
        indices_mask([3, -1])


def test_indices_mask_is_linear_in_the_index_count():
    t0 = time.perf_counter()
    assert indices_mask(range(10**6)) == (1 << 10**6) - 1
    assert time.perf_counter() - t0 < 1.0


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
    # level ranks: R[i] holds the points of rank i or more, so R[5] is
    # empty and S[0] the whole space
    rf = rng.integers(-1, 5, size=n)
    rg = rng.integers(0, 4, size=n)
    R = rf >= np.arange(6)[:, None]
    S = rg >= np.arange(4)[:, None]
    meet = CapacityStack([c]).level_meet(rf[None], [6], rg[None], [4])[0]
    assert meet.shape == (6, 4)
    for i in range(6):
        for j in range(4):
            assert meet[i, j] == pytest.approx(
                oracles.measure(c, indices_mask(np.flatnonzero(R[i] & S[j]))), abs=1e-15)
    for row in R:
        assert c.measure_bools(row) == pytest.approx(
            oracles.measure(c, indices_mask(np.flatnonzero(row))), abs=1e-15)


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


def test_constructors_copy_their_arrays_and_hand_out_read_only_ones():
    t = np.array([0.0, 0.3, 0.5, 1.0])
    c = make_explicit(t)
    t[0] = 0.7
    assert c(0) == 0.0
    assert check_monotone(c).holds
    assert not c.values().flags.writeable
    for make in (make_additive, lambda w: make_distorted(w, 0.5)):
        w = np.array([0.5, 0.5])
        d = make(w)
        w[:] = -1.0
        assert d(0b11) == 1.0
        assert not d.weights.flags.writeable
    _, grid = make_grid_lebesgue(0.0, 1.0, 4)
    assert not grid.weights.flags.writeable


def test_ground_space_coordinate_checks():
    GroundSpace(3, coords=(0.0, 0.5, 2.0), widths=(1.0, 1.0, 1.0))
    for coords, widths in [((-0.1, 0.5), (1.0, 1.0)), ((0.5, 0.5), (1.0, 1.0)),
                           ((0.5, 0.4), (1.0, 1.0)), ((0.1, 0.2), (1.0, 0.0))]:
        with pytest.raises(ValueError):
            GroundSpace(2, coords=coords, widths=widths)


def test_ground_space_holds_read_only_coordinate_arrays():
    coords, widths = [0.1, 0.25, 0.4], [0.5, 0.5, 1.0]
    spaces = [GroundSpace(3, coords=tuple(coords), widths=tuple(widths)),
              GroundSpace(3, coords=coords, widths=widths),
              GroundSpace(3, coords=np.array(coords), widths=np.array(widths))]
    for space in spaces:
        for a, given_values in ((space.coords, coords), (space.widths, widths)):
            assert type(a) is np.ndarray and a.dtype == float
            assert a.tolist() == given_values
        assert space.coord_array() is space.coords
        with pytest.raises(ValueError):
            space.coords[0] = 0.0
        with pytest.raises(ValueError):
            space.widths[0] = 1.0
    # the coordinates take no part in comparison or hashing
    assert len({*spaces, GroundSpace(3)}) == 1
    c = np.array(coords)
    space = GroundSpace(3, coords=c, widths=widths)
    c[0] = 0.2  # the space holds its own copy
    assert space.coords[0] == 0.1
    for bad in ([[0.1, 0.2], [0.1, 0.2]], 0.5):
        with pytest.raises(ValueError, match="length must equal n"):
            GroundSpace(2, coords=bad, widths=[1.0, 1.0])


def test_a_grid_holds_its_points_as_arrays():
    space, mu = make_grid_lebesgue(0.0, 1.0, 10**5)
    assert type(space.coords) is np.ndarray and type(space.widths) is np.ndarray
    assert space.coords.shape == space.widths.shape == (10**5,)
    assert not space.coords.flags.writeable
    assert mu.weights is space.widths


def test_auto_mode_follows_the_pair_count_rule():
    for n in range(1, 25):
        for c in (make_additive([1.0] * n), make_distorted([1.0] * n, 2.0)):
            for prop, check in (("monotone", check_monotone),
                                ("submodular", check_submodular)):
                pairs = n * 2 ** (n - 1) if prop == "monotone" else 4**n
                if pairs <= capacity.EXHAUSTIVE_PAIR_LIMIT:
                    mode = "exhaustive"
                elif c.structural(prop) is not None:
                    mode = "structural"
                else:
                    mode = "sampled"
                assert check(c, trials=8).mode == mode, (n, c.kind, prop)


def test_forced_exhaustive_mode_above_the_pair_limit_raises():
    assert check_monotone(make_additive([1.0] * 16), mode="exhaustive").holds
    assert check_submodular(make_additive([1.0] * 9), mode="exhaustive").holds
    for check, c in ((check_monotone, make_additive([1.0] * 17)),
                     (check_submodular, make_additive([1.0] * 10)),
                     (check_submodular, make_grid_lebesgue(0.0, 1.0, 10**5)[1])):
        with pytest.raises(DomainError, match="pair count too large"):
            check(c, mode="exhaustive")


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


@pytest.mark.parametrize("table, shape", [
    ([[0.0, 1.0], [1.0, 1.0]], "(2, 2)"), (1.0, "()"), ([], "(0,)")])
def test_explicit_table_must_be_a_nonempty_row(table, shape):
    with pytest.raises(InvalidCapacityError, match=re.escape(f"got shape {shape}")):
        make_explicit(table)


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
        assert chain[k + 1] == pytest.approx(oracles.measure(c, mask))
    assert chain[0] == 0.0


def _derived_chain_loop(c, order):
    """The per-prefix evaluation derived chain_measures replaced: one
    measure per prefix mask."""
    out = np.zeros(len(order) + 1)
    m = 0
    for j, i in enumerate(order):
        m |= 1 << int(i)
        out[j + 1] = oracles.measure(c, m)
    return out


#: a weighted base's chain sums in chain order, not index order, which
#: can move the last bit (its powers follow the one rule, as measures do)
DERIVED_CHAIN_RTOL = 1e-12


@pytest.mark.parametrize("kind", ["derived", "derived_additive", "sup",
                                  "grid", "distorted", "twice"])
def test_derived_chain_measures_match_per_prefix_calls(kind):
    rng = np.random.default_rng(12)
    for _ in range(20):
        caps = _capacity_of_each_kind(rng)
        if kind in ("derived", "derived_additive"):
            c = caps[kind]
        elif kind == "twice":
            c = normalize(caps["derived"], 0b00101)
        else:
            c = normalize(caps[kind], int(rng.integers(1, 32)))
        order = rng.permutation(c.space.n)
        for stop in (0, 1, 3, c.space.n):
            got = c.chain_measures(order[:stop])
            want = _derived_chain_loop(c, order[:stop])
            if kind in ("derived", "sup", "twice"):  # table lookups: exact
                assert got.tolist() == want.tolist()
            else:
                np.testing.assert_allclose(got, want, rtol=DERIVED_CHAIN_RTOL,
                                           atol=0)


def test_distorted_chains_equal_single_measures_bit_for_bit():
    """Chains and single measures raise gamma by one power rule: in index
    order each prefix of the chain is the measure of that prefix mask, and
    a capacity normalized by its whole space ends its chain at 1.0."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        d = make_distorted(rng.uniform(0.05, 1.0, size=n), float(rng.uniform(0.3, 3.0)))
        whole = normalize(d, d.space.full_mask)
        for c in (d, whole, normalize(d, int(rng.integers(1, 1 << n)))):
            chain = c.chain_measures(np.arange(n)).tolist()
            assert chain == [c((1 << j) - 1) for j in range(n + 1)], (n, c.given)
        assert whole.chain_measures(np.arange(n))[-1] == 1.0


# --- structural property checks -------------------------------------------

CHECKS = {"monotone": check_monotone, "submodular": check_submodular,
          "subadditive": check_subadditive, "modular": check_modular}


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


# (monotone, submodular, subadditive, modular) known by construction, per
# label and gamma; only the distorted capacity (and the derived one, built
# over it) reads gamma
STRUCTURAL = {
    "additive": {g: (True, True, True, True) for g in (0.5, 1.0, 2.0)},
    "grid": {g: (True, True, True, True) for g in (0.5, 1.0, 2.0)},
    "distorted": {0.5: (True, True, True, None), 1.0: (True, True, True, True),
                  2.0: (True, None, None, None)},
    "sup": {g: (True, True, True, None) for g in (0.5, 1.0, 2.0)},
    "explicit": {g: (None, None, None, None) for g in (0.5, 1.0, 2.0)},
    "derived": {g: (None, None, None, None) for g in (0.5, 1.0, 2.0)},
}


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("label", list(STRUCTURAL))
def test_structural_verdicts_per_label_and_gamma(label, gamma):
    w = [0.2, 0.3, 0.1]
    c = {"additive": lambda: make_additive(w),
         "grid": lambda: make_grid_lebesgue(0.0, 1.0, 3)[1],
         "distorted": lambda: make_distorted(w, gamma),
         "sup": lambda: make_sup_capacity(GroundSpace(3)),
         "explicit": lambda: make_explicit([0, .2, .3, .5, .1, .3, .4, .6]),
         "derived": lambda: normalize(make_distorted(w, gamma), 0b011)}[label]()
    assert c.kind == label
    got = tuple(c.structural(p) for p in ("monotone", "submodular", "subadditive", "modular"))
    assert got == STRUCTURAL[label][gamma]


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
    value = oracles.measure
    if prop == "monotone":  # b = a | single extra point
        return value(c, b) - value(c, a)
    va, vb = value(c, a), value(c, b)
    vi, vu = value(c, a & b), value(c, a | b)
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
    check = CHECKS[prop]
    rep = check(c, mode="exhaustive")
    assert (rep.holds, repr(rep.slack), rep.witness) == _scalar_check(prop, c, "exhaustive")
    for seed, trials in ((3, 1), (4, 3000)):
        rep = check(c, mode="sampled", seed=seed, trials=trials)
        assert (rep.holds, repr(rep.slack), rep.witness) == _scalar_check(
            prop, c, "sampled", seed, trials)


def _exhaustive_families(n):
    """Capacities of every kind on n points: monotone and not, with inf
    entries (inf - inf margins), with many tied margins, weighted, sup and
    derived."""
    rng = np.random.default_rng([13, n])
    random = make_random_monotone(n, rng)
    broken = rng.uniform(size=2**n)
    broken[0] = 0.0
    with_inf = broken.copy()
    with_inf[rng.integers(1, 2**n, size=max(1, 2**n // 5))] = INF
    ties = np.round(random.table * 4) / 4  # margins on a grid of 1/4
    ties[-1] = 1.0
    w = rng.uniform(0.1, 1.0, size=n)
    return {
        "random": random,
        "broken": make_explicit(broken),
        "with_inf": make_explicit(with_inf),
        "ties": make_explicit(ties),
        "additive": make_additive(w),
        "distorted_convex": make_distorted(w, gamma=2.5),
        "distorted_concave": make_distorted(w, gamma=0.6),
        "sup": make_sup_capacity(GroundSpace(n)),
        "derived": normalize(random, int(rng.integers(1, 2**n))),
    }


@pytest.mark.parametrize("block_pairs", [capacity._BLOCK_PAIRS, 37])
@pytest.mark.parametrize("prop", list(CHECKS))
def test_exhaustive_checks_match_the_one_pass_oracle(prop, block_pairs, monkeypatch):
    # n >= 8 spans several blocks at the default size; 37 pairs a block
    # puts most rows in a block of their own
    monkeypatch.setattr(capacity, "_BLOCK_PAIRS", block_pairs)
    for n in range(1, 13 if prop == "monotone" else 10):
        for kind, c in _exhaustive_families(n).items():
            rep = CHECKS[prop](c, mode="exhaustive")
            holds, slack, witness = oracles.check_property(prop, c)
            assert (rep.holds, repr(rep.slack), rep.witness) == (
                holds, repr(slack), witness), (n, kind)


def _peak_of_second_call(call):
    """call()'s result and the peak bytes it allocates beyond what was
    live before it, on its second run (first-call allocations aside)."""
    call()
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("prop", ["submodular", "subadditive", "modular"])
def test_exhaustive_pairwise_check_memory_is_bounded(prop):
    # the 4^9 pairs of n = 9 in one pass took 6.3 MB of temporaries
    c = make_random_monotone(9, np.random.default_rng(3))
    assert _peak_of_second_call(lambda: CHECKS[prop](c, mode="exhaustive"))[1] < 1.5e6


def test_sampled_check_of_a_wide_capacity_measures_in_bounded_blocks():
    # 200 trials read 4 x 200 masks of 10^4 points: one read measured at
    # once takes float temporaries of 16 MB each (35 MB of peak in all)
    c = make_distorted(np.linspace(0.1, 1.0, 10**4), 1.5)
    rep, peak = _peak_of_second_call(lambda: check_submodular(c, trials=200))
    assert rep.mode == "sampled" and not rep.holds
    assert peak < 6e6


@pytest.mark.parametrize("prop", list(CHECKS))
@pytest.mark.parametrize("mode", ["exhaustiv", "Sampled", "", None])
def test_unknown_check_mode_is_rejected(prop, mode):
    c = make_random_monotone(4, np.random.default_rng(0))
    with pytest.raises(DomainError, match="mode"):
        CHECKS[prop](c, mode=mode)


@pytest.mark.parametrize("prop", list(CHECKS))
@pytest.mark.parametrize("trials", [0, -1])
def test_sampled_check_needs_a_trial(prop, trials):
    c = make_random_monotone(4, np.random.default_rng(0))
    with pytest.raises(DomainError, match="trial"):
        CHECKS[prop](c, mode="sampled", trials=trials)
    # exhaustive checks draw no trials, whatever the count
    assert CHECKS[prop](c, trials=trials).mode == "exhaustive"


def test_auto_mode_that_samples_needs_a_trial():
    c = make_random_monotone(17, np.random.default_rng(5))
    with pytest.raises(DomainError, match="trial"):
        check_monotone(c, trials=0)


@pytest.mark.parametrize("prop, c", [
    ("monotone", make_random_monotone(17, np.random.default_rng(5))),
    ("monotone", normalize(make_distorted(np.linspace(1.0, 2.0, 21), 1.5), (1 << 21) - 2)),
    ("submodular", normalize(make_distorted(np.linspace(1.0, 2.0, 21), 0.5), (1 << 21) - 6)),
    ("submodular", make_distorted(np.linspace(0.1, 1.0, 24), 1.5)),
    ("submodular", make_distorted(np.linspace(0.1, 1.0, 40), 1.5)),
    ("modular", make_sup_capacity(GroundSpace(33))),
], ids=["explicit_n17", "derived_n21", "derived_submodular_n21", "distorted_n24",
        "distorted_n40", "sup_n33"])
def test_sampled_checks_beyond_exhaustive_sizes_match_scalar_loop(prop, c):
    check = CHECKS[prop]
    for trials in (1, 300):
        rep = check(c, mode="sampled", seed=8, trials=trials)
        assert (rep.holds, repr(rep.slack), rep.witness) == _scalar_check(
            prop, c, "sampled", 8, trials)


def _capacity_kinds_for_values(n=7):
    """Every family on n points, with a -0.0 weight, infinite table
    entries (tables only up to n = 20) and derived of derived."""
    rng = np.random.default_rng(6)
    full = (1 << n) - 1
    w = rng.uniform(0.0, 1.0, size=n)
    w[2] = -0.0  # the singleton {2} must keep its sign, as in the oracle
    distorted = make_distorted(w, gamma=2.3)
    kinds = {
        "additive": make_additive(w),
        "grid": make_grid_lebesgue(0.0, 3.0, n)[1],
        "distorted": distorted,
        "sup": make_sup_capacity(GroundSpace(n)),
        "derived": normalize(make_additive(w), full ^ 0b0010010),
        "derived_distorted": normalize(distorted, full ^ 0b1000001),
        "derived_of_derived": normalize(normalize(distorted, full ^ 0b1000001), full ^ 0b100),
    }
    if n <= capacity.MAX_EXPLICIT_N:
        table = rng.uniform(size=2**n)
        table[0] = 0.0
        table[9] = INF
        kinds["explicit"] = make_explicit(table)
        kinds["derived_of_derived_explicit"] = normalize(
            normalize(kinds["explicit"], full ^ 0b0010010), full ^ 0b0000100)
    return kinds


@pytest.mark.parametrize("kind", ["additive", "grid", "distorted", "sup",
                                  "explicit", "derived", "derived_distorted",
                                  "derived_of_derived", "derived_of_derived_explicit"])
def test_values_match_per_mask_calls(kind):
    c = _capacity_kinds_for_values()[kind]
    expected = np.array([oracles.measure(c, m) for m in range(2**c.space.n)])
    got = c.values()
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()  # bit for bit, signs of zero too


@pytest.mark.parametrize("n", [7, 40, 70])  # 40 and 70: subset_rows' int64 and Python-int paths
def test_single_measures_match_the_kind_switched_oracle(n):
    rng = np.random.default_rng(n)
    masks = [0, 0b100, (1 << n) - 1, *(int.from_bytes(rng.bytes(16), "little") for _ in range(30))]
    for kind, c in _capacity_kinds_for_values(n).items():
        for m in masks:
            want = np.float64(oracles.measure(c, m)).tobytes()
            assert np.float64(c(m)).tobytes() == want, (kind, m)
            assert np.float64(c.measure_bools(mask_bools(m, n))).tobytes() == want, (kind, m)


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


def test_sampled_check_of_few_trials_reads_masks_one_by_one():
    # 100 trials read 400 masks: far fewer than the 2^20-entry value
    # table, so the masks are measured one by one, to the same numbers
    c = make_distorted(np.linspace(0.1, 1, 20), 1.5)
    rep = check_submodular(c, trials=100)
    assert rep.mode == "sampled"
    assert (repr(rep.slack), rep.witness) == ("-6.395224734662595", (230535, 867160))


@pytest.mark.parametrize("prop", ["monotone", "submodular", "subadditive", "modular"])
def test_sampled_checks_agree_with_and_without_the_value_table(prop):
    from capax.capacity import _sampled_pairs, _worst_pair
    c = make_distorted(np.random.default_rng(2).uniform(0.1, 1.0, size=14), 1.7)
    check = CHECKS[prop]
    got = check(c, mode="sampled", seed=4, trials=500)  # 2^14 > masks read
    a, b = _sampled_pairs(prop, 14, np.random.default_rng(4), 500)
    slack, witness = _worst_pair(prop, c.values().__getitem__, a, b)
    assert (repr(got.slack), got.witness) == (repr(slack), witness)
