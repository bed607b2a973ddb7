"""End-to-end acceptance checks, one test per criterion.

Each test asserts the documented tolerances and runtime budgets and
finishes with a single pass line; run with ``pytest -v
tests/test_acceptance.py`` to see one verdict per criterion.
"""

import math
import time

import numpy as np
import pytest

from capax import (GroundSpace, builtin_systems, brute_force_generalized_sugeno,
                   check_chebyshev_condition, check_modular, check_monotone,
                   check_power_condition, check_subadditive, check_submodular,
                   dombi_op, from_formula, generalized_sugeno,
                   lukasiewicz_op, make_additive, make_distorted,
                   make_grid_lebesgue, make_random_monotone, make_sup_capacity,
                   min_op, prod_op, sample_function, sugeno)
from capax.falsifier import audit, hunt_counterexample, run_scenario, is_violation
from capax.inequalities import (carlson_choquet_submodular, impossibility_demo,
                                sharpness_demo)


def _passed(n, label):
    print(f"acceptance criterion {n} ({label}): PASS")


def test_01_classical_carlson_reproduction():
    t0 = time.perf_counter()
    space, cap = make_grid_lebesgue(0.0, 100.0, 100_000)
    f = from_formula(space, "1/(1+x^2)")
    g = from_formula(space, "const:1")
    h = from_formula(space, "x^2")
    rep = carlson_choquet_submodular(f, g, h, None, cap, 2.0)
    elapsed = time.perf_counter() - t0
    target = math.pi / 2
    assert rep.hypotheses_pass
    assert abs(rep.lhs - target) < 0.01 * target
    assert abs(rep.rhs - target) < 0.01 * target
    ratio = rep.rhs / rep.lhs
    assert 1.0 <= ratio <= 1.02
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed(1, f"classical reproduction, ratio {ratio:.6f}, {elapsed:.2f}s")


def test_02_sugeno_landmark():
    t0 = time.perf_counter()
    space, cap = make_grid_lebesgue(0.0, 1.0, 1000)
    value = sugeno(from_formula(space, "x"), cap).value
    elapsed = time.perf_counter() - t0
    assert abs(value - 0.5) <= 5e-4
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passed(2, f"sugeno of identity = {value:.6f}, {elapsed:.2f}s")


# seed-2024 summaries: (trials, hypothesis passes, violations, repr of min_slack)
AUDIT_SUMMARIES_2024 = {
    "jensen_sugeno": (1000, 1000, 0, "-3.3306690738754696e-16"),
    "chebyshev_sugeno": (1000, 1000, 0, "-2.220446049250313e-16"),
    "carlson_sugeno": (1000, 1000, 0, "-1.942890293094024e-16"),
    "carlson_sugeno:min": (1000, 1000, 0, "-5.551115123125783e-17"),
    "carlson_sugeno:product": (1000, 1000, 0, "-1.1102230246251565e-16"),
    "carlson_sugeno:min_prod": (1000, 1000, 0, "-1.1102230246251565e-16"),
    "carlson_sugeno:min_luk": (1000, 1000, 0, "-1.1102230246251565e-16"),
    "carlson_sugeno:dombi": (1000, 1000, 0, "-2.220446049250313e-16"),
    "carlson_sugeno:project_first": (1000, 1000, 0, "0.0"),
    "carlson_sugeno_xu": (1000, 1000, 0, "0.0"),
    "carlson_sugeno_wang": (1000, 1000, 0, "-1.1102230246251565e-16"),
    "shilkret_example": (1000, 1000, 0, "-1.1102230246251565e-16"),
    "lukasiewicz_example": (1000, 1000, 0, "0.0"),
    "carlson_choquet_comonotone": (1000, 1000, 0, "-3.3306690738754696e-16"),
    "carlson_choquet_submodular": (1000, 1000, 0, "-3.3306690738754696e-16"),
    "carlson_choquet_subadditive": (1000, 1000, 0, "0.12153374974823193"),
    "holder_choquet": (1000, 1000, 0, "-1.1102230246251565e-16"),
    "jensen_choquet": (1000, 1000, 0, "-1.1102230246251565e-16"),
    "chebyshev_choquet": (1000, 1000, 0, "-1.1102230246251565e-16"),
}

# carlson_choquet_submodular's min_slack comes from the power
# ``(b g + a h) ** (1 - q)`` in ``inequalities.h_pq_rows``, whose last bit
# depends on the CPU target of numpy's SIMD pow.  The probe
# ``np.full(8, POW_PROBE) ** 0.3`` tells the targets apart; each known
# result maps to the min_slack pinned for it.
POW_PROBE = 3.1310526786688793
SUBMODULAR_MIN_SLACK = {
    "1.4083386962499491": AUDIT_SUMMARIES_2024["carlson_choquet_submodular"][3],  # AVX-512
    "1.4083386962499493": "-2.220446049250313e-16",  # AVX2
}


def test_03_theorem_audits_1000_trials_each():
    theorems = (
        ["jensen_sugeno", "chebyshev_sugeno", "carlson_sugeno"]
        + [f"carlson_sugeno:{s.name}" for s in builtin_systems()]
        + ["carlson_sugeno_xu", "carlson_sugeno_wang",
           "shilkret_example", "lukasiewicz_example",
           "carlson_choquet_comonotone", "carlson_choquet_submodular",
           "carlson_choquet_subadditive",
           "holder_choquet", "jensen_choquet", "chebyshev_choquet"]
    )
    probe = repr(float((np.full(8, POW_PROBE) ** 0.3)[0]))
    assert probe in SUBMODULAR_MIN_SLACK, (
        f"np.full(8, {POW_PROBE!r}) ** 0.3 gives {probe} under this numpy pow "
        f"dispatch, for which no carlson_choquet_submodular min_slack is pinned")
    pinned = dict(AUDIT_SUMMARIES_2024)
    pinned["carlson_choquet_submodular"] = (
        pinned["carlson_choquet_submodular"][:3] + (SUBMODULAR_MIN_SLACK[probe],))
    t0 = time.perf_counter()
    total_violations = 0
    for tid in theorems:
        s = audit(tid, trials=1000, seed=2024)
        assert s.violation_count == 0, (tid, s.violations[:1])
        assert s.hypothesis_pass >= 900, (tid, s.hypothesis_pass)
        # pinned: a refactor must not move any audit, not even in the last bit
        assert (s.trials, s.hypothesis_pass, s.violation_count,
                repr(s.min_slack)) == pinned[tid], tid
        total_violations += s.violation_count
    assert set(theorems) == set(AUDIT_SUMMARIES_2024)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed(3, f"{len(theorems)} audits x 1000 trials, "
               f"{total_violations} violations, {elapsed:.1f}s")


def test_04_oracle_equivalence():
    ops = [min_op(), prod_op(), lukasiewicz_op(), dombi_op()]
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng([811, i])
        n = int(rng.integers(2, 8))
        c = make_random_monotone(n, rng)
        f = sample_function(c.space, rng.uniform(size=n))
        op = ops[i % 4]
        exact = generalized_sugeno(f, c, op=op)
        approx = brute_force_generalized_sugeno(f, c, op=op,
                                                alpha_grid_size=10_000)
        assert exact.exact
        diff = abs(exact.value - approx.value)
        assert diff <= approx.bound, (i, diff, approx.bound)
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed(4, f"200 scenarios, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_05_sharpness_under_sup_capacity():
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng([500, i])
        n = int(rng.integers(2, 8))
        perm = rng.permutation(n)
        fs = []
        for _ in range(3):
            v = np.empty(n)
            v[perm] = np.sort(0.1 + 0.9 * rng.uniform(size=n))
            fs.append(sample_function(GroundSpace(n), v))
        r, s = (float(x) for x in rng.uniform(0.5, 2.5, size=2))
        rep = sharpness_demo(fs[0], fs[1], fs[2], None, r, s)
        assert rep.hypotheses_pass
        assert abs(rep.slack) <= 1e-12, (i, rep.slack)
        worst = max(worst, abs(rep.slack))
    _passed(5, f"50 comonotone triples, worst |slack| {worst:.2e}")


def test_06_no_universal_constant():
    coords = tuple(10.0 ** -k for k in reversed(range(8)))
    space = GroundSpace(8, coords=coords, widths=(1.0,) * 8)
    g = from_formula(space, "const:1")
    h = from_formula(space, "x^2")
    rows = impossibility_demo(g, h)
    required = {row["coord"]: row["required_c"] for row in rows}
    assert required[1e-4] == pytest.approx(100.0, rel=1e-9)
    assert required[1e-6] >= 1e3 * (1 - 1e-12)
    assert required[1e-7] > 1e3
    # strictly increasing as the test point approaches zero
    cs = [required[c] for c in sorted(required, reverse=True)]
    assert all(a < b for a, b in zip(cs, cs[1:]))
    _passed(6, f"required constant reaches {max(cs):.3g} > 1e3")


def test_07_structural_truth_table():
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        w = rng.uniform(0.1, 1.0, size=n)
        additive = make_additive(w)
        _, grid = make_grid_lebesgue(0.0, 1.0, n)
        concave = make_distorted(w, gamma=0.5)
        sup = make_sup_capacity(GroundSpace(n))
        explicit = make_random_monotone(n, rng)
        for c in (additive, grid, concave, sup, explicit):
            assert check_monotone(c, mode="exhaustive").holds
            modular = check_modular(c, mode="exhaustive").holds
            submod = check_submodular(c, mode="exhaustive").holds
            subadd = check_subadditive(c, mode="exhaustive").holds
            if modular:
                assert submod
            if submod:
                assert subadd
        assert check_modular(additive, mode="exhaustive").holds
        assert check_modular(grid, mode="exhaustive").holds
        assert check_submodular(concave, mode="exhaustive").holds
        assert check_submodular(sup, mode="exhaustive").holds
    convex = make_distorted([0.5, 0.5], gamma=2.0)
    rep = check_submodular(convex, mode="exhaustive")
    assert not rep.holds
    assert rep.witness is not None
    a, b = rep.witness
    assert convex(a) + convex(b) < convex(a & b) + convex(a | b)
    _passed(7, f"implication chain verified for n <= 6; "
               f"square-distortion witness {rep.witness}")


def test_08_counterexample_hunt():
    scn = hunt_counterexample("chebyshev_choquet", "comonotone",
                              trials=10_000, seed=5)
    assert scn is not None, "no violation found in 10000 trials"
    assert scn.space["n"] <= 3
    rep = run_scenario(scn)
    assert is_violation(rep, require_hypotheses=False)
    _passed(8, f"minimized witness has {scn.space['n']} points, "
               f"slack {rep.slack:.4f}")


def test_09_operator_conditions():
    for system in builtin_systems():
        cheb = check_chebyshev_condition(system)
        assert cheb.holds_on_grid, (system.name, cheb.violations[:2])
        pw = check_power_condition(system.circ, [1.5, 2.0, 3.0])
        assert pw.holds_on_grid, (system.name, pw.violations[:2])
    _passed(9, "six systems pass both condition samplers")
