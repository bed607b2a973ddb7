"""Randomized audits: determinism, replay, shrinking and hypothesis
dropping."""

import hashlib
import math

import numpy as np
import pytest

from capax import capacity, falsifier
from capax.falsifier import (DROPPABLE, SUGENO_SYSTEM_NAMES, THEOREM_ALIASES,
                             THEOREM_IDS, Scenario, _pick, audit, canonical_theorem,
                             hunt_counterexample, is_violation,
                             random_scenario, run_scenario, shrink)
from capax.inequalities import InequalityReport, _report
from capax.scenario import SchemaError
from capax.xreal import DomainError


def test_aliases_resolve_to_known_theorems():
    assert canonical_theorem("2.3") == "carlson_sugeno"
    assert canonical_theorem("3.2") == "carlson_choquet_submodular"
    assert canonical_theorem("jensen_choquet") == "jensen_choquet"
    assert canonical_theorem("carlson_sugeno:dombi") == "carlson_sugeno:dombi"
    with pytest.raises(DomainError):
        canonical_theorem("9.9")


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_scenarios_are_seed_deterministic(tid):
    a = random_scenario(tid, seed=4, trial=17)
    b = random_scenario(tid, seed=4, trial=17)
    assert a == b
    c = random_scenario(tid, seed=4, trial=18)
    assert a != c


def test_scenario_replay_is_stable():
    scn = random_scenario("carlson_choquet_comonotone", seed=2, trial=3)
    r1 = run_scenario(scn)
    r2 = run_scenario(Scenario.from_dict(scn.to_dict()))
    assert r1.lhs == r2.lhs and r1.rhs == r2.rhs and r1.holds == r2.holds


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_generated_scenarios_satisfy_hypotheses(tid):
    ok = 0
    for trial in range(20):
        rep = run_scenario(random_scenario(tid, seed=9, trial=trial))
        assert isinstance(rep, InequalityReport)
        if rep.degenerate is None and rep.hypotheses_pass:
            ok += 1
    assert ok >= 18, ok


def test_audit_counts_and_min_slack():
    s = audit("jensen_choquet", trials=50, seed=123)
    assert s.trials == 50
    assert s.hypothesis_pass == 50
    assert s.violation_count == 0
    assert s.min_slack >= -1e-9


def test_replay_has_no_decoder_of_its_own():
    # scenarios are read by scenario.context_from_specs, as the CLI reads files
    assert not {"space_from_spec", "capacity_from_spec", "subset_from_spec",
                "sample_function"} & set(vars(falsifier))


def test_each_generated_table_is_validated_once(monkeypatch):
    calls = []
    validate = capacity._explicit
    monkeypatch.setattr(capacity, "_explicit", lambda *a: calls.append(1) or validate(*a))
    audit("jensen_choquet", 50, 2024)
    assert len(calls) == 50


@pytest.mark.parametrize("trials", [0, -5])
def test_an_audit_needs_a_trial(trials):
    with pytest.raises(DomainError, match=f"at least one trial, got {trials}"):
        audit("jensen_choquet", trials, 0)


def test_is_violation_tolerances():
    rep = InequalityReport("t", [], 1.0, 1.0 - 1e-12, False, -1e-12)
    assert not is_violation(rep)  # inside relative tolerance
    rep2 = InequalityReport("t", [], 2.0, 1.0, False, -1.0)
    assert is_violation(rep2)
    rep3 = InequalityReport("t", [], 2.0, 1.0, False, -1.0, degenerate="x")
    assert not is_violation(rep3)
    # infinite and NaN sides: the verdict and the violation test read one tolerance
    inf, nan = math.inf, math.nan
    for lhs, rhs, holds in [(inf, 1.0, False), (1.0, inf, True), (inf, inf, True),
                            (1e12 + 1e2, 1e12, True), (1e12 + 1e4, 1e12, False),
                            (nan, 1.0, False), (1.0, nan, False)]:
        rep = _report("t", [], lhs, rhs)
        assert rep.holds is holds, (lhs, rhs)
        # a NaN slack neither holds nor violates
        assert is_violation(rep) is (not holds and not math.isnan(rep.slack)), (lhs, rhs)


def test_hunt_finds_small_chebyshev_counterexample():
    scn = hunt_counterexample("chebyshev_choquet", "comonotone",
                              trials=10_000, seed=5)
    assert scn is not None
    assert scn.space["n"] <= 3
    rep = run_scenario(scn)
    assert not rep.hypotheses_pass  # the dropped hypothesis really fails
    assert is_violation(rep, require_hypotheses=False)


def test_hunt_finds_submodularity_counterexample_for_holder():
    scn = hunt_counterexample("holder_choquet", "submodular",
                              trials=10_000, seed=1)
    assert scn is not None
    rep = run_scenario(scn)
    assert is_violation(rep, require_hypotheses=False)


def test_hunt_rejects_undroppable_hypothesis():
    with pytest.raises(DomainError):
        hunt_counterexample("jensen_choquet", "comonotone", trials=10, seed=0)
    assert ("chebyshev_choquet", "comonotone") in DROPPABLE


def test_shrink_preserves_violation():
    # find an unshrunk violating scenario first
    from capax.falsifier import _unconstrained_scenario
    found = None
    for i in range(5000):
        scn = _unconstrained_scenario("chebyshev_choquet", "comonotone", 77, i)
        if is_violation(run_scenario(scn), require_hypotheses=False):
            found = scn
            break
    assert found is not None
    small = shrink(found)
    assert small.space["n"] <= found.space["n"]
    assert is_violation(run_scenario(small), require_hypotheses=False)


def _violating_scenario():
    for i in range(5000):
        scn = falsifier._unconstrained_scenario("holder_choquet", "submodular", 3, i)
        if is_violation(run_scenario(scn), require_hypotheses=False):
            return scn
    raise AssertionError("no violating scenario")


def test_shrink_lets_unexpected_value_errors_through(monkeypatch):
    scn = _violating_scenario()

    def broken(scenarios):
        raise ValueError("not a schema or domain error")

    # every evaluation, of a stack of candidates or of one, decodes first
    monkeypatch.setattr(falsifier, "decode", broken)
    with pytest.raises(ValueError, match="not a schema or domain error"):
        shrink(scn)


@pytest.mark.parametrize("error", [DomainError, SchemaError])
def test_shrink_skips_candidates_that_fail_validation(monkeypatch, error):
    scn = _violating_scenario()

    def rejects(scenarios):
        raise error("rejected")

    monkeypatch.setattr(falsifier, "decode", rejects)
    assert shrink(scn) is scn


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("theorem, dropped", sorted(DROPPABLE))
def test_hunt_witnesses_replay_as_violations(theorem, dropped, seed):
    w = hunt_counterexample(theorem, dropped, 10_000, seed)
    assert w is not None
    assert is_violation(run_scenario(w), require_hypotheses=False)


def test_pick_draws_like_rng_choice():
    seqs = [["min", "prod", "dombi"], [1.5, 2.0, 3.0], [1.0, 1.5, 2.0, 3.0],
            ["a"], list(range(7))]
    for seed in range(1000):
        r1, r2 = np.random.default_rng([seed, 5]), np.random.default_rng([seed, 5])
        for seq in seqs:
            assert _pick(r1, seq) == r2.choice(seq)
        assert r1.integers(2**62) == r2.integers(2**62)  # same stream position


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_all_theorem_audits_clean_smoke(tid):
    s = audit(tid, trials=25, seed=31)
    assert s.violation_count == 0


def test_alias_table_covers_numbered_statements():
    assert set(THEOREM_ALIASES) == {"2.1", "2.2", "2.3", "3.1", "3.2", "3.3"}
    for v in THEOREM_ALIASES.values():
        assert v in THEOREM_IDS


AUDIT_IDS = THEOREM_IDS + [f"carlson_sugeno:{s}" for s in SUGENO_SYSTEM_NAMES]


def test_audit_ids_are_the_pinned_audits():
    # a new theorem record cannot go without a pinned seed-2024 summary
    from test_acceptance import AUDIT_SUMMARIES_2024
    assert len(AUDIT_IDS) == 19
    assert set(AUDIT_IDS) == set(AUDIT_SUMMARIES_2024)


def _sha256_of_lines(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_scenario_stream_is_pinned():
    # every generator reads its trial stream in one fixed order: the
    # scenarios (and so the audit summaries) must not move in the last bit
    digest = _sha256_of_lines(repr(random_scenario(tid, seed, i).to_dict())
                              for tid in AUDIT_IDS for seed in (2024, 7)
                              for i in range(60))
    assert digest == ("f30b342afcaa6d5b846b819ea571aaa5"
                      "72c27510517ab253b1d469ad107f9153")


def test_unconstrained_scenario_stream_is_pinned():
    digest = _sha256_of_lines(
        repr(falsifier._unconstrained_scenario(theorem, dropped, 2024, i).to_dict())
        for theorem, dropped in sorted(DROPPABLE) for i in range(60))
    assert digest == ("0d6ce9f5e7fc07fd0a295e954948dccf"
                      "dba5339bded2d4210fd32de263ba1a3a")


def test_hunts_keep_the_named_system():
    scn = falsifier._unconstrained_scenario("carlson_sugeno:dombi",
                                            "positive_dependence", 1, 0)
    assert scn.params["system"] == "dombi"
    w = hunt_counterexample("carlson_sugeno:dombi", "positive_dependence", 10_000, 1)
    assert w is not None and w.theorem == "carlson_sugeno:dombi"
    assert run_scenario(w).theorem == "carlson_sugeno[dombi]"


@pytest.mark.parametrize("tid", ["jensen_choquet:nonsense", "carlson_sugeno:bogus",
                                 "carlson_sugeno:", "3.1:min", "2.3:dombi"])
def test_theorem_id_suffixes_must_name_a_system(tid):
    with pytest.raises(DomainError, match="choose from|takes no"):
        canonical_theorem(tid)
    with pytest.raises(DomainError):
        audit(tid, 5, 0)


def test_audit_chunks_give_the_per_trial_summary():
    # several chunks, the last one partly filled
    trials = 333
    s = audit("carlson_sugeno", trials, 3)
    hyp, slack, bad = 0, math.inf, []
    for i in range(trials):
        scn = random_scenario("carlson_sugeno", 3, i)
        rep = run_scenario(scn)
        if rep.degenerate is None and rep.hypotheses_pass:
            hyp += 1
            slack = min(slack, rep.slack)
            if is_violation(rep):
                bad.append(scn)
    assert (s.hypothesis_pass, repr(s.min_slack), s.violations) == (hyp, repr(slack), bad)


def test_a_failing_stack_raises_its_first_failing_trial(monkeypatch):
    scns = [random_scenario("jensen_choquet", 2, i) for i in range(6)]
    scns[4].functions["f"][0] = -1.0
    scns[2].subsets["A"] = [99]
    with pytest.raises(SchemaError, match="subset index 99"):
        falsifier.run_stack(scns)
    with pytest.raises(SchemaError, match="function values: number must be nonnegative"):
        falsifier.run_stack(scns[3:])


def _hunt_one_by_one(theorem, dropped, trials, seed):
    """A hunt and its shrink with every scenario replayed on its own."""
    for i in range(trials):
        scn = falsifier._unconstrained_scenario(theorem, dropped, seed, i)
        if is_violation(run_scenario(scn), require_hypotheses=False):
            break
    else:
        return None
    for _ in range(falsifier.MAX_SHRINK_STEPS):
        for cand in falsifier._shrink_candidates(scn):
            if is_violation(run_scenario(cand), require_hypotheses=False):
                scn = cand
                break
        else:
            return scn
    return scn


@pytest.mark.parametrize("theorem, dropped", sorted(DROPPABLE))
def test_batched_hunts_find_the_one_by_one_witness(theorem, dropped):
    for seed in (1, 2):
        assert (hunt_counterexample(theorem, dropped, 10_000, seed)
                == _hunt_one_by_one(theorem, dropped, 10_000, seed))
