"""Randomized audits: determinism, replay, shrinking and hypothesis
dropping."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

import oracles
from capax import capacity, falsifier, scenario
from capax.falsifier import (DROPPABLE, SUGENO_SYSTEM_NAMES, THEOREM_ALIASES,
                             THEOREM_IDS, Scenario, Theorem, _pick, audit, canonical_theorem,
                             hunt_counterexample, is_violation,
                             random_scenario, run_scenario, shrink)
from capax.inequalities import HypothesisCheck, InequalityReport, _report
from capax.scenario import SchemaError
from capax.xreal import INF, DomainError


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


def test_audit_skips_degenerate_and_hypothesis_failing_trials(monkeypatch):
    def gen(rng, n, system, out):
        out.space(2)
        out.capacity("additive", np.array([0.5, 0.5]))
        out.values(f=np.array([0.1, 0.2]))
        out.params.append({"draw": float(rng.uniform())})

    fails = [HypothesisCheck("h", False)]
    crafted = [_report("stub", [], math.nan, math.nan, degenerate="zero"),
               _report("stub", fails, 2.0, 1.0),  # would violate, but a hypothesis fails
               _report("stub", [], 1.5, 1.0),  # violates
               _report("stub", [], 0.5, 1.0),  # holds
               _report("stub", [], 0.0, INF),  # holds with an infinite slack
               _report("stub", fails, 9.0, 1.0)]
    reports = iter(crafted)
    monkeypatch.setitem(falsifier.THEOREMS, "stub",
                        Theorem(gen, lambda st: [next(reports) for _ in st.params]))
    s = audit("stub", trials=len(crafted), seed=5)
    assert (s.trials, s.hypothesis_pass, s.violation_count) == (6, 3, 1)
    assert s.violations == [random_scenario("stub", 5, 2)]
    assert s.min_slack == -0.5  # the infinite slack is left out
    reports = iter(crafted[:2])
    s = audit("stub", trials=2, seed=5)
    assert (s.hypothesis_pass, s.violations, math.isnan(s.min_slack)) == (0, [], True)


def test_a_replayed_scenario_with_functions_needs_a_capacity():
    scn = random_scenario("jensen_choquet", 2024, 0)
    scn.capacity = None
    with pytest.raises(SchemaError, match="needs a capacity"):
        run_scenario(scn)
    # a grid space's own capacity still applies
    grid = Scenario("jensen_choquet", 0, {"grid": {"a": 0, "b": 1, "steps": 4}}, None,
                    {"f": [0.1, 0.4, 0.2, 0.3]}, {"A": [0, 2, 3]}, {"exponent": 2.0})
    spelled = dataclasses.replace(grid, capacity={"type": "grid"})
    assert repr(run_scenario(grid)) == repr(run_scenario(spelled))


def test_replay_has_no_decoder_of_its_own():
    # scenarios are read by scenario.context_from_specs, as the CLI reads files
    assert not {"space_from_spec", "capacity_from_spec", "subset_from_spec",
                "sample_function"} & set(vars(falsifier))


def test_coordinates_are_drawn_again_until_distinct():
    draws = iter([np.array([0.5, 0.2, 0.5]), np.array([0.7, 0.2, 0.5])])

    class Rng:  # its first draw repeats a coordinate
        def uniform(self, low, high, size):
            assert (low, high, size) == (0.02, 1.0, 3)
            return next(draws)

    chunk = falsifier.Chunk("shilkret_example", 0)
    falsifier._coord_space(Rng(), 3, chunk)
    assert chunk.n == [3] and chunk.coords[0].tolist() == [0.2, 0.5, 0.7]


def test_each_generated_table_is_validated_once(monkeypatch):
    # a chunk's stack checks its tables as rows of one array, and no table
    # is checked again through a replay's one-scenario reader
    rows, singles = [], []
    validate, single = falsifier.explicit_rows, capacity._explicit
    for module in (falsifier, scenario):
        monkeypatch.setattr(module, "explicit_rows",
                            lambda t, lengths, *a: rows.extend(lengths) or validate(t, lengths, *a))
    monkeypatch.setattr(capacity, "_explicit", lambda *a: singles.append(1) or single(*a))
    audit("jensen_choquet", 50, 2024)
    assert len(rows) == 50 and not singles


@pytest.mark.parametrize("trials", [0, -5])
def test_an_audit_needs_a_trial(trials):
    with pytest.raises(DomainError, match=f"at least one trial, got {trials}"):
        audit("jensen_choquet", trials, 0)


@pytest.mark.parametrize("trials", [0, -5])
def test_a_hunt_needs_a_trial(trials):
    # a hunt of no trials found nothing because it looked at nothing
    with pytest.raises(DomainError, match=f"^a hunt needs at least one trial, got {trials}$"):
        hunt_counterexample("3.1", "comonotone", trials, 1)
    # the theorem and the dropped hypothesis are checked first
    with pytest.raises(DomainError, match="unknown theorem"):
        hunt_counterexample("no_such_theorem", "comonotone", trials, 1)
    with pytest.raises(DomainError, match="unknown droppable hypothesis"):
        hunt_counterexample("3.1", "no_such_hypothesis", trials, 1)


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


def _violating_chunk(theorem, dropped, seed):
    """A chunk of one trial: the first unshrunk violating one."""
    for words in falsifier.trial_words(seed, 0, 5000):
        chunk = falsifier.Chunk(theorem, seed, dropped)
        chunk.draw(words)
        if is_violation(run_scenario(chunk[0]), require_hypotheses=False):
            return chunk
    raise AssertionError("no violating trial")


def test_shrink_preserves_violation():
    chunk = _violating_chunk("chebyshev_choquet", "comonotone", 77)
    small = shrink(chunk, 0)
    assert small.space["n"] <= chunk[0].space["n"]
    assert is_violation(run_scenario(small), require_hypotheses=False)


def _decoding_fails(monkeypatch, error):
    """Every evaluation, of a stack of candidates or of one, builds its
    stack first: make both builders (``Chunk.stack``, ``decode``) raise
    ``error``."""
    def fails(*args):
        raise error("rejected")
    monkeypatch.setattr(falsifier.Chunk, "stack", fails)
    monkeypatch.setattr(falsifier, "decode", fails)


def test_shrink_lets_unexpected_value_errors_through(monkeypatch):
    chunk = _violating_chunk("holder_choquet", "submodular", 3)
    _decoding_fails(monkeypatch, ValueError)
    with pytest.raises(ValueError, match="rejected"):
        shrink(chunk, 0)


@pytest.mark.parametrize("error", [DomainError, SchemaError])
def test_shrink_skips_candidates_that_fail_validation(monkeypatch, error):
    chunk = _violating_chunk("holder_choquet", "submodular", 3)
    _decoding_fails(monkeypatch, error)
    assert shrink(chunk, 0) == chunk[0]


def test_a_stacking_fault_is_raised_by_hunts_and_shrink(monkeypatch):
    # a runner that fails on every stack of more than one row: each row
    # replays cleanly alone, so no row explains the failure
    theorem, dropped = "holder_choquet", "submodular"
    chunk = _violating_chunk(theorem, dropped, 3)
    record = falsifier.THEOREMS[theorem]

    def run(st):
        if len(st.params) > 1:
            raise RuntimeError("stacking fault")
        return record.run(st)
    monkeypatch.setitem(falsifier.THEOREMS, theorem, dataclasses.replace(record, run=run))
    with pytest.raises(RuntimeError, match="stacking fault"):
        hunt_counterexample(theorem, dropped, 10_000, 3)
    with pytest.raises(RuntimeError, match="stacking fault"):
        shrink(chunk, 0)


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


# seeds of one to five 32-bit words: 2**96 + 7 makes a key of more words
# than SeedSequence's pool of four, which runs its extra mixing loop
HASH_SEEDS = [0, 1, 2024, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 7, 2**130 + 11]
HASH_STARTS = [0, 2**32 - 300, 2**40]  # blocks over 0, 2**32 - 1, 2**32 and 2**40


def _keys():
    """(seed, first, last + 1) blocks of over 10**5 trial keys in all."""
    seeds = HASH_SEEDS + np.random.default_rng(30).integers(2**63, size=16).tolist()
    for seed in seeds:
        for start in HASH_STARTS:
            yield seed, start, start + (10_000 if start == 0 and seed in HASH_SEEDS else 600)


def _seed_sequence_words(seed, start, stop):
    return np.array([np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
                     for i in range(start, stop)])


def test_trial_words_are_seed_sequence_states():
    keys = 0
    for seed, start, stop in _keys():
        words = falsifier.trial_words(seed, start, stop)
        assert words.dtype == np.uint64 and words.shape == (stop - start, 4)
        np.testing.assert_array_equal(words, _seed_sequence_words(seed, start, stop))
        keys += stop - start
    assert keys >= 10**5


def test_trial_words_seed_pcg64_as_default_rng_does():
    for seed, start, _ in _keys():
        for i, words in enumerate(falsifier.trial_words(seed, start, start + 3), start):
            ours = np.random.Generator(np.random.PCG64(falsifier._Words(words)))
            ref = np.random.default_rng([seed, i])
            assert ours.bit_generator.state == ref.bit_generator.state
            for draw in (lambda r: r.integers(2, 9, size=5), lambda r: r.integers(2**62),
                         lambda r: r.uniform(0.05, 1.0, size=7), lambda r: r.permutation(8),
                         lambda r: r.random(3)):
                np.testing.assert_array_equal(draw(ours), draw(ref))


def test_trial_words_of_a_later_start_are_rows_of_the_earlier_block():
    for seed in HASH_SEEDS:
        block = falsifier.trial_words(seed, 0, 3000)
        for start, stop in [(1, 2), (1023, 2049), (2999, 3000)]:
            np.testing.assert_array_equal(falsifier.trial_words(seed, start, stop),
                                          block[start:stop])
        # a block across 2**32, where the keys gain a word, is its keys one by one
        np.testing.assert_array_equal(
            falsifier.trial_words(seed, 2**32 - 3, 2**32 + 3),
            np.concatenate([falsifier.trial_words(seed, i, i + 1)
                            for i in range(2**32 - 3, 2**32 + 3)]))


BAD_KEYS = [-1, -3, 1.5, 2.0, True, False, np.True_, "7", None]


@pytest.mark.parametrize("bad", BAD_KEYS, ids=repr)
def test_audit_and_hunt_reject_a_bad_seed(bad):
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        audit("2.1", 2, bad)
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        hunt_counterexample("chebyshev_choquet", "comonotone", 10, bad)


@pytest.mark.parametrize("bad", BAD_KEYS, ids=repr)
def test_random_scenario_rejects_a_bad_seed_or_trial(bad):
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        random_scenario("2.1", bad, 0)
    with pytest.raises(DomainError, match="trial index must be a non-negative integer"):
        random_scenario("2.1", 2024, bad)


def test_numpy_integer_seeds_and_trials_are_ints():
    # the same draws, and a seed that renders as JSON
    scn = random_scenario("2.3", np.uint64(2024), np.int32(5))
    assert scn == random_scenario("2.3", 2024, 5) and type(scn.seed) is int
    json.dumps(scn.to_dict())
    summary = audit("2.1", 30, np.int64(7))
    assert summary == audit("2.1", 30, 7) and type(summary.seed) is int
    w = hunt_counterexample("2.2", "positive_dependence", 200, np.uint8(3))
    assert w == hunt_counterexample("2.2", "positive_dependence", 200, 3) and type(w.seed) is int


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


def _hunt_one_by_one(theorem, dropped, trials, seed):
    """A hunt and its shrink with every scenario replayed on its own."""
    for i in range(trials):
        scn = falsifier._unconstrained_scenario(theorem, dropped, seed, i)
        if is_violation(run_scenario(scn), require_hypotheses=False):
            break
    else:
        return None
    for _ in range(falsifier.MAX_SHRINK_STEPS):
        for cand in oracles.shrink_candidates(scn):
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


# ---------------------------------------------------------------------------
# chunks: trials drawn straight into the decoder's columns


def _streams():
    """(theorem, dropped) of every audit id and every droppable generator."""
    return [(tid, None) for tid in AUDIT_IDS] + sorted(DROPPABLE)


def _cut(theorem, dropped, seed, trials, every):
    """The trials drawn into chunks of ``every`` trials."""
    for start in range(0, trials, every):
        chunk = falsifier.Chunk(theorem, seed, dropped)
        for words in falsifier.trial_words(seed, start, min(start + every, trials)):
            chunk.draw(words)
        yield chunk


def _chunk_reports(chunks):
    return [repr(rep) for chunk in chunks for rep in falsifier._reports(chunk)]


@pytest.mark.parametrize("seed", [2024, 7])
@pytest.mark.parametrize("theorem, dropped", _streams())
def test_chunk_written_stacks_equal_dict_decoded_stacks(theorem, dropped, seed):
    trials = 300
    chunks = list(falsifier._chunks(theorem, seed, trials, dropped))
    rendered = [chunk[j] for chunk in chunks for j in range(len(chunk))]
    # each rendered row is the scenario its trial draws alone
    alone = (random_scenario(theorem, seed, i) if dropped is None
             else falsifier._unconstrained_scenario(theorem, dropped, seed, i)
             for i in range(trials))
    assert [s.to_dict() for s in rendered] == [s.to_dict() for s in alone]
    # the chunks' reports are those of the rendered dicts replayed one by one
    want = [repr(run_scenario(s)) for s in rendered]
    assert _chunk_reports(chunks) == want
    # and do not depend on where the chunks end
    for every in (1, 7):
        assert _chunk_reports(_cut(theorem, dropped, seed, trials, every)) == want


def _spoiled(monkeypatch, theorem, spoil):
    """The theorem's generator, spoiling each trial of 5 points."""
    record = falsifier.THEOREMS[theorem]

    def generate(rng, n, system, out):
        record.generate(rng, n, system, out)
        if n == 5:
            spoil(out)
    monkeypatch.setitem(falsifier.THEOREMS, theorem, dataclasses.replace(record, generate=generate))


def _error(call, *args):
    with pytest.raises(Exception) as e:
        call(*args)
    return type(e.value), str(e.value)


@pytest.mark.parametrize("theorem, spoil", [
    ("jensen_choquet", lambda out: out.uniforms[5][-1].__setitem__(3, math.nan)),
    ("carlson_choquet_submodular", lambda out: out.fns["g"][-1].__setitem__(2, -0.5)),
])
def test_generated_rows_are_still_checked(monkeypatch, theorem, spoil):
    _spoiled(monkeypatch, theorem, spoil)
    first = next(i for i in range(100)
                 if random_scenario(theorem, 2024, i).space["n"] == 5)
    chunk = next(falsifier._chunks(theorem, 2024, 100))
    assert 0 < first < len(chunk)  # the first failing trial is not the chunk's first
    with pytest.raises(SchemaError):  # the chunk's own stack rejects it
        chunk.stack()
    want = _error(run_scenario, random_scenario(theorem, 2024, first))
    assert want[0] is SchemaError
    assert _error(audit, theorem, 100, 2024) == want


@pytest.mark.parametrize("seed", [2024, 7])
@pytest.mark.parametrize("theorem, dropped", _streams())
def test_shrunk_rows_render_the_dict_shrinkers_candidates(theorem, dropped, seed):
    # rows with explicit tables, coordinates, sup and grid capacities, and
    # rows without functions
    for chunk in falsifier._chunks(theorem, seed, 60, dropped):
        for j in range(len(chunk)):
            shrunk = chunk.shrunk(j)
            assert ([shrunk[i].to_dict() for i in range(len(shrunk))]
                    == [c.to_dict() for c in oracles.shrink_candidates(chunk[j])])


def test_a_violation_counts_only_if_its_hypotheses_hold_unless_told_otherwise():
    rep = _report("stub", [HypothesisCheck("h", False)], 2.0, 1.0)
    assert not is_violation(rep)
    assert is_violation(rep, require_hypotheses=False)


def test_a_hypothesis_that_cannot_be_dropped_is_a_domain_error():
    with pytest.raises(DomainError, match="'comonotone' cannot be dropped for 'jensen_choquet'"):
        falsifier.Chunk("jensen_choquet", 0, "comonotone")


def test_a_row_without_shrink_candidates_is_its_own_witness():
    # an explicit capacity drops no point, and eighths snap to themselves
    chunk = falsifier.Chunk("jensen_choquet", 0)
    chunk.space(2)
    chunk.monotone_table(np.random.default_rng(0), 2)
    chunk.values(f=np.array([0.5, 0.125]))
    chunk.subsets(A=0b11)
    chunk.params.append({"exponent": 2.0})
    assert not chunk.shrunk(0)
    assert shrink(chunk, 0) == chunk[0]
